"""Sumset divisor arithmetic on finite subsets of N, lunar arithmetic,
k-promotion, headstrong-composition counting, and multisets as set-arrays.

Each public name is imported from the module that owns it on first use
(PEP 562), so ``import sumdiv`` loads no kernel and a command pays only
for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it owns.
_OWNERS = {
    "errors": (
        "CapacityError", "DomainError", "ParseError", "PreconditionError",
    ),
    "sets": (
        "EMPTY", "FiniteSet", "divides", "divisor_count", "divisors",
        "interval", "interval_positive", "is_irreducible", "quotient_max",
        "sumset",
    ),
    "lunar": (
        "LunarNumber", "beta", "beta_inv", "identity", "lunar_add",
        "lunar_divides", "lunar_divisor_count", "lunar_divisors", "lunar_mul",
        "lunar_quotient_max",
    ),
    "promotion": (
        "PromotedFamily", "promote", "promoted_family",
        "verify_promotion_disjointness", "witness_factor",
    ),
    "compositions": (
        "Composition", "bounded_comp_count", "composition_to_divisor",
        "difference_table", "divisor_to_composition", "enumerate_headstrong",
        "f_table", "fib_general", "h_table", "headstrong_by_parts",
        "headstrong_count", "reconstruct_diagonal", "weighted_row_sum",
    ),
    "multiset": (
        "SetArray", "beta_b", "multisum", "setarray_divides",
        "setarray_divisor_count_formula", "setarray_divisors", "star_collapse",
        "to_set_array",
    ),
    "verify": ("VerificationReport", "run_target"),
}
_MODULE_OF = {name: module for module, names in _OWNERS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name or a submodule, imported on first use; a name is then
    kept in the package, so later lookups skip this function."""
    if name in _OWNERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
