"""The package namespace: every public name resolves to its owning module's
object on first use, and each command loads only the modules it runs.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sumdiv

SRC = str(Path(sumdiv.__file__).resolve().parents[1])

# Each module and the public names it owns.
OWNERS = {
    "errors": [
        "BaseMismatchError", "BudgetError", "CapacityError", "DomainError",
        "EmptyOperandError", "ParseError", "PreconditionError",
    ],
    "sets": [
        "EMPTY", "FiniteSet", "divides", "divisor_count", "divisors",
        "interval", "interval_positive", "is_irreducible", "quotient_max",
        "sumset",
    ],
    "lunar": [
        "LunarNumber", "beta", "beta_inv", "identity", "lunar_add",
        "lunar_divides", "lunar_divisor_count", "lunar_divisors", "lunar_mul",
        "lunar_quotient_max",
    ],
    "promotion": [
        "Factorization", "PromotedFamily", "promote", "promoted_family",
        "verify_promotion_disjointness", "witness_factor",
    ],
    "compositions": [
        "Composition", "bounded_comp_count", "composition_to_divisor",
        "difference_table", "divisor_to_composition", "enumerate_headstrong",
        "f_table", "fib_general", "h_table", "headstrong_by_parts",
        "headstrong_count", "reconstruct_diagonal", "weighted_row_sum",
    ],
    "multiset": [
        "SetArray", "beta_b", "multisum", "setarray_divides",
        "setarray_divisor_count_formula", "setarray_divisors", "star_collapse",
        "to_set_array",
    ],
    "verify": ["VerificationReport", "run_target"],
}
NAMES = sorted(name for names in OWNERS.values() for name in names)


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that finds sumdiv in src/."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout


def test_namespace():
    assert len(NAMES) == 56
    assert sorted(sumdiv.__all__) == NAMES
    for module, names in OWNERS.items():
        owner = importlib.import_module(f"sumdiv.{module}")
        for name in names:
            assert getattr(sumdiv, name) is getattr(owner, name), name
    with pytest.raises(AttributeError):
        sumdiv.nosuch  # noqa: B018
    # dir lists every name before any is used.
    listed = json.loads(_fresh("import json, sumdiv; print(json.dumps(dir(sumdiv)))"))
    assert set(NAMES) <= set(listed)


def test_submodules_after_a_plain_import():
    code = "import sumdiv\nprint(sumdiv.verify.__name__, sumdiv.lunar.lunar_mul.__module__)"
    assert _fresh(code).split() == ["sumdiv.verify", "sumdiv.lunar"]


BASE = ["cli", "errors", "sets"]
CLI = "sumdiv, sumdiv.cli"

# What a fresh process imports, the argv it then runs through
# sumdiv.cli.main (if any), the sumdiv submodules loaded after that, and
# whether numpy is.
LOADS = [
    ("sumdiv", None, [], False),
    (CLI, None, BASE, False),
    (CLI, ["count", "0,1,3"], BASE, False),
    (CLI, ["lunar", "mul", "169@10", "248@10"], BASE + ["lunar"], False),
    (CLI, ["lunar", "divisors", "1101@2"], BASE + ["lunar"], False),
    (CLI, ["verify", "crleven", "--max-k", "3"], BASE + ["promotion", "verify"], True),
    (
        CLI,
        ["verify", "bases", "--max-k", "3"],
        BASE + ["lunar", "multiset", "promotion", "verify"],
        False,
    ),
]


def test_modules_each_command_loads():
    for imports, argv, modules, numpy in LOADS:
        code = f"import sys, {imports}\n"
        if argv is not None:
            code += f"assert sumdiv.cli.main({argv!r}) == 0\n"
        code += (
            "print(sorted(m[7:] for m in sys.modules if m.startswith('sumdiv.')),"
            " 'numpy' in sys.modules)"
        )
        out = _fresh(code).splitlines()[-1]
        assert out == f"{sorted(modules)!r} {numpy}", (imports, argv)
