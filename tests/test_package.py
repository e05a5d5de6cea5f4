"""The package namespace: every public name resolves to its owning module's
object on first use, and each command loads only the modules it runs.
"""

import importlib
import json
from functools import partial

import pytest

import sumdiv

from .fresh import fresh

# Each module and the public names it owns.
OWNERS = {
    "errors": [
        "CapacityError", "DomainError", "ParseError", "PreconditionError",
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
        "PromotedFamily", "promote", "promoted_family",
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


def test_namespace():
    assert len(NAMES) == 52
    assert sorted(sumdiv.__all__) == NAMES
    for module, names in OWNERS.items():
        owner = importlib.import_module(f"sumdiv.{module}")
        for name in names:
            assert getattr(sumdiv, name) is getattr(owner, name), name
    with pytest.raises(AttributeError):
        sumdiv.nosuch  # noqa: B018
    # dir lists every name before any is used.
    listed = json.loads(fresh("import json, sumdiv; print(json.dumps(dir(sumdiv)))")[0])
    assert set(NAMES) <= set(listed)


def test_submodules_after_a_plain_import():
    code = "import sumdiv\nprint(sumdiv.verify.__name__, sumdiv.lunar.lunar_mul.__module__)"
    assert fresh(code)[0].split() == ["sumdiv.verify", "sumdiv.lunar"]


BASE = ["cli", "errors", "sets"]
CLI = "sumdiv, sumdiv.cli"

# What a fresh process imports, the argv it then runs through
# sumdiv.cli.main (if any), the sumdiv submodules loaded after that, and
# whether numpy and dataclasses are.  numpy imports inspect, which nothing
# else a command runs needs, so inspect is loaded exactly when numpy is.
LOADS = [
    ("sumdiv", None, [], False, False),
    (CLI, None, BASE, False, False),
    (CLI, ["count", "0,1,3"], BASE, False, False),
    (CLI, ["lunar", "mul", "169@10", "248@10"], BASE + ["lunar"], False, False),
    (CLI, ["lunar", "divisors", "1101@2"], BASE + ["lunar"], False, False),
    (CLI, ["verify", "crleven", "--max-k", "3"], BASE + ["promotion", "verify"], True, False),
    (
        CLI,
        ["verify", "bases", "--max-k", "3"],
        BASE + ["lunar", "multiset", "promotion", "verify"],
        False,
        False,
    ),
    (CLI, ["promote", "0,2,3,4,5,6", "6", "0,2,3", "3"], BASE + ["promotion"], False, False),
    (CLI, ["compositions", "5", "--count"], BASE + ["compositions"], False, False),
]


def test_modules_each_command_loads():
    for imports, argv, modules, numpy, dataclasses in LOADS:
        code = f"import sys, {imports}\n"
        if argv is not None:
            code += f"assert sumdiv.cli.main({argv!r}) == 0\n"
        code += (
            "print(sorted(m[7:] for m in sys.modules if m.startswith('sumdiv.')),"
            " *(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')))"
        )
        out = fresh(code)[0].splitlines()[-1]
        assert out == f"{sorted(modules)!r} {numpy} {dataclasses} {numpy}", (imports, argv)


def test_records():
    # Composition is a slotted value class, like FiniteSet.
    c = sumdiv.Composition((3, 1, 2))
    assert c == sumdiv.Composition([3, 1, 2]) and c != sumdiv.Composition((3, 2, 1))
    assert c != (3, 1, 2)
    assert hash(c) == hash(sumdiv.Composition((3, 1, 2)))
    assert repr(c) == "Composition(parts=(3, 1, 2))"
    assert c.parts == (3, 1, 2)
    with pytest.raises(AttributeError):
        c.parts = (6,)
    for bad in ((), (2, 0), (1, -1)):
        with pytest.raises(sumdiv.PreconditionError):
            sumdiv.Composition(bad)

    # PromotedFamily and VerificationReport are NamedTuples.
    a, b = sumdiv.FiniteSet((0, 2, 3, 4, 5, 6)), sumdiv.FiniteSet((0, 2, 3))
    family = sumdiv.promoted_family(a, 6, b)
    assert family._fields == ("divisor", "members")
    members = frozenset({b, sumdiv.FiniteSet((0, 1, 2, 3))})
    assert family == sumdiv.PromotedFamily(b, members) == (b, members)
    assert family.divisor == b and family.members == members
    assert sumdiv.PromotedFamily(b) == (b, frozenset())

    report = sumdiv.run_target("bases", max_k=1)
    assert report._fields == (
        "target", "range", "status", "counterexamples", "details", "elapsed", "meta",
    )
    out = report.to_dict()
    assert out["data"] == {
        "target": "bases",
        "range": report.range,
        "status": "pass",
        "counterexamples": [],
        "details": report.details,
    }
    assert out["meta"] == {"elapsed_seconds": report.elapsed, **report.meta}


def _divisor_count_past_node_budget():
    # A lowered budget stops the search in milliseconds; the cache is
    # cleared so that the count is searched for, not looked up.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sumdiv.sets, "NODE_BUDGET", 1000)
        sumdiv.sets._core_divisor_count.cache_clear()
        sumdiv.divisor_count(sumdiv.interval(12))


_LONG = sumdiv.LunarNumber(2, [1] * 20_000)

# One call past each bound, and one for each kind of refusal that used to
# have a class of its own, with the one class it raises.
REFUSALS = {
    "interval(64)": (sumdiv.CapacityError, partial(sumdiv.interval, 64)),
    "divisors listing cap": (
        sumdiv.CapacityError,
        partial(sumdiv.divisors, sumdiv.FiniteSet(range(44, 64))),
    ),
    "lunar_mul digit budget": (sumdiv.CapacityError, partial(sumdiv.lunar_mul, _LONG, _LONG)),
    "lunar_divisors base 3": (
        sumdiv.CapacityError,
        partial(sumdiv.lunar_divisors, sumdiv.LunarNumber(3, [1] * 16)),
    ),
    "setarray_divisors height 2": (
        sumdiv.CapacityError,
        partial(
            sumdiv.setarray_divisors,
            sumdiv.SetArray([sumdiv.FiniteSet(range(15)), sumdiv.EMPTY]),
        ),
    ),
    "headstrong_count(5001)": (sumdiv.CapacityError, partial(sumdiv.headstrong_count, 5001)),
    "h_table(447)": (sumdiv.CapacityError, partial(sumdiv.h_table, 447)),
    "f_table(1000, 1000)": (sumdiv.CapacityError, partial(sumdiv.f_table, 1000, 1000)),
    "enumerate_headstrong(26)": (
        sumdiv.CapacityError,
        partial(sumdiv.enumerate_headstrong, 26),
    ),
    "crlodd max_k 27": (sumdiv.CapacityError, partial(sumdiv.run_target, "crlodd", max_k=27)),
    "divisor_count node budget": (sumdiv.CapacityError, _divisor_count_past_node_budget),
    "divisor_count(EMPTY)": (
        sumdiv.PreconditionError,
        partial(sumdiv.divisor_count, sumdiv.EMPTY),
    ),
    "EMPTY.min": (sumdiv.PreconditionError, partial(getattr, sumdiv.EMPTY, "min")),
    "lunar_add across bases": (
        sumdiv.PreconditionError,
        partial(sumdiv.lunar_add, sumdiv.LunarNumber(2, [1]), sumdiv.LunarNumber(3, [1])),
    ),
    "multisum across heights": (
        sumdiv.PreconditionError,
        partial(sumdiv.multisum, sumdiv.SetArray.neutral(1), sumdiv.SetArray.neutral(2)),
    ),
    "FiniteSet([-1])": (sumdiv.PreconditionError, partial(sumdiv.FiniteSet, [-1])),
    "interval(-1)": (sumdiv.PreconditionError, partial(sumdiv.interval, -1)),
    "LunarNumber(1)": (sumdiv.PreconditionError, partial(sumdiv.LunarNumber, 1)),
    "parse 1@x": (sumdiv.ParseError, partial(sumdiv.LunarNumber.parse, "1@x")),
    "headstrong_count(0)": (sumdiv.PreconditionError, partial(sumdiv.headstrong_count, 0)),
    "bounded_comp_count(5, 0, 1)": (
        sumdiv.PreconditionError,
        partial(sumdiv.bounded_comp_count, 5, 0, 1),
    ),
    "reconstruct_diagonal([1], 0)": (
        sumdiv.PreconditionError,
        partial(sumdiv.reconstruct_diagonal, [1], 0),
    ),
    "weighted_row_sum(0, 2)": (sumdiv.PreconditionError, partial(sumdiv.weighted_row_sum, 0, 2)),
    "to_set_array({}, 0)": (sumdiv.PreconditionError, partial(sumdiv.to_set_array, {}, 0)),
    "setarray_divisor_count_formula height 0": (
        sumdiv.PreconditionError,
        partial(sumdiv.setarray_divisor_count_formula, sumdiv.FiniteSet([0]), 0),
    ),
    "FiniteSet.from_mask(-1)": (
        sumdiv.PreconditionError,
        partial(sumdiv.FiniteSet.from_mask, -1),
    ),
}


@pytest.mark.parametrize("label", REFUSALS)
def test_each_refusal_raises_exactly_its_class(label):
    cls, call = REFUSALS[label]
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is cls, info.value
