"""Shows that every check of the benchmark passes sumdiv's answers and
rejects a wrong one, and that the tracer's self times add up.

    PYTHONPATH=src python3 perfbench/selftest.py
    PYTHONPATH=src python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sumdiv  # noqa: E402
import sumdiv.cli  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CHECKER = workloads.Checker()


def answers(ops: list) -> list:
    out = []
    for label, fn, args in workloads.build_calls(ops, sumdiv):
        result = fn(*args)
        out.append(workloads.plain_cli(*result) if label == "cli" else workloads.plain(result, sumdiv))
    return out


def wrong(answer):
    """A plausible but wrong variant of a plain answer."""
    if isinstance(answer, bool):
        return not answer
    if isinstance(answer, int):
        return answer + 1
    if isinstance(answer, str):  # a lunar number such as "1201@3"
        body, _, base = answer.partition("@")
        return f"{body[:-1]}{(int(body[-1]) + 1) % int(base)}@{base}"
    if isinstance(answer, list):
        return answer[:-1] if answer else [1]
    if isinstance(answer, dict):  # a promoted family
        return {**answer, "members": answer["members"][:-1]}
    raise TypeError(answer)


def rejected(op, answer) -> bool:
    return bool(CHECKER.check([op], [answer]))


def test_query_checks():
    ops, seen = [], set()
    for op in workloads.make_inputs("queries", 5):
        if op[0] not in seen and op[0] != "headstrong_count_deep":
            seen.add(op[0])
            ops.append(op)
    ops.append(["headstrong_count_deep", [120]])  # small enough to succeed
    assert len(ops) == len(workloads.QUERY_MIX)
    right = answers(ops)
    assert CHECKER.check(ops, right) == []
    for op, answer in zip(ops, right):
        assert rejected(op, wrong(answer)), op
    by_label = dict(zip((op[0] for op in ops), zip(ops, right)))
    op, listed = by_label["divisors"]
    assert rejected(op, listed[::-1])
    op, listed = by_label["lunar_divisors"]
    assert rejected(op, listed[:-1] + [wrong(listed[-1])])
    op, chains = by_label["setarray_divisors"]
    assert rejected(op, chains[:-1] + [[chains[-1][0] | 1 << 9, 0]])


def _mutated(answer, edit):
    out = {"exit": answer["exit"], "out": dict(answer["out"])}
    edit(out)
    return out


def test_sweep_checks():
    ops = [
        ["cli", ["verify", "crlodd", "--max-k", "8", "--promotion-max-k", "5", "--json"]],
        ["cli", ["verify", "crleven", "--max-k", "6", "--json"]],
        ["cli", ["verify", "L15", "--max-k", "6", "--json"]],
        ["cli", ["verify", "odd2", "--max-k", "10", "--json"]],
        ["cli", ["verify", "pi2", "--max-k", "10", "--json"]],
        ["cli", ["verify", "bases", "--max-k", "3", "--json"]],
        ["cli", ["lunar", "divisors", "1101@4", "--json"]],
    ]
    right = answers(ops)
    assert CHECKER.check(ops, right) == []
    crlodd, crleven, l15, odd2, pi2, bases, lunar = zip(ops, right)

    def details(key, value):
        return lambda a: a["out"].update(details={**a["out"]["details"], key: value})

    def row(k, key, change):
        def edit(a):
            rows = [dict(r) for r in a["out"]["details"]["rows"]]
            rows[k][key] = change(rows[k][key])
            a["out"]["details"] = {**a["out"]["details"], "rows": rows}
        return edit

    cases = [
        (crlodd, lambda a: a.update(exit=3)),
        (crlodd, lambda a: a["out"].update(status="fail")),
        (crlodd, details("d_full_interval", crlodd[1]["out"]["details"]["d_full_interval"] + 1)),
        (crleven, details("ties", {"1": crleven[1]["out"]["details"]["ties"]["1"]})),
        (l15, lambda a: a["out"].update(counterexamples=[{"set": "{0}"}])),
        (odd2, row(0, "largest_d", lambda v: v + 1)),
        (odd2, row(4, "second_d", lambda v: v - 1)),
        (odd2, row(4, "predicted_hit", lambda v: not v)),
        (pi2, row(5, "irreducible", lambda v: v + 1)),
        (bases, lambda a: a["out"].update(status="fail")),
        (lunar, lambda a: a["out"].update(divisors=a["out"]["divisors"][:-1])),
        (lunar, lambda a: a["out"].update(count=a["out"]["count"] + 1)),
        (lunar, lambda a: a.update(exit=1)),
    ]
    for (op, answer), edit in cases:
        assert rejected(op, _mutated(answer, edit)), op


def test_tracer_self_times_add_up():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap(inner, "lunar.inner")
    traced_outer = tracer.wrap(outer, "sets.outer")
    traced_outer()
    traced_outer()
    s = tracer.summary()
    assert s["sets.outer.calls"] == 2 and s["lunar.inner.calls"] == 2
    assert abs(s["sets.self_s"] + s["lunar.self_s"] - s["sets.outer.busy_s"]) < 1e-9
    assert s["sets.self_s"] >= 0.02 and s["lunar.self_s"] >= 0.02
    assert list(tracer.parent) == [-1, 0, -1, 2]


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
