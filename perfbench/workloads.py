"""The three workloads: inputs made from a seed, the calls one round makes,
and the checks on their answers.

Inputs are plain data (masks, digit lists, argv lists) so that run.py can
make them once and every round's fresh process gets the same ones.  Every
check compares against ``oracle`` or a property the answer must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import oracle

SWEEP_SET_TARGETS = ("crlodd", "crleven", "L15", "odd2", "pi2")
THEOREM_TARGETS = ("crlodd", "crleven", "L15", "bases")

# sweep-algebra: (base, digits, how many) for the lunar numbers, each the
# base-(b+1) image of a height-b set-array (A, {}, ..., {}), so the base-2
# ones are the binary images beta(A).  The digits fix the candidates tested,
# base**digits - 1.  The seven binary numbers form one cluster of equal cost
# at ranks 7-13 of the round's 19 calls by latency: six numbers take at
# most half as long and five at least 1.6 times as long, so the round's
# median call is always a binary one.  A is drawn until the number has at most
# LUNAR_MAX_DIVISORS divisors, so the divisor lists, and with them the
# peak memory, stay about the same size whatever the seed.
LUNAR_NUMBERS = (
    (2, 13, 7), (3, 9, 2), (4, 6, 1), (5, 5, 1), (6, 5, 1),
    (7, 4, 1), (8, 4, 1), (8, 5, 2), (9, 4, 1), (10, 5, 1),
)
LUNAR_MAX_DIVISORS = 2000

# queries: calls per block of 100, in three latency tiers (measured in
# README.md): under 60 us, the set enumerations at 0.15-0.5 ms and the
# brute-force searches at milliseconds.  Cold divisor_count calls on cores of
# one size form a narrow class that holds each round's median, and
# lunar_divisors, the slowest class, holds its 99th percentile, so neither
# sits on the edge between two classes.
QUERY_MIX = {
    "divisor_count_repeat": 8,
    "divides": 3,
    "sumset": 3,
    "is_irreducible": 4,
    "lunar_mul": 5,
    "headstrong_count": 3,
    "promoted_family": 2,
    "h_table": 2,
    "divisor_count": 36,
    "divisors": 10,
    "setarray_divisor_count_formula": 8,
    "verify_promotion_disjointness": 6,
    "setarray_divisors": 5,
    "lunar_divisors": 4,
    "headstrong_count_deep": 1,
}
QUERY_BLOCKS = 12
# headstrong_count(n >= 500) fails with RecursionError, because
# compositions.fib_general recurses through lru_cache.  These inputs do not
# depend on the seed: one per block, so every round fails the same share.
DEEP_HEADSTRONG = tuple(500 + 25 * i for i in range(QUERY_BLOCKS))

# Sets in the queries stay within [0, 15], so the oracle's table of
# 0-rooted sets up to max 12 covers every core they use.
TABLE_K = 12


def _rooted(rng: random.Random, top: int, size: int | None = None) -> int:
    """A 0-rooted mask with max exactly top and, if given, size elements."""
    if size is None:
        middle = rng.getrandbits(top - 1) << 1 if top > 1 else 0
    else:
        middle = sum(1 << e for e in rng.sample(range(1, top), size - 2))
    return 1 | 1 << top | middle


def _random_set(rng: random.Random, top: int) -> int:
    return rng.getrandbits(top + 1) or 1


def _digits_text(digits, base: int) -> str:
    return "".join(str(d) for d in reversed(digits)) + f"@{base}"


def _mask_digits(mask: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(mask.bit_length())]


def make_inputs(workload: str, seed: int) -> list:
    """The operations of one round, as [class, args] pairs."""
    if workload == "sweep-sets":
        return [["cli", ["verify", t, "--json"]] for t in SWEEP_SET_TARGETS]
    rng = random.Random(seed)
    if workload == "sweep-algebra":
        table = oracle.SetTable(TABLE_K)
        ops = [["cli", ["verify", "bases", "--json"]]]
        for base, digits, count in LUNAR_NUMBERS:
            for _ in range(count):
                mask = _rooted(rng, digits - 1)
                while oracle.chain_divisor_count(table, mask, base - 1) > LUNAR_MAX_DIVISORS:
                    mask = _rooted(rng, digits - 1)
                ops.append(["cli", ["lunar", "divisors", _digits_text(_mask_digits(mask), base), "--json"]])
        return ops
    if workload == "queries":
        return _query_stream(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _query_stream(rng: random.Random) -> list:
    table = oracle.SetTable(TABLE_K)
    labels = [c for c, n in QUERY_MIX.items() for _ in range(n * QUERY_BLOCKS)]
    rng.shuffle(labels)
    # A repeat needs a cold divisor_count before it in the stream.
    first_repeat = labels.index("divisor_count_repeat")
    first_cold = labels.index("divisor_count")
    if first_cold > first_repeat:
        labels[first_repeat], labels[first_cold] = labels[first_cold], labels[first_repeat]
    cold_cores = rng.sample(
        [m for m in range(1 | 1 << 12, 1 << 13, 2) if m.bit_count() == 8],
        QUERY_MIX["divisor_count"] * QUERY_BLOCKS,
    )
    seen: list[int] = []
    deep = iter(DEEP_HEADSTRONG)
    ops = []
    for label in labels:
        if label == "sumset":
            args = [_random_set(rng, 8), _random_set(rng, 8)]
        elif label == "divides":
            b = _random_set(rng, 4) << rng.randrange(3)
            a = oracle.sum_masks(b, _random_set(rng, 6)) if rng.random() < 0.5 else _random_set(rng, 12)
            args = [b, a]
        elif label == "lunar_mul":
            base = rng.randrange(2, 11)
            x, y = (
                [rng.randrange(base) for _ in range(rng.randrange(8))] + [rng.randrange(1, base)]
                for _ in range(2)
            )
            args = [base, x, y]
        elif label == "is_irreducible":
            args = [_rooted(rng, rng.randrange(6, 13)) << rng.randrange(3)]
        elif label == "headstrong_count":
            args = [rng.randrange(1, 61)]
        elif label == "headstrong_count_deep":
            args = [next(deep)]
        elif label == "divisor_count":
            core = cold_cores.pop()
            seen.append(core)
            args = [core << rng.randrange(4)]
        elif label == "divisor_count_repeat":
            args = [rng.choice(seen) << rng.randrange(4)]
        elif label == "divisors":
            args = [_rooted(rng, 12, 9) << rng.randrange(3)]
        elif label == "h_table":
            args = [rng.randrange(5, 21)]
        elif label in ("promoted_family", "verify_promotion_disjointness"):
            k = rng.randrange(7, 9) if label == "verify_promotion_disjointness" else rng.randrange(5, 9)
            a = _rooted(rng, rng.randrange(k - 1, k + 1))
            args = [a, k]
            if label == "promoted_family":
                args.append(rng.choice(sorted(table.core_divisors(a))))
        elif label == "setarray_divisor_count_formula":
            args = [_rooted(rng, 12, 9) << rng.randrange(3), rng.randrange(1, 10)]
        elif label == "setarray_divisors":
            args = [_rooted(rng, 4)]
        elif label == "lunar_divisors":
            args = [_rooted(rng, 6)]
        ops.append([label, args])
    return ops


# ---------------------------------------------------------------------------
# Calls, made inside a round's process.

def build_calls(ops: list, sumdiv) -> list:
    """(class, function, args) for each operation, with sumdiv objects
    made ahead of the timed loop.  Functions are read from the package at
    this point, so a tracer installed before sees its wrappers used."""
    S, L = sumdiv.FiniteSet.from_mask, sumdiv.LunarNumber

    def cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sumdiv.cli.main(argv)
        return code, buf.getvalue()

    calls = []
    for label, args in ops:
        if label == "cli":
            calls.append((label, cli, (args,)))
        elif label == "sumset":
            calls.append((label, sumdiv.sumset, (S(args[0]), S(args[1]))))
        elif label == "divides":
            calls.append((label, sumdiv.divides, (S(args[0]), S(args[1]))))
        elif label == "lunar_mul":
            base, x, y = args
            calls.append((label, sumdiv.lunar_mul, (L(base, x), L(base, y))))
        elif label in ("headstrong_count", "headstrong_count_deep"):
            calls.append((label, sumdiv.headstrong_count, (args[0],)))
        elif label in ("divisor_count", "divisor_count_repeat"):
            calls.append((label, sumdiv.divisor_count, (S(args[0]),)))
        elif label in ("divisors", "is_irreducible"):
            calls.append((label, getattr(sumdiv, label), (S(args[0]),)))
        elif label == "h_table":
            calls.append((label, sumdiv.h_table, (args[0],)))
        elif label == "promoted_family":
            calls.append((label, sumdiv.promoted_family, (S(args[0]), args[1], S(args[2]))))
        elif label == "verify_promotion_disjointness":
            calls.append((label, sumdiv.verify_promotion_disjointness, (S(args[0]), args[1])))
        elif label == "setarray_divisor_count_formula":
            calls.append((label, sumdiv.setarray_divisor_count_formula, (S(args[0]), args[1])))
        elif label == "setarray_divisors":
            arr = sumdiv.SetArray((S(args[0]), sumdiv.EMPTY))
            calls.append((label, sumdiv.setarray_divisors, (arr,)))
        elif label == "lunar_divisors":
            calls.append((label, sumdiv.lunar_divisors, (L(3, _mask_digits(args[0])),)))
        else:
            raise ValueError(f"unknown operation {label!r}")
    return calls


def plain(value, sumdiv):
    """A JSON-able form of an answer, for comparing rounds and checking."""
    if isinstance(value, sumdiv.FiniteSet):
        return value.mask
    if isinstance(value, sumdiv.LunarNumber):
        return str(value)
    if isinstance(value, sumdiv.SetArray):
        return [c.mask for c in value.coords]
    if isinstance(value, sumdiv.PromotedFamily):
        return {"divisor": value.divisor.mask, "members": sorted(m.mask for m in value.members)}
    if isinstance(value, (list, tuple)):
        return [plain(v, sumdiv) for v in value]
    return value


def plain_cli(code: int, text: str) -> dict:
    out = json.loads(text)
    if "meta" in out:  # verify: timing lives in meta and differs per run
        out = out["data"]
    return {"exit": code, "out": out}


# ---------------------------------------------------------------------------
# Checks, made by run.py on the answers of one round.

class Checker:
    """Checks answers against the oracle; each method returns a list of
    problems, empty when the answer is right."""

    def __init__(self):
        self.table = oracle.SetTable(TABLE_K)

    def check(self, ops: list, answers: list) -> list[str]:
        problems = []
        for (label, args), answer in zip(ops, answers):
            if isinstance(answer, dict) and "failed" in answer:
                continue
            method = getattr(self, "check_" + label)
            problems += [f"{label}{args}: {p}" for p in method(args, answer)]
        return problems

    # -- sweeps through the CLI ------------------------------------------

    def check_cli(self, argv, answer) -> list[str]:
        out = answer["out"]
        problems = [] if answer["exit"] == 0 else [f"exit code {answer['exit']}"]
        if argv[0] == "lunar":
            return problems + self._lunar_divisors(argv[2], out)
        target = argv[1]
        if target in THEOREM_TARGETS and (out["status"] != "pass" or out["counterexamples"]):
            problems.append(f"status {out['status']} with {len(out['counterexamples'])} counterexamples")
        problems += getattr(self, "_sweep_" + target, lambda out: [])(out)
        return problems

    def _sweep_crlodd(self, out) -> list[str]:
        want = oracle.headstrong(out["range"]["max_k"] + 1)
        got = out["details"]["d_full_interval"]
        return [] if got == want else [f"d_full_interval {got}, headstrong count {want}"]

    def _sweep_crleven(self, out) -> list[str]:
        ties = sorted(int(k) for k in out["details"]["ties"])
        return [] if ties == [1, 3] else [f"ties at k = {ties}, expected [1, 3]"]

    def _sweep_odd2(self, out) -> list[str]:
        problems = []
        for row in out["details"]["rows"]:
            k = row["k"]
            if row["largest_d"] != oracle.headstrong(k):
                problems.append(f"k={k}: largest_d {row['largest_d']} != H({k})")
            if k - 1 > TABLE_K:
                continue
            values = {m: self.table.count(m) for m in range(1 | 1 << (k - 1), 1 << k, 2)}
            best = max(values.values())
            second = max(v for v in values.values() if v < best)
            where = sorted(m for m, v in values.items() if v == second)
            got = (row["second_d"], [loc["n"] for loc in row["second_locations"]], row["predicted_hit"])
            want = (second, where, (1 << k) - 3 in where)
            if got != want:
                problems.append(f"k={k}: second {got}, brute force {want}")
        return problems

    def _sweep_pi2(self, out) -> list[str]:
        problems = []
        for row in out["details"]["rows"]:
            k = row["k"]
            if row["predicted"] != 1 << (k - 1) or row["ratio"] != row["irreducible"] / row["predicted"]:
                problems.append(f"k={k}: prediction or ratio wrong")
            if k > TABLE_K:
                continue
            want = sum(
                1 for rest in range(1 << k)
                if (rest | 1 << k).bit_count() >= 2 and self.table.irreducible(rest | 1 << k)
            )
            if row["irreducible"] != want:
                problems.append(f"k={k}: {row['irreducible']} irreducible, brute force {want}")
        return problems

    def _lunar_divisors(self, text: str, out) -> list[str]:
        """The listed divisors are distinct, canonical and divide n, and
        there are as many as the set-array correspondence says."""
        digits, base = oracle.parse_lunar(text)
        mask = sum(d << i for i, d in enumerate(digits))
        want = oracle.chain_divisor_count(self.table, mask, base - 1)
        listed = out["divisors"] if isinstance(out, dict) else out
        problems = []
        if len(listed) != want or (isinstance(out, dict) and out["count"] != want):
            problems.append(f"{len(listed)} divisors, correspondence gives {want}")
        if len(set(listed)) != len(listed):
            problems.append("repeated divisors")
        for y in listed:
            y_digits, y_base = oracle.parse_lunar(y)
            if y_base != base or not y_digits or y_digits[-1] == 0 or not oracle.lunar_divides(y_digits, digits, base):
                problems.append(f"{y} does not divide {text}")
                break
        return problems

    # -- single calls ------------------------------------------------------

    @staticmethod
    def _expect(got, want) -> list[str]:
        return [] if got == want else [f"got {got!r}, expected {want!r}"]

    def check_sumset(self, args, answer):
        return self._expect(answer, oracle.sum_masks(*args))

    def check_divides(self, args, answer):
        return self._expect(answer, self.table.divides(*args))

    def check_lunar_mul(self, args, answer):
        base, x, y = args
        return self._expect(answer, _digits_text(oracle.lunar_mul(tuple(x), tuple(y)) or (0,), base))

    def check_is_irreducible(self, args, answer):
        return self._expect(answer, self.table.irreducible(args[0]))

    def check_headstrong_count(self, args, answer):
        return self._expect(answer, oracle.headstrong(args[0]))

    check_headstrong_count_deep = check_headstrong_count

    def check_divisor_count(self, args, answer):
        return self._expect(answer, self.table.count(args[0]))

    check_divisor_count_repeat = check_divisor_count

    def check_divisors(self, args, answer):
        want = sorted(self.table.divisors(args[0]), key=lambda m: (m.bit_count(), _elements(m)))
        return self._expect(answer, want)

    def check_h_table(self, args, answer):
        return self._expect(answer, oracle.headstrong_triangle(args[0]))

    def check_promoted_family(self, args, answer):
        a, k, b = args
        want = {"divisor": b, "members": sorted(oracle.promoted_family(self.table, a, k, b))}
        problems = self._expect(answer, want)
        full = (1 << (k + 1)) - 1
        if not all(self.table.divides(m, full) for m in answer["members"]):
            problems.append(f"a member does not divide [{k}]")
        return problems

    def check_verify_promotion_disjointness(self, args, answer):
        return self._expect(answer, True)

    def check_setarray_divisor_count_formula(self, args, answer):
        return self._expect(answer, oracle.chain_divisor_count(self.table, *args))

    def check_setarray_divisors(self, args, answer):
        """Divisors of (A, {}) are the chains (B, B') with B | A, B' in B."""
        (a,) = args
        firsts = self.table.divisors(a)
        problems = self._expect(len(answer), oracle.chain_divisor_count(self.table, a, 2))
        if len({tuple(y) for y in answer}) != len(answer):
            problems.append("repeated divisors")
        if not all(y[0] in firsts and y[1] & ~y[0] == 0 for y in answer):
            problems.append("a listed chain does not divide")
        return problems

    def check_lunar_divisors(self, args, answer):
        return self._lunar_divisors(_digits_text(_mask_digits(args[0]), 3), answer)


def _elements(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)
