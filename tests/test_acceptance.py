"""Acceptance gate: the eleven headline checks, each timed against its
runtime budget and reported as a single pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; every check is also a hard assertion.
"""

import random
import time

from sumdiv import (
    Composition,
    EMPTY,
    FiniteSet,
    LunarNumber,
    SetArray,
    beta,
    beta_b,
    composition_to_divisor,
    divisor_count,
    divisor_to_composition,
    divisors,
    enumerate_headstrong,
    f_table,
    fib_general,
    h_table,
    interval,
    lunar_add,
    lunar_mul,
    multisum,
    sumset,
    to_set_array,
    weighted_row_sum,
)
from sumdiv.verify import run_target

F_TABLE_5x10 = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 1, 2, 3, 5, 8, 13, 21, 34],
    [0, 0, 1, 1, 2, 4, 7, 13, 24, 44],
    [0, 0, 0, 1, 1, 2, 4, 8, 15, 29],
    [0, 0, 0, 0, 1, 1, 2, 4, 8, 16],
]

H_TRIANGLE_10 = [
    [1],
    [1, 1],
    [1, 1, 1],
    [1, 2, 1, 1],
    [1, 2, 3, 1, 1],
    [1, 3, 4, 4, 1, 1],
    [1, 3, 6, 7, 5, 1, 1],
    [1, 4, 8, 11, 11, 6, 1, 1],
    [1, 4, 11, 17, 19, 16, 7, 1, 1],
    [1, 5, 13, 26, 32, 31, 22, 8, 1, 1],
]

INTERVAL_DIVISOR_COUNTS = (1, 2, 3, 5, 8, 14, 24, 43, 77, 140)


def _report(label: str, budget: float, check):
    start = time.perf_counter()
    try:
        check()
    except AssertionError:
        print(f"[FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget else "FAIL"
    print(f"[{status}] {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeds {budget:.0f}s"


def test_01_table_fidelity():
    def check():
        assert f_table(5, 10) == F_TABLE_5x10
        assert h_table(10) == H_TRIANGLE_10

    _report("1 table fidelity (F 5x10, H triangle rows 1..10)", 1.0, check)


def test_02_interval_divisor_counts():
    def check():
        got = tuple(divisor_count(interval(k)) for k in range(10))
        assert got == INTERVAL_DIVISOR_COUNTS
        # Cross-checks against both table readings.
        for k in range(10):
            assert sum(fib_general(n, k + 1) for n in range(1, k + 2)) == got[k]
            assert sum(H_TRIANGLE_10[k]) == got[k]

    _report("2 divisor counts d([k]) for k = 0..9", 5.0, check)


def test_03_composition_divisor_bijection():
    def check():
        for n in range(1, 13):
            full = interval(n)
            divs = divisors(full)
            comps = enumerate_headstrong(n + 1)
            assert len(divs) == len(comps)
            images = set()
            for c in comps:
                a, b = composition_to_divisor(c)
                assert sumset(a, b) == full
                assert len(a) == len(c.parts)
                assert divisor_to_composition(a, n) == c
                images.add(a)
            assert images == set(divs)

    _report("3 composition/divisor bijection for n <= 12", 10.0, check)


def test_04_homomorphism_suites():
    def check():
        rng = random.Random(20260823)

        def random_set():
            return FiniteSet(
                rng.sample(range(12), rng.randint(1, 6))
            )

        for _ in range(1000):
            x, y = random_set(), random_set()
            assert beta(sumset(x, y)) == lunar_mul(beta(x), beta(y))

        for _ in range(500):
            b = rng.randint(2, 4)
            fx = {e: rng.randint(1, b) for e in rng.sample(range(7), rng.randint(1, 4))}
            fy = {e: rng.randint(1, b) for e in rng.sample(range(7), rng.randint(1, 4))}
            x, y = to_set_array(fx, b), to_set_array(fy, b)
            assert beta_b(multisum(x, y)) == lunar_mul(beta_b(x), beta_b(y))

    _report("4 homomorphisms: 1000 binary + 500 multiset pairs", 10.0, check)


def test_05_worked_figures():
    def check():
        n169 = LunarNumber.parse("169@10")
        n248 = LunarNumber.parse("248@10")
        assert lunar_add(n169, n248) == LunarNumber.parse("269@10")
        assert lunar_mul(n169, n248) == LunarNumber.parse("12468@10")
        assert lunar_mul(
            LunarNumber.parse("101@2"), LunarNumber.parse("10110@2")
        ) == LunarNumber.parse("1011110@2")

        fs = lambda *e: FiniteSet(e)
        x = SetArray((fs(0, 1, 2),) + (fs(0, 1),) * 5 + (fs(0),) * 3)
        y = SetArray(
            (fs(0, 1, 2),) * 2 + (fs(0, 1),) * 2 + (fs(0),) * 4 + (EMPTY,)
        )
        assert beta_b(x) == n169
        assert beta_b(y) == n248
        z = multisum(x, y)
        assert z.coords[0] == fs(0, 1, 2, 3, 4)
        assert z.coords[8] == EMPTY
        assert beta_b(z) == LunarNumber.parse("12468@10")

    _report("5 worked figures reproduced digit-for-digit", 1.0, check)


def test_06_crlodd():
    def check():
        r = run_target("crlodd", max_k=14, promotion_max_k=10)
        assert r.status == "pass"
        assert r.counterexamples == []

    _report("6 crlodd: d-maximum of [14] + promotion disjointness", 60.0, check)


def test_07_crleven():
    def check():
        r = run_target("crleven", max_k=12)
        assert r.status == "pass"
        assert r.counterexamples == []
        assert set(r.details["ties"]) == {1, 3}

    _report("7 crleven: [k+] maximal over subsets of [k], k <= 12", 60.0, check)


def test_08_translation_lemma():
    def check():
        r = run_target("L15", max_k=12)
        assert r.status == "pass"
        assert r.counterexamples == []

    _report("8 d(A) = (min+1) d(A - min) for all A within [12]", 30.0, check)


def test_09_inequality_lemmas():
    def check():
        for n in range(1, 9):
            for k in range(n, 41):
                left, right = fib_general(n, k), fib_general(n, k + 1)
                assert 2 * left >= right
                if k >= 2 * n:
                    assert 2 * left > right
        # The 3/2 bound needs n > 1 and k > n.
        for n in range(2, 9):
            for k in range(n + 1, 41):
                left, right = fib_general(n, k), fib_general(n, k + 1)
                if (n, k) == (2, 4):
                    assert 3 * left == 2 * right
                else:
                    assert 3 * left < 2 * right
        for n in range(1, 21):
            for b in range(2, 11):
                assert 2 * weighted_row_sum(n, b) < weighted_row_sum(n + 1, b)

    _report("9 growth inequalities for F rows and weighted H sums", 5.0, check)


def test_10_base_b_maximum():
    def check():
        r = run_target("bases", max_k=5)
        assert r.status == "pass"
        assert r.counterexamples == []

    _report("10 height-2 multiset maximum + chain-count formula", 120.0, check)


def test_11_conjecture_probes():
    def check():
        odd2 = run_target("odd2", max_k=14)
        assert odd2.status == "evidence-only"
        for row in odd2.details["rows"]:
            if row["covered_by_conjecture"]:
                assert row["predicted_hit"]
        pi2 = run_target("pi2", max_k=14)
        assert pi2.status == "evidence-only"
        assert len(pi2.details["rows"]) == 14

    _report("11 conjecture probes report evidence tables", 120.0, check)
