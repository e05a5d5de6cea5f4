"""Headstrong compositions: counting tables, the bijection with interval
divisors, and difference-table reconstruction.
"""

import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdiv import (
    CapacityError,
    Composition,
    FiniteSet,
    PreconditionError,
    bounded_comp_count,
    composition_to_divisor,
    difference_table,
    divisor_to_composition,
    divisors,
    enumerate_headstrong,
    f_table,
    fib_general,
    h_table,
    headstrong_by_parts,
    headstrong_count,
    interval,
    reconstruct_diagonal,
    sumset,
    weighted_row_sum,
)
from sumdiv import compositions, sets
from sumdiv.compositions import CELL_BOUND, COUNT_BOUND

from .fresh import fresh
from .oracles import naive_headstrong

# Frozen reference tables for F(n, k), n = 1..5, k = 1..10, and the
# headstrong triangle H(n, m), n = 1..10.
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


class TestComposition:
    def test_headstrong_predicate(self):
        assert Composition((3, 2, 3)).is_headstrong
        assert Composition((3,)).is_headstrong
        assert not Composition((2, 3)).is_headstrong

    def test_invalid_parts(self):
        with pytest.raises(PreconditionError):
            Composition(())
        with pytest.raises(PreconditionError):
            Composition((2, 0))

    def test_total_and_str(self):
        c = Composition((3, 1, 2))
        assert c.total == 6
        assert str(c) == "(3,1,2)"


class TestFibGeneral:
    def test_frozen_table(self):
        assert f_table(5, 10) == F_TABLE_5x10

    def test_row_two_is_fibonacci(self):
        # F(2, k) continues 55, 89, ... beyond the printed table.
        assert [fib_general(2, k) for k in range(11, 14)] == [55, 89, 144]

    @given(st.integers(1, 6), st.integers(1, 20))
    def test_counts_headstrong_with_leading_part(self, n, k):
        brute = sum(1 for c in naive_headstrong(k) if c[0] == n) if k <= 14 else None
        if brute is not None:
            assert fib_general(n, k) == brute

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            fib_general(0, 3)


class TestHeadstrongCounts:
    def test_total_matches_enumeration(self):
        for n in range(1, 13):
            assert headstrong_count(n) == len(naive_headstrong(n))

    def test_equals_interval_divisor_count(self):
        # The bijection: headstrong compositions of n <-> divisors of [n-1].
        from sumdiv import divisor_count

        for n in range(1, 12):
            assert headstrong_count(n) == divisor_count(interval(n - 1))

    def test_frozen_triangle(self):
        assert h_table(10) == H_TRIANGLE_10

    @given(st.integers(1, 13), st.integers(1, 13))
    def test_by_parts_matches_enumeration(self, n, m):
        brute = sum(1 for c in naive_headstrong(n) if len(c) == m)
        assert headstrong_by_parts(n, m) == brute

    def test_row_sums(self):
        for n in range(1, 11):
            assert sum(H_TRIANGLE_10[n - 1]) == headstrong_count(n)

    def test_column_sums_of_f(self):
        for k in range(1, 11):
            assert (
                sum(fib_general(n, k) for n in range(1, k + 1))
                == headstrong_count(k)
            )


class TestDeepCounts:
    def test_headstrong_count_matches_plain_recurrence(self):
        # Compositions of t with parts <= m, each entry summed in full.
        def bounded(m, t):
            c = [1]
            for j in range(1, t + 1):
                c.append(sum(c[j - p] for p in range(1, min(m, j) + 1)))
            return c[t]

        for n in (1, 2, 3, 10, 57, 120):
            assert headstrong_count(n) == sum(
                bounded(m, n - m) for m in range(1, n + 1)
            )

    def test_no_recursion_limit(self):
        a, b = 0, 1  # F(2, k) is the Fibonacci number F_(k-1)
        for _ in range(2998):
            a, b = b, a + b
        assert fib_general(2, 3000) == b
        assert headstrong_count(800) > headstrong_count(799)

    def test_table_rows_match_entries(self):
        table = f_table(6, 40)
        assert all(
            table[n - 1][k - 1] == fib_general(n, k)
            for n in range(1, 7)
            for k in range(1, 41)
        )
        assert f_table(7, 3)[6] == [0, 0, 0]

    def test_budget_and_preconditions(self):
        with pytest.raises(CapacityError):
            headstrong_count(COUNT_BOUND + 1)
        with pytest.raises(CapacityError):
            fib_general(1, COUNT_BOUND + 1)
        with pytest.raises(CapacityError):
            f_table(1, COUNT_BOUND + 1)
        for rows, cols in ((0, 3), (3, 0), (-1, 5)):
            with pytest.raises(PreconditionError):
                f_table(rows, cols)
        with pytest.raises(PreconditionError):
            h_table(0)

    def test_triangle_bound(self, monkeypatch):
        # The triangle up to row n holds n(n + 1) / 2 cells: 446 rows fit
        # CELL_BOUND and 447 (100 128 cells) do not.  Past the bound every
        # reader of the triangle refuses before any row is filled.
        monkeypatch.setattr(compositions, "_H", [[1]])
        assert 446 * 447 // 2 <= CELL_BOUND < 447 * 448 // 2
        for n in (447, 10**12):
            calls = ((h_table, (n,)), (headstrong_by_parts, (n, 2)), (weighted_row_sum, (n, 2)))
            for call, args in calls:
                with pytest.raises(CapacityError):
                    call(*args)
                assert compositions._H == [[1]]
        # Under a lowered cap the derived bound is 20 rows (210 cells).
        monkeypatch.setattr(compositions, "CELL_BOUND", 230)
        with pytest.raises(CapacityError):
            h_table(21)
        assert compositions._H == [[1]]
        # H(n, 2) = floor(n / 2); cold, every row up to the bound is filled.
        assert headstrong_by_parts(20, 2) == 10
        assert len(compositions._H) == 20

    def test_threads_fill_the_triangle_once(self, monkeypatch):
        # Threads racing to fill a cold triangle append each row once.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(compositions, "_H", [[1]])
                with ThreadPoolExecutor(8) as pool:
                    sizes = [40 + i % 4 * 10 for i in range(16)]
                    tables = list(pool.map(h_table, sizes, timeout=60))
                assert [len(row) for row in compositions._H] == list(range(1, 71))
                assert all(t == tables[-1][: len(t)] for t in tables)
                assert tables[-1][:10] == H_TRIANGLE_10
        finally:
            sys.setswitchinterval(switch)

    def test_table_rows_are_copies(self):
        table = h_table(5)
        table[4][1] = -1
        table[0].append(7)
        table.append([])
        assert h_table(5) == H_TRIANGLE_10[:5]
        assert headstrong_by_parts(5, 2) == 2

    def test_cell_bound(self):
        with pytest.raises(CapacityError):
            f_table(CELL_BOUND + 1, 1)
        with pytest.raises(CapacityError):
            f_table(3000, 3000)
        assert len(f_table(CELL_BOUND // 10, 10)) == CELL_BOUND // 10

    def test_one_patch_lowers_every_table(self, monkeypatch):
        # CELL_BOUND is read at call time: one patch moves the bound of the
        # F table, the H triangle, the difference table and the
        # reconstruction together.  55 cells hold 10 rows of a triangle.
        monkeypatch.setattr(compositions, "_H", [[1]])
        monkeypatch.setattr(compositions, "CELL_BOUND", 55)
        assert len(f_table(5, 11)) == 5
        assert len(h_table(10)) == 10
        assert len(difference_table([k * k * k for k in range(10)])) == 5
        assert len(difference_table([2**k for k in range(10)])) == 10
        assert len(reconstruct_diagonal([1] * 5, 11)) == 11
        refusals = (
            (f_table, (8, 7)),
            (h_table, (11,)),
            (difference_table, ([2**k for k in range(11)],)),
            (reconstruct_diagonal, ([1] * 7, 8)),
        )
        for call, args in refusals:
            with pytest.raises(CapacityError):
                call(*args)
        assert len(compositions._H) == 10

    def test_cold_triangle_at_cell_bound(self):
        # A cold fill of all 446 rows, in a fresh process, peaks near the
        # 27 MB measured on 2 cores.  H(n, 2) = floor(n / 2).
        out, peak = fresh(
            "from sumdiv import h_table\n"
            "table = h_table(446)\n"
            "print([len(row) for row in table] == list(range(1, 447)), *table[-1][:2], sum(table[-1]))"
        )
        assert out.split() == ["True", "1", "223", str(headstrong_count(446))]
        assert peak is None or peak <= 60 << 10, peak


class TestBoundedCounts:
    @given(st.integers(1, 10), st.integers(1, 5), st.integers(1, 5))
    def test_matches_enumeration(self, n, m, s):
        def comps(t, parts_left):
            if parts_left == 0:
                return 1 if t == 0 else 0
            return sum(
                comps(t - p, parts_left - 1) for p in range(1, s + 1) if p <= t
            )

        assert bounded_comp_count(n, m, s) == comps(n, m)

    def test_matches_part_by_part_fill(self):
        # row[t]: compositions of t into m parts in [1, s], one part at a time.
        for s in range(1, 10):
            row = [1] + [0] * 60
            for m in range(1, 13):
                row = [0] + [
                    sum(row[t - p] for p in range(1, min(s, t) + 1))
                    for t in range(1, 61)
                ]
                assert [bounded_comp_count(n, m, s) for n in range(61)] == row

    def test_budget(self):
        with pytest.raises(CapacityError):
            bounded_comp_count(COUNT_BOUND, 2, COUNT_BOUND)
        assert bounded_comp_count(COUNT_BOUND - 1, 2, COUNT_BOUND) == COUNT_BOUND - 2
        # Outside [m, m s] the count is 0 whatever n is.
        assert bounded_comp_count(10**12, 5, 2) == 0
        assert bounded_comp_count(-(10**12), 5, 2) == 0

    def test_headstrong_decomposition(self):
        # H(n, m) splits by leading part: sum over s of C(n-s, m-1, s).
        for n in range(2, 12):
            for m in range(2, n + 1):
                total = sum(
                    bounded_comp_count(n - s, m - 1, s)
                    for s in range(1, n)
                )
                assert headstrong_by_parts(n, m) == total


class TestEnumeration:
    def test_small_lists(self):
        got = [c.parts for c in enumerate_headstrong(4)]
        assert got == [(4,), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)]

    @given(st.integers(1, 12))
    def test_matches_naive(self, n):
        got = sorted(c.parts for c in enumerate_headstrong(n))
        assert got == sorted(naive_headstrong(n))

    def test_ordering(self):
        comps = enumerate_headstrong(8)
        keys = [(len(c.parts), c.parts) for c in comps]
        assert keys == sorted(keys)

    def test_budget(self, monkeypatch):
        # The list obeys the divisor lists' cap, NODE_BUDGET / 2 = 2^21:
        # h(25) = d([24]) = 1 892 875 fits and h(26) = 3 643 570 does not.
        # The refusal comes before any composition is built.
        assert headstrong_count(25) <= sets.NODE_BUDGET // 2 < headstrong_count(26)

        def no_work(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(compositions, "_bounded_parts", no_work)
        for n in (26, 27, 65, 10**12):
            with pytest.raises(CapacityError):
                enumerate_headstrong(n)

    def test_cap_follows_node_budget(self, monkeypatch):
        # One patch of sets.NODE_BUDGET lowers the cap: 2 * 140 allows
        # h(10) = 140 and refuses h(11) = 256 with nothing enumerated.
        monkeypatch.setattr(sets, "NODE_BUDGET", 2 * 140)
        assert len(enumerate_headstrong(10)) == 140
        built = []
        monkeypatch.setattr(compositions, "Composition", built.append)
        with pytest.raises(CapacityError):
            enumerate_headstrong(11)
        assert built == []

    @pytest.mark.stretch
    def test_list_at_cap_stretch(self):
        # The largest list the cap allows: 1 892 875 compositions (11-15 s
        # and 527 MB in a fresh process).
        assert len(enumerate_headstrong(25)) == headstrong_count(25) == 1_892_875


class TestBijection:
    def test_worked_example(self):
        a, b = composition_to_divisor(Composition((3, 2, 1)))
        assert a == FiniteSet((0, 1, 3))
        assert b == interval(2)
        assert sumset(a, b) == interval(5)

    @given(st.integers(1, 12))
    @settings(max_examples=24, deadline=None)
    def test_round_trip_and_cardinality(self, n):
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

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            composition_to_divisor(Composition((1, 2)))
        with pytest.raises(PreconditionError):
            divisor_to_composition(FiniteSet((1, 2)), 4)
        with pytest.raises(PreconditionError):
            divisor_to_composition(FiniteSet((0, 3)), 4)


class TestDifferenceTables:
    def test_worked_example(self):
        assert difference_table([1, 5, 14, 30, 55]) == [
            [1, 5, 14, 30, 55],
            [4, 9, 16, 25],
            [5, 7, 9],
            [2, 2],
            [0],
        ]

    def test_stops_at_zero_row(self):
        assert difference_table([3, 3, 3, 3]) == [[3, 3, 3, 3], [0, 0, 0]]

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            difference_table([])

    def test_cell_bound(self):
        # A random sequence of 447 terms reaches no zero row: its table
        # would hold 447 * 448 / 2 = 100 128 cells.  A longer one that
        # reaches its zero row early is answered.
        rng = random.Random(447)
        with pytest.raises(CapacityError):
            difference_table([rng.randrange(-(10**9), 10**9) for _ in range(447)])
        rows = difference_table(list(range(10_000)))
        assert rows == [list(range(10_000)), [1] * 9999, [0] * 9998]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    def test_first_column_reconstructs(self, seq):
        rows = difference_table(seq)
        lead = [r[0] for r in rows]
        while len(lead) < len(seq):
            lead.append(0)
        assert reconstruct_diagonal(lead, len(seq)) == list(seq)

    def test_triangle_diagonals_self_generate(self):
        # Row d of the triangle, read as leading differences, generates
        # the (d+1)-th diagonal H(n + d, n).
        for d in range(1, 6):
            row = H_TRIANGLE_10[d - 1]
            diag = [headstrong_by_parts(n + d, n) for n in range(1, 6)]
            assert reconstruct_diagonal(row, 5) == diag

    def test_length_bound(self):
        # Checked before the list or any binomial is built.
        assert len(reconstruct_diagonal([1], COUNT_BOUND)) == COUNT_BOUND
        assert len(reconstruct_diagonal([1] * 316, 316)) == 316
        with pytest.raises(CapacityError):
            reconstruct_diagonal([1], COUNT_BOUND + 1)
        with pytest.raises(CapacityError):
            reconstruct_diagonal([1], 10**9)
        # A row as long as the length is bounded by its terms, not its
        # length alone: this one would take minutes.
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            reconstruct_diagonal([1] * 5000, 5000)
        assert time.perf_counter() - start < 1


class TestWeightedSums:
    def test_matches_direct_sum(self):
        for n in range(1, 9):
            for b in range(2, 5):
                direct = sum(
                    headstrong_by_parts(n, m) * b**m for m in range(1, n + 1)
                )
                assert weighted_row_sum(n, b) == direct

    def test_growth_bound(self):
        # 2 * S(n, b) < S(n+1, b).
        for n in range(1, 15):
            for b in range(2, 6):
                assert 2 * weighted_row_sum(n, b) < weighted_row_sum(n + 1, b)
