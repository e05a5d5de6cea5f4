"""Finite sets and sumset divisor arithmetic, checked against naive oracles
and frozen small-case values.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdiv import (
    CapacityError,
    EmptyOperandError,
    FiniteSet,
    PreconditionError,
    divides,
    divisor_count,
    divisors,
    headstrong_count,
    interval,
    interval_positive,
    is_irreducible,
    quotient_max,
    sets,
    sumset,
)

from .oracles import (
    count_irreducible,
    direct_divisor_count,
    naive_divides,
    naive_divisors,
    naive_sumset,
    walk_divisor_masks,
    walk_is_irreducible,
)

# A dense set with max 50 whose divisor search passes the node budget.
OVER_BUDGET = FiniteSet(
    [0, *range(2, 12), *range(13, 26), *range(27, 40), *range(41, 51)]
)

small_sets = st.frozensets(st.integers(0, 10), min_size=1, max_size=6)
tiny_sets = st.frozensets(st.integers(0, 6), min_size=1, max_size=5)


def fs(*elems) -> FiniteSet:
    return FiniteSet(elems)


class TestFiniteSet:
    def test_canonical_by_elements(self):
        assert fs(3, 1, 1, 2) == fs(1, 2, 3)
        assert hash(fs(0, 2)) == hash(FiniteSet((2, 0)))

    def test_min_max_len(self):
        s = fs(2, 5, 9)
        assert (s.min, s.max, len(s)) == (2, 9, 3)

    def test_empty_has_no_extrema(self):
        with pytest.raises(EmptyOperandError):
            FiniteSet().min
        with pytest.raises(EmptyOperandError):
            FiniteSet().max

    def test_membership_and_iteration(self):
        s = fs(0, 3, 4)
        assert list(s) == [0, 3, 4]
        assert 3 in s and 1 not in s and -1 not in s

    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            fs(-1)

    def test_element_bound_enforced(self):
        with pytest.raises(CapacityError):
            fs(64)

    def test_str(self):
        assert str(fs(0, 2, 3)) == "{0, 2, 3}"
        assert str(FiniteSet()) == "{}"
        assert repr(fs(7, 8, 63)) == "FiniteSet({7, 8, 63})"

    @given(st.frozensets(st.integers(0, 63)))
    def test_str_lists_elements_ascending(self, elems):
        text = ", ".join(str(e) for e in sorted(elems))
        assert str(FiniteSet(elems)) == "{" + text + "}"

    def test_shifted(self):
        assert fs(1, 3).shifted(2) == fs(3, 5)
        assert fs(2, 4).shifted(-2) == fs(0, 2)
        with pytest.raises(ValueError):
            fs(1, 3).shifted(-2)

    def test_intervals(self):
        assert interval(3) == fs(0, 1, 2, 3)
        assert interval(0) == fs(0)
        assert interval_positive(3) == fs(1, 2, 3)
        with pytest.raises(ValueError):
            interval(-1)
        with pytest.raises(ValueError):
            interval_positive(0)

    def test_bound_checked_before_the_mask_is_built(self):
        # A mask with bit 10^10 would take 1.25 GB; each check comes first.
        assert interval(63).max == interval_positive(63).max == 63
        assert fs(0).shifted(63) == fs(63)
        assert FiniteSet().shifted(10**10) == FiniteSet()
        for build in (
            lambda: interval(10**10),
            lambda: interval_positive(10**10),
            lambda: fs(0).shifted(10**10),
            lambda: interval(64),
            lambda: fs(1).shifted(63),
        ):
            with pytest.raises(CapacityError, match="exceeds the element bound 63"):
                build()


class TestSumset:
    def test_example(self):
        assert sumset(fs(0, 2), fs(0, 1, 3)) == fs(0, 1, 2, 3, 5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyOperandError):
            sumset(FiniteSet(), fs(0))

    @given(small_sets, small_sets)
    def test_matches_naive(self, a, b):
        got = sumset(FiniteSet(a), FiniteSet(b))
        assert frozenset(got) == naive_sumset(a, b)

    @given(small_sets, small_sets)
    def test_commutative(self, a, b):
        x, y = FiniteSet(a), FiniteSet(b)
        assert sumset(x, y) == sumset(y, x)

    @given(small_sets, small_sets, small_sets)
    def test_associative(self, a, b, c):
        x, y, z = FiniteSet(a), FiniteSet(b), FiniteSet(c)
        assert sumset(sumset(x, y), z) == sumset(x, sumset(y, z))

    @given(small_sets)
    def test_zero_is_identity(self, a):
        x = FiniteSet(a)
        assert sumset(x, fs(0)) == x

    @given(small_sets, small_sets)
    def test_extrema_add(self, a, b):
        got = sumset(FiniteSet(a), FiniteSet(b))
        assert got.min == min(a) + min(b)
        assert got.max == max(a) + max(b)


class TestDivisibility:
    def test_trivial_divisors(self):
        a = fs(0, 2, 3)
        assert divides(fs(0), a)
        assert divides(a, a)

    def test_non_divisor(self):
        assert not divides(fs(0, 1), fs(0, 2))

    def test_range_mismatch_is_false(self):
        assert not divides(fs(0, 5), fs(0, 2))
        assert not divides(fs(2), fs(0, 2))

    def test_quotient_max_contains_all_cofactors(self):
        a, b = interval(3), fs(0, 1)
        q = quotient_max(a, b)
        assert q == fs(0, 1, 2)
        assert sumset(b, q) == a

    def test_quotient_max_preconditions(self):
        with pytest.raises(PreconditionError):
            quotient_max(fs(0, 2), fs(0, 5))

    @given(tiny_sets, tiny_sets)
    @settings(max_examples=60, deadline=None)
    def test_divides_matches_naive(self, a, b):
        x, y = FiniteSet(a), FiniteSet(b)
        assert divides(y, x) == naive_divides(b, a)

    @given(tiny_sets, tiny_sets)
    def test_factors_divide_their_sumset(self, a, b):
        x, y = FiniteSet(a), FiniteSet(b)
        s = sumset(x, y)
        assert divides(x, s) and divides(y, s)


class TestDivisors:
    def test_interval_3_list(self):
        # d([3]) = 5 with exactly these divisors.
        got = divisors(interval(3))
        assert got == [
            fs(0),
            fs(0, 1),
            fs(0, 2),
            fs(0, 1, 2),
            fs(0, 1, 2, 3),
        ]

    def test_singleton(self):
        assert divisors(fs(0)) == [fs(0)]
        assert divisors(fs(4)) == [fs(j) for j in range(5)]

    @given(tiny_sets)
    @settings(max_examples=40, deadline=None)
    def test_matches_naive(self, a):
        got = [frozenset(d) for d in divisors(FiniteSet(a))]
        assert got == naive_divisors(a)

    @given(tiny_sets)
    def test_count_matches_list(self, a):
        x = FiniteSet(a)
        assert divisor_count(x) == len(divisors(x))

    def test_interval_counts(self):
        # d([k]) for k = 0..9.
        expected = (1, 2, 3, 5, 8, 14, 24, 43, 77, 140)
        assert tuple(divisor_count(interval(k)) for k in range(10)) == expected

    def test_shift_multiplies_count(self):
        # d({2, 3}) = 6: three shifts of each of {0}, {0, 1}.
        assert divisor_count(fs(2, 3)) == 6

    @given(tiny_sets, st.integers(0, 4))
    def test_translation_law(self, a, r):
        x = FiniteSet(a)
        core = x.shifted(-x.min)
        shifted = core.shifted(r)
        assert divisor_count(shifted) == (r + 1) * divisor_count(core)

    @given(st.frozensets(st.integers(0, 10), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_lists_exactly_the_divisors(self, a):
        x = FiniteSet(a)
        candidates = (
            FiniteSet.from_mask(m) for m in range(1, 2 << x.max)
        )
        expected = {b for b in candidates if divides(b, x)}
        got = divisors(x)
        assert len(got) == len(expected) and set(got) == expected

    def test_matches_walk_exhaustively(self):
        # Every 0-rooted core with max <= 13: list, order and count.
        for core in range(1, 1 << 14, 2):
            walk = walk_divisor_masks(core)
            got = divisors(FiniteSet.from_mask(core))
            assert got == sorted(
                (FiniteSet.from_mask(m) for m in walk),
                key=lambda s: (len(s), s.elements),
            )
            assert divisor_count(FiniteSet.from_mask(core)) == len(walk)

    def test_interval_counts_match_headstrong(self):
        for k in range(21):
            assert divisor_count(interval(k)) == headstrong_count(k + 1)

    def test_random_cores_match_oracles(self):
        rng = random.Random(11)
        for top in range(20, 31):
            density = 0.7 if top == 20 else 0.45
            core = 1 | 1 << top | sum(
                1 << e for e in range(1, top) if rng.random() < density
            )
            count = divisor_count(FiniteSet.from_mask(core))
            assert count == len(walk_divisor_masks(core))
            if top == 20:
                assert count == direct_divisor_count(core)

    def test_enumeration_bound(self):
        # The search is bounded by nodes, not by max: {0, 30} and
        # {60, ..., 63} are decided at once.
        assert divisors(fs(0, 30)) == [fs(0), fs(0, 30)]
        assert len(divisors(interval(3).shifted(60))) == 5 * 61
        assert divisor_count(interval(24)) == headstrong_count(25)
        with pytest.raises(CapacityError):
            divisor_count(OVER_BUDGET)

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(sets, "NODE_BUDGET", 1000)
        # d([12]) takes 1907 nodes; a cached answer would skip the search.
        sets._core_divisor_count.cache_clear()
        assert divisor_count(interval(8)) == 77
        with pytest.raises(CapacityError):
            divisor_count(interval(12))
        with pytest.raises(CapacityError):
            divisors(interval(12))

    def test_listing_budget(self, monkeypatch):
        # {40, ..., 48} has 41 * d([8]) = 3157 divisors from a search of
        # a few hundred nodes.
        monkeypatch.setattr(sets, "NODE_BUDGET", 4000)
        assert divisor_count(interval(8).shifted(40)) == 3157
        with pytest.raises(CapacityError):
            divisors(interval(8).shifted(40))


class TestIrreducible:
    def test_small_cases(self):
        assert is_irreducible(fs(0, 2))
        assert is_irreducible(fs(1, 2))
        assert not is_irreducible(fs(0, 1, 2))
        assert not is_irreducible(interval(3))

    def test_size_precondition(self):
        with pytest.raises(PreconditionError):
            is_irreducible(fs(3))

    def test_enumeration_bound(self):
        # Decided at once: {0, 1} divides every interval, and
        # {0, ..., 30, 63} has no factor.
        assert not is_irreducible(interval(42))
        assert not is_irreducible(interval(63))
        assert is_irreducible(FiniteSet([*range(31), 63]))

    def test_node_budget(self, monkeypatch):
        # The search for this set takes 79 nodes, the most of any set with
        # max <= 18.
        a = fs(0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 14, 16, 17, 18)
        monkeypatch.setattr(sets, "NODE_BUDGET", 50)
        with pytest.raises(CapacityError):
            is_irreducible(a)
        monkeypatch.setattr(sets, "NODE_BUDGET", 79)
        assert is_irreducible(a)

    def test_matches_walk_exhaustively(self):
        for core in range(3, 1 << 14, 2):
            a = FiniteSet.from_mask(core)
            assert is_irreducible(a) == walk_is_irreducible(core)

    @staticmethod
    def _naive_irreducible(a: frozenset) -> bool:
        # No B + C = a with both factors of size >= 2.
        from .oracles import naive_sumset, subsets_of

        pool = [s for s in subsets_of(range(max(a) + 1)) if len(s) >= 2]
        return not any(
            naive_sumset(b, c) == a for b in pool for c in pool
        )

    @given(tiny_sets.filter(lambda a: len(a) >= 2))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive(self, a):
        assert is_irreducible(FiniteSet(a)) == self._naive_irreducible(a)

    def test_count_irreducible_brute(self):
        # Frozen by the naive oracle: irreducible A with max(A) = k, |A| >= 2.
        def brute(k):
            total = 0
            for restmask in range(1 << k):
                a = frozenset(
                    [k] + [e for e in range(k) if restmask >> e & 1]
                )
                if len(a) >= 2 and self._naive_irreducible(a):
                    total += 1
            return total

        for k in range(1, 7):
            assert count_irreducible(k) == brute(k)
