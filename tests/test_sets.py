"""Finite sets and sumset divisor arithmetic, checked against naive oracles
and frozen small-case values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdiv import (
    CapacityError,
    EmptyOperandError,
    FiniteSet,
    PreconditionError,
    count_irreducible,
    divides,
    divisor_count,
    divisors,
    interval,
    interval_positive,
    is_irreducible,
    quotient_max,
    sumset,
)

from .oracles import naive_divides, naive_divisors, naive_sumset

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

    def test_enumeration_bound(self):
        with pytest.raises(CapacityError):
            divisors(fs(0, 30))


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
        # [48] walks the 24 elements 1..24; [63] would walk 31.
        assert not is_irreducible(interval(48))
        with pytest.raises(CapacityError):
            is_irreducible(interval(63))
        with pytest.raises(CapacityError):
            is_irreducible(FiniteSet([*range(31), 63]))

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
