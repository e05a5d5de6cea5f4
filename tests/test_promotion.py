"""k-promotion of factors, promoted families, witness factors, and the
disjointness argument.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdiv import (
    FiniteSet,
    PreconditionError,
    divides,
    divisors,
    divisor_count,
    interval,
    promote,
    promoted_family,
    sumset,
    verify_promotion_disjointness,
    witness_factor,
)

from .oracles import cofactors


def fs(*elems) -> FiniteSet:
    return FiniteSet(elems)


zero_rooted = (
    st.frozensets(st.integers(1, 7), max_size=6)
    .map(lambda s: FiniteSet(s | {0}))
)


def promote_by_elements(a: FiniteSet, k: int, b: FiniteSet, t: int) -> FiniteSet:
    """The definition of promotion, one missing element s of [k] at a
    time: s joins b as s when s < t and as s - t otherwise."""
    missing = [s for s in range(k + 1) if s not in a]
    return fs(*b, *(s if s < t else s - t for s in missing))


class TestCofactors:
    def test_all_cofactors_listed(self):
        got = cofactors(interval(3), fs(0, 1))
        assert got == [fs(0, 2), fs(0, 1, 2)]
        for c in got:
            assert sumset(fs(0, 1), c) == interval(3)

    def test_non_divisor_rejected(self):
        with pytest.raises(PreconditionError):
            cofactors(fs(0, 2), fs(0, 1))

    @given(zero_rooted)
    @settings(max_examples=40, deadline=None)
    def test_every_divisor_has_a_cofactor(self, a):
        for b in divisors(a):
            cs = cofactors(a, b)
            assert cs
            for c in cs:
                assert sumset(b, c) == a


class TestPromote:
    def test_worked_rows(self):
        # Promoting factors of {0, 2, 3, 4, 5, 6} into factors of [6]:
        # the missing element 1 is appended directly when below the
        # complementary max, shifted down by it otherwise.
        a = fs(0, 2, 3, 4, 5, 6)
        assert promote(a, 6, fs(0, 2, 3), 3) == fs(0, 1, 2, 3)
        assert promote(a, 6, fs(0, 3, 4), 2) == fs(0, 1, 3, 4)

    def test_result_is_factor_of_full_interval(self):
        a = fs(0, 2, 3, 4, 5, 6)
        for b in divisors(a):
            for c in cofactors(a, b):
                if b.max >= c.max:
                    r = promote(a, 6, b, c.max)
                    assert sumset(c, r) == interval(6)

    def test_matches_element_loop(self):
        # The definition, one missing element at a time, for every 0-rooted
        # a and b within [k], k <= 5; an other_max past k keeps every
        # element, and 10^12 must not build a 10^12-bit mask.
        for k in range(6):
            for amask in range(1, 2 << k, 2):
                a = FiniteSet.from_mask(amask)
                for bmask in range(1, 2 << k, 2):
                    b = FiniteSet.from_mask(bmask)
                    for t in (*range(k + 2), 10**12):
                        assert promote(a, k, b, t) == promote_by_elements(a, k, b, t)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            promote(fs(1, 2), 4, fs(0), 1)
        with pytest.raises(PreconditionError):
            promote(fs(0, 5), 4, fs(0), 1)
        with pytest.raises(PreconditionError):
            promote(fs(0, 2), 4, fs(0), -1)

    @given(zero_rooted, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_promotion_completes_any_factorization(self, a, pad):
        # For every factorization b + c = a inside [k], promoting the
        # factor with the larger max yields a cofactor of the other
        # against the full interval [k].
        k = a.max + pad
        for b in divisors(a):
            for c in cofactors(a, b):
                if b.max >= c.max:
                    r = promote(a, k, b, c.max)
                    assert sumset(c, r) == interval(k)


class TestPromotedFamily:
    def test_worked_families(self):
        a = fs(0, 2, 3, 4, 5, 6)
        fam = promoted_family(a, 6, fs(0, 2, 3))
        assert fam.members == frozenset({fs(0, 2, 3), fs(0, 1, 2, 3)})
        fam = promoted_family(a, 6, fs(0, 2))
        assert fam.members == frozenset({fs(0, 2)})
        fam = promoted_family(a, 6, fs(0, 3, 4))
        assert fam.members == frozenset({fs(0, 1, 3, 4)})

    @given(zero_rooted)
    @settings(max_examples=40, deadline=None)
    def test_members_divide_full_interval(self, a):
        k = a.max
        for b in divisors(a):
            for m in promoted_family(a, k, b).members:
                assert divides(m, interval(k))

    def test_matches_cofactor_walk(self):
        # The definition: one promoted member per cofactor c of b in a.
        for mask in range(1, 1 << 8, 2):
            a = FiniteSet.from_mask(mask)
            for b in divisors(a):
                for k in {a.max, 7}:
                    want = set()
                    for c in cofactors(a, b):
                        if b.max <= c.max:
                            want.add(b)
                        if b.max >= c.max:
                            want.add(promote(a, k, b, c.max))
                    assert promoted_family(a, k, b).members == want, (a, b, k)

    def test_non_divisor_rejected(self):
        with pytest.raises(PreconditionError):
            promoted_family(fs(0, 2), 2, fs(0, 1))

    def test_full_interval_family_is_identity_like(self):
        a = interval(4)
        for b in divisors(a):
            assert b in promoted_family(a, 4, b).members


class TestWitness:
    def test_odd_witness(self):
        assert witness_factor(7, fs(0, 2)) == fs(0, 4)

    def test_even_witnesses(self):
        missing_two = FiniteSet(e for e in range(7) if e != 2)
        assert witness_factor(6, missing_two) == fs(0, 2)
        assert witness_factor(6, fs(0, 1, 2)) == fs(0, 1, 3, 5)

    def test_witness_divides_full_interval(self):
        for k in range(3, 9):
            for mask_like in (fs(0), fs(0, 1), fs(0, *range(1, k))):
                w = witness_factor(k, mask_like)
                assert divides(w, interval(k))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            witness_factor(2, fs(0))
        with pytest.raises(PreconditionError):
            witness_factor(5, interval(5))


class TestDisjointness:
    @given(zero_rooted, st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_holds_on_random_sets(self, a, pad):
        k = a.max + pad
        if k < 1:
            return
        assert verify_promotion_disjointness(a, k)

    def test_verdict_matches_definition(self):
        # Each family built from the definition, one member per cofactor
        # c and promoted element by element, with none of the library's
        # promotion code; then the three conditions of the argument.
        for k in range(8):
            full = interval(k)
            for amask in range(1, 2 << k, 2):
                a = FiniteSet.from_mask(amask)
                families = []
                for bmask in range(1, amask + 1, 2):
                    b = FiniteSet.from_mask(bmask)
                    if not b.issubset(a) or not divides(b, a):
                        continue
                    family = set()
                    for c in cofactors(a, b):
                        if b.max <= c.max:
                            family.add(b)
                        if b.max >= c.max:
                            family.add(promote_by_elements(a, k, b, c.max))
                    families.append(family)
                union = set().union(*families)
                want = len(union) == sum(map(len, families))
                want = want and all(divides(m, full) for m in union)
                if a != full and k >= 3:
                    want = want and witness_factor(k, a) not in union
                assert verify_promotion_disjointness(a, k) == want, (a, k)

    def test_family_sizes_sum_to_d(self):
        # Family disjointness is what makes d(a) <= d([k]): the union of
        # the families injects the divisors of a into those of [k].
        a = fs(0, 2, 3, 4, 5, 6)
        k = 6
        members = set()
        for b in divisors(a):
            members.update(promoted_family(a, k, b).members)
        # Ties contribute two members, so the union dominates d(a); it
        # still falls short of d([k]) because the witness is missing.
        assert len(members) >= divisor_count(a)
        assert len(members) < divisor_count(interval(k))
        assert witness_factor(k, a) not in members
