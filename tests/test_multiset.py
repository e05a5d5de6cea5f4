"""Set-array representation of bounded multisets: chain arithmetic, the
base-(b+1) correspondence, and divisor counting.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdiv import (
    CapacityError,
    EMPTY,
    FiniteSet,
    LunarNumber,
    ParseError,
    PreconditionError,
    SetArray,
    beta_b,
    divisors,
    lunar_mul,
    multisum,
    setarray_divides,
    setarray_divisor_count_formula,
    setarray_divisors,
    star_collapse,
    to_set_array,
    weighted_row_sum,
)

from .oracles import naive_multisum, naive_setarray_divides


def fs(*elems) -> FiniteSet:
    return FiniteSet(elems)


@st.composite
def multiplicity_maps(draw, max_element=5, max_mult=3):
    keys = draw(st.frozensets(st.integers(0, max_element), max_size=4))
    return {e: draw(st.integers(1, max_mult)) for e in keys}


@st.composite
def set_arrays(draw, max_element=5, height=None):
    h = height if height is not None else draw(st.integers(1, 3))
    f = draw(multiplicity_maps(max_element=max_element, max_mult=h))
    return to_set_array(f, h)


class TestSetArray:
    def test_chain_validated(self):
        SetArray((fs(0, 1, 2), fs(0, 1), fs(0)))
        with pytest.raises(PreconditionError):
            SetArray((fs(0), fs(0, 1)))
        with pytest.raises(PreconditionError):
            SetArray(())

    def test_neutral(self):
        n = SetArray.neutral(3)
        assert n.coords == (fs(0), fs(0), fs(0))

    def test_multiplicities(self):
        x = SetArray((fs(0, 1, 2), fs(0, 1), fs(0)))
        assert x.multiplicity(0) == 3
        assert x.multiplicity(2) == 1
        assert x.multiplicity(5) == 0
        assert x.multiplicities() == {0: 3, 1: 2, 2: 1}

    def test_parse_round_trip(self):
        text = "({0,1,2},{0,1},{})@3"
        assert str(SetArray.parse(text)) == text

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            SetArray.parse("({0,1})")
        with pytest.raises(ParseError):
            SetArray.parse("({0,1},{0})@3")
        with pytest.raises(ParseError):
            SetArray.parse("({0,x})@1")

    @pytest.mark.parametrize(
        "text, want",
        [
            ("( {0,1} , {0} )@2", "({0,1},{0})@2"),
            ("({0},{})@2", "({0},{})@2"),
            ("({ 3 }, { })@2", "({3},{})@2"),
            ("(\t{0}\n)@1", "({0})@1"),
        ],
    )
    def test_parse_accepts(self, text, want):
        assert str(SetArray.parse(text)) == want

    @pytest.mark.parametrize(
        "text",
        [
            "({0}{1})@2",
            "({0},)@2",
            "()@0",
            "({0,})@1",
            "({0},{0}@2",
            "({0},{1}})@2",
            "({{0}})@1",
            "({-1})@1",
            "{0}@1",
            # Unbalanced braces: the whole body must parse, so no trailing
            # chunk is dropped and no garbage reads as zero coordinates.
            "({},}1)@1",
            "({0},{1(3 )@1",
            "({)@0",
            # Naturals are ASCII digits: int() would take these.
            "({0, ١})@١",
            "({0, ١})@1",
            "({0,1_0})@1",
            "({0})@+1",
            # An empty item is refused, as in a set literal.
            "({0,,3})@1",
            "({,0})@1",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            SetArray.parse(text)

    @given(set_arrays())
    def test_str_parse_round_trip(self, x):
        assert SetArray.parse(str(x)) == x

    def test_to_set_array(self):
        x = to_set_array({0: 2, 3: 1}, 2)
        assert x.coords == (fs(0, 3), fs(0))

    def test_to_set_array_overflow(self):
        with pytest.raises(PreconditionError):
            to_set_array({0: 3}, 2)
        with pytest.raises(PreconditionError):
            to_set_array({0: -1}, 2)


class TestMultisum:
    def test_figure_arrays(self):
        # The height-9 arrays of the base-10 numbers 169 and 248: their
        # sum has top coordinate {0,...,4} and empty bottom coordinate.
        x = SetArray(
            (fs(0, 1, 2),) + (fs(0, 1),) * 5 + (fs(0),) * 3
        )
        y = SetArray(
            (fs(0, 1, 2),) * 2 + (fs(0, 1),) * 2 + (fs(0),) * 4 + (EMPTY,)
        )
        z = multisum(x, y)
        assert z.coords[0] == fs(0, 1, 2, 3, 4)
        assert z.coords[8] == EMPTY
        assert beta_b(x) == LunarNumber.parse("169@10")
        assert beta_b(y) == LunarNumber.parse("248@10")
        assert beta_b(z) == LunarNumber.parse("12468@10")

    def test_height_mismatch(self):
        with pytest.raises(PreconditionError):
            multisum(SetArray.neutral(2), SetArray.neutral(3))

    @given(set_arrays(), set_arrays())
    def test_matches_naive(self, x, y):
        h = max(x.height, y.height)
        x = to_set_array(x.multiplicities(), h)
        y = to_set_array(y.multiplicities(), h)
        got = multisum(x, y)
        assert got.multiplicities() == naive_multisum(
            x.multiplicities(), y.multiplicities()
        )

    @given(set_arrays(height=3), set_arrays(height=3))
    def test_commutative(self, x, y):
        assert multisum(x, y) == multisum(y, x)

    @given(set_arrays(height=2))
    def test_neutral_element(self, x):
        assert multisum(x, SetArray.neutral(x.height)) == x

    @given(set_arrays(height=3), set_arrays(height=3))
    def test_beta_homomorphism(self, x, y):
        # beta_b(x + y) = beta_b(x) (x) beta_b(y) in base height + 1.
        assert beta_b(multisum(x, y)) == lunar_mul(beta_b(x), beta_b(y))


class TestSetArrayDivisibility:
    def test_neutral_divides_everything(self):
        x = SetArray((fs(0, 1, 3), fs(0, 1), EMPTY))
        assert setarray_divides(SetArray.neutral(3), x)
        assert setarray_divides(x, x)

    def test_height_and_zero_preconditions(self):
        with pytest.raises(PreconditionError):
            setarray_divides(SetArray.neutral(2), SetArray.neutral(3))
        with pytest.raises(PreconditionError):
            setarray_divides(SetArray.neutral(1), SetArray((EMPTY,)))

    @given(set_arrays(max_element=3), set_arrays(max_element=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive(self, x, y):
        h = max(x.height, y.height)
        if h > 2:
            h = 2
        xm = {e: min(m, h) for e, m in x.multiplicities().items()}
        ym = {e: min(m, h) for e, m in y.multiplicities().items()}
        if not xm:
            return
        xa, ya = to_set_array(xm, h), to_set_array(ym, h)
        xc = tuple(frozenset(c) for c in xa.coords)
        yc = tuple(frozenset(c) for c in ya.coords)
        assert setarray_divides(ya, xa) == naive_setarray_divides(yc, xc, h)

    @given(set_arrays(height=2, max_element=2), set_arrays(height=2, max_element=2))
    @settings(max_examples=40, deadline=None)
    def test_factors_divide_their_sum(self, x, y):
        s = multisum(x, y)
        if s.is_zero:
            return
        assert setarray_divides(x, s)
        assert setarray_divides(y, s)


class TestDivisorCounts:
    def test_plain_set_worked_example(self):
        # x = ({1}, {}) at height 2 has the divisors built from the two
        # divisors {0}, {1} of {1}, each with a free chain choice below.
        x = SetArray((fs(1), EMPTY))
        divs = setarray_divisors(x)
        assert len(divs) == 4
        assert setarray_divisor_count_formula(fs(1), 2) == 4

    def test_formula_matches_oracle(self):
        for mask_elems in ((0,), (0, 1), (0, 2), (0, 1, 2), (0, 1, 3)):
            a = FiniteSet(mask_elems)
            for b in (2, 3):
                arr = SetArray((a,) + (EMPTY,) * (b - 1))
                assert len(setarray_divisors(arr)) == (
                    setarray_divisor_count_formula(a, b)
                )

    def test_formula_closed_form(self):
        # The formula sums over the core's divisor search without listing
        # a's divisors; it must agree with the list for every nonempty A
        # within [10].
        for mask in range(1, 1 << 11):
            a = FiniteSet.from_mask(mask)
            sizes = [len(d) for d in divisors(a)]
            for b in (1, 2, 3, 4):
                assert setarray_divisor_count_formula(a, b) == sum(
                    b**size for size in sizes
                ), (a, b)

    @pytest.mark.stretch
    def test_formula_past_the_listing_cap_stretch(self):
        # [25+] = {1, ..., 25} has 2 * d([24]) = 3 785 750 divisors,
        # past the cap of 2^21 on lists; (min + 1) * sum of 2^|B| over the
        # divisors of [24] is 2 * weighted_row_sum(25, 2).
        a = FiniteSet(range(1, 26))
        assert setarray_divisor_count_formula(a, 2) == 2 * weighted_row_sum(25, 2)
        assert 2 * weighted_row_sum(25, 2) == 121_646_075_044

    def test_divisor_lists_match_naive(self):
        # Every height-2 x with max <= 3, against every nonzero chain in
        # its bounding box.
        for top in range(4):
            chains = [
                to_set_array(dict(enumerate(mults)), 2)
                for mults in itertools.product(range(3), repeat=top + 1)
                if any(mults)
            ]
            for x in chains:
                if x.coords[0].max != top:
                    continue
                xc = tuple(frozenset(c) for c in x.coords)
                want = {
                    y
                    for y in chains
                    if naive_setarray_divides(
                        tuple(frozenset(c) for c in y.coords), xc, 2
                    )
                }
                got = setarray_divisors(x)
                assert len(got) == len(want) and set(got) == want, x

    def test_height_one_lists_set_divisors(self):
        # Height 1 is base 2: the divisors of (A) are the sumset divisors
        # of A, for every nonempty A within [7].
        for mask in range(1, 1 << 8):
            a = FiniteSet.from_mask(mask)
            got = setarray_divisors(SetArray((a,)))
            assert [y.height for y in got] == [1] * len(got)
            assert sorted(y.coords[0].elements for y in got) == sorted(
                b.elements for b in divisors(a)
            ), a

    def test_budget(self):
        # The node budget of 2^22 candidates, (height + 1)^(max + 1):
        # 4^12 at height 3 and max 11.
        with pytest.raises(CapacityError):
            setarray_divisors(SetArray((fs(0, 11),) + (EMPTY,) * 2))
        assert setarray_divisors(SetArray.neutral(4)) == [SetArray.neutral(4)]

    @pytest.mark.stretch
    def test_at_budget_stretch(self):
        # 4^11 = 2^22 candidates at height 3 and max 10: the most accepted.
        divs = setarray_divisors(SetArray((fs(0, 10), EMPTY, EMPTY)))
        assert len(divs) == 12 == setarray_divisor_count_formula(fs(0, 10), 3)

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            setarray_divisors(SetArray((EMPTY, EMPTY)))


class TestStarCollapse:
    def test_shape(self):
        x = SetArray((fs(0, 1), fs(0)))
        assert star_collapse(x).coords == (fs(0, 1), EMPTY)

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            star_collapse(SetArray((EMPTY,)))

    @given(set_arrays(height=2, max_element=3))
    @settings(max_examples=30, deadline=None)
    def test_collapse_never_loses_divisors(self, x):
        if x.is_zero:
            return
        before = setarray_divisors(x)
        after = setarray_divisors(star_collapse(x))
        assert len(after) >= len(before)
        for d in before:
            assert setarray_divides(d, star_collapse(x))
