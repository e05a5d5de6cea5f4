"""Lunar (carry-free max/min) arithmetic and the binary correspondence
with finite sets.
"""

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumdiv import (
    CapacityError,
    FiniteSet,
    LunarNumber,
    ParseError,
    PreconditionError,
    beta,
    beta_inv,
    divisor_count,
    divisors,
    headstrong_count,
    identity,
    interval,
    lunar,
    lunar_add,
    lunar_divides,
    lunar_divisor_count,
    lunar_divisors,
    lunar_mul,
    lunar_quotient_max,
    sets,
    setarray_divisor_count_formula,
    sumset,
)
from sumdiv.lunar import _divisor_digits

from .fresh import fresh
from .oracles import naive_lunar_divides, naive_lunar_divisors, naive_lunar_mul


def ln(text: str) -> LunarNumber:
    return LunarNumber.parse(text)


@st.composite
def lunar_numbers(draw, max_base=10, max_len=6, min_base=2):
    base = draw(st.integers(min_base, max_base))
    digits = draw(
        st.lists(st.integers(0, base - 1), min_size=0, max_size=max_len)
    )
    return LunarNumber(base, digits)


def pairs_same_base(max_base=10, max_len=6):
    return st.integers(2, max_base).flatmap(
        lambda b: st.tuples(
            st.lists(st.integers(0, b - 1), max_size=max_len).map(
                lambda d: LunarNumber(b, d)
            ),
            st.lists(st.integers(0, b - 1), max_size=max_len).map(
                lambda d: LunarNumber(b, d)
            ),
        )
    )


class TestLunarNumber:
    def test_parse_round_trip(self):
        assert str(ln("169@10")) == "169@10"
        assert str(ln("101@2")) == "101@2"

    def test_canonical_drops_leading_zeros(self):
        assert ln("00169@10") == ln("169@10")
        assert LunarNumber(10, (9, 6, 1, 0, 0)) == ln("169@10")

    def test_zero(self):
        z = LunarNumber(7)
        assert z.is_zero and len(z) == 0
        assert str(z) == "0@7"
        assert ln("0@7") == z

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            ln("169")
        with pytest.raises(ParseError):
            ln("12@1")
        with pytest.raises(ParseError):
            ln("19@5")
        with pytest.raises(ParseError):
            ln("@10")
        with pytest.raises(ParseError):
            ln("12@16")

    @pytest.mark.parametrize(
        "text",
        ["1²@3", "1٣@10", "٣@10", "1 @2"]
        + ["1@١٠", "1@1_0", "1@ 2", "1@" + "1" * 5000],
    )
    def test_parse_accepts_only_ascii_digits(self, text):
        with pytest.raises(ParseError):
            ln(text)

    def test_long_leading_zeros_stripped_in_linear_time(self):
        start = time.perf_counter()
        x = LunarNumber(2, [1] + [0] * 200_000)
        assert time.perf_counter() - start < 2
        assert x.digits == (1,) and x == ln("1@2")

    def test_digit_range_enforced(self):
        with pytest.raises(PreconditionError):
            LunarNumber(3, (3,))
        with pytest.raises(PreconditionError):
            LunarNumber(1)

    def test_base_and_digits_must_be_integers(self):
        # Read with operator.index: 1.9 is not truncated to the digit 1,
        # nor 2.5 to the base 2.
        for base, digits in ((3, [1.9, 2]), (2.5, [1]), ("3", [1]), (3, ["1"])):
            with pytest.raises(TypeError):
                LunarNumber(base, digits)
        assert LunarNumber(True + 1, [True]) == ln("1@2")

    @given(lunar_numbers())
    def test_str_parse_round_trip(self, x):
        assert LunarNumber.parse(str(x)) == x

    @given(lunar_numbers(max_base=300))
    @example(LunarNumber(11, (10, 0, 1)))
    def test_str_writes_each_digit_in_decimal(self, x):
        # Digits run together up to base 10, and are separated above it.
        sep = ":" if x.base > 10 else ""
        body = sep.join(str(d) for d in reversed(x.digits)) or "0"
        assert str(x) == f"{body}@{x.base}"

    @given(
        st.integers(2, 16).flatmap(
            lambda b: st.lists(lunar_numbers(min_base=b, max_base=b, max_len=3))
        )
    )
    @example([LunarNumber(11, (10,)), LunarNumber(11, (0, 1))])
    def test_text_is_one_to_one(self, xs):
        # Without a separator both examples would print as 10@11.
        assert len({str(x) for x in xs}) == len(set(xs))
        assert len({repr(x) for x in xs}) == len(set(xs))
        for x in xs:
            assert eval(repr(x), {"LunarNumber": LunarNumber}) == x


class TestAddMul:
    def test_worked_add(self):
        assert lunar_add(ln("169@10"), ln("248@10")) == ln("269@10")

    def test_worked_mul(self):
        assert lunar_mul(ln("169@10"), ln("248@10")) == ln("12468@10")

    def test_worked_binary_mul(self):
        assert lunar_mul(ln("101@2"), ln("10110@2")) == ln("1011110@2")

    def test_base_mismatch(self):
        with pytest.raises(PreconditionError):
            lunar_add(ln("1@2"), ln("1@3"))
        with pytest.raises(PreconditionError):
            lunar_mul(ln("1@2"), ln("1@3"))

    def test_mul_budget(self, monkeypatch):
        monkeypatch.setattr("sumdiv.lunar.MUL_DIGIT_BUDGET", 12)
        assert lunar_mul(ln("111@2"), ln("1111@2")) == ln("111111@2")
        with pytest.raises(CapacityError):
            lunar_mul(ln("1111@2"), ln("1111@2"))

    @given(pairs_same_base())
    def test_mul_matches_naive(self, pair):
        x, y = pair
        got = lunar_mul(x, y)
        assert got.digits == naive_lunar_mul(x.digits, y.digits, x.base)

    @given(pairs_same_base())
    def test_commutative(self, pair):
        x, y = pair
        assert lunar_add(x, y) == lunar_add(y, x)
        assert lunar_mul(x, y) == lunar_mul(y, x)

    @given(
        st.integers(2, 6).flatmap(
            lambda b: st.tuples(
                *(
                    st.lists(st.integers(0, b - 1), max_size=4).map(
                        lambda d: LunarNumber(b, d)
                    ),
                )
                * 3
            )
        )
    )
    def test_associative_and_distributive(self, triple):
        x, y, z = triple
        assert lunar_mul(lunar_mul(x, y), z) == lunar_mul(x, lunar_mul(y, z))
        assert lunar_add(lunar_add(x, y), z) == lunar_add(x, lunar_add(y, z))
        assert lunar_mul(x, lunar_add(y, z)) == lunar_add(
            lunar_mul(x, y), lunar_mul(x, z)
        )

    @given(lunar_numbers())
    def test_identity(self, x):
        e = identity(x.base)
        assert lunar_mul(x, e) == x
        assert lunar_add(x, LunarNumber(x.base)) == x

    @given(lunar_numbers())
    def test_add_idempotent(self, x):
        assert lunar_add(x, x) == x


binary_sets = st.frozensets(st.integers(0, 10), min_size=1, max_size=6)


class TestBeta:
    def test_examples(self):
        assert beta(FiniteSet((0, 2, 3))) == ln("1101@2")
        assert beta(FiniteSet((0,))) == ln("1@2")
        assert beta(FiniteSet()).is_zero
        assert beta(FiniteSet((0, 9, 63))) == ln("1" + "0" * 53 + "1" + "0" * 8 + "1@2")

    @given(binary_sets)
    def test_round_trip(self, a):
        x = FiniteSet(a)
        assert beta_inv(beta(x)) == x

    def test_beta_inv_base_restriction(self):
        with pytest.raises(PreconditionError):
            beta_inv(ln("12@3"))

    @given(binary_sets, binary_sets)
    def test_homomorphism(self, a, b):
        # beta(A + B) = beta(A) (x) beta(B).
        x, y = FiniteSet(a), FiniteSet(b)
        assert beta(sumset(x, y)) == lunar_mul(beta(x), beta(y))


class TestLunarDivisibility:
    def test_quotient_max_preconditions(self):
        with pytest.raises(PreconditionError):
            lunar_quotient_max(ln("1@2"), LunarNumber(2))
        with pytest.raises(PreconditionError):
            lunar_quotient_max(ln("1@2"), ln("11@2"))

    def test_quotient_recovers_known_factor(self):
        n, y = ln("1011110@2"), ln("101@2")
        assert lunar_mul(y, lunar_quotient_max(n, y)) == n

    @given(pairs_same_base(max_base=3, max_len=5))
    @settings(max_examples=60, deadline=None)
    def test_divides_matches_naive(self, pair):
        n, y = pair
        if n.is_zero:
            return
        assert lunar_divides(y, n) == naive_lunar_divides(
            y.digits, n.digits, n.base
        )

    def test_divisor_lists_match_naive(self):
        for text in ("1110@2", "11@3", "120@3", "169@10"):
            n = ln(text)
            got = [d.digits for d in lunar_divisors(n)]
            want = naive_lunar_divisors(n.digits, n.base)
            assert got == sorted(want, key=lambda d: (len(d), d[::-1]))

    def test_zero_one_lists_in_bases_3_to_10(self):
        # Every 0/1-digit number with base^length <= 3^7, the class of the
        # set-array images (A, {}, ..., {}): the list is strictly increasing
        # in (length, digit string), each entry divides n, and its length is
        # the chain formula's count at height base - 1.
        for base in range(3, 11):
            length = 1
            while base**length <= 3**7:
                for low in range(1 << (length - 1)):
                    digits = [low >> i & 1 for i in range(length - 1)] + [1]
                    n = LunarNumber(base, digits)
                    divs = lunar_divisors(n)
                    keys = [(len(d), d.digits[::-1]) for d in divs]
                    assert all(a < b for a, b in zip(keys, keys[1:])), n
                    assert all(lunar_divides(d, n) for d in divs), n
                    support = FiniteSet(i for i, d in enumerate(digits) if d)
                    assert len(divs) == setarray_divisor_count_formula(
                        support, base - 1
                    ), n
                length += 1

    def test_known_counts(self):
        # d_2(1110) = 6 and d_3(11) = 6.
        assert lunar_divisor_count(ln("1110@2")) == 6
        assert lunar_divisor_count(ln("11@3")) == 6

    def test_divisors_of_zero_rejected(self):
        for base in (2, 3):
            with pytest.raises(PreconditionError):
                lunar_divisors(LunarNumber(base))
            with pytest.raises(PreconditionError):
                lunar_divisor_count(LunarNumber(base))

    @staticmethod
    def _counts_match_lists(base: int, max_len: int):
        for length in range(1, max_len + 1):
            for low in itertools.product(range(base), repeat=length - 1):
                for top in range(1, base):
                    n = LunarNumber(base, low + (top,))
                    assert lunar_divisor_count(n) == len(lunar_divisors(n)), n

    def test_counts_match_lists_in_bases_3_to_5(self):
        # The count streams the candidate loop: every nonzero number of up
        # to 5 digits in bases 3 and 4, and of up to 4 in base 5.
        for base, max_len in ((3, 5), (4, 5), (5, 4)):
            self._counts_match_lists(base, max_len)

    @pytest.mark.stretch
    def test_counts_match_lists_in_base_5_stretch(self):
        # The 5-digit numbers in base 5 take about 17 s.
        self._counts_match_lists(5, 5)

    def test_enum_budget(self):
        with pytest.raises(CapacityError):
            lunar_divisors(LunarNumber(10, [1] * 8))

    def test_binary_lists_match_candidate_loop(self):
        # Base 2 runs on the set search; the candidate loop is its oracle,
        # list and order, for every binary number of up to 10 digits.  The
        # count, which builds no list, is the list's length up to 14 digits.
        for length in range(1, 15):
            for low in range(1 << (length - 1)):
                low_digits = [low >> i & 1 for i in range(length - 1)]
                n = LunarNumber(2, low_digits + [1])
                divs = lunar_divisors(n)
                assert lunar_divisor_count(n) == len(divs), n
                if length <= 10:
                    want = list(_divisor_digits(n.digits, 2))
                    assert [d.digits for d in divs] == want, n

    def test_binary_count_of_ones_is_headstrong(self):
        # L ones is beta([L - 1]), and d([k]) = headstrong_count(k + 1).
        for length in range(1, 19):
            n = LunarNumber(2, [1] * length)
            assert lunar_divisor_count(n) == headstrong_count(length)

    def test_binary_past_candidate_budget(self):
        # 2^22 candidates at 22 digits: the whole budget of the candidate
        # loop, well within the set search.
        n = ln("1101101101101101101101@2")
        divs = lunar_divisors(n)
        assert divs == sorted(divs, key=lambda d: (len(d), d.digits[::-1]))
        assert len(divs) == lunar_divisor_count(n) == 263
        assert all(lunar_divides(d, n) for d in divs)

    def test_binary_64_digit_bound(self):
        n = LunarNumber(2, [1] + [0] * 62 + [1])
        assert lunar_divisors(n) == [ln("1@2"), n]
        assert lunar_divisor_count(n) == 2
        too_long = LunarNumber(2, [1] + [0] * 63 + [1])
        with pytest.raises(CapacityError):
            lunar_divisors(too_long)
        with pytest.raises(CapacityError):
            lunar_divisor_count(too_long)

    def test_node_budget_in_base_3(self, monkeypatch):
        # The one budget bounds the candidate loop too: 3^5 candidates.
        monkeypatch.setattr(sets, "NODE_BUDGET", 100)
        four_ones = LunarNumber(3, [1] * 4)
        assert lunar_divisor_count(four_ones) == setarray_divisor_count_formula(
            FiniteSet(range(4)), 2
        )
        # Past it the list and the count refuse before trying a candidate.
        monkeypatch.setattr(lunar, "_divides_digits", None)
        for refused in (lunar_divisors, lunar_divisor_count):
            with pytest.raises(CapacityError):
                refused(LunarNumber(3, [1] * 5))

    def test_binary_node_budget(self, monkeypatch):
        # d_2 shares divisor_count's cache, so it is cleared: the count
        # must be searched for, not looked up.
        monkeypatch.setattr(sets, "NODE_BUDGET", 50)
        sets._core_divisor_count.cache_clear()
        n = LunarNumber(2, [1] * 16)
        with pytest.raises(CapacityError):
            lunar_divisors(n)
        with pytest.raises(CapacityError):
            lunar_divisor_count(n)

    def test_binary_count_past_the_listing_cap(self):
        # {44, ..., 63} has 45 * d([19]) = 3 310 290 divisors, past the cap
        # of 2^21 on lists; the counts stream the search and are not capped.
        a = FiniteSet(range(44, 64))
        assert lunar_divisor_count(beta(a)) == divisor_count(a) == 3_310_290
        assert setarray_divisor_count_formula(a, 1) == 3_310_290
        with pytest.raises(CapacityError):
            lunar_divisors(beta(a))
        with pytest.raises(CapacityError):
            divisors(a)

    def test_binary_count_builds_no_list(self):
        # d_2 of 22 ones streams the set search in a fresh process and lists
        # none of its 268 066 divisors: the peak stays near the 13 MB
        # measured on 2 cores, where a count that builds the list peaks
        # near 88 MB.
        out, peak = fresh(
            "from sumdiv import LunarNumber, lunar_divisor_count\n"
            "print(lunar_divisor_count(LunarNumber(2, [1] * 22)))"
        )
        assert int(out) == headstrong_count(22)
        assert peak is None or peak <= 30 << 10, peak

    def test_base_3_count_builds_no_list(self):
        # d_3 of 12 ones streams the candidate loop: the sum-multiset
        # correspondence at height 2 gives the chain count of [11].  Its
        # 75 514 divisors are counted at a peak near the 14 MB measured on
        # 2 cores, where a count of the list peaks near 27 MB.
        out, peak = fresh(
            "from sumdiv import LunarNumber, lunar_divisor_count\n"
            "print(lunar_divisor_count(LunarNumber(3, [1] * 12)))"
        )
        assert int(out) == setarray_divisor_count_formula(interval(11), 2)
        assert peak is None or peak <= 20 << 10, peak

    def test_ordering(self):
        divs = lunar_divisors(ln("1110@2"))
        keys = [(len(d), tuple(reversed(d.digits))) for d in divs]
        assert keys == sorted(keys)

    @given(binary_sets)
    @settings(max_examples=30, deadline=None)
    def test_binary_divisor_count_matches_sets(self, a):
        # d(A) = d_2(beta(A)) through the correspondence.
        x = FiniteSet(a)
        assert divisor_count(x) == lunar_divisor_count(beta(x))
