"""Base-b lunar arithmetic: digitwise-max addition, min/max multiplication.

Digits are kept least-significant first so the product digit j is the
max over i + k = j of min(x_i, y_k), mirroring an ordinary convolution
index.  Display order is most-significant first with an explicit base
annotation, e.g. "12468@10".

Base-2 divisor lists are the sumset divisors of beta_inv(n), so they
run on the pruned set search of sumdiv.sets, under its node budget and
its element bound of 63 (at most 64 digits).  Bases >= 3 try every
candidate digit string against the quotient-max test, under
DIVISOR_ENUM_BUDGET.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import (
    BaseMismatchError,
    BudgetError,
    ParseError,
    PreconditionError,
)
from .sets import FiniteSet, _divisor_masks

# lunar_mul forms len(x) * len(y) digit products, about 80 ns each in pure
# Python (1.26 s at 4000 x 4000 digits); past this many, about 20 s, it
# refuses before any work.
MUL_DIGIT_BUDGET = 250_000_000

# Divisor lists in bases >= 3 try base ** length candidates; beyond this
# we refuse.  Base 2 runs on the set search and its NODE_BUDGET instead.
DIVISOR_ENUM_BUDGET = 4_000_000

# Digit values 0-9 as the bytes of their ASCII characters.
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")

# The eight binary digits of each byte, least-significant first.
_BYTE_DIGITS = [tuple(b >> i & 1 for i in range(8)) for b in range(256)]


class LunarNumber:
    """A canonical base-b digit string (no most-significant zeros)."""

    __slots__ = ("_base", "_digits")

    def __init__(self, base: int, digits: Iterable[int] = ()):
        base = int(base)
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        digits = tuple(int(d) for d in digits)
        for d in digits:
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range for base {base}")
        top = len(digits)
        while top and digits[top - 1] == 0:
            top -= 1
        self._base = base
        self._digits = digits[:top]

    @property
    def base(self) -> int:
        return self._base

    @property
    def digits(self) -> tuple[int, ...]:
        """Digits least-significant first; empty for zero."""
        return self._digits

    @property
    def is_zero(self) -> bool:
        return not self._digits

    def __len__(self) -> int:
        return len(self._digits)

    @classmethod
    def parse(cls, text: str) -> "LunarNumber":
        body, sep, base_text = text.partition("@")
        if not sep:
            raise ParseError(f"missing '@base' annotation in {text!r}")
        try:
            # int() also takes signs, spaces, underscores and non-ASCII
            # digits, and refuses over 4300 digits.
            if not (base_text.isascii() and base_text.isdigit()):
                raise ValueError(base_text)
            base = int(base_text)
        except ValueError:
            raise ParseError(f"invalid base {base_text!r} in {text!r}") from None
        if base < 2:
            raise ParseError(f"base must be >= 2, got {base}")
        if base > 10:
            raise ParseError("textual parsing supports bases up to 10")
        if not body:
            raise ParseError(f"empty digit string in {text!r}")
        digits = []
        for pos, ch in enumerate(body):
            d = "0123456789".find(ch)
            if not 0 <= d < base:
                raise ParseError(
                    f"invalid digit {ch!r} at position {pos} for base {base}"
                )
            digits.append(d)
        return cls(base, reversed(digits))

    def __str__(self) -> str:
        if self._base <= 10:
            digits = bytes(reversed(self._digits))
            body = digits.translate(_DIGIT_CHARS).decode()
        else:
            body = "".join(str(d) for d in reversed(self._digits))
        return f"{body or '0'}@{self._base}"

    def __repr__(self) -> str:
        return f"LunarNumber.parse({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LunarNumber):
            return self._base == other._base and self._digits == other._digits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._base, self._digits))


def _binary_from_mask(mask: int) -> LunarNumber:
    """The base-2 number with digit i = bit i of a positive mask, built
    without re-checking its digits."""
    digits = ()
    while mask > 255:
        digits += _BYTE_DIGITS[mask & 255]
        mask >>= 8
    out = object.__new__(LunarNumber)
    out._base = 2
    out._digits = digits + _BYTE_DIGITS[mask][: mask.bit_length()]
    return out


def _require_same_base(x: LunarNumber, y: LunarNumber) -> None:
    if x.base != y.base:
        raise BaseMismatchError(f"base mismatch: {x.base} vs {y.base}")


def lunar_add(x: LunarNumber, y: LunarNumber) -> LunarNumber:
    """Digitwise max; the shorter operand is padded with zeros."""
    _require_same_base(x, y)
    n = max(len(x), len(y))
    xd, yd = x.digits, y.digits
    return LunarNumber(
        x.base,
        (
            max(xd[i] if i < len(xd) else 0, yd[i] if i < len(yd) else 0)
            for i in range(n)
        ),
    )


def _mul_digits(xd: tuple, yd: tuple) -> list[int]:
    """Digits of the product of two nonzero digit strings, one per column
    (the top one may be zero)."""
    out = [0] * (len(xd) + len(yd) - 1)
    for i, a in enumerate(xd):
        for k, b in enumerate(yd):
            m = a if a < b else b
            if m > out[i + k]:
                out[i + k] = m
    return out


def lunar_mul(x: LunarNumber, y: LunarNumber) -> LunarNumber:
    """Carry-free long multiplication: digit product min, column max.
    BudgetError past MUL_DIGIT_BUDGET digit products."""
    _require_same_base(x, y)
    if len(x) * len(y) > MUL_DIGIT_BUDGET:
        raise BudgetError(
            f"lunar product of {len(x)} by {len(y)} digits exceeds the budget "
            f"of {MUL_DIGIT_BUDGET} digit products"
        )
    if x.is_zero or y.is_zero:
        return LunarNumber(x.base)
    return LunarNumber(x.base, _mul_digits(x.digits, y.digits))


def identity(base: int) -> LunarNumber:
    """The multiplicative identity: the single digit base - 1."""
    return LunarNumber(base, (base - 1,))


def beta(a: FiniteSet) -> LunarNumber:
    """The binary number whose digit i is 1 iff i is in a."""
    if a.is_empty:
        return LunarNumber(2)
    return LunarNumber(2, (1 if i in a else 0 for i in range(a.max + 1)))


def beta_inv(x: LunarNumber) -> FiniteSet:
    """Inverse of beta; only defined for base-2 numbers."""
    if x.base != 2:
        raise PreconditionError(f"beta_inv needs base 2, got base {x.base}")
    return FiniteSet(i for i, d in enumerate(x.digits) if d)


def _quotient_digits(yd: tuple, nd: tuple, top: int) -> list[int]:
    """Digits of the maximal quotient of nd by yd (nonzero, no longer than
    nd): z_j is the largest digit d <= top with min(y_i, d) <= n_{i+j}
    for every i."""
    out = []
    for j in range(len(nd) - len(yd) + 1):
        d = top
        for i, yi in enumerate(yd):
            ni = nd[i + j]
            if yi > ni and ni < d:
                d = ni
        out.append(d)
    return out


def _divides_digits(yd: tuple, nd: tuple, top: int) -> bool:
    """Does yd divide nd?  Canonical digit strings, yd nonzero and no
    longer than nd, digits at most top.  The product with the maximal
    quotient never exceeds nd digitwise, and every cofactor is digitwise
    at most that quotient, so by monotonicity yd divides nd iff the
    maximal quotient is a cofactor."""
    return _mul_digits(yd, _quotient_digits(yd, nd, top)) == list(nd)


def _divisor_digits(nd: tuple, base: int):
    """The canonical divisors of nonzero nd, ordered by (length, digit
    string)."""
    top = base - 1
    for length in range(1, len(nd) + 1):
        # Digit ranges, most significant first, so product order is string
        # order.  The end columns of y (x) z are min(y_0, z_0) and the min
        # of the top digits, so y_0 >= n_0 and y's top digit >= n's.
        ranges = [range(nd[-1], base)] + [range(base)] * (length - 1)
        ranges[-1] = range(max(nd[0], ranges[-1].start), base)
        for msd_first in itertools.product(*ranges):
            yd = msd_first[::-1]
            if _divides_digits(yd, nd, top):
                yield yd


def lunar_quotient_max(n: LunarNumber, y: LunarNumber) -> LunarNumber:
    """Digitwise-maximal candidate cofactor z of length len(n) - len(y) + 1.

    z_j is the largest digit d with min(y_i, d) <= n_{i+j} for every i;
    y divides n iff lunar_mul(y, z) == n, by digitwise monotonicity.
    """
    _require_same_base(n, y)
    if y.is_zero:
        raise PreconditionError("cannot divide by lunar zero")
    if len(y) > len(n):
        raise PreconditionError("divisor is longer than the dividend")
    top = n.base - 1
    return LunarNumber(n.base, _quotient_digits(y.digits, n.digits, top))


def lunar_divides(y: LunarNumber, n: LunarNumber) -> bool:
    _require_same_base(y, n)
    if y.is_zero or len(y) > len(n):
        return False
    return _divides_digits(y.digits, n.digits, n.base - 1)


def lunar_divisors(n: LunarNumber) -> list[LunarNumber]:
    """All canonical y with y (x) z = n, ordered by (length, digit string).

    Base 2 lists the sumset divisors of beta_inv(n), whose ascending masks
    are exactly that order; CapacityError past the set search's bounds.
    Other bases raise BudgetError past DIVISOR_ENUM_BUDGET candidates.
    """
    if n.is_zero:
        raise PreconditionError("lunar zero has no divisor list")
    if n.base == 2:
        return [_binary_from_mask(m) for m in _binary_divisor_masks(n)]
    if n.base ** len(n) > DIVISOR_ENUM_BUDGET:
        raise BudgetError(
            f"divisor enumeration over base {n.base}, length {len(n)} exceeds "
            f"the budget of {DIVISOR_ENUM_BUDGET} candidates"
        )
    return [
        LunarNumber(n.base, yd) for yd in _divisor_digits(n.digits, n.base)
    ]


def _binary_divisor_masks(n: LunarNumber) -> list[int]:
    """The divisors of a nonzero base-2 n as ascending masks, digit i at
    bit i: lunar_divisors' order, without a LunarNumber per divisor."""
    masks = _divisor_masks(beta_inv(n))
    masks.sort()
    return masks


def lunar_divisor_count(n: LunarNumber) -> int:
    """d_b(n), the number of lunar divisors of n."""
    return len(lunar_divisors(n))
