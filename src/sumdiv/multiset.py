"""Multisets of bounded multiplicity as descending set-arrays.

A multiset with multiplicities at most b is the chain (A_1, ..., A_b) with
a in A_i iff the multiplicity of a is at least i.  Addition is coordinatewise
sumset addition with the empty set absorbing, and reading the multiplicities
as base-(b+1) digits turns addition into lunar multiplication.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import ParseError, PreconditionError
from .lunar import LunarNumber, lunar_divides, lunar_divisors
from .sets import EMPTY, FiniteSet, _core_divisor_masks, _natural, _naturals, sumset

# SetArray.parse's language: one coordinate "{...}" holds no brace, and a
# body is a parenthesized, comma-separated list of coordinates.
_COORDINATE = re.compile(r"\{([^{}]*)\}")
_SETARRAY_BODY = re.compile(
    rf"\(\s*{_COORDINATE.pattern}(?:\s*,\s*{_COORDINATE.pattern})*\s*\)"
)


class SetArray:
    """A height-b descending chain of finite sets."""

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable[FiniteSet]):
        coords = tuple(coords)
        if not coords:
            raise PreconditionError("a set-array needs height >= 1")
        for hi, lo in zip(coords, coords[1:]):
            if not lo.issubset(hi):
                raise PreconditionError(
                    f"coordinates must form a descending chain: "
                    f"{lo} is not contained in {hi}"
                )
        self._coords = coords

    @property
    def coords(self) -> tuple[FiniteSet, ...]:
        return self._coords

    @property
    def height(self) -> int:
        return len(self._coords)

    @property
    def is_zero(self) -> bool:
        return self._coords[0].is_empty

    @classmethod
    def neutral(cls, height: int) -> "SetArray":
        """The multiset {0, 0, ..., 0} with height repetitions of 0."""
        return cls([FiniteSet((0,))] * height)

    def multiplicity(self, e: int) -> int:
        return sum(1 for c in self._coords if e in c)

    def multiplicities(self) -> dict[int, int]:
        """Support-to-multiplicity view of the multiset."""
        if self.is_zero:
            return {}
        return {e: self.multiplicity(e) for e in self._coords[0]}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SetArray):
            return self._coords == other._coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coords)

    def __str__(self) -> str:
        body = ",".join(
            "{" + ",".join(str(e) for e in c) + "}" for c in self._coords
        )
        return f"({body})@{self.height}"

    def __repr__(self) -> str:
        return f"SetArray.parse({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "SetArray":
        body, sep, height_text = text.partition("@")
        if not sep:
            raise ParseError(f"missing '@height' annotation in {text!r}")
        height = _natural(height_text, "height")
        if not _SETARRAY_BODY.fullmatch(body):
            raise ParseError(f"malformed set-array body {body!r}")
        coords = [FiniteSet(_naturals(c, "set element")) for c in _COORDINATE.findall(body)]
        if len(coords) != height:
            raise ParseError(
                f"height annotation {height} does not match "
                f"{len(coords)} coordinates"
            )
        return cls(coords)


def to_set_array(f: Mapping[int, int], b: int) -> SetArray:
    """Chain representation of a multiplicity function with values <= b."""
    if b < 1:
        raise PreconditionError("set-array height must be >= 1")
    for e, m in f.items():
        if m < 0:
            raise PreconditionError(f"negative multiplicity for element {e}")
        if m > b:
            raise PreconditionError(
                f"multiplicity {m} of element {e} overflows height {b}"
            )
    return SetArray(
        FiniteSet(e for e, m in f.items() if m >= i) for i in range(1, b + 1)
    )


def multisum(x: SetArray, y: SetArray) -> SetArray:
    """Coordinatewise sumset addition with the empty set absorbing."""
    if x.height != y.height:
        raise PreconditionError(
            f"height mismatch: {x.height} vs {y.height}"
        )
    return SetArray(
        EMPTY if a.is_empty or b.is_empty else sumset(a, b)
        for a, b in zip(x.coords, y.coords)
    )


def beta_b(x: SetArray) -> LunarNumber:
    """The base-(height+1) number whose digit i is the multiplicity of i."""
    base = x.height + 1
    if x.is_zero:
        return LunarNumber(base)
    return LunarNumber(
        base, (x.multiplicity(i) for i in range(x.coords[0].max + 1))
    )


def star_collapse(x: SetArray) -> SetArray:
    """Replace every coordinate above the first with the empty set.

    Every divisor of x divides the result; the divisor count strictly
    increases when the second coordinate is nonempty.
    """
    if x.is_zero:
        raise PreconditionError("star_collapse needs a nonzero multiset")
    return SetArray((x.coords[0],) + (EMPTY,) * (x.height - 1))


def setarray_divides(y: SetArray, x: SetArray) -> bool:
    """True iff some chain z exists with multisum(y, z) = x, that is, iff
    beta_b(y) lunar-divides beta_b(x)."""
    if x.height != y.height:
        raise PreconditionError(
            f"height mismatch: {x.height} vs {y.height}"
        )
    if x.is_zero:
        raise PreconditionError("divisibility is defined for nonzero x only")
    return lunar_divides(beta_b(y), beta_b(x))


def setarray_divisors(x: SetArray) -> list[SetArray]:
    """All same-height divisors of x: the lunar divisors of beta_b(x), read
    back as chains.  CapacityError past sets.NODE_BUDGET: search nodes and
    NODE_BUDGET / 2 listed divisors at height 1, (height+1)^(max+1)
    candidates above it.  setarray_divisor_count_formula lists none.
    """
    if x.is_zero:
        raise PreconditionError("the zero multiset has no divisor list")
    out = [
        to_set_array(dict(enumerate(y.digits)), x.height)
        for y in lunar_divisors(beta_b(x))
    ]
    out.sort(key=lambda y: tuple(c.elements for c in y.coords))
    return out


def setarray_divisor_count_formula(a: FiniteSet, b: int) -> int:
    """Divisor count of (a, {}, ..., {}) at height b, in one search pass.

    Each divisor B of a contributes one divisor per descending chain below
    it, b ** |B| in all; the min(a) + 1 shifts of a core divisor share its size.
    """
    if b < 1:
        raise PreconditionError("height must be >= 1")
    r = a.min
    return (r + 1) * sum(b ** m.bit_count() for m in _core_divisor_masks(a.mask >> r))
