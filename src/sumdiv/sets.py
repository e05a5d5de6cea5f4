"""Finite subsets of the naturals and sumset (Minkowski) divisor arithmetic.

A set is stored as a bit mask, so the sumset of two sets is a handful of
shift-or word operations and a divisibility test is a deconvolution over at
most ``max(a)`` shifts.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .errors import CapacityError, EmptyOperandError, PreconditionError

# Elements above this bound are rejected at construction time.
ELEMENT_BOUND = 63

# Divisor enumeration walks subsets of the 0-rooted core, i.e. O(2^max).
ENUMERATION_BOUND = 24

# The irreducibility test walks subsets of the core's lower half.  These
# caps keep it under about 20 s in-process on 2 cores: 11 s for a
# 20-element lower half, 16 s for count_irreducible(18), and about 4x and
# 7x more per two elements past them.
_IRREDUCIBLE_POOL_BOUND = 20
_COUNT_IRREDUCIBLE_BOUND = 18


class FiniteSet:
    """Immutable finite subset of N, canonical by element equality."""

    __slots__ = ("_mask",)

    def __init__(self, elements: Iterable[int] = ()):
        mask = 0
        for e in elements:
            e = int(e)
            if e < 0:
                raise ValueError(f"set elements must be nonnegative, got {e}")
            if e > ELEMENT_BOUND:
                raise CapacityError(
                    f"element {e} exceeds the element bound {ELEMENT_BOUND}"
                )
            mask |= 1 << e
        self._mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "FiniteSet":
        if mask < 0:
            raise ValueError("mask must be nonnegative")
        if mask.bit_length() - 1 > ELEMENT_BOUND:
            raise CapacityError(
                f"element {mask.bit_length() - 1} exceeds the element bound "
                f"{ELEMENT_BOUND}"
            )
        out = object.__new__(cls)
        out._mask = mask
        return out

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def is_empty(self) -> bool:
        return self._mask == 0

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def min(self) -> int:
        if self._mask == 0:
            raise EmptyOperandError("empty set has no minimum")
        return (self._mask & -self._mask).bit_length() - 1

    @property
    def max(self) -> int:
        if self._mask == 0:
            raise EmptyOperandError("empty set has no maximum")
        return self._mask.bit_length() - 1

    def shifted(self, j: int) -> "FiniteSet":
        """The translate self + {j}; j may be negative if min(self) >= -j."""
        if j >= 0:
            return FiniteSet.from_mask(self._mask << j)
        if self._mask and self.min < -j:
            raise ValueError(f"cannot shift {self} by {j}")
        return FiniteSet.from_mask(self._mask >> -j)

    def issubset(self, other: "FiniteSet") -> bool:
        return self._mask & ~other._mask == 0

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        mask = self._mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __contains__(self, e: int) -> bool:
        return e >= 0 and (self._mask >> e) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteSet):
            return self._mask == other._mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("FiniteSet", self._mask))

    def __str__(self) -> str:
        return "{" + ", ".join(str(e) for e in self) + "}"

    def __repr__(self) -> str:
        return f"FiniteSet({{{', '.join(str(e) for e in self)}}})"


EMPTY = FiniteSet()


def interval(k: int) -> FiniteSet:
    """The full interval {0, 1, ..., k}."""
    if k < 0:
        raise ValueError("interval endpoint must be nonnegative")
    return FiniteSet.from_mask((1 << (k + 1)) - 1)


def interval_positive(k: int) -> FiniteSet:
    """The interval {1, ..., k} (the full interval with 0 removed)."""
    if k < 1:
        raise ValueError("positive interval needs k >= 1")
    return FiniteSet.from_mask((1 << (k + 1)) - 2)


def _require_nonempty(*sets: FiniteSet) -> None:
    for s in sets:
        if s.is_empty:
            raise EmptyOperandError("empty set is not a valid operand here")


def sumset(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    """The sumset a + b = {x + y : x in a, y in b}."""
    _require_nonempty(a, b)
    mask = 0
    for e in b:
        mask |= a.mask << e
    return FiniteSet.from_mask(mask)


def _sum_masks(amask: int, bmask: int) -> int:
    out = 0
    while bmask:
        low = bmask & -bmask
        out |= amask << (low.bit_length() - 1)
        bmask ^= low
    return out


def _quotient_mask(amask: int, bmask: int) -> int:
    """Bit c set iff b + {c} is contained in a, for 0 <= c <= max(a)-max(b)."""
    q = 0
    for c in range(amask.bit_length() - bmask.bit_length() + 1):
        if (bmask << c) & ~amask == 0:
            q |= 1 << c
    return q


def _divides_mask(bmask: int, amask: int) -> bool:
    q = _quotient_mask(amask, bmask)
    return q != 0 and _sum_masks(bmask, q) == amask


def quotient_max(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    """The maximal candidate cofactor {c : b + {c} subset of a}.

    Every C with b + C = a is contained in this set; it may be empty.
    """
    _require_nonempty(a, b)
    if b.max > a.max or b.min > a.min:
        raise PreconditionError(
            f"quotient_max needs max(b) <= max(a) and min(b) <= min(a); "
            f"got a={a}, b={b}"
        )
    return FiniteSet.from_mask(_quotient_mask(a.mask, b.mask))


def divides(b: FiniteSet, a: FiniteSet) -> bool:
    """True iff some C exists with b + C = a.

    Since any valid cofactor is contained in the maximal quotient and the
    sumset is monotone under inclusion, it suffices to test the maximal one.
    """
    _require_nonempty(a, b)
    if b.max > a.max or b.min > a.min:
        return False
    return _divides_mask(b.mask, a.mask)


def _iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _check_enum_bound(top: int) -> None:
    if top > ENUMERATION_BOUND:
        raise CapacityError(
            f"divisor enumeration over max element {top} exceeds the "
            f"enumeration bound {ENUMERATION_BOUND}"
        )


def divisors(a: FiniteSet) -> list[FiniteSet]:
    """All sumset divisors of a, ordered by (cardinality, elements).

    Reduces to the 0-rooted core a - {min a}: every 0-rooted divisor of a
    0-rooted set is one of its subsets containing 0, and each divisor B of
    the core lifts to the r+1 divisors B + {j}, 0 <= j <= min(a).
    """
    _require_nonempty(a)
    _check_enum_bound(a.max)
    r = a.min
    core = a.mask >> r
    found = []
    body = core & ~1
    for sub in _iter_submasks(body):
        b0 = sub | 1
        if _divides_mask(b0, core):
            found.append(b0)
    out = [
        FiniteSet.from_mask(b0 << j) for b0 in found for j in range(r + 1)
    ]
    out.sort(key=lambda s: (len(s), s.elements))
    return out


@functools.lru_cache(maxsize=None)
def _core_divisor_count(core_mask: int) -> int:
    _check_enum_bound(core_mask.bit_length() - 1)
    body = core_mask & ~1
    return sum(
        1 for sub in _iter_submasks(body) if _divides_mask(sub | 1, core_mask)
    )


def divisor_count(a: FiniteSet) -> int:
    """d(a), the number of sumset divisors of a."""
    _require_nonempty(a)
    r = a.min
    return (r + 1) * _core_divisor_count(a.mask >> r)


@functools.lru_cache(maxsize=None)
def _core_is_irreducible(core_mask: int) -> bool:
    # A factorization core = B + C with both factors of size >= 2 can be
    # normalized so max(B) <= max(C), i.e. max(B) <= max(core) // 2.
    top = core_mask.bit_length() - 1
    pool = core_mask & ((1 << (top // 2 + 1)) - 1) & ~1
    if pool.bit_count() > _IRREDUCIBLE_POOL_BOUND:
        raise CapacityError(
            f"irreducibility test over {pool.bit_count()} elements exceeds "
            f"the bound {_IRREDUCIBLE_POOL_BOUND}"
        )
    for sub in _iter_submasks(pool):
        if sub == 0:
            continue
        if _divides_mask(sub | 1, core_mask):
            return False
    return True


def is_irreducible(a: FiniteSet) -> bool:
    """True iff a admits no factorization with both factors of size >= 2;
    CapacityError past 2^_IRREDUCIBLE_POOL_BOUND candidate factors."""
    if len(a) < 2:
        raise PreconditionError("irreducibility is undefined for |a| < 2")
    return _core_is_irreducible(a.mask >> a.min)


def count_irreducible(k: int) -> int:
    """Number of irreducible A with max(A) = k, |A| >= 2, A within [0, k]."""
    if k < 1:
        raise PreconditionError("count_irreducible needs k >= 1")
    if k > _COUNT_IRREDUCIBLE_BOUND:
        raise CapacityError(
            f"count_irreducible({k}) exceeds the bound {_COUNT_IRREDUCIBLE_BOUND}"
        )
    top = 1 << k
    total = 0
    for rest in range(1 << k):
        mask = rest | top
        if mask.bit_count() < 2:
            continue
        low = (mask & -mask).bit_length() - 1
        if _core_is_irreducible(mask >> low):
            total += 1
    return total
