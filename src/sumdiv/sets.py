"""Finite subsets of the naturals and sumset (Minkowski) divisor arithmetic.

A set is stored as a bit mask, so the sumset of two sets is a handful of
shift-or word operations and a divisibility test is a deconvolution over at
most ``max(a)`` shifts.  The single-set questions, the divisor list, d(a)
and irreducibility, share one pruned search over the divisors of the
0-rooted core, bounded by a node budget rather than by the size of a.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .errors import CapacityError, EmptyOperandError, ParseError, PreconditionError

# Elements above this bound are rejected at construction time.
ELEMENT_BOUND = 63

# The divisor search (divisors, divisor_count, is_irreducible) raises
# CapacityError past this many nodes.  d([24]) takes 3.96 million, and a
# search that hits the budget stops within about 15 s in-process on 2 cores.
NODE_BUDGET = 1 << 22


def _past_bound(e: int) -> CapacityError:
    """The error for an element e above ELEMENT_BOUND; callers test the
    bound themselves, before they allocate."""
    return CapacityError(f"element {e} exceeds the element bound {ELEMENT_BOUND}")


def _natural(text: str, what: str) -> int:
    """The natural number written in text: ASCII digits, whitespace around
    them allowed.  ParseError otherwise, so signs, underscores and other
    scripts' digits are refused.  Every parser of literals reads its
    naturals here."""
    digits = text.strip()
    if digits.isascii() and digits.isdigit():
        try:
            return int(digits)
        except ValueError:  # past int()'s limit of 4300 digits
            pass
    raise ParseError(f"invalid {what} {text!r}")


def _naturals(text: str, what: str) -> list[int]:
    """The comma-separated naturals written in text, each read by _natural;
    all-whitespace text is the empty list.  Every list literal is read
    here, so an empty item such as the one in '0,,3' is refused alike."""
    if not text.strip():
        return []
    return [_natural(item, what) for item in text.split(",")]


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
                raise _past_bound(e)
            mask |= 1 << e
        self._mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "FiniteSet":
        if mask < 0:
            raise ValueError("mask must be nonnegative")
        if mask.bit_length() - 1 > ELEMENT_BOUND:
            raise _past_bound(mask.bit_length() - 1)
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
            if self._mask and self.max + j > ELEMENT_BOUND:  # before the shift
                raise _past_bound(self.max + j)
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
        return "{" + _elements_text(self._mask) + "}"

    def __repr__(self) -> str:
        return "FiniteSet({" + _elements_text(self._mask) + "})"


@functools.cache
def _byte_texts() -> list[list[str]]:
    # texts[p][v]: the elements 8p + i for the set bits i of the byte v,
    # joined by ", ".  Each bit doubles a row: the values below 2^(i+1)
    # are those below 2^i, then the same with element 8p + i appended.
    texts = []
    for p in range(8):
        row = [""]
        for e in map(str, range(8 * p, 8 * p + 8)):
            row += [t + ", " + e if t else e for t in row]
        texts.append(row)
    return texts


def _elements_text(mask: int) -> str:
    """The elements of a mask, ascending, joined by ", "."""
    texts = _byte_texts()
    parts = []
    p = 0
    while mask:
        if mask & 255:
            parts.append(texts[p][mask & 255])
        mask >>= 8
        p += 1
    return ", ".join(parts)


EMPTY = FiniteSet()


def interval(k: int) -> FiniteSet:
    """The full interval {0, 1, ..., k}."""
    if k < 0:
        raise ValueError("interval endpoint must be nonnegative")
    if k > ELEMENT_BOUND:  # before 1 << (k + 1) allocates
        raise _past_bound(k)
    return FiniteSet.from_mask((1 << (k + 1)) - 1)


def interval_positive(k: int) -> FiniteSet:
    """The interval {1, ..., k} (the full interval with 0 removed)."""
    if k < 1:
        raise ValueError("positive interval needs k >= 1")
    return FiniteSet.from_mask(interval(k).mask ^ 1)


def _require_nonempty(*sets: FiniteSet) -> None:
    for s in sets:
        if s.is_empty:
            raise EmptyOperandError("empty set is not a valid operand here")


def sumset(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    """The sumset a + b = {x + y : x in a, y in b}."""
    _require_nonempty(a, b)
    return FiniteSet.from_mask(_sum_masks(a.mask, b.mask))


def _sum_masks(amask: int, bmask: int) -> int:
    if amask.bit_count() < bmask.bit_count():
        amask, bmask = bmask, amask
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


def _core_divisor_masks(core: int, top: int | None = None) -> Iterator[int]:
    """The 0-rooted divisors B of a 0-rooted core, max B <= top, as masks.

    One pruned search per t = max B in the core, in ascending order.  The
    core's elements below t are decided upward, and Q, the maximal cofactor
    of the decided part B, shrinks by Q &= core >> e with each included e.
    A branch is cut when Q loses max - t, which every cofactor holds, or
    when B + Q misses an element of the core below the next undecided one:
    only decided elements can cover those, and Q only shrinks.  At a leaf,
    B divides the core iff B + Q == core.  Raises CapacityError after
    NODE_BUDGET nodes.
    """
    full = core.bit_length() - 1
    if top is None:
        top = full
    elems = [e for e in range(full + 1) if core >> e & 1]
    shifted = [core >> e for e in elems]
    # B's decided elements below t, reflected about full: bit full - b.
    # Then e is covered by B + Q iff Q meets reflected >> (full - e).
    reflected = [1 << (full - e) for e in elems]
    nodes = 0
    for i, t in enumerate(elems):
        if t > top:
            return
        want = 1 << (full - t)
        stack = [(1, 1 | 1 << t, 1 << full, core & shifted[i] & (2 * want - 1))]
        while stack:
            j, b, r, q = stack.pop()
            nodes += 1
            if nodes > NODE_BUDGET:
                raise CapacityError(
                    f"divisor search of {FiniteSet.from_mask(core)} exceeds "
                    f"the node budget {NODE_BUDGET}"
                )
            if j >= i:
                if _sum_masks(b, q) == core:
                    yield b
                continue
            e = elems[j]
            if q & (r >> (full - e)):
                stack.append((j + 1, b, r, q))
            q2 = q & shifted[j]
            if q2 & want:
                below = (1 << e) - 1
                if (_sum_masks(b & below, q2 & below) ^ core) & below == 0:
                    stack.append((j + 1, b | 1 << e, r | reflected[j], q2))


def _listing_key(mask: int) -> int:
    # The (cardinality, elements) order on masks.  Of two sets of one size,
    # the one holding the lowest element where they differ comes first, so
    # it is the one whose 64-bit reversal is larger.
    return (mask.bit_count() << 64) - int(f"{mask:064b}"[::-1], 2)


def _divisor_masks(a: FiniteSet) -> list[int]:
    """The masks of all sumset divisors of nonempty a, unordered.

    Reduces to the 0-rooted core a - {min a}: every 0-rooted divisor of a
    0-rooted set is one of its subsets containing 0, and each divisor B of
    the core lifts to the r+1 divisors B + {j}, 0 <= j <= min(a).
    CapacityError past NODE_BUDGET search nodes or NODE_BUDGET / 2 divisors.
    """
    r = a.min
    found = list(_core_divisor_masks(a.mask >> r))
    # A listed divisor costs about as much time as two search nodes, and
    # 1.97 million, those of {1, ..., 24}, is the most any set with max
    # at most 24 has.
    if len(found) * (r + 1) > NODE_BUDGET // 2:
        raise CapacityError(
            f"{a} has {len(found) * (r + 1)} divisors, more than "
            f"{NODE_BUDGET // 2} to list"
        )
    return [b0 << j for b0 in found for j in range(r + 1)]


def divisors(a: FiniteSet) -> list[FiniteSet]:
    """All sumset divisors of a, ordered by (cardinality, elements);
    CapacityError past NODE_BUDGET search nodes or NODE_BUDGET / 2
    divisors."""
    _require_nonempty(a)
    masks = _divisor_masks(a)
    masks.sort(key=_listing_key)
    return [FiniteSet.from_mask(m) for m in masks]


@functools.lru_cache(maxsize=None)
def _core_divisor_count(core_mask: int) -> int:
    return sum(1 for _ in _core_divisor_masks(core_mask))


def divisor_count(a: FiniteSet) -> int:
    """d(a), the number of sumset divisors of a; CapacityError past
    NODE_BUDGET search nodes."""
    _require_nonempty(a)
    r = a.min
    return (r + 1) * _core_divisor_count(a.mask >> r)


def is_irreducible(a: FiniteSet) -> bool:
    """True iff a admits no factorization with both factors of size >= 2;
    CapacityError past NODE_BUDGET search nodes."""
    if len(a) < 2:
        raise PreconditionError("irreducibility is undefined for |a| < 2")
    # A factorization core = B + C with both factors of size >= 2 can be
    # normalized so 0 < max(B) <= max(C), i.e. max(B) <= max(core) // 2;
    # B = {0} is the one divisor with max 0.
    core = a.mask >> a.min
    top = (core.bit_length() - 1) // 2
    return all(b == 1 for b in _core_divisor_masks(core, top))
