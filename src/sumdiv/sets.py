"""Finite subsets of the naturals and sumset (Minkowski) divisor arithmetic.

A set is stored as a bit mask, so the sumset of two sets is a handful of
shift-or word operations and a divisibility test is a deconvolution over at
most ``max(a)`` shifts.  The single-set questions, the divisor list, d(a)
and irreducibility, share one pruned search over the divisors of the
0-rooted core, bounded by a node budget rather than by the size of a.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator

from .errors import CapacityError, ParseError, PreconditionError

# Elements above this bound are rejected at construction time.
ELEMENT_BOUND = 63

# The one budget on divisor-list work: the divisor search (divisors,
# divisor_count, is_irreducible) raises CapacityError past this many nodes,
# and lunar_divisors in bases >= 3 past this many candidates, each costing
# about a node.  d([24]) takes 4 124 550 nodes, and a search that hits the
# budget stops after 10-19 s in-process on 2 shared cores.
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
        for e in map(operator.index, elements):
            if e < 0:
                raise PreconditionError(f"set elements must be nonnegative, got {e}")
            if e > ELEMENT_BOUND:
                raise _past_bound(e)
            mask |= 1 << e
        self._mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "FiniteSet":
        if mask < 0:
            raise PreconditionError("mask must be nonnegative")
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
            raise PreconditionError("empty set has no minimum")
        return (self._mask & -self._mask).bit_length() - 1

    @property
    def max(self) -> int:
        if self._mask == 0:
            raise PreconditionError("empty set has no maximum")
        return self._mask.bit_length() - 1

    def shifted(self, j: int) -> "FiniteSet":
        """The translate self + {j}; j may be negative if min(self) >= -j."""
        if j >= 0:
            if self._mask and self.max + j > ELEMENT_BOUND:  # before the shift
                raise _past_bound(self.max + j)
            return FiniteSet.from_mask(self._mask << j)
        if self._mask and self.min < -j:
            raise PreconditionError(f"cannot shift {self} by {j}")
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
        raise PreconditionError("interval endpoint must be nonnegative")
    if k > ELEMENT_BOUND:  # before 1 << (k + 1) allocates
        raise _past_bound(k)
    return FiniteSet.from_mask((1 << (k + 1)) - 1)


def interval_positive(k: int) -> FiniteSet:
    """The interval {1, ..., k} (the full interval with 0 removed)."""
    if k < 1:
        raise PreconditionError("positive interval needs k >= 1")
    return FiniteSet.from_mask(interval(k).mask ^ 1)


def _require_nonempty(*sets: FiniteSet) -> None:
    for s in sets:
        if s.is_empty:
            raise PreconditionError("empty set is not a valid operand here")


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
    A b with max(b) > max(a) has an empty maximal quotient, and one with
    min(b) > min(a) a sum whose min is too large, so both test False.
    """
    _require_nonempty(a, b)
    return _divides_mask(b.mask, a.mask)


def _core_divisor_masks(core: int) -> Iterator[int]:
    """The 0-rooted divisors B of a 0-rooted core, as masks, by ascending max.

    One pruned search per t = max B in the core, in ascending order.  The
    cofactor C of a divisor with max t has max M - t, where M = max core,
    so two rules decide some t before any search:
    - at t = M, C = {0} and B is the core itself;
    - t is skipped unless M - t is in the core and, past the middle, a
      divisor with max M - t was found: the maximal cofactor of a divisor
      with max t is one.
    The core's elements below t are decided upward, and Q, the maximal
    cofactor of the decided part B, shrinks by Q &= core >> e with each
    included e.  An included e needs e + M - t in the core, since every
    cofactor holds M - t.  So every completion of B lies within B and the
    candidates e' >= e with e' + M - t in the core, where e is the next
    undecided element, and its cofactor lies within Q.  Each node is cut
    when that bound plus Q leaves part of the core bare.  At the root this
    is the largest candidates' coverage; at a leaf B + Q is within the
    core, so B divides it iff B + Q == core.  Raises CapacityError after
    NODE_BUDGET nodes; d([24]) takes 4 124 550.
    """
    full = core.bit_length() - 1
    elems = [e for e in range(full + 1) if core >> e & 1]
    shifted = [core >> e for e in elems]
    nodes = 0
    found = 0  # bit t set once a divisor with max t is listed
    for i, t in enumerate(elems):
        if t == full:  # C = {0} is the only cofactor
            yield core
            return
        want = 1 << (full - t)
        q = core & shifted[i] & (2 * want - 1)
        # M - t is missing, or past the middle no divisor has max M - t.
        if not q & want or (2 * t > full and not found >> (full - t) & 1):
            continue
        cand = core & core >> (full - t) & (1 << t) - 1
        stack = [(1, 1 | 1 << t, q)]
        while stack:
            j, b, q = stack.pop()
            nodes += 1
            if nodes > NODE_BUDGET:
                raise CapacityError(
                    f"divisor search of {FiniteSet.from_mask(core)} exceeds "
                    f"the node budget {NODE_BUDGET}"
                )
            e = elems[j]  # t at a leaf, or elems[1] when t = 0
            if core & ~_sum_masks(b | cand >> e << e, q):
                continue
            if j >= i:
                found |= 1 << t
                yield b
                continue
            stack.append((j + 1, b, q))
            q2 = q & shifted[j]
            if q2 & want:
                stack.append((j + 1, b | 1 << e, q2))


def _listing_key(mask: int) -> int:
    # The (cardinality, elements) order on masks.  Of two sets of one size,
    # the one holding the lowest element where they differ comes first, so
    # it is the one whose 64-bit reversal is larger.
    return (mask.bit_count() << 64) - int(f"{mask:064b}"[::-1], 2)


def _divisor_masks(a: FiniteSet) -> list[int]:
    """The masks of all sumset divisors of nonempty a, unordered.

    Each divisor B of the 0-rooted core a - {min a} lifts to the r+1
    divisors B + {j} of a, 0 <= j <= r = min(a).  CapacityError past
    NODE_BUDGET search nodes or NODE_BUDGET / 2 divisors, a cap on lists
    only: the counts stream _core_divisor_masks and list nothing.  The
    search stops at the first core divisor past the cap.
    """
    r = a.min
    # A listed divisor costs about as much time as two search nodes, and
    # 1.97 million, those of {1, ..., 24}, is the most any set with max
    # at most 24 has.
    cap = NODE_BUDGET // 2 // (r + 1)
    found = list(itertools.islice(_core_divisor_masks(a.mask >> r), cap + 1))
    if len(found) > cap:
        raise CapacityError(f"{a} has more than {NODE_BUDGET // 2} divisors to list")
    return [b0 << j for b0 in found for j in range(r + 1)]


def divisors(a: FiniteSet) -> list[FiniteSet]:
    """All sumset divisors of a, ordered by (cardinality, elements);
    CapacityError past NODE_BUDGET search nodes or NODE_BUDGET / 2
    divisors."""
    _require_nonempty(a)
    masks = _divisor_masks(a)
    masks.sort(key=_listing_key)
    return [FiniteSet.from_mask(m) for m in masks]


# Bounded: after counting every core with max <= 18, it holds 2^16 of
# them and 10.9 MB of RSS, against all 262 144 and 17.9 MB unbounded.
@functools.lru_cache(maxsize=1 << 16)
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
    # A proper divisor B (neither {0} nor the core) whose max is past the
    # middle has a cofactor that is a proper divisor too, with a smaller
    # max, so the search lists that cofactor first and all() stops there:
    # it walks no node past the middle.
    core = a.mask >> a.min
    return all(b == 1 or b == core for b in _core_divisor_masks(core))
