"""k-promotion: turning factors of a 0-rooted A within [0, k] into factors
of the full interval [k], the promoted family of a divisor, witness factors,
and the disjointness check behind the maximality of d([k]) on 0-rooted sets.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError
from .sets import FiniteSet, _core_divisor_masks, _divides_mask, divides, interval


class PromotedFamily(NamedTuple):
    """The set of factors of [k] obtained by promoting one divisor."""

    divisor: FiniteSet
    members: frozenset = frozenset()


def _check_zero_rooted_in(a: FiniteSet, k: int) -> None:
    if a.is_empty or a.min != 0 or a.max > k:
        raise PreconditionError(
            f"{a} is not a 0-rooted set with max <= {k}"
        )


def _promoted(b, missing, t):
    """b with each s of missing added as s when s < t and as s - t
    otherwise: the one promotion formula, on Python ints and on int64
    arrays alike."""
    return b | missing & ((1 << t) - 1) | missing >> t


def _family(b, missing, top, low) -> list:
    """What one pair B + C = A adds to the family of B, with top = max B,
    low = max C and missing = [k] minus A: b when top <= low and its
    promotion at threshold low when top >= low, both on a tie (equal
    when A = [k]).  The one family rule, on Python ints and on int64
    arrays alike."""
    members = [b] if top <= low else []
    if top >= low:
        members.append(_promoted(b, missing, low))
    return members


def promote(
    a: FiniteSet, k: int, base_factor: FiniteSet, other_max: int
) -> FiniteSet:
    """Augment base_factor into a factor of [k].

    For each s in [k] missing from a: append s itself when s < other_max,
    and s - other_max otherwise.  When the complementary factor has max
    equal to other_max, the result R satisfies (complement) + R = [k].
    """
    _check_zero_rooted_in(a, k)
    if other_max < 0:
        raise PreconditionError("other_max must be nonnegative")
    missing = interval(k).mask & ~a.mask
    # Past k every s is below other_max; the cap keeps 1 << t small.
    out = _promoted(base_factor.mask, missing, min(other_max, k + 1))
    return FiniteSet.from_mask(out)


def promoted_family(a: FiniteSet, k: int, b: FiniteSet) -> PromotedFamily:
    """The family F(b): one promoted factor of [k] per cofactor of b in a,
    by _family.  Every cofactor has max(c) = max(a) - max(b), so the
    family is read off that one value without listing the cofactors.
    """
    _check_zero_rooted_in(a, k)
    if not divides(b, a):
        raise PreconditionError(f"{b} does not divide {a}")
    missing = interval(k).mask & ~a.mask
    members = _family(b.mask, missing, b.max, a.max - b.max)
    return PromotedFamily(divisor=b, members=frozenset(map(FiniteSet.from_mask, members)))


def witness_factor(k: int, a: FiniteSet) -> FiniteSet:
    """A factor of [k] that no promoted family of a proper a can contain.

    Odd k: {0, (k+1)/2}.  Even k: {0, 2} when a = [k] minus {2}, otherwise
    {0, 1, 3, 5, ..., k-1}.
    """
    if k < 3:
        raise PreconditionError("witness factors need k >= 3")
    _check_zero_rooted_in(a, k)
    if a == interval(k):
        raise PreconditionError("witness factors need a proper subset of [k]")
    if k % 2 == 1:
        return FiniteSet((0, (k + 1) // 2))
    if a == FiniteSet(e for e in range(k + 1) if e != 2):
        return FiniteSet((0, 2))
    return FiniteSet((0,) + tuple(range(1, k, 2)))


def verify_promotion_disjointness(a: FiniteSet, k: int) -> bool:
    """Check the family-disjointness argument for one 0-rooted a.

    True iff the promoted families of all divisors of a are pairwise
    disjoint, every member divides [k], and (for proper a, k >= 3) the
    witness factor avoids their union.  The divisors stream from the one
    search, a being its own core, and the check stops at the first member
    seen before or not dividing [k]; CapacityError past NODE_BUDGET search
    nodes.
    """
    _check_zero_rooted_in(a, k)
    full = interval(k).mask
    missing = full & ~a.mask
    seen: set[int] = set()
    for b in _core_divisor_masks(a.mask):
        top = b.bit_length() - 1
        for m in set(_family(b, missing, top, a.max - top)):
            if m in seen or not _divides_mask(m, full):
                return False
            seen.add(m)
    return a.mask == full or k < 3 or witness_factor(k, a).mask not in seen
