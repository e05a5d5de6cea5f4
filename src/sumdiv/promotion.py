"""k-promotion: turning factors of a 0-rooted A within [0, k] into factors
of the full interval [k], the promoted family of a divisor, witness factors,
and the disjointness check behind the maximality of d([k]) on 0-rooted sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError
from .sets import (
    FiniteSet,
    _iter_submasks,
    _quotient_mask,
    _sum_masks,
    divides,
    divisors,
    interval,
    sumset,
)


@dataclass(frozen=True)
class Factorization:
    """A validated sumset factorization a = b + c."""

    a: FiniteSet
    b: FiniteSet
    c: FiniteSet

    def __post_init__(self):
        if sumset(self.b, self.c) != self.a:
            raise PreconditionError(
                f"{self.b} + {self.c} != {self.a}: not a factorization"
            )


@dataclass(frozen=True)
class PromotedFamily:
    """The set of factors of [k] obtained by promoting one divisor."""

    divisor: FiniteSet
    members: frozenset = field(default_factory=frozenset)


def _check_zero_rooted_in(a: FiniteSet, k: int) -> None:
    if a.is_empty or a.min != 0 or a.max > k:
        raise PreconditionError(
            f"{a} is not a 0-rooted set with max <= {k}"
        )


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
    out = base_factor.mask
    while missing:
        low = missing & -missing
        s = low.bit_length() - 1
        if s < other_max:
            out |= low
        else:
            out |= 1 << (s - other_max)
        missing ^= low
    return FiniteSet.from_mask(out)


def cofactors(a: FiniteSet, b: FiniteSet) -> list[FiniteSet]:
    """All C with b + C = a, by brute force over the maximal quotient; the
    oracle of promoted_family's shortcut in the tests."""
    if not divides(b, a):
        raise PreconditionError(f"{b} does not divide {a}")
    amask = a.mask
    qmask = _quotient_mask(amask, b.mask)
    out = []
    for cmask in _iter_submasks(qmask):
        if cmask and _sum_masks(b.mask, cmask) == amask:
            out.append(FiniteSet.from_mask(cmask))
    out.sort(key=lambda s: (len(s), s.elements))
    return out


def promoted_family(a: FiniteSet, k: int, b: FiniteSet) -> PromotedFamily:
    """The family F(b): one promoted factor of [k] per cofactor of b in a.

    For a cofactor c: b itself joins the family when max(b) <= max(c),
    and the promotion of b (threshold max(c)) joins when max(b) >= max(c);
    both join on a tie.  Every cofactor has max(c) = max(a) - max(b), so
    the family is read off that one value without listing the cofactors.
    """
    _check_zero_rooted_in(a, k)
    if not divides(b, a):
        raise PreconditionError(f"{b} does not divide {a}")
    other_max = a.max - b.max
    members = set()
    if b.max <= other_max:
        members.add(b)
    if b.max >= other_max:
        members.add(promote(a, k, b, other_max))
    return PromotedFamily(divisor=b, members=frozenset(members))


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
    witness factor avoids their union.
    """
    _check_zero_rooted_in(a, k)
    full = interval(k)
    seen: set[FiniteSet] = set()
    total = 0
    for b in divisors(a):
        fam = promoted_family(a, k, b)
        for m in fam.members:
            if not divides(m, full):
                return False
        total += len(fam.members)
        seen.update(fam.members)
    if len(seen) != total:
        return False
    if a != full and k >= 3:
        if witness_factor(k, a) in seen:
            return False
    return True
