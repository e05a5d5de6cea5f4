"""Independent brute-force oracles used to freeze expected values.

Most of it is deliberately naive: plain Python sets (or bit masks),
full search over every candidate, no reuse of the library's reductions.
Slow but obviously correct, which is the point.  Three are less naive.  The
submask walks test every subset of a 0-rooted core with the library's
divisibility kernel, which the naive oracles check, and are the oracles of
the pruned divisor search.  divisor_table sieves every factor pair of a
whole range at once, checked against direct_divisor_count and
naive_divisors, and is the oracle of the block sieve.  count_irreducible
runs the library's irreducibility test on every set, and is pi2's oracle.
cofactors lists every C with b + C = a from the library's maximal quotient,
and is the oracle of promoted_family's shortcut.
"""

from itertools import chain, combinations, product

import numpy as np

from sumdiv.errors import PreconditionError
from sumdiv.sets import (
    FiniteSet,
    _divides_mask,
    _quotient_mask,
    _sum_masks,
    divides,
    is_irreducible,
)


def naive_sumset(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(x + y for x in a for y in b)


def subsets_of(pool) -> list:
    pool = sorted(pool)
    return [
        frozenset(c)
        for r in range(len(pool) + 1)
        for c in combinations(pool, r)
    ]


def naive_divides(b: frozenset, a: frozenset) -> bool:
    """Search every nonempty C inside the bounding box of a."""
    if not b or not a:
        return False
    for c in subsets_of(range(max(a) + 1)):
        if c and naive_sumset(b, c) == a:
            return True
    return False


def naive_divisors(a: frozenset) -> list:
    out = [
        b
        for b in subsets_of(range(max(a) + 1))
        if b and naive_divides(b, a)
    ]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def direct_divisor_count(amask: int) -> int:
    """d(a) for a bit mask, with no reduction to the 0-rooted core: every
    nonzero mask within the bounding box is tested by deconvolution."""
    cands = np.arange(1, 1 << amask.bit_length(), dtype=np.int64)
    prod = np.zeros_like(cands)
    for c in range(amask.bit_length()):
        sh = cands << c
        prod |= np.where((sh & ~amask) == 0, sh, 0)
    return int(np.count_nonzero(prod == amask))


def divisor_table(max_k: int, rooted: bool = True):
    """d(A) for every 0-rooted A with max(A) <= max_k, as an int64 array
    indexed by mask (0 at even masks); with rooted=False, d(A) for every
    nonempty A with max(A) <= max_k.  One sieve over the whole range, with
    no split by max A and no pair left out: for each b = max B, row i holds
    B_i + C_j over every C with max B + max C <= max_k, and the distinct
    entries of a row are exactly the sets B_i divides.  Rooted,
    B_i = {0, b} | (i << 1) and C_j = 2j + 1; otherwise B_i = {b} | i and
    C_j = j + 1.
    """
    step, first = (2, 1) if rooted else (1, 0)
    size = 2 << max_k
    table = np.zeros(size, dtype=np.int64)
    for b in range(max_k + 1):
        cs = np.arange(1, 2 << (max_k - b), step, dtype=np.int64)
        rows = np.empty((1 << max(b - first, 0), len(cs)), dtype=np.int64)
        rows[0] = (cs | (cs << b)) if rooted else (cs << b)
        for e in range(first, b):
            n = 1 << (e - first)
            rows[n : 2 * n] = rows[:n] | cs << e
        rows.sort(axis=1)
        distinct = np.ones(rows.shape, dtype=bool)
        distinct[:, 1:] = rows[:, 1:] != rows[:, :-1]
        table += np.bincount(rows[distinct], minlength=size)
    return table


def count_irreducible(k: int) -> int:
    """Number of irreducible A with max(A) = k, |A| >= 2, A within [0, k],
    each tested on its own by the library's pruned divisor search."""
    total = 0
    for rest in range(1 << k):
        mask = rest | 1 << k
        if mask.bit_count() >= 2 and is_irreducible(FiniteSet.from_mask(mask)):
            total += 1
    return total


def _iter_submasks(mask: int):
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def cofactors(a: FiniteSet, b: FiniteSet) -> list:
    """All C with b + C = a, by brute force over the maximal quotient,
    ordered by (cardinality, elements)."""
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


def walk_divisor_masks(core: int) -> list:
    """The 0-rooted divisors of a 0-rooted core mask, in ascending mask
    order: every submask holding 0 is tested by maximal-quotient
    deconvolution, with no pruning."""
    return sorted(
        sub | 1 for sub in _iter_submasks(core & ~1) if _divides_mask(sub | 1, core)
    )


def walk_is_irreducible(core: int) -> bool:
    """No divisor B of the 0-rooted core with 0 < max B <= max(core) / 2,
    found by walking every submask of the core's lower half."""
    top = core.bit_length() - 1
    pool = core & ((1 << (top // 2 + 1)) - 1) & ~1
    return not any(
        _divides_mask(sub | 1, core) for sub in _iter_submasks(pool) if sub
    )


def naive_lunar_mul(x: tuple, y: tuple, base: int) -> tuple:
    """Digit tuples least-significant first, canonical (no top zeros)."""
    if not x or not y:
        return ()
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for k, b in enumerate(y):
            out[i + k] = max(out[i + k], min(a, b))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def naive_lunar_divides(y: tuple, n: tuple, base: int) -> bool:
    """Search every candidate cofactor digit string of fitting length."""
    if not y or len(y) > len(n):
        return False
    zlen = len(n) - len(y) + 1
    for z in product(range(base), repeat=zlen):
        if naive_lunar_mul(y, z, base) == n:
            return True
    return False


def naive_lunar_divisors(n: tuple, base: int) -> list:
    out = []
    for length in range(1, len(n) + 1):
        for digits in product(range(base), repeat=length):
            if digits[-1] != 0 and naive_lunar_divides(digits, n, base):
                out.append(digits)
    return out


def naive_headstrong(n: int) -> list:
    """All compositions of n whose first part is >= every other part."""
    def comps(t):
        if t == 0:
            yield ()
            return
        for first in range(1, t + 1):
            for rest in comps(t - first):
                yield (first, *rest)

    return [c for c in comps(n) if all(p <= c[0] for p in c)]


def naive_multisum(f: dict, g: dict) -> dict:
    """Multiset sum: the multiplicity of s is the max over decompositions
    s = e1 + e2 of min(f(e1), g(e2))."""
    out: dict = {}
    for e1, m1 in f.items():
        for e2, m2 in g.items():
            out[e1 + e2] = max(out.get(e1 + e2, 0), min(m1, m2))
    return {e: m for e, m in out.items() if m}


def naive_setarray_divides(y: tuple, x: tuple, height: int) -> bool:
    """Chains as tuples of frozensets; search every candidate chain inside
    the bounding box of the top coordinate of x."""
    if not x[0]:
        return False
    box = range(max(x[0]) + 1)
    pool = subsets_of(box)

    def coord_sum(a, b):
        return frozenset() if not a or not b else naive_sumset(a, b)

    for chain_sets in product(pool, repeat=height):
        ok = all(
            chain_sets[i + 1] <= chain_sets[i] for i in range(height - 1)
        )
        if not ok or not chain_sets[0]:
            continue
        if tuple(coord_sum(y[i], chain_sets[i]) for i in range(height)) == x:
            return True
    return False
