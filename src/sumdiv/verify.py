"""Exhaustive desk-scale verification sweeps and conjecture probes.

Theorem targets report pass/fail with explicit counterexamples; conjecture
probes only ever report evidence.  The set targets share one pair sieve of
divisor counts (numpy, imported only when a sweep runs), run one block of
sets with max A = m at a time.  A block does not depend on any target's
range, so each process reduces a rooted block once to the summary that
crlodd, crleven, odd2 and pi2 read: its top and second d with the sets
reaching them, d([m]), every set with d >= d([m]) and its count of d = 2.
One generator, _block_pairs, fills the sums B + C of a block one b = max B
at a time, sorts them and marks its distinct divisor pairs (B, A): the
counts add them up, and crlodd's promotion phase applies the family rule
to each of them once.  The pairs B = {0} and B = A, which every set has,
are never sieved: the counts add them as 2 and the promotion phase applies
the family rule to them as to the sieved pairs.
L15 streams whole blocks, and checks the rooted ones, through the
translation lemma, against the blocks sieved over all pairs.  bases runs a
pure-Python pair sieve over multisets packed as chains of sets, so it
never loads numpy.  Every target runs in the calling process.

A target is one row of _TARGETS: its runner and each size parameter's
default and bound.  Runners return their counterexamples and details, and
run_target checks the parameters, times the runner and builds the report.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache
from typing import Callable, NamedTuple

from . import promotion
from .errors import CapacityError, PreconditionError
from .sets import FiniteSet, interval

THEOREM_TARGETS = ("crlodd", "crleven", "L15", "bases")
CONJECTURE_TARGETS = ("odd2", "pi2")

# bases checks the chain-count formula on the 0-rooted sets within [5].
FORMULA_MAX_ELEMENT = 5
FORMULA_HEIGHTS = (2, 3)


class VerificationReport(NamedTuple):
    target: str
    range: dict
    status: str  # "pass" | "fail" | "evidence-only"
    counterexamples: list
    details: dict
    elapsed: float
    meta: dict  # how the run went, not its result

    def to_dict(self) -> dict:
        # elapsed lives in the metadata section so the data section is
        # byte-stable across runs.
        return {
            "data": {
                "target": self.target,
                "range": self.range,
                "status": self.status,
                "counterexamples": self.counterexamples,
                "details": self.details,
            },
            "meta": {
                "elapsed_seconds": self.elapsed,
                **self.meta,
            },
        }


# ---------------------------------------------------------------------------
# The divisor sieve, one block of sets with max A = m at a time.

# _block_pairs fills a b's rows this many columns at a time, and marks and
# yields their sorted sums this many at a time, so that the sieve's
# temporaries stay small next to a block's rows.
_CHUNK = 1 << 20


def _block_pairs(m: int, rooted: bool = True):
    """The distinct divisor pairs (B, A) among the sieve pairs (B, C) with
    max B + max C = m and 0 < max B < m.  Rooted, B_i = {0, b} | (i << 1)
    and C_j = {0, m - b} | (j << 1) run over the 0-rooted sets, 2^(b-1) by
    2^(m-b-1); otherwise B_i = {b} | i and C_j = {m - b} | j, 2^b by
    2^(m-b).  The pairs B = {0} and B = A, which every set has, are left
    to the callers.  Masks are int32, so m <= 30.

    For each b = max B, fills the rows B_i + C_j, which all lie in
    [2^m, 2^(m+1)), sorts each row and reads them as one flat array; for
    each _CHUNK of it, yields b, the chunk's offset s, the row width, the
    chunk and the flags that mark each entry unlike every other entry of
    its row.  The flagged entries are exactly the sets A that B divides,
    once each, B_i the row (s + p) // width of the chunk's entry p.

    A consumer drops its references to a chunk before it asks for the
    next one, so that two b's rows are never held at once.
    """
    import numpy as np

    step, first = (2, 1) if rooted else (1, 0)
    for b in range(1, m):
        rows = np.empty((1 << (b - first), 1 << (m - b - first)), dtype=np.int32)
        # Row 0 is C shifted by b, or'ed with C when rooted; each element e
        # of B below b doubles the filled rows, the row of B | {e} being
        # the row of B or'ed with C shifted by e.  The C are made _CHUNK
        # sets at a time, so that no list of them all is held.
        c0, cs = 1 << (m - b) | first, 1 << (m - b - first)  # first C, how many
        for j in range(0, cs, _CHUNK):
            stop = c0 + step * min(j + _CHUNK, cs)
            c = np.arange(c0 + step * j, stop, step, dtype=np.int32)
            part = rows[:, j : j + _CHUNK]
            np.left_shift(c, b, out=part[0])
            if rooted:
                np.bitwise_or(part[0], c, out=part[0])
            for e in range(first, b):
                n = 1 << (e - first)
                np.left_shift(c, e, out=part[n : 2 * n])
                np.bitwise_or(part[n : 2 * n], part[:n], out=part[n : 2 * n])
        rows.sort(axis=1)
        width, flat = rows.shape[1], rows.reshape(-1)
        del rows, c, part
        for s in range(0, len(flat), _CHUNK):
            # Keep each row's first entry and each entry unlike the one before.
            part = flat[s : s + _CHUNK]
            distinct = np.empty(len(part), dtype=bool)
            np.not_equal(part[1:], part[:-1], out=distinct[1:])
            distinct[0] = s % width == 0 or part[0] != flat[s - 1]
            distinct[-s % width :: width] = True
            yield b, s, width, part, distinct
        del flat, part  # before the next b allocates its rows


# How many blocks _block_counts has sieved in this process.
_SIEVED = [0]
# Seconds per phase of the running target, for its meta: a runner with
# phases fills it.
_PHASES: dict = {}

def _block_counts(m: int, rooted: bool = True):
    """d(A) for every A with max A = m, as uint32 counts[i]: rooted, for
    the 0-rooted A = 2^m | 2i | 1 (i = 0 is {0} at m = 0); otherwise for
    every A = 2^m | i, counted from all pairs without the reduction.

    Each distinct pair of _block_pairs adds 1 to its A.  The pairs
    B = {0} and B = A are added as 2 (1 at m = 0) without sieving.
    """
    import numpy as np

    _SIEVED[0] += 1
    size = 1 << max(m - rooted, 0)
    counts = np.full(size, 2 if m else 1, dtype=np.uint32)
    one = np.uint32(1)  # a uint32 increment keeps np.add.at on its fast path
    for _, _, _, part, distinct in _block_pairs(m, rooted):
        index = part[distinct]
        if rooted:
            index >>= 1
        index &= size - 1
        np.add.at(counts, index, one)
        del part, distinct, index  # before _block_pairs sieves the next b
    return counts


class _Block(NamedTuple):
    """What the table targets read of one rooted block."""

    top: int  # the largest d among the 0-rooted sets with max m
    top_masks: tuple  # the sets reaching it, ascending
    second: int  # the next largest d, 0 when there is none
    second_masks: tuple
    full: int  # d([m])
    leaders: tuple  # (mask, d) of each set with d >= d([m]), ascending
    twos: int  # how many have d = 2, the irreducible ones for m >= 1


@lru_cache(maxsize=None)
def _block_summary(m: int) -> _Block:
    """The summary of rooted block m.  It does not depend on any target's
    range, so each process sieves a block at most once."""
    counts = _block_counts(m)
    base = 1 << m | 1

    def masks(i) -> tuple:
        return tuple((i << 1 | base).tolist())

    full = int(counts[-1])
    at = (counts >= full).nonzero()[0]  # [m] is one, so the top sets are too
    leaders = tuple(zip(masks(at), counts[at].tolist()))
    top = max(d for _, d in leaders)
    top_at = at[counts[at] == top]
    twos = int((counts == 2).sum())
    counts[top_at] = 0
    second = int(counts.max())
    second_at = (counts == second).nonzero()[0] if second else top_at[:0]
    return _Block(top, masks(top_at), second, masks(second_at), full, leaders, twos)


def _set_text(mask: int) -> str:
    return str(FiniteSet.from_mask(mask))


def _promotion_members(max_k: int):
    """The promoted families of every 0-rooted A with max(A) <= k, for
    each k in 1..max_k, read off the distinct rooted pairs (B, A) of
    _block_pairs.

    Yields k, m and int64 arrays a, member for the a with max(a) = m, m
    descending from max_k and, for each m, k ascending from m: one entry
    per member of the family of each divisor of a, sorted by (a, member),
    so that a member of two families shows twice.  Each pair adds the
    members promotion._family gives it, the two members of a tie once
    where they are equal, and the pairs B = {0} and B = A, which
    _block_pairs leaves out, are included.  Only block m's pairs are held.
    Keys pack a and member in 2k + 2 bits, so k <= 30.
    """
    import numpy as np

    for m in range(max_k, -1, -1):
        block = 1 | 1 << m | np.arange(1 << max(m - 1, 0), dtype=np.int64) << 1
        pairs = [(0, block, 1)]  # (max B, A, B); at m = 0, B = {0} is B = A
        if m:
            pairs.append((m, block, block))
        for top, s, width, part, distinct in _block_pairs(m):
            row = (s + distinct.nonzero()[0]) // width
            pairs.append((top, part[distinct].astype(np.int64), 1 | 1 << top | row << 1))
            del part, distinct, row  # before _block_pairs sieves the next b
        for k in range(max(m, 1), max_k + 1):
            full = (2 << k) - 1
            keys = []
            for top, a, b in pairs:
                members = promotion._family(b, full & ~a, top, m - top)
                for i, member in enumerate(members):
                    key = a << (k + 1) | member
                    keys.append(key[member != b] if i else key)  # i = 1 on a tie
            keys = np.concatenate(keys)
            keys.sort()
            a = keys >> (k + 1)
            keys &= full  # the members, in place: two arrays of this size, not three
            yield k, m, a, keys
            del a, keys  # before the next k builds its keys


def _promotion_failures(max_k: int) -> list:
    """Every 0-rooted A with max(A) <= k <= max_k whose promoted families
    share a member, hold a non-divisor of [k], or (proper A, k >= 3) hold
    its witness factor: promotion.verify_promotion_disjointness over all
    of them at once."""
    import numpy as np

    bad = []
    divides_full = {}  # k -> which masks divide [k]
    for k, m, a, member in _promotion_members(max_k):
        full = (2 << k) - 1
        if m == k:  # block k comes first for this k; [k]'s members are its divisors
            divides_full[k] = np.zeros(2 << k, dtype=bool)
            divides_full[k][member[a == full]] = True
        flag = ~divides_full[k][member]
        # Sorted by (a, member), so a member of two families is adjacent.
        flag[1:] |= (a[1:] == a[:-1]) & (member[1:] == member[:-1])
        if k >= 3:  # the witness depends on a only at a = [k] - {2}
            odd_one = full & ~4
            usual, other = (
                promotion.witness_factor(k, FiniteSet.from_mask(s)).mask
                for s in (1 | 1 << k, odd_one)
            )
            proper = (member == usual) & (a != full)
            flag |= np.where(a == odd_one, member == other, proper)
        bad.extend(
            {"set": _set_text(s), "k": k, "issue": "promotion families"}
            for s in sorted(set(a[flag].tolist()))
        )
        del a, member, flag  # before _promotion_members builds the next k
    return bad


# ---------------------------------------------------------------------------
# Theorem targets.

def run_crlodd(max_k: int, promotion_max_k: int) -> tuple[list, dict]:
    """[k] is the unique d-maximum among 0-rooted sets with max <= k,
    plus the promotion-family disjointness that underpins it."""
    start = time.perf_counter()
    bad = _promotion_failures(promotion_max_k)  # first, so the peaks never add
    blocks_start = time.perf_counter()
    # A rival of [k] in block m <= k is among the block's leaders while
    # d([m]) <= d([k]), as d([m]) = H(m + 1) keeps it; a block past d([k])
    # still reports [m].
    blocks = [_block_summary(m) for m in range(max_k + 1)]
    for k in range(max_k + 1):
        full, limit = (2 << k) - 1, blocks[k].full
        for m in range(k + 1):
            for mask, d in blocks[m].leaders:
                if d >= limit and mask != full:
                    bad.append(
                        {"k": k, "set": _set_text(mask), "d": d, "limit": limit}
                    )
    bad.sort(key=lambda c: (c["k"], c["set"]))
    _PHASES.update(promotion=blocks_start - start, blocks=time.perf_counter() - blocks_start)
    return bad, {"d_full_interval": blocks[-1].full}


def run_crleven(max_k: int) -> tuple[list, dict]:
    """[k+] = {1,...,k} is the d-maximum over all nonempty subsets of [k],
    unique except the documented ties at k = 1 and k = 3.

    A subset with min r and core A - {r} in block j has d = (r + 1) d(core)
    and r <= k - j, so the maximum over [k] is max_j (k - j + 1) M_j, M_j
    the top of block j, reached exactly by block j's top sets shifted by
    k - j for each j attaining it."""
    tops = [_block_summary(j) for j in range(max_k + 1)]
    bad = []
    ties_seen = {}
    for k in range(1, max_k + 1):
        best = max((k - j + 1) * tops[j].top for j in range(k + 1))
        argmax = [
            mask << k - j
            for j in range(k + 1)
            if (k - j + 1) * tops[j].top == best
            for mask in tops[j].top_masks
        ]
        kplus = (1 << (k + 1)) - 2
        allowed = {kplus}
        if k == 1:
            allowed.add(0b11)          # [1] ties with [1+]
        elif k == 3:
            allowed.add(0b1100)        # {2, 3} ties with [3+]
        if kplus not in argmax or set(argmax) != allowed:
            bad.append(
                {
                    "k": k,
                    "max_d": best,
                    "maximizers": sorted(_set_text(m) for m in argmax),
                }
            )
        if len(argmax) > 1:
            ties_seen[k] = sorted(_set_text(m) for m in argmax)
    return bad, {"ties": ties_seen}


def run_l15(max_k: int) -> tuple[list, dict]:
    """d(A) = (min(A)+1) d(A - {min A}) for every nonempty A within [max_k],
    checked against divisor counts from all pairs, without the reduction.

    Block m of all pairs holds A = 2^m | i.  The A with min r < m sit at
    i = (2t + 1) << r, whose core 2^(m-r) | 2t | 1 is entry t of rooted
    block m - r; A = {m} sits at i = 0, with core {0}."""
    rooted = []  # rooted[j]: the rooted block j, kept for the later blocks
    bad = []
    for m in range(max_k + 1):
        rooted.append(_block_counts(m))
        actual = _block_counts(m, rooted=False)
        for r in range(m + 1):
            got = actual[1 << r :: 2 << r] if r < m else actual[:1]
            core = rooted[m - r]
            for t in (got != (r + 1) * core).nonzero()[0].tolist():
                mask = 1 << m | (2 * t + 1) << r
                formula = (r + 1) * int(core[t])
                bad.append({"set": _set_text(mask), "d": int(got[t]), "formula": formula})
    bad.sort(key=lambda c: c["set"])
    return bad, {}


def _chain_table(max_k: int, height: int) -> Counter:
    """d of every nonzero multiset with elements <= max_k and multiplicities
    <= height, counted from all pairs (Y, Z) with max Y + max Z <= max_k:
    the multiset counterpart of the all-pairs blocks of _block_counts.

    A multiset is packed as its chain A_1 >= ... >= A_height, coordinate i
    in bits [i (max_k + 1), (i + 1) (max_k + 1)).  Y + Z is the OR, over
    each element e of Z with multiplicity m, of the first m coordinates of
    Y shifted by e: the empty set absorbs, and no coordinate overflows.
    """
    width = max_k + 1
    column = [sum(1 << i * width for i in range(m)) for m in range(height + 1)]
    first = [c * ((1 << width) - 1) for c in column]  # the first m coordinates
    chains = [0]
    for e in range(width):
        chains = [x | c << e for x in chains for c in column]
    table = Counter()
    for y in chains[1:]:  # chains[0] is the zero multiset
        # Grow the products over Z one element at a time, without repeats.
        parts = {y & f for f in first}
        products = {0}
        for e in range(width - (y & first[1]).bit_length() + 1):
            products = {p | q << e for p in products for q in parts}
        products.discard(0)
        table.update(products)
    return table


def run_bases(max_k: int) -> tuple[list, dict]:
    """Height-2 multisets have their unique d-maximum at ([k], {}), and the
    chain-count formula matches the sieve on (A, {}, ...) at each height."""
    from .multiset import setarray_divisor_count_formula  # loads lunar too

    # One height-2 table serves both sides: a divisor of X has max <= max X.
    top = max(max_k, FORMULA_MAX_ELEMENT)
    tables = {2: _chain_table(top, 2), 3: _chain_table(FORMULA_MAX_ELEMENT, 3)}
    bad = []
    # Exhaustive maximum over multiplicity-<=2 multisets with elements <= k.
    for k in range(1, max_k + 1):
        full = interval(k).mask  # ([k], {}) packs as its first coordinate
        d_max = setarray_divisor_count_formula(interval(k), 2)
        if tables[2][full] != d_max:
            bad.append({"k": k, "issue": "formula mismatch at [k]_2"})
        rivals = sorted(  # by (m_0, ..., m_top), m_e = [e in A_1] + [e in A_2]
            (tuple((x >> e & 1) + (x >> top + 1 + e & 1) for e in range(top + 1)), d)
            for x, d in tables[2].items()
            if d >= d_max and x & ((2 << top) - 1) < 2 << k and x != full
        )
        for ms, d in rivals:
            multiset = {e: m for e, m in enumerate(ms) if m}
            bad.append({"k": k, "multiset": multiset, "d": d, "d_max": d_max})
    # The chain-count formula, sum of b^|B| over the divisors B of A.
    for b in FORMULA_HEIGHTS:
        for mask in range(1, 2 << FORMULA_MAX_ELEMENT, 2):
            d = tables[b][mask]
            f = setarray_divisor_count_formula(FiniteSet.from_mask(mask), b)
            if d != f:
                bad.append(
                    {"set": _set_text(mask), "height": b, "oracle": d, "formula": f}
                )
    return bad, {}


# ---------------------------------------------------------------------------
# Conjecture probes (evidence-only).

def run_odd2(max_k: int) -> tuple[list, dict]:
    """Where does the second-largest d_2 among odd k-digit binary numbers
    occur?  The conjecture says 2^k - 3 for k >= 3, k != 5.  Those numbers
    are the 0-rooted sets of block k - 1."""
    rows = []
    for k in range(3, max_k + 1):
        # {0, k-1} has d = 2 and [k-1] has d >= 3, so a second value exists.
        block = _block_summary(k - 1)
        locations = list(block.second_masks)
        predicted = (1 << k) - 3
        rows.append(
            {
                "k": k,
                "largest_d": block.top,
                "second_d": block.second,
                "second_locations": [
                    {"n": m, "set": _set_text(m)} for m in locations
                ],
                "predicted_n": predicted,
                "predicted_hit": predicted in locations,
                "covered_by_conjecture": k != 5,
            }
        )
    return [], {"rows": rows}


def run_pi2(max_k: int) -> tuple[list, dict]:
    """Irreducible-set counts against the conjectured prime density.

    count(k) is the number of irreducible A with max(A) = k and |A| >= 2
    (binary numbers with k+1 digits); the asymptotic prediction for that
    digit count is 2^(k-1).  Such an A is a core A - {min A} with max j >= 1
    shifted by k - j, and it is irreducible iff d(core) = 2, so count(k)
    sums the cores with d = 2 over j <= k."""
    rows = []
    count = 0
    for k in range(1, max_k + 1):
        count += _block_summary(k).twos
        predicted = 1 << (k - 1)
        rows.append(
            {
                "k": k,
                "digits": k + 1,
                "irreducible": count,
                "predicted": predicted,
                "ratio": count / predicted,
            }
        )
    return [], {"rows": rows}


class _Target(NamedTuple):
    runner: Callable[..., tuple[list, dict]]  # -> (counterexamples, details)
    sizes: dict  # size parameter -> (default, bound)
    fixed: dict = {}  # reported in the range, not settable


# One row per target.  Bounds are checked before any work starts, and are
# set by memory, measured in a fresh process on 2 cores; the figures at
# the bounds are BENCH_verify.json's.  A table target holds one block at a
# time: the counts of block m (4 * 2^(m-1) bytes) and one b's sums
# (4 * 2^(m-2) bytes).  crlodd, crleven and pi2 read blocks up to max_k:
# 0.6 s and 51 MB at 22, 4.4-5.6 s and 138-154 MB at 25, 7.2-7.9 s and
# 231-247 MB at 26.  odd2 reads blocks up to max_k - 1: 7.9 s and 247 MB
# at 27.  L15 also keeps every rooted block and sieves 2^m sums per b for
# all pairs: 3.3 s and 102 MB at 22, 6.7 s and 162 MB at 23, 10.1 s and
# 279 MB at 24.  bases keeps d for 3^(max_k+1) multisets: 5.7 s and
# 133 MB at max_k = 11 (370 MB at 12).  crlodd's promotion phase holds
# one block's distinct pairs and one k's keys: 0.6-0.7 s and 133 MB at
# promotion_max_k = 20, 1.3-1.4 s and 239 MB at 21.  It runs before the
# blocks.
_TARGETS = {
    "crlodd": _Target(run_crlodd, {"max_k": (14, 26), "promotion_max_k": (10, 20)}),
    "crleven": _Target(run_crleven, {"max_k": (12, 26)}),
    "L15": _Target(run_l15, {"max_k": (12, 24)}),
    "bases": _Target(
        run_bases,
        {"max_k": (5, 11)},
        {
            "formula_max_element": FORMULA_MAX_ELEMENT,
            "formula_heights": list(FORMULA_HEIGHTS),
        },
    ),
    "odd2": _Target(run_odd2, {"max_k": (14, 27)}),
    "pi2": _Target(run_pi2, {"max_k": (14, 26)}),
}


def _peak_rss_kib() -> int:
    """This process's peak RSS in KiB: VmHWM, which exec resets, or where
    there is no /proc ru_maxrss, which on Linux carries a parent's peak."""
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak // 1024 if sys.platform == "darwin" else peak  # macOS counts bytes


def run_target(name: str, **params) -> VerificationReport:
    """Run one verification target by name, timing it.  Parameters left out
    or None take their defaults, and all are range-checked before any work
    starts.  Conjecture probes report evidence only; a theorem target fails
    iff it finds a counterexample."""
    if name not in _TARGETS:
        known = ", ".join(sorted(_TARGETS))
        raise PreconditionError(f"unknown target {name!r}; known: {known}")
    target = _TARGETS[name]
    for key, value in params.items():
        if value is not None and key not in target.sizes:
            raise PreconditionError(f"target {name!r} does not take parameter {key!r}")
    kwargs = {}
    for key, (default, bound) in target.sizes.items():
        value = default if params.get(key) is None else params[key]
        if type(value) is not int or value < 0:
            raise PreconditionError(f"{key} must be a nonnegative int, got {value!r}")
        if value > bound:
            raise CapacityError(
                f"{key} {value} exceeds the bound {bound} for target {name!r}"
            )
        kwargs[key] = value
    sieved, reused = _SIEVED[0], _block_summary.cache_info().hits
    _PHASES.clear()
    start = time.perf_counter()
    bad, details = target.runner(**kwargs)
    elapsed = time.perf_counter() - start
    meta = {
        "peak_rss_mb": round(_peak_rss_kib() / 1024, 1),  # this process's peak so far
        "blocks_sieved": _SIEVED[0] - sieved,
        "blocks_reused": _block_summary.cache_info().hits - reused,
    }
    if _PHASES:
        meta["phase_seconds"] = dict(_PHASES)
    status = "fail" if bad else "pass"
    return VerificationReport(
        target=name,
        range={**kwargs, **target.fixed},
        status="evidence-only" if name in CONJECTURE_TARGETS else status,
        counterexamples=bad,
        details=details,
        elapsed=elapsed,
        meta=meta,
    )
