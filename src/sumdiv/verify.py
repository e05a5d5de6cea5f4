"""Exhaustive desk-scale verification sweeps and conjecture probes.

Theorem targets report pass/fail with explicit counterexamples; conjecture
probes only ever report evidence.  One pair-sieve table of divisor counts
(numpy, imported only when a sweep runs) serves crlodd, crleven, odd2 and
pi2; crlodd's promotion phase reads the same rooted pairs.  L15 checks the
table, through the translation lemma, against the sieve over all pairs.
bases runs a pure-Python pair sieve over multisets packed as chains of
sets, so it never loads numpy.  Every target runs in the calling process.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from . import promotion
from .errors import CapacityError, PreconditionError
from .multiset import setarray_divisor_count_formula
from .sets import FiniteSet, interval

THEOREM_TARGETS = ("crlodd", "crleven", "L15", "bases")
CONJECTURE_TARGETS = ("odd2", "pi2")

# bases checks the chain-count formula on the 0-rooted sets within [5].
FORMULA_MAX_ELEMENT = 5
FORMULA_HEIGHTS = (2, 3)

_DEFAULTS = {
    "crlodd": {"max_k": 14, "promotion_max_k": 10},
    "crleven": {"max_k": 12},
    "L15": {"max_k": 12},
    "bases": {"max_k": 5},
    "odd2": {"max_k": 14},
    "pi2": {"max_k": 14},
}

# Upper bounds on the size parameters, checked before any work starts.  The
# divisor table peaks near 200 MB at max_k = 22; L15 holds both of its
# sides and builds the larger all-pairs table, and peaks near 200 MB at
# max_k = 21 (380 MB at 22).  bases keeps d for 3^(max_k+1) multisets
# and peaks near 130 MB at max_k = 11 (370 MB at 12).  crlodd's promotion
# phase peaks near 210 MB at promotion_max_k = 20 (400 MB at 21) and runs
# before the table.
_BOUNDS = {
    "crlodd": {"max_k": 22, "promotion_max_k": 20},
    "crleven": {"max_k": 22},
    "L15": {"max_k": 21},
    "bases": {"max_k": 11},
    "odd2": {"max_k": 22},
    "pi2": {"max_k": 22},
}


@dataclass
class VerificationReport:
    target: str
    range: dict
    status: str  # "pass" | "fail" | "evidence-only"
    counterexamples: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def data_dict(self) -> dict:
        return {
            "target": self.target,
            "range": self.range,
            "status": self.status,
            "counterexamples": self.counterexamples,
            "details": self.details,
        }

    def to_dict(self) -> dict:
        # elapsed lives in the metadata section so the data section is
        # byte-stable across runs.
        return {
            "data": self.data_dict(),
            "meta": {
                "elapsed_seconds": self.elapsed,
                "worker_count": 1,  # every target runs in this process
            },
        }


# ---------------------------------------------------------------------------
# Divisor counting over bit masks.

def _pair_rows(max_k: int, rooted: bool = True):
    """The pairs (B, C) of the divisor sieve with max(B) + max(C) <= max_k,
    one b = max(B) at a time, as int32 rows[i, j] = B_i + C_j.  Rooted,
    B_i = {0, b} | (i << 1) and C_j = 2j + 1 runs over the 0-rooted sets;
    otherwise B_i = {b} | i and C_j = j + 1.  C_j ascends, so max C never
    falls along a row.  Masks are int32, so max_k <= 30.
    """
    import numpy as np

    step, first = (2, 1) if rooted else (1, 0)
    for b in range(max_k + 1):
        cs = np.arange(1, 2 << (max_k - b), step, dtype=np.int32)
        # Start from B = {0, b} (rooted) or {b}; each element e in
        # [first, b-1] doubles the rows.
        rows = np.empty((1 << max(b - first, 0), len(cs)), dtype=np.int32)
        rows[0] = (cs | (cs << b)) if rooted else (cs << b)
        for e in range(first, b):
            n = 1 << (e - first)
            np.bitwise_or(rows[:n], cs << e, out=rows[n : 2 * n])
        yield rows


def _divisor_table(max_k: int, rooted: bool = True):
    """d(A) for every 0-rooted A with max(A) <= max_k, as a numpy array
    indexed by mask; entries at even masks are 0.  With rooted=False, d(A)
    for every nonempty A with max(A) <= max_k, counted from all pairs
    without the reduction to 0-rooted sets.

    The distinct entries of row i of _pair_rows are exactly the sets B_i
    divides, so counting them per set counts its divisors.  That is
    (max_k + 1) * 2^(max_k - 1) pairs rooted and max_k * 2^(max_k + 1) + 1
    in all.
    """
    import numpy as np

    size = 2 << max_k
    table = np.zeros(size, dtype=np.int64)
    for rows in _pair_rows(max_k, rooted):
        rows.sort(axis=1)
        distinct = np.ones(rows.shape, dtype=bool)
        distinct[:, 1:] = rows[:, 1:] != rows[:, :-1]
        table += np.bincount(rows[distinct], minlength=size)
    return table


def _general_table(table):
    """d(A) for every nonempty A read off a _divisor_table, by the
    translation lemma d(A) = (min A + 1) d(A - {min A})."""
    general = table.copy()  # odd masks are their own cores
    for r in range(1, (len(table) - 1).bit_length()):
        general[1 << r :: 2 << r] = (r + 1) * table[1 : len(table) >> r : 2]
    return general


def _set_text(mask: int) -> str:
    return str(FiniteSet.from_mask(mask))


def _promotion_members(max_k: int):
    """The promoted families of every 0-rooted A with max(A) <= k, for
    each k in 1..max_k, read off the rooted sieve pairs (B, C), B + C = A.

    Yields k, m and int64 arrays a, b, member for the a with max(a) = m,
    m descending from k: one entry per member of the family of divisor b
    of a, sorted by (a, member, b) without repeats.  A pair adds b when
    max b <= max c, and promote(a, k, b, max c) when max b >= max c: in
    bits, b | (missing & [0, max c)) | (missing >> max c), missing = [k] - a.
    Keys pack the three odd masks without bit 0 in 3k bits: max_k <= 21.
    """
    import numpy as np

    rows = list(_pair_rows(max_k))
    for k in range(1, max_k + 1):
        full = (2 << k) - 1
        for m in range(k, -1, -1):
            keys = []
            for top in range(m + 1):  # max B; the columns with max C = m - top
                low = m - top
                a = rows[top][:, (1 << low) >> 1 : 1 << low].astype(np.int64)
                b = 1 | 1 << top | np.arange(len(a), dtype=np.int64)[:, None] << 1
                if top <= low:
                    keys.append(_member_keys(k, a, b, b))
                if top >= low:
                    missing = full & ~a
                    promoted = b | missing & ((1 << low) - 1) | missing >> low
                    keys.append(_member_keys(k, a, promoted, b))
            keys = np.concatenate(keys)
            keys.sort()
            distinct = np.ones(len(keys), dtype=bool)
            distinct[1:] = keys[1:] != keys[:-1]
            keys = keys[distinct]
            bits = (1 << k) - 1
            a = keys >> 2 * k << 1 | 1
            member = (keys >> k & bits) << 1 | 1
            b = (keys & bits) << 1 | 1
            del keys  # the consumer holds three arrays of this size, not four
            yield k, m, a, b, member


def _member_keys(k: int, a, member, b):
    """(a, member, b) packed into one int64 per entry, in that order."""
    return ((a >> 1) << 2 * k | (member >> 1) << k | b >> 1).ravel()


def _promotion_failures(max_k: int) -> list:
    """Every 0-rooted A with max(A) <= k <= max_k whose promoted families
    share a member, hold a non-divisor of [k], or (proper A, k >= 3) hold
    its witness factor: promotion.verify_promotion_disjointness over all
    of them at once."""
    import numpy as np

    bad = []
    for k, m, a, b, member in _promotion_members(max_k):
        full = (2 << k) - 1
        if m == k:  # the first block of each k holds the pairs of [k]
            divides_full = np.zeros(2 << k, dtype=bool)
            divides_full[b[a == full]] = True
        flag = ~divides_full[member]
        # Sorted by (a, member, b), so a member of two families is adjacent.
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
    return bad


# ---------------------------------------------------------------------------
# Theorem targets.

def run_crlodd(max_k: int = 14, promotion_max_k: int = 10) -> VerificationReport:
    """[k] is the unique d-maximum among 0-rooted sets with max <= k,
    plus the promotion-family disjointness that underpins it."""
    bad = _promotion_failures(promotion_max_k)  # first, so the peaks never add
    table = _divisor_table(max_k)
    full = interval(max_k).mask
    limit = int(table[full])
    bad.extend(
        {"set": _set_text(mask), "d": int(table[mask]), "limit": limit}
        for mask in (table >= limit).nonzero()[0].tolist()
        if mask != full
    )
    bad.sort(key=lambda c: (c.get("k", -1), c["set"]))
    return VerificationReport(
        target="crlodd",
        range={"max_k": max_k, "promotion_max_k": promotion_max_k},
        status="pass" if not bad else "fail",
        counterexamples=bad,
        details={"d_full_interval": limit},
    )


def run_crleven(max_k: int = 12) -> VerificationReport:
    """[k+] = {1,...,k} is the d-maximum over all nonempty subsets of [k],
    unique except the documented ties at k = 1 and k = 3."""
    general = _general_table(_divisor_table(max_k))
    bad = []
    ties_seen = {}
    for k in range(1, max_k + 1):
        d = general[: 2 << k]  # d of the empty set (mask 0) is 0
        best = int(d.max())
        argmax = (d == best).nonzero()[0].tolist()
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
    return VerificationReport(
        target="crleven",
        range={"max_k": max_k},
        status="pass" if not bad else "fail",
        counterexamples=bad,
        details={"ties": ties_seen},
    )


def run_l15(max_k: int = 12) -> VerificationReport:
    """d(A) = (min(A)+1) d(A - {min A}) for every nonempty A within [max_k],
    checked against divisor counts from all pairs, without the reduction."""
    expected = _general_table(_divisor_table(max_k))
    actual = _divisor_table(max_k, rooted=False)
    bad = [
        {
            "set": _set_text(mask),
            "d": int(actual[mask]),
            "formula": int(expected[mask]),
        }
        for mask in (actual != expected).nonzero()[0].tolist()
    ]
    bad.sort(key=lambda c: c["set"])
    return VerificationReport(
        target="L15",
        range={"max_k": max_k},
        status="pass" if not bad else "fail",
        counterexamples=bad,
    )


def _chain_table(max_k: int, height: int) -> Counter:
    """d of every nonzero multiset with elements <= max_k and multiplicities
    <= height, counted from all pairs (Y, Z) with max Y + max Z <= max_k:
    the multiset counterpart of _divisor_table(max_k, rooted=False).

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


def run_bases(max_k: int = 5) -> VerificationReport:
    """Height-2 multisets have their unique d-maximum at ([k], {}), and the
    chain-count formula matches the sieve on (A, {}, ...) at each height."""
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
    return VerificationReport(
        target="bases",
        range={
            "max_k": max_k,
            "formula_max_element": FORMULA_MAX_ELEMENT,
            "formula_heights": list(FORMULA_HEIGHTS),
        },
        status="pass" if not bad else "fail",
        counterexamples=bad,
    )


# ---------------------------------------------------------------------------
# Conjecture probes (evidence-only).

def run_odd2(max_k: int = 14) -> VerificationReport:
    """Where does the second-largest d_2 among odd k-digit binary numbers
    occur?  The conjecture says 2^k - 3 for k >= 3, k != 5."""
    table = _divisor_table(max_k - 1) if max_k >= 3 else None
    rows = []
    for k in range(3, max_k + 1):
        lowtop = 1 | (1 << (k - 1))
        values = table[lowtop : 1 << k : 2]
        best = int(values.max())
        # {0, k-1} has d = 2 and [k-1] has d >= 3, so a second value exists.
        second = int(values[values < best].max())
        locations = [
            lowtop + 2 * i for i in (values == second).nonzero()[0].tolist()
        ]
        predicted = (1 << k) - 3
        rows.append(
            {
                "k": k,
                "largest_d": best,
                "second_d": second,
                "second_locations": [
                    {"n": m, "set": _set_text(m)} for m in locations
                ],
                "predicted_n": predicted,
                "predicted_hit": predicted in locations,
                "covered_by_conjecture": k != 5,
            }
        )
    return VerificationReport(
        target="odd2",
        range={"max_k": max_k},
        status="evidence-only",
        details={"rows": rows},
    )


def run_pi2(max_k: int = 14) -> VerificationReport:
    """Irreducible-set counts against the conjectured prime density.

    count(k) is the number of irreducible A with max(A) = k and |A| >= 2
    (binary numbers with k+1 digits); the asymptotic prediction for that
    digit count is 2^(k-1).  Such an A is a core A - {min A} with max j >= 1
    shifted by k - j, and it is irreducible iff d(core) = 2, so count(k)
    sums the cores with d = 2 over j <= k."""
    table = _divisor_table(max_k)
    rows = []
    count = 0
    for k in range(1, max_k + 1):
        count += int((table[1 | 1 << k : 2 << k : 2] == 2).sum())
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
    return VerificationReport(
        target="pi2",
        range={"max_k": max_k},
        status="evidence-only",
        details={"rows": rows},
    )


_RUNNERS = {
    "crlodd": run_crlodd,
    "crleven": run_crleven,
    "L15": run_l15,
    "bases": run_bases,
    "odd2": run_odd2,
    "pi2": run_pi2,
}


def run_target(name: str, **params) -> VerificationReport:
    """Run one verification target by name, timing it.  Parameters are
    range-checked before any work starts."""
    if name not in _RUNNERS:
        known = ", ".join(sorted(_RUNNERS))
        raise PreconditionError(f"unknown target {name!r}; known: {known}")
    kwargs = dict(_DEFAULTS[name])
    for key, value in params.items():
        if value is None:
            continue
        if key not in kwargs:
            raise PreconditionError(
                f"target {name!r} does not take parameter {key!r}"
            )
        kwargs[key] = value
    for key, bound in _BOUNDS[name].items():
        if kwargs[key] < 0:
            raise PreconditionError(f"{key} must be nonnegative, got {kwargs[key]}")
        if kwargs[key] > bound:
            raise CapacityError(
                f"{key} {kwargs[key]} exceeds the bound {bound} for target {name!r}"
            )
    start = time.perf_counter()
    report = _RUNNERS[name](**kwargs)
    report.elapsed = time.perf_counter() - start
    return report
