"""Headstrong compositions, the generalized Fibonacci table F(n, k), the
headstrong triangle H(n, m), bounded-part composition counts, the bijection
with interval divisors, and difference-table self-generation.

All counts are exact Python integers; the F sequences grow exponentially.
"""

from __future__ import annotations

import threading
from math import comb
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import sets
from .errors import CapacityError, PreconditionError
from .sets import FiniteSet, divides, interval

# Composition counts take totals below this bound: n, cols <= COUNT_BOUND in
# headstrong_count(n) and f_table(rows, cols), whose fill up to total t holds
# about t^2 / 2 bits, and n < COUNT_BOUND in bounded_comp_count (0.6 s).
COUNT_BOUND = 5000
# Every composition table obeys CELL_BOUND, checked before any work:
# f_table(rows, cols) takes rows * cols <= CELL_BOUND; row n holds numbers
# of about cols - n bits, so 20 x 5000 prints 69 million digits (1.5 s,
# 184 MB peak with the plain format).  The H triangle takes its n(n + 1) / 2
# cells, 446 rows, about n^3 / 12 big-integer products (cold, 1.2 s and
# 27 MB in a fresh process on 2 cores).  difference_table refuses at the
# first row past CELL_BOUND cells, its input included.
# reconstruct_diagonal(row, length) takes min(len(row), length) * length <=
# CELL_BOUND terms row[k] * C(n - 1, k): 316 x 316 takes 0.10 s and 20 x
# 5000 0.07 s, where 500 x 500 took 0.5-0.7 s and 1000 x 1000 5.4 s, each
# in a fresh process on 2 cores.
CELL_BOUND = 100_000


class Composition:
    """An ordered tuple of positive parts."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)
        if not parts:
            raise PreconditionError("a composition needs at least one part")
        if any(p < 1 for p in parts):
            raise PreconditionError(f"parts must be positive: {parts}")
        self._parts = parts

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def is_headstrong(self) -> bool:
        """First part greater or equal to all other parts."""
        return all(p <= self.parts[0] for p in self.parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Composition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self) -> str:
        return f"Composition(parts={self._parts!r})"


def _check_total(total: int) -> None:
    if total >= COUNT_BOUND:
        raise CapacityError(
            f"composition counts up to {total} exceed the budget "
            f"(totals < {COUNT_BOUND})"
        )


def _check_cells(cells: int, what: str, *args: int) -> None:
    """The one cap on composition tables; what % args names the table."""
    if cells > CELL_BOUND:
        raise CapacityError(f"{what % args} exceeds the cell cap ({cells} > {CELL_BOUND})")


def _bounded_counts(cap: int, total: int) -> list[int]:
    """Compositions of j with every part <= cap, for j = 0, ..., total.

    Entry j is the sum of the cap entries before it, kept as a sliding
    window.  Entries have up to about total bits, so total is bounded.
    """
    _check_total(total)
    counts = [1]
    window = 1  # counts[j - cap] + ... + counts[j - 1]
    for j in range(1, total + 1):
        counts.append(window)
        window += window - (counts[j - cap] if j >= cap else 0)
    return counts


def fib_general(n: int, k: int) -> int:
    """The n-step Fibonacci numbers indexed so F(n, n) = 1.

    F(n, k) = 0 for k < n, 1 for k = n, and the sum of the n previous
    entries for k > n; it counts headstrong compositions of k with
    leading part n, i.e. compositions of k - n with parts <= n.
    """
    if n < 1 or k < 1:
        raise PreconditionError("fib_general needs n, k >= 1")
    if k < n:
        return 0
    return _bounded_counts(n, k - n)[-1]


def headstrong_count(n: int) -> int:
    """Number of headstrong compositions of n: the n-th column sum of F."""
    if n < 1:
        raise PreconditionError("headstrong_count needs n >= 1")
    return sum(_bounded_counts(m, n - m)[-1] for m in range(1, n + 1))


# The rows of the H triangle filled so far, never handed out: H(n, m) is _H[n - 1][m - 1].
# Threads fill it one at a time, so that no row is appended twice.
_H = [[1]]
_H_LOCK = threading.Lock()


def _h_rows(n: int) -> list[list[int]]:
    """_H with at least n rows.  Row r > 1 is 1, H(r, m) for 1 < m < r,
    then 1, where H(r, m) = sum_j H(r - m, j) * C(m - 1, j - 1), j <= m:
    a filled row dotted with a row of Pascal's triangle."""
    _check_cells(n * (n + 1) // 2, "the headstrong triangle up to n = %d", n)
    with _H_LOCK:
        if len(_H) < n:
            pascal = [[comb(m, i) for i in range(m + 1)] for m in range(n)]
            for r in range(len(_H) + 1, n + 1):
                inner = (sum(map(mul, _H[r - m - 1], pascal[m - 1])) for m in range(2, r))
                _H.append([1, *inner, 1])
    return _H


def headstrong_by_parts(n: int, m: int) -> int:
    """H(n, m), the number of headstrong m-compositions of n."""
    if n < 1 or m < 1:
        raise PreconditionError("headstrong_by_parts needs n, m >= 1")
    row = _h_rows(n)[n - 1]
    return row[m - 1] if m <= n else 0


def bounded_comp_count(n: int, m: int, s: int) -> int:
    """C(n, m, s): m-compositions of n with every part in [1, s], by
    inclusion-exclusion over the j parts forced above s: the sum of
    (-1)^j C(m, j) C(n - j s - 1, m - 1).  CapacityError for n >= COUNT_BOUND,
    unless n is outside [m, m s] and the count is 0."""
    if m < 1 or s < 1:
        raise PreconditionError("bounded_comp_count needs m, s >= 1")
    if n < m or n > m * s:
        return 0
    _check_total(n)
    return sum(
        (-1) ** j * comb(m, j) * comb(n - j * s - 1, m - 1)
        for j in range(min(m, (n - m) // s) + 1)
    )


def _bounded_parts(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n with parts <= cap, in lexicographic order (the
    empty one for n = 0).  Each step raises the rightmost part below cap
    that has a part after it and resets what follows it to ones."""
    parts = [1] * n
    while True:
        yield tuple(parts)
        i = len(parts) - 2
        while i >= 0 and parts[i] == cap:
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        parts[i + 1 :] = [1] * (sum(parts[i + 1 :]) - 1)


def enumerate_headstrong(n: int) -> list[Composition]:
    """All headstrong compositions of n, ordered by (length, parts).  As
    many as the divisors of [n - 1], they obey the cap on divisor lists:
    CapacityError, before any is built, for n - 1 > sets.ELEMENT_BOUND or
    h(n) > sets.NODE_BUDGET / 2."""
    if n < 1:
        raise PreconditionError("enumerate_headstrong needs n >= 1")
    cap = sets.NODE_BUDGET // 2
    if n - 1 > sets.ELEMENT_BOUND or headstrong_count(n) > cap:
        raise CapacityError(
            f"enumerating headstrong compositions of {n} exceeds the "
            f"budget of {cap} listed compositions"
        )
    out = [
        Composition((first, *rest))
        for first in range(1, n + 1)
        for rest in _bounded_parts(n - first, first)
    ]
    out.sort(key=lambda c: (len(c.parts), c.parts))
    return out


def composition_to_divisor(c: Composition) -> tuple[FiniteSet, FiniteSet]:
    """Partial-sum construction: a headstrong composition of n+1 yields
    a factorization A + B = [n] with A built from the partial sums and
    B = [c_1 - 1].
    """
    if not c.is_headstrong:
        raise PreconditionError(f"{c} is not headstrong")
    n1 = c.total
    running = 0
    elems = []
    for p in c.parts:
        running += p
        elems.append(n1 - running)
    return FiniteSet(elems), interval(c.parts[0] - 1)


def divisor_to_composition(a: FiniteSet, n: int) -> Composition:
    """Inverse construction: a 0-rooted divisor of [n] with elements
    a_0 < ... < a_k maps to the composition (n+1-a_k, a_k-a_{k-1}, ..., a_1-a_0).
    """
    if a.is_empty or a.min != 0:
        raise PreconditionError(f"{a} is not 0-rooted")
    if not divides(a, interval(n)):
        raise PreconditionError(f"{a} does not divide [{n}]")
    elems = a.elements
    parts = [n + 1 - elems[-1]]
    for i in range(len(elems) - 1, 0, -1):
        parts.append(elems[i] - elems[i - 1])
    return Composition(tuple(parts))


def difference_table(seq: Sequence[int]) -> list[list[int]]:
    """Iterated forward differences, starting from the sequence itself.

    Stops when a row has length 1, or early at the first all-zero row.
    CapacityError at the first row past CELL_BOUND cells, input included.
    """
    if not seq:
        raise PreconditionError("difference_table needs a nonempty sequence")
    rows = [list(seq)]
    cells = len(seq)
    while len(rows[-1]) > 1:
        prev = rows[-1]
        cells += len(prev) - 1
        _check_cells(cells, "the difference table of %d terms", len(seq))
        nxt = [prev[i + 1] - prev[i] for i in range(len(prev) - 1)]
        rows.append(nxt)
        if all(v == 0 for v in nxt):
            break
    return rows


def reconstruct_diagonal(row: Sequence[int], length: int) -> list[int]:
    """Newton forward reconstruction: f(n) = sum_k row[k] * C(n-1, k).

    Applied to row d of the headstrong triangle this yields its (d+1)-th
    diagonal.  CapacityError, before any work, for length > COUNT_BOUND or
    more than CELL_BOUND terms, min(len(row), length) * length.
    """
    if length < 1:
        raise PreconditionError("reconstruct_diagonal needs length >= 1")
    if length > COUNT_BOUND:
        raise CapacityError(f"reconstruct_diagonal needs length <= {COUNT_BOUND}")
    _check_cells(
        min(len(row), length) * length,
        "reconstructing %d terms from a row of %d", length, len(row),
    )
    return [
        sum(row[k] * comb(n - 1, k) for k in range(min(len(row), n)))
        for n in range(1, length + 1)
    ]


def weighted_row_sum(n: int, b: int) -> int:
    """sum over m of H(n, m) * b**m, exact."""
    if n < 1 or b < 2:
        raise PreconditionError("weighted_row_sum needs n >= 1 and b >= 2")
    return sum(h * b**m for m, h in enumerate(_h_rows(n)[n - 1], 1))


def f_table(rows: int, cols: int) -> list[list[int]]:
    """The rectangular table F(n, k) for 1 <= n <= rows, 1 <= k <= cols."""
    if rows < 1 or cols < 1:
        raise PreconditionError("the F table needs rows, cols >= 1")
    _check_cells(rows * cols, "an F table of %d x %d", rows, cols)
    return [
        [0] * (n - 1) + _bounded_counts(n, cols - n)
        if n <= cols
        else [0] * cols
        for n in range(1, rows + 1)
    ]


def h_table(rows: int) -> list[list[int]]:
    """The headstrong triangle, row n holding H(n, 1) ... H(n, n); the rows
    are copies, the caller's to change."""
    if rows < 1:
        raise PreconditionError("the H table needs rows >= 1")
    return [row[:] for row in _h_rows(rows)[:rows]]
