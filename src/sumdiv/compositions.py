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

from .errors import BudgetError, PreconditionError
from .sets import FiniteSet, divides, interval

# enumerate_headstrong takes n <= ENUMERATION_BOUND.  Listing the
# compositions of n with `compositions n`, output to /dev/null, takes
# 8.7-11.9 s and 280 MB at 24 and 18.5-23.2 s and 526 MB at 25, each in a
# fresh process on 2 shared cores; 26 took 40 s and 1183 MB.
ENUMERATION_BOUND = 25
# Composition counts take totals below this bound: n, cols <= COUNT_BOUND in
# headstrong_count(n) and f_table(rows, cols), whose fill up to total t holds
# about t^2 / 2 bits, and n < COUNT_BOUND in bounded_comp_count (0.6 s).
COUNT_BOUND = 5000
# The H triangle up to row n costs about n^3 / 12 products of big integers:
# cold, h_table takes 0.05 s at n = 150, 0.23-0.25 s at 250 and 0.33-0.48 s
# at 300, each in a fresh process on 2 cores.  headstrong_by_parts,
# weighted_row_sum and h_table take n, rows <= TRIANGLE_BOUND.
TRIANGLE_BOUND = 250
# f_table(rows, cols) takes rows * cols <= CELL_BOUND.  Row n holds numbers
# of about cols - n bits, so the widest tables are the largest: 20 x 5000
# prints 69 million digits (1.5 s, 184 MB peak with the plain format).
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
        raise BudgetError(
            f"composition counts up to {total} exceed the budget "
            f"(totals < {COUNT_BOUND})"
        )


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
    if n > TRIANGLE_BOUND:
        raise BudgetError(
            f"the headstrong triangle up to n = {n} exceeds the budget "
            f"(n <= {TRIANGLE_BOUND})"
        )
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
    (-1)^j C(m, j) C(n - j s - 1, m - 1).  BudgetError for n >= COUNT_BOUND,
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
    """All compositions of n with parts <= cap (the empty one for n = 0)."""
    if n == 0:
        yield ()
        return
    for first in range(1, min(cap, n) + 1):
        for rest in _bounded_parts(n - first, cap):
            yield (first, *rest)


def enumerate_headstrong(n: int) -> list[Composition]:
    """All headstrong compositions of n, ordered by (length, parts)."""
    if n < 1:
        raise PreconditionError("enumerate_headstrong needs n >= 1")
    if n > ENUMERATION_BOUND:
        raise BudgetError(
            f"enumerating headstrong compositions of {n} exceeds the "
            f"budget (n <= {ENUMERATION_BOUND})"
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
    """
    if not seq:
        raise PreconditionError("difference_table needs a nonempty sequence")
    rows = [list(seq)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        nxt = [prev[i + 1] - prev[i] for i in range(len(prev) - 1)]
        rows.append(nxt)
        if all(v == 0 for v in nxt):
            break
    return rows


def reconstruct_diagonal(row: Sequence[int], length: int) -> list[int]:
    """Newton forward reconstruction: f(n) = sum_k row[k] * C(n-1, k).

    Applied to row d of the headstrong triangle this yields its (d+1)-th
    diagonal.
    """
    if length < 1:
        raise PreconditionError("reconstruct_diagonal needs length >= 1")
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
    if rows * cols > CELL_BOUND:
        raise BudgetError(
            f"an F table of {rows} x {cols} cells exceeds the budget "
            f"(rows * cols <= {CELL_BOUND})"
        )
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
