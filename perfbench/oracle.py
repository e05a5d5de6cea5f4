"""Answers computed apart from sumdiv, for checking what it returns.

Sets are bit masks (bit i set iff i is in the set) and lunar numbers are
digit tuples, least significant first.  Nothing here imports sumdiv.  Set
divisors come from a sieve over factor pairs, not from the program's
maximal-quotient test, and headstrong counts from a composition recurrence.
"""

from __future__ import annotations

from functools import lru_cache


def sum_masks(b: int, c: int) -> int:
    out = 0
    while c:
        low = c & -c
        out |= b << (low.bit_length() - 1)
        c ^= low
    return out


def low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class SetTable:
    """Every factorization A = B + C of 0-rooted sets with max A <= k."""

    def __init__(self, k: int):
        self.k = k
        rooted = [[1]] + [
            list(range((1 << i) | 1, 1 << (i + 1), 2)) for i in range(1, k + 1)
        ]
        self.pairs: dict[int, list[tuple[int, int]]] = {}
        for top_b in range(k + 1):
            for top_c in range(k + 1 - top_b):
                for b in rooted[top_b]:
                    for c in rooted[top_c]:
                        self.pairs.setdefault(sum_masks(b, c), []).append((b, c))

    def core_divisors(self, core: int) -> set[int]:
        """The 0-rooted divisors of a 0-rooted set."""
        if core.bit_length() - 1 > self.k:
            raise ValueError(f"set {core:b} lies outside the table")
        return {b for b, _ in self.pairs[core]}

    def divisors(self, mask: int) -> set[int]:
        """All divisors of a nonempty set: B + {j} for B | core, j <= min."""
        r = low_bit(mask)
        return {b << j for b in self.core_divisors(mask >> r) for j in range(r + 1)}

    def count(self, mask: int) -> int:
        r = low_bit(mask)
        return (r + 1) * len(self.core_divisors(mask >> r))

    def divides(self, b: int, a: int) -> bool:
        rb, ra = low_bit(b), low_bit(a)
        return rb <= ra and (b >> rb) in self.core_divisors(a >> ra)

    def irreducible(self, mask: int) -> bool:
        """No factorization with both factors of size >= 2."""
        return len(self.core_divisors(mask >> low_bit(mask))) == 2

    def cofactors(self, b: int, a: int) -> list[int]:
        """All C with B + C = A, for 0-rooted A and B."""
        return [c for bb, c in self.pairs[a] if bb == b]


def promote(a: int, k: int, b: int, other_max: int) -> int:
    """b augmented by every s in [k] missing from a: s itself below
    other_max, s - other_max from there on."""
    out = b
    for s in range(k + 1):
        if not (a >> s) & 1:
            out |= 1 << (s if s < other_max else s - other_max)
    return out


def promoted_family(table: SetTable, a: int, k: int, b: int) -> set[int]:
    members = set()
    top_b = b.bit_length() - 1
    for c in table.cofactors(b, a):
        top_c = c.bit_length() - 1
        if top_b <= top_c:
            members.add(b)
        if top_b >= top_c:
            members.add(promote(a, k, b, top_c))
    return members


@lru_cache(maxsize=None)
def headstrong_counts(n_max: int) -> tuple[int, ...]:
    """H(n) for 0 <= n <= n_max: compositions of n whose first part is
    greatest, summed over the first part f with the rest bounded by f."""
    h = [0] * (n_max + 1)
    for f in range(1, n_max + 1):
        span = n_max - f
        ways = [1] + [0] * span  # compositions of t with parts <= f
        window = 1
        for t in range(1, span + 1):
            ways[t] = window
            window += ways[t]
            if t - f >= 0:
                window -= ways[t - f]
        for n in range(f, n_max + 1):
            h[n] += ways[n - f]
    return tuple(h)


def headstrong(n: int) -> int:
    return headstrong_counts(max(n, 64))[n]


def headstrong_triangle(rows: int) -> list[list[int]]:
    """Row n holds the headstrong compositions of n counted by part count:
    a first part f, then j parts each in [1, f] summing to n - f."""
    tri = [[0] * (n + 1) for n in range(rows + 1)]
    for f in range(1, rows + 1):
        span = rows - f
        ways = [[1] + [0] * span]  # ways[j][t]: t split into j parts <= f
        for _ in range(span):
            prev = ways[-1]
            ways.append(
                [sum(prev[t - p] for p in range(1, min(f, t) + 1))
                 for t in range(span + 1)]
            )
        for n in range(f, rows + 1):
            for j in range(n - f + 1):
                tri[n][j + 1] += ways[j][n - f]
    return [tri[n][1:] for n in range(1, rows + 1)]


def lunar_mul(x: tuple, y: tuple) -> tuple:
    if not x or not y:
        return ()
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = max(out[i + j], min(a, b))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def lunar_divides(y: tuple, n: tuple, base: int) -> bool:
    """y divides n iff y times its digitwise-largest fitting cofactor is n."""
    if not y or len(y) > len(n):
        return False
    z = []
    for j in range(len(n) - len(y) + 1):
        d = base - 1
        for i, yi in enumerate(y):
            if yi > n[i + j]:
                d = min(d, n[i + j])
        z.append(d)
    return lunar_mul(y, tuple(z)) == n


def parse_lunar(text: str) -> tuple[tuple, int]:
    body, _, base = text.partition("@")
    return tuple(int(ch) for ch in reversed(body)), int(base)


def chain_divisor_count(table: SetTable, mask: int, height: int) -> int:
    """Divisors of the height-b set-array (A, {}, ..., {}): sum of b^|B|
    over the divisors B of A."""
    return sum(height ** b.bit_count() for b in table.divisors(mask))
