"""Shared brute-force oracles, written independently of the package code.

Each helper recomputes a quantity by the most direct method available so
that package results can be checked against an implementation that shares
no code path with them.  ``rational_series`` is the one helper that builds
a package Series: the test-side way to put rational coefficients into one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from sptlab.series import Series


def rational_series(coeffs, order: int | None = None) -> Series:
    """The Series with these int or Fraction coefficients, built the one way
    a rational enters a Series: int numerators over the lcm of the
    denominators, times Fraction(1, lcm)."""
    cs = [Fraction(c) for c in coeffs]
    den = lcm(*[c.denominator for c in cs])
    return Series([int(c * den) for c in cs], order) * Fraction(1, den)


def dp_partition_count(n: int) -> int:
    """p(n) by the classic coin-counting dynamic program."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def dp_partition_count_parts_mult3(n: int) -> int:
    """Partitions of n with every part divisible by 3, by the same DP."""
    table = [1] + [0] * n
    for part in range(3, n + 1, 3):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def brute_sigma(k: int, n: int) -> int:
    """Divisor power sum by scanning every candidate divisor."""
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def ascending_partitions(n: int, min_part: int = 1) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as ascending tuples (independent enumeration)."""
    if n == 0:
        return ((),)
    out = []
    for first in range(min_part, n + 1):
        for rest in ascending_partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def signed_distinct_part_count(n: int, m: int) -> int:
    """sum over partitions of m into distinct parts <= n of (-1)^(#parts);
    the q^m coefficient of prod_{j=1..n} (1 - q^j), by direct expansion."""

    def walk(remaining: int, max_part: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(remaining, max_part), 0, -1):
            total -= walk(remaining - part, part - 1)
        return total

    return walk(m, n)


def brute_pair_count(total: int) -> int:
    """Number of (i, j) with i, j >= 0 and i + j = total."""
    return sum(1 for i in range(total + 1) for j in range(total + 1) if i + j == total)


def recursive_partitions(n: int, max_part: int | None = None):
    """Partitions of n with parts <= max_part, non-increasing, in decreasing
    lexicographic order: the recursive generator that `enumerate_partitions`
    replaced, kept as its reference."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def _count_with_parts(total: int, allowed) -> int:
    """Partitions of total into parts drawn from `allowed`, by the coin DP."""
    table = [1] + [0] * total
    for part in allowed:
        for t in range(part, total + 1):
            table[t] += table[t - part]
    return table[total]


def _smallest_part_count(n: int, allowed) -> int:
    """sum over smallest part s and its multiplicity k of k times the number
    of partitions of n - k s into parts p > s with allowed(p, s)."""
    return sum(
        k * _count_with_parts(n - k * s, [p for p in range(s + 1, n + 1) if allowed(p, s)])
        for s in range(1, n + 1)
        for k in range(1, n // s + 1)
    )


def counted_spt(n: int) -> int:
    """spt(n) by counting: the parts above the smallest are unrestricted."""
    return _smallest_part_count(n, lambda p, s: True)


def counted_spt23(n: int) -> int:
    """spt23(n) by counting: each part above the smallest s is < 2s, or a
    multiple of 3 that is >= 3s."""
    return _smallest_part_count(n, lambda p, s: p < 2 * s or (p % 3 == 0 and p >= 3 * s))


def counted_rank_counts(n: int) -> dict[int, int]:
    """N(m, n) by counting partitions by number of parts and largest part.

    box(total, j, l) is the number of partitions of total into exactly j
    parts, each <= l.  A partition of n with largest part l and j parts is l
    plus a partition of n - l into j - 1 parts <= l.
    """

    @lru_cache(maxsize=None)
    def box(total: int, parts: int, largest: int) -> int:
        if parts == 0:
            return 1 if total == 0 else 0
        if total < parts or largest < 1:
            return 0
        # either no part equals `largest`, or remove one that does
        return box(total, parts, largest - 1) + box(total - largest, parts - 1, largest)

    counts: dict[int, int] = {}
    for largest in range(1, n + 1):
        for parts in range(1, n - largest + 2):
            c = box(n - largest, parts - 1, largest)
            if c:
                counts[largest - parts] = counts.get(largest - parts, 0) + c
    return counts
