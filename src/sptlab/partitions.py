"""Integer-partition statistics: enumeration oracles and generating functions.

Partitions are plain tuples of parts in non-increasing order.  Every
statistic is available by exhaustive enumeration (the oracle route) and,
where a closed generating function exists, as exact series coefficients;
the two routes are compared by the test suite and the identity harness.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .series import Series, integral, monomial, one, prefix_cache, zero

Partition = tuple[int, ...]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, parts non-increasing, in
    decreasing lexicographic order.

    This is ZS1 (A. Zoghbi and I. Stojmenovic, Int. J. Comput. Math. 70,
    1998): one list updated in place, no recursion.  It starts from (n).
    Each step lowers the last part above 1 by one and refills the tail
    greedily with parts of that new size; the walk ends at (1, ..., 1).
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        yield ()
        return
    x = [n] + [1] * (n - 1)  # x[:m + 1] is the partition, x[h] its last part > 1
    m = h = 0
    yield tuple(x[: m + 1])
    while x[0] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h + 1  # the units to share out after x[h]
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[: m + 1])


_P_TABLE = (1,)  # p(0), p(1), ...: replaced whole, never filled in place


def p_count(n: int) -> int:
    """p(n), the coefficient of q^n in 1/(q;q)_inf, from a table that ``Series.qmul`` fills."""
    global _P_TABLE
    if n < 0:
        raise ValueError("p(n) needs n >= 0")
    table = _P_TABLE
    if n >= len(table):  # at least double it, so an ascending fill costs O(n^1.5)
        inverse = one(max(n, 2 * len(table))).qmul(1, 1, 1, None, -1)
        table = _P_TABLE = tuple(c.numerator for c in inverse.coeffs)
    return table[n]


def sigma(k: int, n) -> int:
    """Divisor power sum sum_{d|n} d^k for an int k >= 0; zero unless n is a positive integer."""
    if not isinstance(k, int):
        raise TypeError(f"the divisor power is an int, not {type(k).__name__}")
    if k < 0:
        raise ValueError("divisor power must be non-negative")
    if not isinstance(n, (int, Fraction)):
        raise TypeError(f"sigma takes an int or Fraction n, not {type(n).__name__}")
    if n.denominator != 1 or n < 1:
        return 0
    n = n.numerator
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
        d += 1
    return total


@lru_cache(maxsize=None)
def _rank_count_items(n: int) -> tuple[tuple[int, int], ...]:
    counts = Counter(parts[0] - len(parts) for parts in enumerate_partitions(n))
    return tuple(sorted(counts.items()))


def rank_counts(n: int) -> dict[int, int]:
    """Map rank m -> number of partitions of n with that rank."""
    if n < 1:
        raise ValueError("rank counts need n >= 1")
    return dict(_rank_count_items(n))


def second_rank_moment(n: int) -> int:
    """sum_m m^2 * N(m, n) over all partitions of n (enumeration route)."""
    if n < 1:
        raise ValueError("second rank moments need n >= 1")
    return sum(m * m * c for m, c in _rank_count_items(n))


@prefix_cache
def rank_moment_tail(order: int) -> Series:
    """sum_{k>=1} (-1)^k q^(k(3k+1)/2) (1+q^k) / (1-q^k)^2, truncated.

    Expanded over (q;q)_inf this gives -1/2 of the second rank moments; it
    also reappears, with q -> q^3, as the alpha sum of the J(1) Bailey pair.
    """
    total = zero(order)
    k = 1
    while k * (3 * k + 1) // 2 <= order:
        e = k * (3 * k + 1) // 2
        sign = -1 if k % 2 else 1
        total += monomial(sign, e, order).qmul(-1, k, 1, 1).qmul(1, k, 1, 1, -2)
        k += 1
    return total


@prefix_cache
def second_rank_moment_series(order: int) -> Series:
    """Generating function of the second rank moments, -2/(q;q)_inf times the
    tail sum; must reproduce the enumeration route coefficientwise."""
    return rank_moment_tail(order).qmul(1, 1, 1, None, -1) * -2


@lru_cache(maxsize=None)
def spt(n: int) -> int:
    """Total multiplicity of the smallest part over all partitions of n."""
    if n < 1:
        raise ValueError("spt(n) needs n >= 1")
    return sum(parts.count(parts[-1]) for parts in enumerate_partitions(n))


@prefix_cache
def spt_series(order: int) -> Series:
    """sum_{n>=1} q^n / ((1 - q^n) (q^n;q)_inf), truncated.

    1/(q^n;q)_inf is stepped down from 1/(q^(n+1);q)_inf by one binomial;
    every factor past q^order is 1 through the truncation.
    """
    total = zero(order)
    tail = one(order)  # 1/(q^(order+1);q)_inf
    for n in range(order, 0, -1):
        tail = tail.qmul(1, n, 1, 1, -1)
        total += (monomial(1, n, order) * tail).qmul(1, n, 1, 1, -1)
    return total


def qualifies(parts: Partition) -> bool:
    """Part test behind spt23: every part is < twice the smallest, or a
    multiple of 3 that is >= thrice the smallest."""
    if not parts:
        raise ValueError("qualification needs a nonempty partition")
    s = parts[-1]
    for p in parts:  # non-increasing, so the parts >= 2s come first
        if p < 2 * s:
            return True
        if p % 3 or p < 3 * s:
            return False
    return True


@lru_cache(maxsize=None)
def spt23(n: int) -> int:
    """Smallest-part multiplicity summed over qualifying partitions of n."""
    if n < 1:
        raise ValueError("spt23(n) needs n >= 1")
    return sum(
        parts.count(parts[-1])
        for parts in enumerate_partitions(n)
        if qualifies(parts)
    )


@prefix_cache
def spt23_series(order: int) -> Series:
    """sum_{n>=1} q^n A_n / (1-q^n), A_n = 1/((q^n;q)_n (q^(3n);q^3)_inf), truncated;
    A_n is stepped down from A_(order+1) = 1 by (1-q^(2n))(1-q^(2n+1)) / ((1-q^n)(1-q^(3n)))."""
    total = zero(order)
    tail = one(order)
    for n in range(order, 0, -1):
        tail = tail.qmul(1, 2 * n, 1, 2).qmul(1, n, 1, 1, -1).qmul(1, 3 * n, 1, 1, -1)
        total += (monomial(1, n, order) * tail).qmul(1, n, 1, 1, -1)
    return total


@prefix_cache
def xi_series(order: int) -> Series:
    """(a(q)^2 - 1) / 12 expanded over (q^3;q^3)_inf, with a(q)^2 = sum R(k) q^k
    read from the lattice table.

    Divisibility by 12 is checked, not assumed: a non-integer coefficient
    raises NonIntegralError and surfaces as a failure in the harness.
    """
    from .theta import lattice_table  # the lone upward edge; imported lazily

    series = (Series(lattice_table(order).R) - 1).qmul(1, 3, 3, None, -1) * Fraction(1, 12)
    for k, c in enumerate(series.coeffs):
        integral(c, k)
    return series


def p3(n: int) -> int:
    """Partitions of n into parts divisible by 3: p(n/3) when 3 | n, else 0."""
    if n < 0:
        raise ValueError("p3(n) needs n >= 0")
    return p_count(n // 3) if n % 3 == 0 else 0
