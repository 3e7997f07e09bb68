"""Borwein's cubic theta function a(q) and quaternary-form counts.

a(q) = sum over (n, m) in Z^2 of q^(n^2 + nm + m^2) is computed by three
independent routes (lattice enumeration, a Lambert series, an eta quotient)
so each can certify the others.  R(k) = [q^k] a(q)^2, squared once by the
series product, counts representations by x^2+xy+y^2+u^2+uv+v^2 and feeds
the xi series and the convolutions with the partitions into multiples of 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .partitions import p3, p_count, sigma
from .series import Series, monomial, one, prefix_cache


@dataclass(frozen=True)
class LatticeCountTable:
    """Representation counts r2 (binary form) and R (quaternary form) up to bound."""

    bound: int
    r2: tuple[int, ...]
    R: tuple[int, ...]

    def truncate(self, bound: int) -> LatticeCountTable:
        """The table up to a smaller bound; exact, as R(k) reads only r2[:k + 1]."""
        if not 0 <= bound <= self.bound:
            raise ValueError(f"cannot truncate a bound-{self.bound} table to {bound}")
        return LatticeCountTable(bound, self.r2[: bound + 1], self.R[: bound + 1])


@prefix_cache
def lattice_table(bound: int) -> LatticeCountTable:
    """Enumerate n^2+nm+m^2 <= bound for r2, and square a(q) = sum r2(k) q^k for R.

    The form satisfies n^2+nm+m^2 = (n + m/2)^2 + 3m^2/4 >= 3*max(n^2,m^2)/4,
    so |n|, |m| <= ceil(sqrt(4*bound/3)) exhausts the lattice.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    r2 = [0] * (bound + 1)
    box = isqrt(4 * bound // 3) + 1
    for n in range(-box, box + 1):
        for m in range(-box, box + 1):
            k = n * n + n * m + m * m
            if k <= bound:
                r2[k] += 1
    a = Series(r2)
    return LatticeCountTable(bound, tuple(r2), tuple(map(int, (a * a).coeffs)))


def a_lattice(order: int) -> Series:
    """a(q) with the coefficient of q^k counted directly on the lattice."""
    return Series(lattice_table(order).r2)


def a_lambert(order: int) -> Series:
    """a(q) as 1 + 6 sum_{n>=0} (q^(3n+1)/(1-q^(3n+1)) - q^(3n+2)/(1-q^(3n+2))).

    The n = 0 terms supply the coefficient 6 of q^1.
    """
    coeffs = [1] + [0] * order
    for n in range((order + 2) // 3):  # every n with 3n + 1 <= order
        for e, s in ((3 * n + 1, 6), (3 * n + 2, -6)):
            for m in range(e, order + 1, e):
                coeffs[m] += s
    return Series(coeffs, order)  # Series rejects a negative order


def a_eta(order: int) -> Series:
    """a(q) as the eta quotient 9q (q^9;q^9)_inf^3/(q^3;q^3)_inf + (q;q)_inf^3/(q^3;q^3)_inf."""
    total = one(order).qmul(1, 1, 1, None, 3)
    if order >= 1:
        total += monomial(9, 1, order).qmul(1, 9, 9, None, 3)
    return total.qmul(1, 3, 3, None, -1)


def R_lattice(k: int) -> int:
    """Quaternary representation count of k, read from the lattice table's R."""
    if k < 0:
        raise ValueError("R(k) needs k >= 0")
    return lattice_table(k).R[k]


def R_closed(n: int) -> int:
    """12 sigma(n) - 36 sigma(n/3) for an int n >= 1."""
    if not isinstance(n, int):
        raise TypeError(f"the closed form takes an int n, not {type(n).__name__}")
    if n < 1:
        raise ValueError("the closed form applies to n >= 1")
    return 12 * sigma(1, n) - 36 * sigma(1, Fraction(n, 3))


def p3_convolution(n: int, table: LatticeCountTable) -> int:
    """P3(n) = sum_{k=0..n} R(k) p3(n-k), with the k = 0 term (R(0) = 1) included."""
    if n < 0:
        raise ValueError("the convolution needs n >= 0")
    if table.bound < n:
        raise ValueError(f"the lattice table has bound {table.bound}, index {n} is needed")
    R = table.R
    return sum(R[k] * p3(n - k) for k in range(n + 1))


def p3_alt(m: int, table: LatticeCountTable) -> int:
    """sum_{k=0..m} R(3k) p(m-k); agrees with p3_convolution(3m)."""
    if m < 0:
        raise ValueError("the convolution needs m >= 0")
    if table.bound < 3 * m:
        raise ValueError(f"the lattice table has bound {table.bound}, index {3 * m} is needed")
    R = table.R
    return sum(R[3 * k] * p_count(m - k) for k in range(m + 1))
