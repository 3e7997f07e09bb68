"""Exact truncated power series in q over the rationals.

A Series holds the coefficients of q^0 .. q^order as Python int numerators
over one shared positive int denominator, kept in canonical form: the gcd of
the denominator and all numerators is 1.  Every operation works on the ints
alone, so every result is exact through the truncation order; ``coeffs``,
``coeff`` and ``[]`` hand the coefficients out as reduced `fractions.Fraction`
values.  All generating-function work in the package (partition statistics,
theta functions, Bailey pairs, the identity suite) reduces to arithmetic here.

Values are immutable; every operation is a pure function returning a new
Series.  When two operands carry different orders, the result is truncated
to the smaller one -- coefficients are never padded with fabricated zeros.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from math import gcd, lcm
from operator import add, mul, sub
from threading import Lock
from typing import Iterable, Union

Rational = Union[int, Fraction]
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class NonUnitError(ZeroDivisionError):
    """Raised when inverting a series whose constant term is zero."""


class NonIntegralError(ArithmeticError):
    """Raised when a value that must be integral is not.

    Carries the ``value``, its ``index`` (the exponent of the coefficient) and
    the ``requirement`` it fails, "p-integral" or "integral".  For congruence
    checks this is a meaningful outcome, not just a precondition bug: it
    falsifies the p-adic reading of the congruence being tested.
    """

    def __init__(self, value: Rational, index: int, requirement: str):
        super().__init__(f"coefficient {value} of q^{index} is not {requirement}")
        self.value = value
        self.index = index
        self.requirement = requirement


class Series:
    """Dense power series in q, exact through q^order."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Rational], order: int | None = None):
        cs = [c if isinstance(c, (int, Fraction)) else exact(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            del cs[order + 1 :]
            cs.extend([0] * (order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series carries at least the q^0 coefficient")
        # the lcm of reduced denominators is already canonical
        den = lcm(*[c.denominator for c in cs])
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^n; n must lie within the truncation order."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient q^{n} outside truncation order {self.order}")
        return Fraction(self._num[n], self._den)

    __getitem__ = coeff

    def is_zero(self) -> bool:
        return not any(self._num)

    def truncate(self, order: int) -> Series:
        """Re-truncate to a smaller (or equal) order."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        return _canonical(self._num[: order + 1], self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> Series:
        if isinstance(other, Series):
            n = min(self.order, other.order) + 1
            a, b = self._num[:n], other._num[:n]
            den = lcm(self._den, other._den)
            sa, sb = den // self._den, den // other._den
            return _canonical(list(map(add, map(sa.__mul__, a), map(sb.__mul__, b))), den)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            den = lcm(self._den, q)
            scale = den // self._den
            nums = list(self._num) if scale == 1 else [x * scale for x in self._num]
            nums[0] += p * (den // q)
            return _canonical(nums, den)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> Series:
        return _series([-x for x in self._num], self._den)

    def __sub__(self, other) -> Series:
        if isinstance(other, (Series, int, Fraction)):
            return self + (-other if isinstance(other, Series) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other) -> Series:
        return (-self) + other

    def __mul__(self, other) -> Series:
        if isinstance(other, Series):
            n = min(self.order, other.order) + 1
            b = other._num
            out = [0] * n
            for i, ai in enumerate(self._num[:n]):
                if ai:
                    out[i:] = map(add, out[i:], map(ai.__mul__, b[: n - i]))
            return _canonical(out, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _canonical([p * x for x in self._num], self._den * q)
        return NotImplemented

    __rmul__ = __mul__

    def invert(self) -> Series:
        """Multiplicative inverse through q^order.

        With self = F/d for int numerators F, the inverse is d/F, and
        1/F has coefficients H_n / F_0^(n+1) for the ints
        H_0 = 1, H_n = -sum_{k=1..n} F_k F_0^(k-1) H_(n-k).
        """
        f = self._num
        f0 = f[0]
        if f0 == 0:
            raise NonUnitError("series with zero constant term has no inverse")
        order = self.order
        powers = [1]  # F_0^k for k = 0 .. order + 1
        for _ in range(order + 1):
            powers.append(powers[-1] * f0)
        g = list(map(mul, f[1:], powers))  # F_k F_0^(k-1), k >= 1
        h = [1]
        for n in range(1, order + 1):
            h.append(-sum(map(mul, g[:n], reversed(h))))
        # over the common denominator F_0^(order+1), times d
        d = self._den
        nums = [x * d * p for x, p in zip(h, reversed(powers[: order + 1]))]
        den = powers[order + 1]
        if den < 0:
            nums, den = [-x for x in nums], -den
        return _canonical(nums, den)

    def qmul(self, c: Rational, start: int, step: int, count: int | None, power: int = 1) -> Series:
        """self * prod_j (1 - c*q^(start + j*step))^power, one binomial at a time.

        ``count`` is the number of factors; None means the infinite product, in
        which case only factors with exponent <= order are applied (the rest
        are 1 + O(q^(order+1)), so the truncation is exact, not approximate).
        An infinite product needs start >= 1 to stabilize termwise.

        With c = a/b, multiplying by (1 - c*q^e) multiplies the numerators by
        (b - a*q^e) and the denominator by b.  Dividing first scales the
        numerators and the denominator by b^M, M = |power| * sum_e order // e,
        so that every division by b in the upward scans is exact.
        """
        if step < 1:
            raise ValueError("step must be a positive integer")
        if start < 0:
            raise ValueError("start exponent must be non-negative")
        if count is None and start == 0:
            raise ValueError("divergent product: infinitely many factors at q^0")
        if count is not None and count < 0:
            raise ValueError("factor count must be non-negative")
        if power < 0 and start == 0 and count != 0:
            raise ValueError("cannot divide by a factor at q^0 in place")
        a, b = _ratio(c)
        order = self.order
        last = order if count is None else min(order, start + (count - 1) * step)
        exponents = range(start, last + 1, step)
        if a == 0 or power == 0 or not exponents:
            return self
        x = list(self._num)
        den = self._den
        if power > 0:
            for e in exponents:
                for _ in range(power):
                    _times_binomial(x, a, b, e)
            den *= b ** (power * len(exponents))
        else:
            if b != 1:
                scale = b ** (-power * sum(order // e for e in exponents))
                x = [v * scale for v in x]
                den *= scale
            for e in exponents:
                for _ in range(-power):
                    _over_binomial(x, a, b, e)
        return _canonical(x, den)

    # -- structural operations ----------------------------------------------

    def substitute_power(self, k: int) -> Series:
        """Replace q by q^k; the truncation order is preserved."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("substitution exponent must be a positive integer")
        if k == 1:
            return self
        order = self.order
        out = [0] * (order + 1)
        out[::k] = self._num[: order // k + 1]
        return _canonical(out, self._den)

    def equal_up_to(self, other: Series, upto: int):
        """First exponent <= upto where the two series differ, or None."""
        if upto > min(self.order, other.order) or upto < 0:
            raise ValueError(f"comparison through q^{upto} exceeds a truncation order")
        a, b = self._num, other._num
        da, db = self._den, other._den
        for k in range(upto + 1):
            if a[k] * db != b[k] * da:
                return k
        return None

    # -- serialization ------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as "numerator/denominator" strings, indexed from 0."""
        den = self._den
        return [f"{x // g}/{den // g}" for x in self._num for g in (gcd(x, den),)]

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> Series:
        return cls([Fraction(s) for s in strings])

    # -- housekeeping ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Series):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                if k == 0:
                    terms.append(str(c))
                elif k == 1:
                    terms.append(f"{c}*q" if c != 1 else "q")
                else:
                    terms.append(f"{c}*q^{k}" if c != 1 else f"q^{k}")
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"Series({body}; order={self.order})"


def _series(nums, den: int) -> Series:
    """The Series with these numerators over ``den``, already in canonical form."""
    s = object.__new__(Series)
    s._num = tuple(nums)
    s._den = den
    return s


def _canonical(nums, den: int) -> Series:
    """The Series nums/den (den > 0), reduced to canonical form."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    return _series(nums, den)


def _times_binomial(x: list, a: int, b: int, e: int) -> None:
    """x <- (b - a*q^e) x in place, through the truncation order."""
    if e == 0:
        x[:] = map((b - a).__mul__, x)
        return
    shifted = x[:-e]
    if b != 1:
        x[:] = map(b.__mul__, x)
    x[e:] = map(sub, x[e:], shifted if a == 1 else map(a.__mul__, shifted))


def _over_binomial(x: list, a: int, b: int, e: int) -> None:
    """x <- x / (1 - (a/b)*q^e) in place, e >= 1: x_k += (a/b) x_(k-e), upward.

    Block by block of e: each block takes (a/b) times the finished block
    before it.  Each a*x_(k-e) it divides by b must be divisible by b (see
    ``Series.qmul``).
    """
    step = add if a == b == 1 else (lambda prev, v: v + a * prev // b)
    for s in range(e, len(x), e):
        x[s : s + e] = map(step, x[s - e : s], x[s : s + e])


def _ratio(c: Rational) -> tuple[int, int]:
    """c as (numerator, denominator) in lowest terms; only int and Fraction pass."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact values are int or Fraction, not {type(c).__name__}")
    return int(c.numerator), int(c.denominator)


def exact(c: Rational) -> Fraction:
    """c as a Fraction; anything but an int or a Fraction (a float, say) is a TypeError."""
    return Fraction(*_ratio(c))


def residue(c: Rational, p: int, index: int) -> int:
    """c mod p for a p-integral rational a/b (b prime to p): a * b^-1 mod p.

    A denominator that shares a factor with p raises NonIntegralError at ``index``.
    """
    den = c.denominator
    if gcd(den, p) != 1:
        raise NonIntegralError(c, index, f"{p}-integral")
    return c.numerator * pow(den, -1, p) % p


def integral(c: Rational, index: int) -> Rational:
    """c itself when it is an integer; otherwise NonIntegralError at ``index``."""
    if c.denominator != 1:
        raise NonIntegralError(c, index, "integral")
    return c


def monomial(c: Rational, k: int, order: int) -> Series:
    """The series c*q^k at the given truncation order."""
    if not 0 <= k <= order:
        raise ValueError(f"exponent {k} out of range for order {order}")
    a, b = _ratio(c)
    nums = [0] * (order + 1)
    nums[k] = a
    return _series(nums, b if a else 1)


def one(order: int) -> Series:
    return monomial(1, 0, order)


def zero(order: int) -> Series:
    return Series([0], order)


def prefix_cache(build):
    """Memoize ``build(order)``, whose result at a smaller order is its own
    ``truncate(order)``, by the largest result built.  Any order outside
    0..that order goes to ``build``, which validates it; only a larger result
    replaces the kept one, so re-entrant or threaded calls cannot shrink it."""
    kept = None  # (order, result)
    hits = misses = 0
    lock = Lock()

    @wraps(build)
    def cached(order):
        nonlocal kept, hits, misses
        held = kept
        if held is not None and 0 <= order <= held[0]:
            hits += 1
            return held[1] if order == held[0] else held[1].truncate(order)
        misses += 1
        result = build(order)
        with lock:
            if kept is None or order > kept[0]:
                kept = (order, result)
        return result

    def cache_clear():
        nonlocal kept, hits, misses
        kept, hits, misses = None, 0, 0

    cached.cache_info = lambda: CacheInfo(hits, misses, 1, int(kept is not None))
    cached.cache_clear = cache_clear
    return cached


def poch(c: Rational, start: int, step: int, count: int | None, order: int) -> Series:
    """q-Pochhammer-style product prod_j (1 - c*q^(start + j*step)) through q^order.

    The factors, and the rules on them, are those of ``Series.qmul``.
    Examples: (a;q)_n = poch(a, 0, 1, n, N); (q^3;q^3)_inf = poch(1, 3, 3, None, N).
    """
    return one(order).qmul(c, start, step, count)


def lambert(weight: int, base: int, order: int) -> Series:
    """sum_{n>=1} n^weight * q^(base*n) / (1 - q^(base*n)), truncated.

    By divisor-sum rearrangement this equals sum_m sigma_weight(m) q^(base*m);
    weight must be 0 or 1.
    """
    if weight not in (0, 1):
        raise ValueError("weight must be 0 or 1")
    if base < 1:
        raise ValueError("base exponent must be a positive integer")
    coeffs = [0] * (order + 1)
    n = 1
    while base * n <= order:
        e = base * n
        w = n if weight else 1
        m = e
        while m <= order:
            coeffs[m] += w
            m += e
        n += 1
    return _series(coeffs, 1)
