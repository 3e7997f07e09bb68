"""Exact truncated power series in q over the rationals.

A Series holds the coefficients of q^0 .. q^order as `fractions.Fraction`
values, so every result is exact through the truncation order.  All
generating-function work in the package (partition statistics, theta
functions, Bailey pairs, the identity suite) reduces to arithmetic here.

Values are immutable; every operation is a pure function returning a new
Series.  When two operands carry different orders, the result is truncated
to the smaller one -- coefficients are never padded with fabricated zeros.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational], order: int | None = None):
        cs = [c if isinstance(c, Fraction) else exact(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            del cs[order + 1 :]
            cs.extend([_ZERO] * (order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series carries at least the q^0 coefficient")
        self._coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^n; n must lie within the truncation order."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient q^{n} outside truncation order {self.order}")
        return self._coeffs[n]

    __getitem__ = coeff

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def truncate(self, order: int) -> Series:
        """Re-truncate to a smaller (or equal) order."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        return Series(self._coeffs[: order + 1])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> Series:
        if isinstance(other, Series):
            n = min(self.order, other.order)
            a, b = self._coeffs, other._coeffs
            return Series([a[k] + b[k] for k in range(n + 1)])
        if isinstance(other, (int, Fraction)):
            cs = list(self._coeffs)
            cs[0] += other
            return Series(cs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> Series:
        return Series([-c for c in self._coeffs])

    def __sub__(self, other) -> Series:
        if isinstance(other, (Series, int, Fraction)):
            return self + (-other if isinstance(other, Series) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other) -> Series:
        return (-self) + other

    def __mul__(self, other) -> Series:
        if isinstance(other, Series):
            n = min(self.order, other.order)
            a, b = self._coeffs, other._coeffs
            out = [_ZERO] * (n + 1)
            for i in range(n + 1):
                ai = a[i]
                if ai:
                    for j in range(n + 1 - i):
                        bj = b[j]
                        if bj:
                            out[i + j] += ai * bj
            return Series(out)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Series([c * x for x in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Series:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = monomial(1, 0, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other) -> Series:
        if isinstance(other, Series):
            return self * other.invert()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return self * (_ONE / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other) -> Series:
        if isinstance(other, (int, Fraction)):
            return self.invert() * other
        return NotImplemented

    def invert(self) -> Series:
        """Multiplicative inverse through q^order.

        Uses the recurrence g_n = -(1/f_0) * sum_{k=1..n} f_k g_{n-k}.
        """
        f = self._coeffs
        if f[0] == 0:
            raise NonUnitError("series with zero constant term has no inverse")
        inv0 = _ONE / f[0]
        g = [inv0] + [_ZERO] * self.order
        for n in range(1, self.order + 1):
            acc = _ZERO
            for k in range(1, n + 1):
                fk = f[k]
                if fk:
                    acc += fk * g[n - k]
            g[n] = -inv0 * acc
        return Series(g)

    def qmul(self, c: Rational, start: int, step: int, count: int | None, power: int = 1) -> Series:
        """self * prod_j (1 - c*q^(start + j*step))^power, one binomial at a time.

        ``count`` is the number of factors; None means the infinite product, in
        which case only factors with exponent <= order are applied (the rest
        are 1 + O(q^(order+1)), so the truncation is exact, not approximate).
        An infinite product needs start >= 1 to stabilize termwise.
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
        order = self.order
        last = order if count is None else min(order, start + (count - 1) * step)
        # multiply by (1 - c*q^e): c_k -= c*c_(k-e), scanning k downward;
        # divide by it: c_k += c*c_(k-e), scanning upward over updated values
        d = -exact(c) if power > 0 else exact(c)
        coeffs = list(self._coeffs)
        for e in range(start, last + 1, step):
            ks = range(order, e - 1, -1) if power > 0 else range(e, order + 1)
            for _ in range(abs(power)):
                for k in ks:
                    ck = coeffs[k - e]
                    if ck:
                        coeffs[k] += d * ck
        return Series(coeffs)

    # -- structural operations ----------------------------------------------

    def substitute_power(self, k: int) -> Series:
        """Replace q by q^k; the truncation order is preserved."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("substitution exponent must be a positive integer")
        if k == 1:
            return self
        out = [_ZERO] * (self.order + 1)
        for i, c in enumerate(self._coeffs):
            if k * i > self.order:
                break
            out[k * i] = c
        return Series(out)

    def reduce_mod(self, p: int) -> tuple[int, ...]:
        """Residues of the coefficients mod p (a prime), each by ``residue``."""
        if p < 2:
            raise ValueError("modulus must be at least 2")
        return tuple(residue(c, p, k) for k, c in enumerate(self._coeffs))

    def equal_up_to(self, other: Series, upto: int):
        """First exponent <= upto where the two series differ, or None."""
        if upto > min(self.order, other.order) or upto < 0:
            raise ValueError(f"comparison through q^{upto} exceeds a truncation order")
        a, b = self._coeffs, other._coeffs
        for k in range(upto + 1):
            if a[k] != b[k]:
                return k
        return None

    # -- serialization ------------------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as "numerator/denominator" strings, indexed from 0."""
        return [f"{c.numerator}/{c.denominator}" for c in self._coeffs]

    @classmethod
    def from_strings(cls, strings: Iterable[str], order: int | None = None) -> Series:
        return cls([Fraction(s) for s in strings], order)

    # -- housekeeping ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Series):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self._coeffs):
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


def exact(c: Rational) -> Fraction:
    """c as a Fraction; anything but an int or a Fraction (a float, say) is a TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact values are int or Fraction, not {type(c).__name__}")
    return Fraction(c)


def residue(c: Rational, p: int, index: int) -> int:
    """c mod p for a p-integral rational a/b (p does not divide b): a * b^-1 mod p.

    A denominator divisible by p raises NonIntegralError at ``index``.
    """
    den = c.denominator
    if den % p == 0:
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
    coeffs = [_ZERO] * (order + 1)
    coeffs[k] = c
    return Series(coeffs)


def one(order: int) -> Series:
    return monomial(1, 0, order)


def zero(order: int) -> Series:
    return Series([0], order)


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
    coeffs = [_ZERO] * (order + 1)
    n = 1
    while base * n <= order:
        e = base * n
        w = Fraction(n) if weight else _ONE
        m = e
        while m <= order:
            coeffs[m] += w
            m += e
        n += 1
    return Series(coeffs)
