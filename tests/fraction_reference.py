"""Dense `Fraction` reference for the series core.

Each function takes and returns a plain list of `fractions.Fraction`
coefficients of q^0 .. q^order; the order of a result is the smaller order
of its operands.  These are the loops the package's Series ran before it
moved to int numerators over a shared denominator.  This module imports
nothing from the package, so the differential tests compare two
implementations that share no code.
"""

from __future__ import annotations

from fractions import Fraction


def add(a: list, b: list) -> list:
    n = min(len(a), len(b))
    return [a[k] + b[k] for k in range(n)]


def mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        if a[i]:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += a[i] * b[j]
    return out


def invert(f: list) -> list:
    """g_n = -(1/f_0) * sum_{k=1..n} f_k g_(n-k)."""
    if f[0] == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    inv0 = 1 / Fraction(f[0])
    g = [inv0] + [Fraction(0)] * (len(f) - 1)
    for n in range(1, len(f)):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if f[k]:
                acc += f[k] * g[n - k]
        g[n] = -inv0 * acc
    return g


def qmul(s: list, c, start: int, step: int, count: int | None, power: int = 1) -> list:
    """s * prod_j (1 - c*q^(start + j*step))^power; count None is the infinite product.

    Multiplying by (1 - c*q^e) scans k downward with c_k -= c*c_(k-e);
    dividing scans upward with c_k += c*c_(k-e), over updated values.
    """
    order = len(s) - 1
    last = order if count is None else min(order, start + (count - 1) * step)
    d = -Fraction(c) if power > 0 else Fraction(c)
    out = list(s)
    for e in range(start, last + 1, step):
        ks = range(order, e - 1, -1) if power > 0 else range(e, order + 1)
        for _ in range(abs(power)):
            for k in ks:
                out[k] += d * out[k - e]
    return out


def substitute_power(s: list, k: int) -> list:
    """q -> q^k, keeping the order."""
    out = [Fraction(0)] * len(s)
    for i, c in enumerate(s):
        if k * i >= len(s):
            break
        out[k * i] = c
    return out
