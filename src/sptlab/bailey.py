"""Bailey pairs as data: the defining relation, numeric specializations of
Bailey's lemma, and the double-derivative identity that generates the
restricted smallest-parts series.

A pair stores alpha_n and beta_n as truncated series for 0 <= n <= n_max,
relative to the parameter a = 1 (the only value this package needs).  The
defining relation

    beta_n = sum_{r=0..n} alpha_r / ((aq;q)_{n+r} (q;q)_{n-r})

is verified, never assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .series import Series, exact, lambert, monomial, one, zero


class DegenerateParameterError(ValueError):
    """A lemma specialization where (z;q)_n or (y;q)_n vanishes identically."""


@dataclass(frozen=True)
class BaileyPair:
    alpha: tuple[Series, ...]
    beta: tuple[Series, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta) or not self.alpha:
            raise ValueError("alpha and beta must be tabulated for the same 0..n_max")
        orders = {s.order for s in self.alpha} | {s.order for s in self.beta}
        if len(orders) != 1:
            raise ValueError("all tabulated series must share one truncation order")

    @property
    def n_max(self) -> int:
        return len(self.alpha) - 1

    @property
    def order(self) -> int:
        return self.alpha[0].order


@lru_cache(maxsize=None)
def slater_j1(n_max: int, order: int, literal_alpha0: bool = False) -> BaileyPair:
    """The J(1) pair from Slater's list, relative to a = 1.

    alpha_0 = 1 and beta_0 = 1 by convention: the tabulated formulas
    alpha_{3k} = (-1)^k q^(3k(3k-1)/2) (1 + q^(3k)) and
    beta_n = (q^3;q^3)_{n-1} / ((q;q)_n (q;q)_{2n-1})
    are used for n >= 1, with alpha vanishing off multiples of 3; beta_n is stepped
    from beta_1 = 1/(1-q)^2 by beta_n/beta_{n-1} = (1-q^(3n-3))/((1-q^n)(1-q^(2n-2))(1-q^(2n-1))).
    ``literal_alpha0=True`` instead reads the alpha formula at k = 0, which
    gives alpha_0 = 2 and breaks the defining relation at n = 1; it exists
    as a deliberately failing diagnostic.
    """
    if n_max < 1:
        raise ValueError("tabulate at least n = 1")
    alpha = [monomial(2 if literal_alpha0 else 1, 0, order)]
    beta = [one(order)]
    for n in range(1, n_max + 1):
        if n % 3:
            alpha.append(zero(order))
        else:
            k = n // 3
            sign = 1 if k % 2 == 0 else -1
            e = n * (n - 1) // 2  # 3k(3k-1)/2 at n = 3k
            cs = [0] * (order + 1)
            if e <= order:
                cs[e] += sign
            if e + n <= order:
                cs[e + n] += sign
            alpha.append(Series(cs))
        if n == 1:
            beta.append(one(order).qmul(1, 1, 1, 1, -2))
        else:
            step = beta[-1].qmul(1, 3 * n - 3, 1, 1).qmul(1, n, 1, 1, -1)
            beta.append(step.qmul(1, 2 * n - 2, 1, 2, -1))
    return BaileyPair(tuple(alpha), tuple(beta))


def verify_pair(pair: BaileyPair, order: int | None = None):
    """Check the defining relation for every 1 <= n <= n_max.

    Returns None on success, else (n, k, left, right): the first pair index
    n and coefficient exponent k where beta_n differs from the alpha sum.
    """
    order = pair.order if order is None else min(order, pair.order)
    for n in range(1, pair.n_max + 1):
        rhs = zero(order)
        for r in range(n + 1):
            if pair.alpha[r].is_zero():
                continue
            rhs += pair.alpha[r].qmul(1, 1, 1, n + r, -1).qmul(1, 1, 1, n - r, -1)
        k = pair.beta[n].equal_up_to(rhs, order)
        if k is not None:
            return (n, k, pair.beta[n][k], rhs[k])
    return None


def _require_depth(pair: BaileyPair, order: int) -> None:
    """Sides through q^order need the rows n <= order, each tabulated through q^order."""
    if pair.n_max < order or pair.order < order:
        raise ValueError(
            f"truncation shortfall: n_max={pair.n_max} and pair order={pair.order} "
            f"must both reach order={order}"
        )


def lemma_sides(pair: BaileyPair, z, y, order: int) -> tuple[Series, Series]:
    """Both sides of Bailey's lemma at the numeric specialization (z, y), a = 1.

    Left:  sum_n (z;q)_n (y;q)_n (q/zy)^n beta_n
    Right: [(q/z)_inf (q/y)_inf / ((q)_inf (q/zy)_inf)]
           * sum_n (z;q)_n (y;q)_n (q/zy)^n alpha_n / ((q/z;q)_n (q/y;q)_n)

    z = 1 or y = 1 makes (z;q)_n or (y;q)_n vanish for n >= 1, so both sides
    collapse to their n = 0 terms; that is flagged as degenerate rather than
    reported as a meaningful match.  Every summand is O(q^n), so the pair
    must be tabulated to n_max >= order, each row through q^order.
    """
    z, y = exact(z), exact(y)
    if z == 0 or y == 0:
        raise ValueError("z and y must be nonzero")
    if z == 1 or y == 1:
        raise DegenerateParameterError(
            "z = 1 or y = 1 zeroes every term with n >= 1 on both sides"
        )
    _require_depth(pair, order)
    w = 1 / (z * y)  # (q/zy)^n contributes w^n q^n

    def step(acc, n):  # w q (1 - z q^n)(1 - y q^n) acc: term n+1 over term n
        return (monomial(w, 1, order) * acc).qmul(z, n, 1, 1).qmul(y, n, 1, 1)

    lhs = total = zero(order)  # both sums nested from the top: acc_n = term_n + step(acc_(n+1), n)
    for n in range(order, -1, -1):
        lhs = pair.beta[n] + step(lhs, n)
        total = pair.alpha[n] + step(total, n).qmul(1 / z, n + 1, 1, 1, -1).qmul(1 / y, n + 1, 1, 1, -1)

    rhs = total.qmul(1 / z, 1, 1, None).qmul(1 / y, 1, 1, None)
    return lhs, rhs.qmul(1, 1, 1, None, -1).qmul(w, 1, 1, None, -1)


def derivative_identity_sides(pair: BaileyPair, order: int) -> tuple[Series, Series]:
    """Both sides of the lemma differentiated in z and y at z = y = a = 1:

    sum_{n>=1} (q;q)_{n-1}^2 beta_n q^n
        = alpha_0 sum_{n>=1} n q^n/(1-q^n) + sum_{n>=1} alpha_n q^n/(1-q^n)^2.

    Summand n is O(q^n) on both sides, so n_max >= order suffices, each row
    tabulated through q^order.
    """
    _require_depth(pair, order)
    lhs = zero(order)  # nested from the top: acc_n = q^n beta_n + (1 - q^n)^2 acc_(n+1)
    for n in range(order, 0, -1):
        lhs = monomial(1, n, order) * pair.beta[n] + lhs.qmul(1, n, 1, 1, 2)

    rhs = pair.alpha[0] * lambert(1, 1, order)
    for n in range(1, order + 1):
        if pair.alpha[n].is_zero():
            continue
        rhs += (monomial(1, n, order) * pair.alpha[n]).qmul(1, n, 1, 1, -2)
    return lhs, rhs


def pair_from_json(source) -> BaileyPair:
    """Load a pair from the declarative JSON format.

    The object carries "n_max", "order", and "alpha"/"beta" as arrays of
    coefficient-string arrays ("num/den", indexed from q^0).  Every row holds
    exactly order + 1 coefficients: a short row is not padded with zeros and
    a long one is not cut, so a truncated table cannot pass for an exact one.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    order = int(data["order"])
    n_max = int(data["n_max"])
    for name in ("alpha", "beta"):
        if len(data[name]) != n_max + 1:
            raise ValueError("alpha/beta tables must carry n_max + 1 rows")
        for n, row in enumerate(data[name]):
            if len(row) != order + 1:
                raise ValueError(f"{name}_{n} has {len(row)} coefficients, not order + 1 = {order + 1}")
    alpha, beta = (tuple(map(Series.from_strings, data[name])) for name in ("alpha", "beta"))
    return BaileyPair(alpha, beta)


def pair_to_json(pair: BaileyPair) -> dict:
    """Dump a pair to the declarative JSON format (as a plain dict)."""
    return {
        "n_max": pair.n_max,
        "order": pair.order,
        "alpha": [s.to_strings() for s in pair.alpha],
        "beta": [s.to_strings() for s in pair.beta],
    }
