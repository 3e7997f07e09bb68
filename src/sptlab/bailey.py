"""Bailey pairs as data: the defining relation, Bailey's lemma at
(z, y) = (-1, -1), and the double-derivative identity that generates the
restricted smallest-parts series.

A pair stores alpha_n and beta_n as truncated series for 0 <= n <= n_max,
row n through one order that never grows with n, relative to the parameter
a = 1 (the only value this package needs).  The defining relation

    beta_n = sum_{r=0..n} alpha_r / ((aq;q)_{n+r} (q;q)_{n-r})

is verified, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .series import Series, lambert, one, zero


@dataclass(frozen=True)
class BaileyPair:
    alpha: tuple[Series, ...]
    beta: tuple[Series, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta) or not self.alpha:
            raise ValueError("alpha and beta must be tabulated for the same 0..n_max")
        orders = [s.order for s in self.alpha]
        if orders != [s.order for s in self.beta] or orders != sorted(orders, reverse=True):
            raise ValueError("alpha_n and beta_n must share one truncation order that never grows with n")

    @property
    def n_max(self) -> int:
        return len(self.alpha) - 1

    @property
    def order(self) -> int:
        """The truncation order that every row reaches."""
        return self.alpha[-1].order


def _j1_rows(orders) -> dict[str, tuple[Series, ...]]:
    """alpha_n and beta_n of J(1) for n = 0, 1, ..., row n through q^orders[n];
    the orders must not increase, since beta_n is stepped from beta_(n-1)."""
    if not orders:
        raise ValueError("tabulate at least row n = 0")
    alpha, beta = [one(orders[0])], [one(orders[0])]
    for n, order in enumerate(orders[1:], 1):
        cs = [0] * (order + 1)
        if n % 3 == 0:  # q^(3k(3k-1)/2) and q^(3k(3k+1)/2) at n = 3k, with sign (-1)^k
            for e in (n * (n - 1) // 2, n * (n + 1) // 2):
                if e <= order:
                    cs[e] = (-1) ** (n // 3)
        alpha.append(Series(cs))
        if n == 1:
            beta.append(one(order).qmul(1, 1, 1, 1, -2))
        else:
            step = beta[-1].truncate(order).qmul(1, 3 * n - 3, 1, 1).qmul(1, n, 1, 1, -1)
            beta.append(step.qmul(1, 2 * n - 2, 1, 2, -1))
    return {"alpha": tuple(alpha), "beta": tuple(beta)}


@lru_cache(maxsize=None)
def slater_j1(n_max: int, order: int) -> BaileyPair:
    """The J(1) pair from Slater's list, relative to a = 1.

    alpha_0 = 1 and beta_0 = 1 by convention: the tabulated formulas
    alpha_{3k} = (-1)^k q^(3k(3k-1)/2) (1 + q^(3k)) and
    beta_n = (q^3;q^3)_{n-1} / ((q;q)_n (q;q)_{2n-1})
    are used for n >= 1, with alpha vanishing off multiples of 3; beta_n is stepped
    from beta_1 = 1/(1-q)^2 by beta_n/beta_{n-1} = (1-q^(3n-3))/((1-q^n)(1-q^(2n-2))(1-q^(2n-1))).
    """
    return BaileyPair(**_j1_rows([order] * (n_max + 1)))


def slater_j1_window(order: int) -> BaileyPair:
    """The rows n = 0..order of J(1) that the sides through q^order read,
    row n through q^(order - n); not memoized."""
    return BaileyPair(**_j1_rows(range(order, -1, -1)))


def verify_pair(pair: BaileyPair, order: int):
    """Check the defining relation through q^order for every 1 <= n <= n_max.

    Returns None on success, else (n, k, left, right): the first pair index
    n and coefficient exponent k where beta_n differs from the alpha sum.  A
    table with no row n >= 1, or a row short of q^order, is refused.
    """
    if pair.n_max < 1 or order > pair.order:
        raise ValueError(f"truncation shortfall: a check through q^{order} needs a row n >= 1 and every row through q^{order}")
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
    """Sides through q^order read the rows n <= order, row n through q^(order - n)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if pair.n_max < order or any(pair.alpha[n].order < order - n for n in range(order + 1)):
        raise ValueError(f"truncation shortfall: sides through q^{order} need rows n <= {order} through q^({order} - n)")


def lemma_sides(pair: BaileyPair, order: int) -> tuple[Series, Series]:
    """Both sides of Bailey's lemma at (z, y) = (-1, -1), a = 1, where q/zy = q:

    Left:  sum_n (-1;q)_n^2 q^n beta_n
    Right: [(-q;q)_inf^2 / (q;q)_inf^2] * sum_n (-1;q)_n^2 q^n alpha_n / (-q;q)_n^2

    Summand n is O(q^n), so ``pair`` needs rows n <= order through q^(order - n).
    """
    _require_depth(pair, order)

    def step(acc, n):  # q (1 + q^n)^2 acc: term n+1 over term n
        return acc.shift(1).qmul(-1, n, 1, 1, 2)

    # nested from the top: acc_n = term_n + step(acc_(n+1), n), carried through q^(order - n)
    lhs, total = pair.beta[order].truncate(0), pair.alpha[order].truncate(0)
    for n in range(order - 1, -1, -1):
        lhs = pair.beta[n] + step(lhs, n)
        total = pair.alpha[n] + step(total, n).qmul(-1, n + 1, 1, 1, -2)
    return lhs, total.qmul(-1, 1, 1, None, 2).qmul(1, 1, 1, None, -2)


def derivative_identity_sides(pair: BaileyPair, order: int) -> tuple[Series, Series]:
    """Both sides of the lemma differentiated in z and y at z = y = a = 1:

    sum_{n>=1} (q;q)_{n-1}^2 beta_n q^n
        = alpha_0 sum_{n>=1} n q^n/(1-q^n) + sum_{n>=1} alpha_n q^n/(1-q^n)^2.

    Summand n is O(q^n) on both sides, so ``pair`` needs rows n <= order
    through q^(order - n).
    """
    _require_depth(pair, order)
    lhs = zero(0)  # nested from the top: acc_n = q^n beta_n + (1 - q^n)^2 acc_(n+1), as acc_n / q^(n-1)
    for n in range(order, 0, -1):
        lhs = (pair.beta[n] + lhs.qmul(1, n, 1, 1, 2)).shift(1)

    rhs = pair.alpha[0] * lambert(1, order)
    for n in range(1, order + 1):
        alpha = pair.alpha[n].truncate(order - n)
        if not alpha.is_zero():
            rhs += alpha.shift(n).qmul(1, n, 1, 1, -2)
    return lhs, rhs
