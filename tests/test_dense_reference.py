"""Dense-inverse references for the q-product builders.

Each reference below expands every q-product with ``poch``, inverts the
denominator with ``Series.invert`` and multiplies the dense series; ``beta_n``
of the J(1) pair and the tail of I1 are built from scratch for each n.  The
package applies the same products one binomial factor at a time
(``Series.qmul``) and steps beta_n and the I1 tail from their predecessors;
both routes must agree coefficient by coefficient.
"""

from fractions import Fraction

import pytest

from sptlab import bailey, identities, partitions, theta
from sptlab.bailey import BaileyPair, slater_j1
from sptlab.series import lambert, monomial, one, poch, zero

ORDERS = (12, 40)


def ref_rank_moment_tail(order):
    total = zero(order)
    k = 1
    while k * (3 * k + 1) // 2 <= order:
        e = k * (3 * k + 1) // 2
        sign = -1 if k % 2 else 1
        geom = (one(order) - monomial(1, k, order)).invert()
        binom = one(order) + monomial(1, k, order)
        total += monomial(sign, e, order) * binom * geom * geom
        k += 1
    return total


def ref_second_rank_moment_series(order):
    return ref_rank_moment_tail(order) * poch(1, 1, 1, None, order).invert() * -2


def ref_spt_series(order):
    total = zero(order)
    for n in range(1, order + 1):
        den = (one(order) - monomial(1, n, order)) * poch(1, n, 1, None, order)
        total += monomial(1, n, order) * den.invert()
    return total


def ref_spt23_series(order):
    total = zero(order)
    for n in range(1, order + 1):
        den = (
            (one(order) - monomial(1, n, order))
            * poch(1, n, 1, n, order)
            * poch(1, 3 * n, 3, None, order)
        )
        total += monomial(1, n, order) * den.invert()
    return total


def ref_xi_series(order):
    a = theta.a_lattice(order)
    return (a * a - 1) * poch(1, 3, 3, None, order).invert() * Fraction(1, 12)


def ref_slater_beta(n, order):
    """beta_n = (q^3;q^3)_{n-1} / ((q;q)_n (q;q)_{2n-1}) in closed form, n >= 1."""
    num = poch(1, 3, 3, n - 1, order)
    den = poch(1, 1, 1, n, order) * poch(1, 1, 1, 2 * n - 1, order)
    return num * den.invert()


def ref_verify_pair(pair, order):
    for n in range(1, pair.n_max + 1):
        rhs = zero(order)
        for r in range(n + 1):
            if pair.alpha[r].is_zero():
                continue
            den = poch(1, 1, 1, n + r, order) * poch(1, 1, 1, n - r, order)
            rhs += pair.alpha[r] * den.invert()
        k = pair.beta[n].equal_up_to(rhs, order)
        if k is not None:
            return (n, k, pair.beta[n][k], rhs[k])
    return None


def ref_derivative_identity_sides(pair, order):
    lhs = zero(order)
    for n in range(1, order + 1):
        pref = poch(1, 1, 1, n - 1, order)
        lhs += pref * pref * pair.beta[n] * monomial(1, n, order)
    rhs = pair.alpha[0] * lambert(1, 1, order)
    for n in range(1, order + 1):
        if pair.alpha[n].is_zero():
            continue
        geom = (one(order) - monomial(1, n, order)).invert()
        rhs += pair.alpha[n] * monomial(1, n, order) * geom * geom
    return lhs, rhs


def ref_a_eta(order):
    e1 = poch(1, 1, 1, None, order)
    inv3 = poch(1, 3, 3, None, order).invert()
    total = e1 * e1 * e1 * inv3
    if order >= 1:
        e9 = poch(1, 9, 9, None, order)
        total += monomial(9, 1, order) * e9 * e9 * e9 * inv3
    return total


def ref_i1_lhs(order):
    lhs = zero(order)
    for n in range(order):
        lhs += one(order) - poch(1, n + 1, 1, None, order)
    return lhs


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "builder, reference",
    [
        (partitions.spt_series, ref_spt_series),
        (partitions.spt23_series, ref_spt23_series),
        (partitions.rank_moment_tail, ref_rank_moment_tail),
        (partitions.second_rank_moment_series, ref_second_rank_moment_series),
        (partitions.xi_series, ref_xi_series),
        (theta.a_eta, ref_a_eta),
    ],
    ids=lambda f: getattr(f, "__name__", None),
)
def test_series_builder_matches_its_dense_reference(builder, reference, order):
    assert builder(order).coeffs == reference(order).coeffs


@pytest.mark.parametrize("order", ORDERS)
def test_stepped_slater_beta_matches_the_closed_form(order):
    pair = slater_j1(order, order)
    for n in range(1, order + 1):
        assert pair.beta[n].coeffs == ref_slater_beta(n, order).coeffs


@pytest.mark.parametrize("order", ORDERS)
def test_verify_pair_matches_its_dense_reference(order):
    good = slater_j1(8, order)
    broken_beta = list(good.beta)
    broken_beta[5] = broken_beta[5] + monomial(1, 7, order)
    pairs = [good, slater_j1(8, order, literal_alpha0=True), BaileyPair(good.alpha, tuple(broken_beta))]
    for pair in pairs:
        assert bailey.verify_pair(pair, order) == ref_verify_pair(pair, order)
    assert ref_verify_pair(pairs[0], order) is None
    assert ref_verify_pair(pairs[2], order)[:2] == (5, 7)


@pytest.mark.parametrize("order", ORDERS)
def test_derivative_identity_sides_match_their_dense_reference(order):
    pair = slater_j1(order, order)
    sides = bailey.derivative_identity_sides(pair, order)
    for side, ref in zip(sides, ref_derivative_identity_sides(pair, order)):
        assert side.coeffs == ref.coeffs


@pytest.mark.parametrize("order", ORDERS)
def test_i1_left_side_matches_its_dense_reference(order):
    left = [lhs for _, lhs, _ in identities._chk_i1(order, 0)]
    assert left == list(ref_i1_lhs(order).coeffs)
