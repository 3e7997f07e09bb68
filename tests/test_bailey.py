"""Bailey pair construction, the defining relation, and the lemma at (z, y) = (-1, -1)."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_series
from sptlab.bailey import (
    BaileyPair,
    derivative_identity_sides,
    lemma_sides,
    slater_j1,
    slater_j1_window,
    verify_pair,
)
from sptlab.partitions import (
    rank_moment_tail,
    second_rank_moment_series,
    spt23_series,
)
from sptlab.series import Series, lambert, monomial, one, poch, zero
from test_dense_reference import ref_derivative_identity_sides


def unit_pair(n_max: int, order: int) -> BaileyPair:
    """alpha_0 = 1, alpha_n = 0 (n >= 1), beta_n = 1/((q;q)_n)^2: a pair by
    construction, independent of the Slater tables."""
    alpha = [one(order)] + [zero(order)] * n_max
    beta = []
    for n in range(n_max + 1):
        pn = poch(1, 1, 1, n, order)
        beta.append((pn * pn).invert())
    return BaileyPair(tuple(alpha), tuple(beta))


def literal_alpha0_pair(n_max: int, order: int) -> BaileyPair:
    """J(1) with its alpha formula read literally at k = 0 as well, so alpha_0 = 2."""
    pair = slater_j1(n_max, order)
    return replace(pair, alpha=(monomial(2, 0, order),) + pair.alpha[1:])


def reference_lemma_sides(pair: BaileyPair, z, y, order: int) -> tuple[Series, Series]:
    """Both sides of Bailey's lemma at (z, y), a = 1, each summed in its own
    loop that builds (z;q)_n (y;q)_n (q/zy)^n afresh: at (-1, -1), the
    differential reference for ``lemma_sides``, which builds no weight and
    nests both sums from n = order down by Horner's rule.  z and y are the
    ints 1 or -1, the only c a q-product factor takes, so 1/z = 1 // z and
    w = 1 // (zy) are ints too."""
    w = 1 // (z * y)

    lhs = zero(order)
    for n in range(min(pair.n_max, order) + 1):
        term = poch(z, 0, 1, n, order) * poch(y, 0, 1, n, order) * pair.beta[n]
        term = term * w**n
        if n:
            term = term * monomial(1, n, order)
        lhs += term

    prefactor = (
        poch(1 // z, 1, 1, None, order)
        * poch(1 // y, 1, 1, None, order)
        * (poch(1, 1, 1, None, order) * poch(w, 1, 1, None, order)).invert()
    )
    total = zero(order)
    for n in range(min(pair.n_max, order) + 1):
        if pair.alpha[n].is_zero():
            continue
        num = poch(z, 0, 1, n, order) * poch(y, 0, 1, n, order) * pair.alpha[n]
        den = poch(1 // z, 1, 1, n, order) * poch(1 // y, 1, 1, n, order)
        term = num * den.invert() * w**n
        if n:
            term = term * monomial(1, n, order)
        total += term
    return lhs, prefactor * total


class TestSlaterTables:
    def test_alpha_vanishes_off_multiples_of_three(self):
        pair = slater_j1(8, 20)
        for n in (1, 2, 4, 5, 7, 8):
            assert pair.alpha[n].is_zero()

    def test_alpha_three(self):
        pair = slater_j1(4, 20)
        expected = -(monomial(1, 3, 20) + monomial(1, 6, 20))  # -q^3 (1 + q^3)
        assert pair.alpha[3] == expected

    def test_alpha_zero_convention(self):
        assert slater_j1(2, 10).alpha[0] == one(10)
        # the alpha formula read literally at k = 0: q^0 (1 + q^0) = 2
        assert literal_alpha0_pair(2, 10).alpha[0] == monomial(2, 0, 10)

    def test_beta_one_is_inverse_square(self):
        pair = slater_j1(2, 10)
        expected = [k + 1 for k in range(11)]  # 1/(1-q)^2
        assert [int(c) for c in pair.beta[1].coeffs] == expected

    def test_beta_zero_is_one(self):
        assert slater_j1(2, 10).beta[0] == one(10)


class TestDefiningRelation:
    def test_slater_passes_through_n8(self):
        pair = slater_j1(8, 40)
        assert verify_pair(pair, 40) is None

    def test_literal_alpha0_fails_at_n1(self):
        pair = literal_alpha0_pair(8, 40)
        failure = verify_pair(pair, 40)
        assert failure is not None
        n, k, left, right = failure
        assert n == 1
        assert (left, right) == (1, 2)

    def test_unit_pair_passes(self):
        assert verify_pair(unit_pair(6, 24), 24) is None

    def test_a_table_short_of_the_order_is_refused(self):
        # not a pass after comparing through q^16 only
        with pytest.raises(ValueError, match="truncation shortfall"):
            verify_pair(slater_j1(3, 16), 40)

    def test_a_table_without_row_one_is_refused(self):
        # not a pass after comparing nothing
        for pair in (BaileyPair((one(5),), (one(5),)), slater_j1(0, 5)):
            with pytest.raises(ValueError, match="truncation shortfall"):
                verify_pair(pair, 5)

    def test_broken_beta_reports_position(self):
        pair = slater_j1(3, 16)
        beta = list(pair.beta)
        beta[2] = beta[2] + monomial(1, 5, 16)
        broken = BaileyPair(pair.alpha, tuple(beta))
        failure = verify_pair(broken, 16)
        assert failure is not None and failure[:2] == (2, 5)


class TestLemmaSpecialization:
    def test_minus_one_minus_one_agrees_for_slater(self):
        order = 30
        lhs, rhs = lemma_sides(slater_j1(order, order), order)
        assert lhs.equal_up_to(rhs, order) is None

    def test_minus_one_minus_one_agrees_for_unit_pair(self):
        order = 20
        lhs, rhs = lemma_sides(unit_pair(order, order), order)
        assert lhs.equal_up_to(rhs, order) is None

    @pytest.mark.parametrize("make_pair", [slater_j1, unit_pair])
    def test_each_side_matches_the_two_loop_reference(self, make_pair):
        # agreement of the two sides alone would not catch a weight that
        # both sides share wrongly
        order = 14
        pair = make_pair(order, order)
        sides = lemma_sides(pair, order)
        for side, ref in zip(sides, reference_lemma_sides(pair, -1, -1, order)):
            assert side.coeffs == ref.coeffs

    def test_truncation_shortfall_rejected(self):
        pair = slater_j1(5, 20)
        with pytest.raises(ValueError, match="shortfall"):
            lemma_sides(pair, 20)

    def test_pair_tabulated_below_the_order_rejected(self):
        with pytest.raises(ValueError, match="shortfall"):
            lemma_sides(slater_j1(10, 5), 10)


rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 12)))


@st.composite
def arbitrary_pairs(draw):
    """Random alpha_n and beta_n at every n <= order, tied by no defining
    relation; alpha_n is nonzero off multiples of 3, where J(1) has zeros
    that could hide an index slip in the alpha step."""
    order = draw(st.integers(8, 16))

    def row(nonzero):
        cs = draw(st.lists(rationals, min_size=1, max_size=order + 1))
        if nonzero and not any(cs):
            cs[0] = Fraction(1)
        return rational_series(cs, order)

    alpha = tuple(row(n % 3) for n in range(order + 1))
    beta = tuple(row(False) for _ in range(order + 1))
    return BaileyPair(alpha, beta), order


class TestNestedSumsOnArbitraryTables:
    @settings(deadline=None, max_examples=30)
    @given(arbitrary_pairs())
    def test_lemma_sides_match_the_two_loop_reference(self, drawn):
        pair, order = drawn
        sides = lemma_sides(pair, order)
        for side, ref in zip(sides, reference_lemma_sides(pair, -1, -1, order)):
            assert side.coeffs == ref.coeffs

    @settings(deadline=None, max_examples=30)
    @given(arbitrary_pairs())
    def test_derivative_sides_match_the_dense_reference(self, drawn):
        pair, order = drawn
        sides = derivative_identity_sides(pair, order)
        for side, ref in zip(sides, ref_derivative_identity_sides(pair, order)):
            assert side.coeffs == ref.coeffs


class TestWindow:
    def test_rows_are_the_tabulated_rows_cut_to_the_window(self):
        for order in range(81):
            window, pair = slater_j1_window(order), slater_j1(max(order, 1), order)
            assert len(window.alpha) == len(window.beta) == order + 1
            for n in range(order + 1):
                assert window.alpha[n] == pair.alpha[n].truncate(order - n)
                assert window.beta[n] == pair.beta[n].truncate(order - n)

    def test_sides_match_those_of_the_full_table(self):
        for order in (0, 1, 2, 17):
            window, pair = slater_j1_window(order), slater_j1(max(order, 1), order)
            assert lemma_sides(window, order) == lemma_sides(pair, order)
            assert derivative_identity_sides(window, order) == derivative_identity_sides(pair, order)

    def test_a_wider_window_gives_the_same_sides(self):
        wide, exact_fit = slater_j1_window(14), slater_j1_window(10)
        assert lemma_sides(wide, 10) == lemma_sides(exact_fit, 10)
        assert derivative_identity_sides(wide, 10) == derivative_identity_sides(exact_fit, 10)

    def test_the_window_is_a_bailey_pair_through_its_last_row(self):
        window = slater_j1_window(10)
        assert isinstance(window, BaileyPair)
        assert (window.n_max, window.order) == (10, 0)
        assert verify_pair(window, 0) is None
        with pytest.raises(ValueError, match="truncation shortfall"):
            verify_pair(window, 1)

    def test_a_narrower_window_rejected(self):
        window = slater_j1_window(10)
        with pytest.raises(ValueError, match="shortfall"):
            lemma_sides(window, 11)
        with pytest.raises(ValueError, match="shortfall"):
            derivative_identity_sides(window, 11)


class TestDerivativeIdentity:
    def test_sides_agree_at_order_40(self):
        order = 40
        lhs, rhs = derivative_identity_sides(slater_j1(order, order), order)
        assert lhs.equal_up_to(rhs, order) is None

    def test_q1_coefficients(self):
        lhs, rhs = derivative_identity_sides(slater_j1(12, 12), 12)
        assert lhs[1] == 1
        assert rhs[1] == 1  # alpha_0 * sigma(1), the alpha_1 term vanishing

    def test_left_side_generates_restricted_spt(self):
        # dividing by (q^3;q^3)_inf turns the left side into the spt23 series
        order = 30
        lhs, _ = derivative_identity_sides(slater_j1(order, order), order)
        produced = lhs * poch(1, 3, 3, None, order).invert()
        assert produced.equal_up_to(spt23_series(order), order) is None

    def test_alpha_sum_is_rank_moment_tail_in_q3(self):
        order = 36
        pair = slater_j1(order, order)
        _, rhs = derivative_identity_sides(pair, order)
        alpha_sum = rhs - pair.alpha[0] * lambert(1, order)
        assert alpha_sum.equal_up_to(
            rank_moment_tail(order).substitute_power(3), order
        ) is None
        # and over (q^3;q^3)_inf it yields -1/2 of the rank moments in q^3
        scaled = alpha_sum * poch(1, 3, 3, None, order).invert()
        target = second_rank_moment_series(order).substitute_power(3) * Fraction(-1, 2)
        assert scaled.equal_up_to(target, order) is None

    def test_truncation_shortfall_rejected(self):
        with pytest.raises(ValueError, match="shortfall"):
            derivative_identity_sides(slater_j1(6, 24), 24)

    def test_pair_tabulated_below_the_order_rejected(self):
        with pytest.raises(ValueError, match="shortfall"):
            derivative_identity_sides(slater_j1(10, 5), 10)


class TestPairValidation:
    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            BaileyPair((one(4), zero(4)), (one(4), zero(5)))

    def test_row_orders_that_grow_with_n_rejected(self):
        with pytest.raises(ValueError, match="never grows with n"):
            BaileyPair((one(4), zero(5)), (one(4), zero(5)))

    def test_no_rows_rejected(self):
        # not an IndexError from the row builder
        for build in (lambda: slater_j1(-1, 5), lambda: slater_j1_window(-1)):
            with pytest.raises(ValueError, match="tabulate at least row n = 0"):
                build()

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            BaileyPair((), ())

