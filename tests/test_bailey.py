"""Bailey pair construction, the defining relation, and lemma specializations."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptlab.bailey import (
    BaileyPair,
    DegenerateParameterError,
    derivative_identity_sides,
    lemma_sides,
    pair_from_json,
    pair_to_json,
    slater_j1,
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


def reference_lemma_sides(pair: BaileyPair, z, y, order: int) -> tuple[Series, Series]:
    """Both sides of Bailey's lemma at (z, y), a = 1, each summed in its own
    loop that builds (z;q)_n (y;q)_n (q/zy)^n afresh: the differential
    reference for ``lemma_sides``, which builds no weight and nests both
    sums from n = order down by Horner's rule."""
    z, y = Fraction(z), Fraction(y)
    w = 1 / (z * y)

    lhs = zero(order)
    for n in range(min(pair.n_max, order) + 1):
        term = poch(z, 0, 1, n, order) * poch(y, 0, 1, n, order) * pair.beta[n]
        term = term * w**n
        if n:
            term = term * monomial(1, n, order)
        lhs += term

    prefactor = (
        poch(1 / z, 1, 1, None, order)
        * poch(1 / y, 1, 1, None, order)
        * (poch(1, 1, 1, None, order) * poch(w, 1, 1, None, order)).invert()
    )
    total = zero(order)
    for n in range(min(pair.n_max, order) + 1):
        if pair.alpha[n].is_zero():
            continue
        num = poch(z, 0, 1, n, order) * poch(y, 0, 1, n, order) * pair.alpha[n]
        den = poch(1 / z, 1, 1, n, order) * poch(1 / y, 1, 1, n, order)
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
        assert slater_j1(2, 10, literal_alpha0=True).alpha[0] == monomial(2, 0, 10)

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
        pair = slater_j1(8, 40, literal_alpha0=True)
        failure = verify_pair(pair, 40)
        assert failure is not None
        n, k, left, right = failure
        assert n == 1
        assert (left, right) == (1, 2)

    def test_unit_pair_passes(self):
        assert verify_pair(unit_pair(6, 24)) is None

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
        lhs, rhs = lemma_sides(slater_j1(order, order), -1, -1, order)
        assert lhs.equal_up_to(rhs, order) is None

    def test_minus_one_minus_one_agrees_for_unit_pair(self):
        order = 20
        lhs, rhs = lemma_sides(unit_pair(order, order), -1, -1, order)
        assert lhs.equal_up_to(rhs, order) is None

    def test_other_specializations_agree(self):
        order = 16
        pair = slater_j1(order, order)
        for z, y in ((-2, -1), (Fraction(1, 2), -3), (2, 3)):
            lhs, rhs = lemma_sides(pair, z, y, order)
            assert lhs.equal_up_to(rhs, order) is None

    @pytest.mark.parametrize("make_pair", [slater_j1, unit_pair])
    @pytest.mark.parametrize("z, y", [(-1, -1), (-2, -1), (Fraction(1, 2), -3), (2, 3)])
    def test_each_side_matches_the_two_loop_reference(self, make_pair, z, y):
        # agreement of the two sides alone would not catch a weight that
        # both sides share wrongly
        order = 14
        pair = make_pair(order, order)
        sides = lemma_sides(pair, z, y, order)
        for side, ref in zip(sides, reference_lemma_sides(pair, z, y, order)):
            assert side.coeffs == ref.coeffs

    def test_unit_specialization_is_degenerate(self):
        pair = slater_j1(12, 12)
        with pytest.raises(DegenerateParameterError):
            lemma_sides(pair, -1, 1, 12)
        with pytest.raises(DegenerateParameterError):
            lemma_sides(pair, 1, -1, 12)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            lemma_sides(slater_j1(10, 10), 0, -1, 10)

    def test_truncation_shortfall_rejected(self):
        pair = slater_j1(5, 20)
        with pytest.raises(ValueError, match="shortfall"):
            lemma_sides(pair, -1, -1, 20)

    def test_pair_tabulated_below_the_order_rejected(self):
        with pytest.raises(ValueError, match="shortfall"):
            lemma_sides(slater_j1(10, 5), -1, -1, 10)


rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 12)))
# nonzero, and not 1: z = 1 or y = 1 is the degenerate specialization
parameters = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).filter(
    lambda c: c not in (0, 1)
)


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
        return Series(cs, order)

    alpha = tuple(row(n % 3) for n in range(order + 1))
    beta = tuple(row(False) for _ in range(order + 1))
    return BaileyPair(alpha, beta), order


class TestNestedSumsOnArbitraryTables:
    @settings(deadline=None, max_examples=30)
    @given(arbitrary_pairs(), parameters, parameters)
    def test_lemma_sides_match_the_two_loop_reference(self, drawn, z, y):
        pair, order = drawn
        sides = lemma_sides(pair, z, y, order)
        for side, ref in zip(sides, reference_lemma_sides(pair, z, y, order)):
            assert side.coeffs == ref.coeffs

    @settings(deadline=None, max_examples=30)
    @given(arbitrary_pairs())
    def test_derivative_sides_match_the_dense_reference(self, drawn):
        pair, order = drawn
        sides = derivative_identity_sides(pair, order)
        for side, ref in zip(sides, ref_derivative_identity_sides(pair, order)):
            assert side.coeffs == ref.coeffs


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
        alpha_sum = rhs - pair.alpha[0] * lambert(1, 1, order)
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


class TestPairSerialization:
    def test_round_trip(self, tmp_path):
        pair = slater_j1(3, 8)
        data = pair_to_json(pair)
        assert set(data) == {"n_max", "order", "alpha", "beta"}
        assert data["n_max"] == 3 and data["order"] == 8
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(data))
        loaded = pair_from_json(path)
        assert loaded.alpha == pair.alpha
        assert loaded.beta == pair.beta
        assert verify_pair(loaded) is None

    def test_from_dict(self):
        data = {
            "n_max": 1,
            "order": 2,
            "alpha": [["1/1", "0/1", "0/1"], ["0/1", "0/1", "0/1"]],
            "beta": [["1/1", "0/1", "0/1"], ["1/1", "2/1", "3/1"]],
        }
        pair = pair_from_json(data)
        assert verify_pair(pair) is None

    def test_short_row_rejected(self):
        data = pair_to_json(slater_j1(3, 6))
        data["beta"][2] = data["beta"][2][:3]
        with pytest.raises(ValueError, match="beta_2 has 3 coefficients, not order \\+ 1 = 7"):
            pair_from_json(data)

    def test_long_row_rejected(self):
        data = pair_to_json(slater_j1(3, 6))
        data["alpha"][3] = data["alpha"][3] + ["5/1"]
        with pytest.raises(ValueError, match="alpha_3 has 8 coefficients"):
            pair_from_json(data)

    def test_row_count_must_match(self):
        data = {"n_max": 2, "order": 1, "alpha": [["1/1"]], "beta": [["1/1"]]}
        with pytest.raises(ValueError):
            pair_from_json(data)


class TestPairValidation:
    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            BaileyPair((one(4), zero(4)), (one(4), zero(5)))

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            BaileyPair((), ())

