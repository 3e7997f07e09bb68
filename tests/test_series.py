"""Exact series arithmetic: frozen examples plus invariant property tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_pair_count, brute_sigma, dp_partition_count, signed_distinct_part_count
from sptlab.series import (
    NonIntegralError,
    NonUnitError,
    Series,
    lambert,
    monomial,
    one,
    poch,
    residue,
    zero,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
coeff_lists = st.lists(rationals, min_size=1, max_size=9)


def geometric(order):
    return (one(order) - monomial(1, 1, order)).invert()


class TestConstruction:
    def test_monomial_identity(self):
        s = monomial(1, 0, 5)
        assert s.coeffs == (1, 0, 0, 0, 0, 0)

    def test_monomial_fraction(self):
        s = monomial(Fraction(-1, 2), 3, 5)
        assert s[3] == Fraction(-1, 2)
        assert sum(c != 0 for c in s.coeffs) == 1

    def test_monomial_out_of_range(self):
        with pytest.raises(ValueError):
            monomial(3, 7, 5)

    def test_constructor_pads_and_truncates(self):
        assert Series([1, 2], order=4).coeffs == (1, 2, 0, 0, 0)
        assert Series([1, 2, 3], order=1).coeffs == (1, 2)

    def test_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            one(4).coeff(5)


class TestRingOps:
    def test_add_cancellation(self):
        f = Series([1, 1], order=4)
        g = Series([1, -1], order=4)
        assert (f + g).coeffs == (2, 0, 0, 0, 0)

    def test_mul_telescopes(self):
        f = Series([1, 1, 1], order=3)
        g = Series([1, -1], order=3)
        assert (f * g).coeffs == (1, 0, 0, -1)

    def test_mul_geometric_square_counts_pairs(self):
        # q^4 coefficient of (sum q^n)^2 counts pairs i + j = 4
        expected = brute_pair_count(4)
        assert expected == 5
        g = geometric(8)
        assert (g * g)[4] == expected

    def test_mixed_order_truncates_to_minimum(self):
        f = one(10)
        g = geometric(4)
        assert (f + g).order == 4
        assert (f * g).order == 4

    def test_scalar_ops(self):
        f = geometric(5)
        assert (f * 2)[3] == 2
        assert (2 * f)[3] == 2
        assert (f * Fraction(1, 3))[0] == Fraction(1, 3)
        assert (f + 1)[0] == 2
        assert (1 - f)[1] == -1


class TestInvert:
    def test_geometric_series(self):
        inv = (one(6) - monomial(1, 1, 6)).invert()
        assert all(c == 1 for c in inv.coeffs)

    def test_euler_product_inverse_counts_partitions(self):
        n = 12
        inv = poch(1, 1, 1, None, n).invert()
        for k in range(n + 1):
            assert inv[k] == dp_partition_count(k)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            Series([0, 1, 1], order=4).invert()


class TestPoch:
    def test_two_factors(self):
        assert poch(1, 1, 1, 2, 3).coeffs == (1, -1, -1, 1)

    def test_pentagonal_coefficients(self):
        # infinite product expansion vs signed enumeration of distinct parts
        n = 9
        f = poch(1, 1, 1, None, n)
        for m in range(n + 1):
            assert f[m] == signed_distinct_part_count(n, m)
        assert f.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0)

    def test_single_negative_factor(self):
        assert poch(-1, 0, 1, 1, 4).coeffs == (2, 0, 0, 0, 0)

    def test_empty_product(self):
        assert poch(1, 3, 3, 0, 6) == one(6)

    def test_infinite_needs_positive_start(self):
        with pytest.raises(ValueError):
            poch(1, 0, 1, None, 8)

    def test_finite_factors_beyond_order_are_exact(self):
        assert poch(1, 1, 1, 50, 6) == poch(1, 1, 1, None, 6)

    def test_rational_argument(self):
        f = poch(Fraction(1, 2), 1, 1, 1, 3)
        assert f.coeffs == (1, Fraction(-1, 2), 0, 0)


class TestQmul:
    @settings(deadline=None, max_examples=80)
    @given(
        coeff_lists,
        rationals,
        st.integers(1, 3),
        st.none() | st.integers(0, 5),
        st.integers(-3, 3),
        st.data(),
    )
    def test_matches_the_dense_route(self, cs, c, step, count, power, data):
        # an infinite product and a division both need the factors to start at q^1
        start = data.draw(st.integers(1 if power < 0 or count is None else 0, 4))
        s = Series(cs)
        factor = poch(c, start, step, count, s.order)
        if power < 0:
            factor = factor.invert()
        expected = s
        for _ in range(abs(power)):
            expected = expected * factor
        assert s.qmul(c, start, step, count, power) == expected

    def test_dividing_by_a_factor_at_q0_rejected(self):
        with pytest.raises(ValueError):
            one(4).qmul(2, 0, 1, 1, -1)
        with pytest.raises(ValueError):
            Series([1, 2, 3]).qmul(Fraction(1, 2), 0, 1, 3, -2)


class TestExactInputs:
    def test_floats_are_rejected(self):
        from sptlab.bailey import lemma_sides, slater_j1

        with pytest.raises(TypeError):
            Series([0.1])
        with pytest.raises(TypeError):
            monomial(0.1, 0, 2)
        with pytest.raises(TypeError):
            poch(0.1, 1, 1, 1, 2)
        with pytest.raises(TypeError):
            lemma_sides(slater_j1(6, 6), 0.1, -1, 6)
        with pytest.raises(TypeError):
            lemma_sides(slater_j1(6, 6), -1, 0.1, 6)
        with pytest.raises(TypeError):
            one(2).qmul(0.5, 3, 1, 1)  # even a factor beyond the order


class TestSubstitutePower:
    def test_basic(self):
        f = Series([1, 1], order=4)
        assert f.substitute_power(3).coeffs == (1, 0, 0, 1, 0)

    def test_identity(self):
        f = geometric(7)
        assert f.substitute_power(1) is f

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            geometric(4).substitute_power(0)

    @given(coeff_lists, st.integers(1, 4), st.integers(1, 4))
    def test_composition(self, cs, a, b):
        f = Series(cs)
        assert f.substitute_power(a).substitute_power(b) == f.substitute_power(a * b)


class TestLambert:
    @pytest.mark.parametrize("weight,base", [(0, 1), (1, 1), (0, 2), (1, 3)])
    def test_divisor_sums(self, weight, base):
        order = 30
        f = lambert(weight, base, order)
        for m in range(1, order // base + 1):
            assert f[base * m] == brute_sigma(weight, m)

    def test_frozen_values(self):
        assert lambert(1, 1, 8)[6] == 12
        assert lambert(0, 1, 8)[4] == 3
        assert lambert(1, 3, 8)[5] == 0

    def test_zero_off_multiples(self):
        f = lambert(1, 3, 30)
        assert all(f[k] == 0 for k in range(31) if k % 3)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            lambert(2, 1, 10)


class TestReduceMod:
    """Reduction mod p, one coefficient at a time, by ``residue``."""

    def test_half_mod_three(self):
        assert residue(Fraction(1, 2), 3, 0) == 2

    def test_twelfth_not_three_integral(self):
        with pytest.raises(NonIntegralError) as err:
            residue(Fraction(1, 12), 3, 1)
        assert err.value.index == 1

    def test_modulus_sharing_a_factor_with_a_denominator(self):
        with pytest.raises(NonIntegralError) as err:
            residue(Fraction(1, 2), 4, 0)
        assert err.value.index == 0
        assert err.value.requirement == "4-integral"

    def test_series_residues(self):
        f = Series([5, Fraction(2, 5), -1])
        assert [residue(c, 3, k) for k, c in enumerate(f.coeffs)] == [2, 1, 2]


class TestCompare:
    def test_equal_up_to_match(self):
        lhs = (one(5) - monomial(1, 1, 5)).invert()
        rhs = Series([1, 1, 1], order=2)
        assert lhs.equal_up_to(rhs, 2) is None

    def test_equal_up_to_mismatch_index(self):
        f = Series([1, 2, 3], order=4)
        g = Series([1, 2, 4], order=4)
        assert f.equal_up_to(g, 4) == 2

    def test_equal_up_to_beyond_order(self):
        with pytest.raises(ValueError):
            one(3).equal_up_to(one(5), 4)


class TestSerialization:
    def test_round_trip(self):
        f = Series([1, Fraction(-3, 4), 0, Fraction(7, 2)])
        strings = f.to_strings()
        assert strings == ["1/1", "-3/4", "0/1", "7/2"]
        assert Series.from_strings(strings) == f

    def test_from_plain_integer_strings(self):
        assert Series.from_strings(["2", "-5"]).coeffs == (2, -5)


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(coeff_lists, coeff_lists, st.data())
    def test_product_prefix_stability(self, fs, gs, data):
        f, g = Series(fs), Series(gs)
        full = f * g
        k = data.draw(st.integers(0, full.order))
        m = data.draw(st.integers(k, full.order))
        again = f.truncate(m) * g.truncate(m)
        assert again[k] == full[k]

    @settings(deadline=None, max_examples=60)
    @given(coeff_lists.filter(lambda cs: cs[0] != 0))
    def test_invert_is_two_sided(self, cs):
        f = Series(cs)
        inv = f.invert()
        assert (f * inv).equal_up_to(one(f.order), f.order) is None
        assert (inv * f).equal_up_to(one(f.order), f.order) is None

    @settings(deadline=None, max_examples=60)
    @given(coeff_lists, coeff_lists)
    def test_ring_commutativity(self, fs, gs):
        f, g = Series(fs), Series(gs)
        assert f * g == g * f
        assert f + g == g + f

    def test_immutability(self):
        f = geometric(4)
        with pytest.raises(AttributeError):
            f.order = 7
        assert hash(f) == hash(geometric(4))

    def test_zero_and_repr(self):
        assert zero(3).is_zero()
        assert "Series" in repr(geometric(3))
