"""Exact series arithmetic: frozen examples plus invariant property tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_pair_count, brute_sigma, dp_partition_count, rational_series, signed_distinct_part_count
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
factor_cs = st.sampled_from((1, -1))  # the c of (1 - c*q^e), an int


def geometric(order):
    return (one(order) - monomial(1, 1, order)).invert()


def euler_by_binomials(s, k, power):
    """s * (q^k;q^k)_inf^power, one binomial factor at a time: the reference
    for the pentagonal route that ``Series.qmul`` takes for a full Euler product."""
    for e in range(k, s.order + 1, k):
        s = s.qmul(1, e, 1, 1, power)
    return s


class TestConstruction:
    def test_monomial_identity(self):
        s = monomial(1, 0, 5)
        assert s.coeffs == (1, 0, 0, 0, 0, 0)

    def test_monomial_fraction(self):
        s = monomial(-1, 3, 5) * Fraction(1, 2)
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
        # a factor (1 - c*q^e) takes the int c = 1 or -1 only; poch(1/2, 1, 1, 1, 3) was 1 - q/2
        for c in (2, 0, -3):
            with pytest.raises(ValueError, match=f"not c = {c}"):
                poch(c, 1, 1, 1, 3)
            with pytest.raises(ValueError, match=f"not c = {c}"):
                one(2).qmul(c, 3, 1, 1)  # even a factor beyond the order
            with pytest.raises(ValueError, match=f"not c = {c}"):
                one(2).qmul(c, 1, 1, None, 0)  # or no factor at all
        for c in (Fraction(1, 2), Fraction(1), Fraction(-1), 1.0):  # an integral Fraction too
            for call in (
                lambda: poch(c, 1, 1, 1, 3),
                lambda: one(2).qmul(c, 3, 1, 1),
                lambda: one(2).qmul(c, 1, 1, None, 0),
            ):
                with pytest.raises(TypeError, match=f"takes an int c, not {type(c).__name__}"):
                    call()


class TestQmul:
    @settings(deadline=None, max_examples=80)
    @given(
        coeff_lists,
        factor_cs,
        st.integers(1, 3),
        st.none() | st.integers(0, 5),
        st.integers(-3, 3),
        st.data(),
    )
    def test_matches_the_dense_route(self, cs, c, step, count, power, data):
        # an infinite product and a division both need the factors to start at q^1
        start = data.draw(st.integers(1 if power < 0 or count is None else 0, 4))
        s = rational_series(cs)
        factor = poch(c, start, step, count, s.order)
        if power < 0:
            factor = factor.invert()
        expected = s
        for _ in range(abs(power)):
            expected = expected * factor
        assert s.qmul(c, start, step, count, power) == expected

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 300),
        st.integers(1, 9),
        st.integers(-6, 6),
        st.sampled_from((1, 2, 3, 12)),
        st.randoms(use_true_random=False),
    )
    @example(order=4, k=9, power=-6, den=12, rnd=random.Random(1))  # no factor applies
    @example(order=300, k=1, power=-6, den=12, rnd=random.Random(2))
    @example(order=300, k=1, power=6, den=2, rnd=random.Random(3))
    def test_full_euler_product_matches_the_binomial_route(self, order, k, power, den, rnd):
        # the constant term 1/den keeps the shared denominator at den
        s = rational_series([Fraction(1, den)] + [Fraction(rnd.randint(-30, 30), den) for _ in range(order)])
        got, ref = s.qmul(1, k, k, None, power), euler_by_binomials(s, k, power)
        assert (got._num, got._den) == (ref._num, ref._den)

    def test_dividing_by_a_factor_at_q0_rejected(self):
        with pytest.raises(ValueError):
            one(4).qmul(-1, 0, 1, 1, -1)
        with pytest.raises(ValueError):
            Series([1, 2, 3]).qmul(1, 0, 1, 3, -2)


class TestExactInputs:
    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Series([0.1])
        with pytest.raises(TypeError):
            monomial(0.1, 0, 2)
        with pytest.raises(TypeError):
            poch(0.1, 1, 1, 1, 2)
        with pytest.raises(TypeError):
            one(2).qmul(0.5, 3, 1, 1)  # even a factor beyond the order

    def test_rationals_enter_by_scalar_multiplication_only(self):
        for build in (
            lambda: Series([Fraction(1, 2)]),
            lambda: Series([1, Fraction(1)]),  # an integral Fraction too
            lambda: Series([Fraction(1)], order=0),
            lambda: monomial(Fraction(1, 2), 1, 3),
            lambda: monomial(Fraction(2), 1, 3),
        ):
            with pytest.raises(TypeError, match="not Fraction"):
                build()
        s = one(3)
        for op in (
            lambda: s + Fraction(1, 2),
            lambda: Fraction(1, 2) + s,
            lambda: s - Fraction(1, 2),
            lambda: Fraction(1, 2) - s,
            lambda: s + Fraction(1),
        ):
            with pytest.raises(TypeError):
                op()
        assert (s * Fraction(1, 2))[0] == Fraction(1, 2)
        assert (Fraction(1, 2) * s)[0] == Fraction(1, 2)


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
        f = rational_series(cs)
        assert f.substitute_power(a).substitute_power(b) == f.substitute_power(a * b)


class TestShift:
    @given(coeff_lists, st.integers(0, 5))
    def test_prepends_k_zero_coefficients(self, cs, k):
        f = rational_series(cs)
        g = f.shift(k)
        assert g.order == f.order + k
        assert g.coeffs[:k] == (0,) * k
        assert g == rational_series((0,) * k + f.coeffs)

    def test_is_the_monomial_product(self):
        f = geometric(6)
        assert f.shift(2).truncate(6) == monomial(1, 2, 6) * f

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            geometric(4).shift(-1)


class TestLambert:
    @pytest.mark.parametrize("base", [1, 2, 3])
    def test_divisor_sums(self, base):
        order = 30
        f = lambert(base, order)
        for m in range(1, order // base + 1):
            assert f[base * m] == brute_sigma(1, m)

    def test_frozen_values(self):
        assert lambert(1, 8)[6] == 12
        assert lambert(2, 8)[4] == 3
        assert lambert(3, 8)[5] == 0

    def test_zero_off_multiples(self):
        f = lambert(3, 30)
        assert all(f[k] == 0 for k in range(31) if k % 3)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            lambert(0, 10)


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
        f = rational_series([5, Fraction(2, 5), -1])
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


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(coeff_lists, coeff_lists, st.data())
    def test_product_prefix_stability(self, fs, gs, data):
        f, g = rational_series(fs), rational_series(gs)
        full = f * g
        k = data.draw(st.integers(0, full.order))
        m = data.draw(st.integers(k, full.order))
        again = f.truncate(m) * g.truncate(m)
        assert again[k] == full[k]

    @settings(deadline=None, max_examples=60)
    @given(coeff_lists.filter(lambda cs: cs[0] != 0))
    def test_invert_is_two_sided(self, cs):
        f = rational_series(cs)
        inv = f.invert()
        assert (f * inv).equal_up_to(one(f.order), f.order) is None
        assert (inv * f).equal_up_to(one(f.order), f.order) is None

    @settings(deadline=None, max_examples=60)
    @given(coeff_lists, coeff_lists)
    def test_ring_commutativity(self, fs, gs):
        f, g = rational_series(fs), rational_series(gs)
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
