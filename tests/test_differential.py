"""The int-numerator series core against the dense `Fraction` reference.

Coefficients are random rationals over small denominators (2, 3, 4, 12).  A
Series takes only int coefficients, so each one is built as int numerators
over their lcm, scaled by Fraction(1, lcm) (``conftest.rational_series``);
the shared denominator of a Series is then exercised by every operation.
Each result must also be in canonical form, which shows as equality and an
equal hash with the Series rebuilt from its own reduced coefficients.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from conftest import rational_series
from sptlab.series import NonIntegralError, Series, one, residue

rationals = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 12)))
coeff_lists = st.lists(rationals, min_size=1, max_size=12)
factor_cs = st.sampled_from((1, -1))  # the c of (1 - c*q^e), an int


def assert_matches(result: Series, expected: list):
    assert list(result.coeffs) == expected
    rebuilt = rational_series(result.coeffs)
    assert result == rebuilt and hash(result) == hash(rebuilt)


class TestAgainstTheReference:
    @given(coeff_lists, coeff_lists)
    def test_add_and_sub(self, fs, gs):
        f, g = rational_series(fs), rational_series(gs)
        assert_matches(f + g, ref.add(fs, gs))
        assert_matches(f - g, ref.add(fs, [-c for c in gs]))

    @given(coeff_lists, st.integers(-5, 5), rationals)
    def test_scalar_ops(self, fs, n, c):
        # + and - take an int scalar, * an int or a Fraction
        f = rational_series(fs)
        assert_matches(f + n, [fs[0] + n] + fs[1:])
        assert_matches(n - f, [n - fs[0]] + [-x for x in fs[1:]])
        assert_matches(f * n, [x * n for x in fs])
        assert_matches(f * c, [x * c for x in fs])
        assert_matches(-f, [-x for x in fs])

    @settings(deadline=None)
    @given(coeff_lists, coeff_lists)
    def test_mul(self, fs, gs):
        assert_matches(rational_series(fs) * rational_series(gs), ref.mul(fs, gs))

    @settings(deadline=None)
    @given(coeff_lists.filter(lambda cs: cs[0] != 0))
    def test_invert(self, fs):
        assert_matches(rational_series(fs).invert(), ref.invert(fs))

    @settings(deadline=None, max_examples=200)
    @given(
        coeff_lists,
        factor_cs,
        st.integers(1, 3),
        st.none() | st.integers(0, 5),
        st.integers(-3, 3),
        st.data(),
    )
    def test_qmul(self, fs, c, step, count, power, data):
        # an infinite product and a division both need the factors to start at q^1
        start = data.draw(st.integers(1 if power < 0 or count is None else 0, 4))
        assert_matches(
            rational_series(fs).qmul(c, start, step, count, power),
            ref.qmul(fs, c, start, step, count, power),
        )

    @given(coeff_lists, st.integers(1, 4))
    def test_substitute_power(self, fs, k):
        assert_matches(rational_series(fs).substitute_power(k), ref.substitute_power(fs, k))

    @given(coeff_lists, st.data())
    def test_truncate_and_compare(self, fs, data):
        f = rational_series(fs)
        m = data.draw(st.integers(0, f.order))
        assert_matches(f.truncate(m), fs[: m + 1])
        gs = data.draw(st.lists(rationals, min_size=len(fs), max_size=len(fs)))
        differ = [k for k in range(m + 1) if fs[k] != gs[k]]
        assert f.equal_up_to(rational_series(gs), m) == (differ[0] if differ else None)

    @given(coeff_lists, st.sampled_from((2, 3, 4, 5, 6)))
    def test_reduce_mod(self, fs, p):
        # each coefficient by residue, the one reduction mod p in the package
        for k, c in enumerate(rational_series(fs).coeffs):
            if gcd(c.denominator, p) != 1:
                with pytest.raises(NonIntegralError) as err:
                    residue(c, p, k)
                assert err.value.index == k
                assert err.value.requirement == f"{p}-integral"
            else:
                assert residue(c, p, k) == c.numerator * pow(c.denominator, -1, p) % p


class TestCanonicalForm:
    @given(coeff_lists)
    def test_equal_series_built_by_different_routes(self, fs):
        s = rational_series(fs)
        routes = (
            (s * Fraction(1, 3)) * 3,
            s * Fraction(1, 2) + s * Fraction(1, 2),
            (s * 12 + 3) * Fraction(1, 12) - one(s.order) * Fraction(1, 4),
            s.qmul(-1, 1, 1, 2).qmul(-1, 1, 1, 2, -1),
        )
        for other in routes:
            assert other == s
            assert hash(other) == hash(s)
            assert other.coeffs == s.coeffs

    def test_coefficients_are_reduced_fractions(self):
        s = rational_series([Fraction(1, 2), Fraction(3, 4), 2, 0])
        assert s.coeffs == (Fraction(1, 2), Fraction(3, 4), 2, 0)
        assert all(isinstance(c, Fraction) for c in s.coeffs)
        assert s[2] == 2 and s[2].denominator == 1
        assert s[3].denominator == 1

    def test_a_cancelled_denominator_is_gone(self):
        s = rational_series([Fraction(1, 2), Fraction(1, 2)]) * 2
        assert s == Series([1, 1])
        assert [(c.numerator, c.denominator) for c in s.coeffs] == [(1, 1), (1, 1)]
        assert s - s == Series([0, 0])
        assert (one(3) * Fraction(1, 6)).truncate(0) == rational_series([Fraction(1, 6)])
