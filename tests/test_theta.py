"""Cubic theta function routes and quaternary-form counting."""

from fractions import Fraction

import pytest

from sptlab.partitions import p3, p_count, spt23
from sptlab.series import Series, lambert
from sptlab.theta import (
    R_closed,
    R_lattice,
    a_eta,
    a_lambert,
    a_lattice,
    lattice_table,
    p3_alt,
    p3_convolution,
)


def brute_r2(k: int) -> int:
    """Binary-form count by scanning a generous window."""
    span = k + 1
    return sum(
        1
        for n in range(-span, span + 1)
        for m in range(-span, span + 1)
        if n * n + n * m + m * m == k
    )


def brute_r4(k: int) -> int:
    """Quaternary-form count by direct 4-tuple enumeration."""
    span = k + 1
    total = 0
    pair_values = [
        n * n + n * m + m * m
        for n in range(-span, span + 1)
        for m in range(-span, span + 1)
    ]
    # direct but not clever: count pairs of pairs with complementary values
    from collections import Counter

    counts = Counter(v for v in pair_values if v <= k)
    return sum(counts[v] * counts[k - v] for v in counts if k - v in counts)


def brute_r4_tuples(k: int) -> int:
    """Literal 4-tuple scan, feasible for small k."""
    span = 1
    while 3 * span * span // 4 <= k:
        span += 1
    rng = range(-span, span + 1)
    return sum(
        1
        for x in rng
        for y in rng
        for u in rng
        for v in rng
        if x * x + x * y + y * y + u * u + u * v + v * v == k
    )


class TestLatticeRoute:
    def test_frozen_leading_coefficients(self):
        a = a_lattice(10)
        assert [int(c) for c in a.coeffs] == [1, 6, 0, 6, 6, 0, 0, 12, 0, 6, 0]

    def test_counts_match_wide_window_scan(self):
        a = a_lattice(20)
        for k in range(21):
            assert a[k] == brute_r2(k)

    def test_r2_convolution_is_quaternary_count(self):
        table = lattice_table(20)
        for k in range(21):
            assert table.R[k] == brute_r4(k)

    def test_quaternary_spot_check_against_four_tuples(self):
        for k in range(21):
            assert R_lattice(k) == brute_r4_tuples(k)

    def test_r_frozen(self):
        assert R_lattice(0) == 1
        assert R_lattice(1) == 12


class TestThreeRoutesAgree:
    def test_lambert_route(self):
        assert a_lattice(60).equal_up_to(a_lambert(60), 60) is None

    def test_lambert_frozen(self):
        a = a_lambert(10)
        assert a[1] == 6
        assert a[3] == 6

    def test_lambert_printed_start_misses_q1(self):
        # the printed sum starts at n = 1, dropping 6q/(1-q) - 6q^2/(1-q^2),
        # whose coefficient of q^k is 6 for odd k and 0 for even k
        shifted = a_lambert(20) - Series([6 * (k % 2) for k in range(21)])
        assert a_lattice(20).equal_up_to(shifted, 20) == 1
        assert shifted[1] == 0

    def test_eta_route(self):
        assert a_lattice(60).equal_up_to(a_eta(60), 60) is None

    def test_eta_frozen(self):
        a = a_eta(6)
        assert a[0] == 1
        assert a[1] == 6

    def test_square_identity_with_divisor_sums(self):
        order = 40
        lhs = (lambert(1, order) - lambert(3, order) * 3) * 12
        a = a_lattice(order)
        assert lhs.equal_up_to(a * a - 1, order) is None


class TestClosedForm:
    def test_frozen(self):
        assert R_closed(3) == 12
        assert R_closed(1) == 12

    def test_matches_lattice_through_60(self):
        table = lattice_table(60)
        for n in range(1, 61):
            assert table.R[n] == R_closed(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            R_closed(0)

    @pytest.mark.parametrize("n", [Fraction(5, 2), Fraction(3), 3.0])
    def test_rejects_a_non_int(self, n):
        # R_closed(Fraction(5, 2)) was 0, read as "no divisors"
        with pytest.raises(TypeError, match="the closed form takes an int n"):
            R_closed(n)


class TestConvolutions:
    def test_p3_convolution_frozen(self):
        table = lattice_table(5)
        assert p3_convolution(0, table) == 1
        assert p3_convolution(1, table) == 12
        assert p3_convolution(5, table) == 108

    def test_divisible_by_twelve_off_multiples_of_three(self):
        table = lattice_table(60)
        for n in range(1, 61):
            if n % 3:
                assert p3_convolution(n, table) % 12 == 0

    def test_relates_to_restricted_spt(self):
        # the +-1 (mod 3) branch: 12 spt23(n) = P3(n)
        table = lattice_table(20)
        for n in range(1, 21):
            if n % 3:
                assert p3_convolution(n, table) == 12 * spt23(n)

    def test_alt_form_frozen(self):
        assert p3_alt(0, lattice_table(0)) == 1

    def test_alt_form_matches_convolution(self):
        table = lattice_table(60)
        for m in range(21):
            assert p3_alt(m, table) == p3_convolution(3 * m, table)

    def test_alt_form_by_definition(self):
        table = lattice_table(30)
        for m in range(11):
            expected = sum(table.R[3 * k] * p_count(m - k) for k in range(m + 1))
            assert p3_alt(m, table) == expected

    def test_convolution_definition_includes_zero_term(self):
        table = lattice_table(12)
        for n in range(13):
            expected = sum(table.R[k] * p3(n - k) for k in range(n + 1))
            assert p3_convolution(n, table) == expected

    def test_convolution_rejects_a_table_that_is_too_small(self):
        with pytest.raises(ValueError, match=r"bound 60, index 70 is needed"):
            p3_convolution(70, lattice_table(60))

    def test_alt_form_rejects_a_table_that_is_too_small(self):
        # p3_alt(m) reads R(3m)
        with pytest.raises(ValueError, match=r"bound 60, index 75 is needed"):
            p3_alt(25, lattice_table(60))
