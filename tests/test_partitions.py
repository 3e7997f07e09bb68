"""Partition statistics: enumeration oracles against generating functions."""

from fractions import Fraction
from itertools import islice

import pytest

from conftest import (
    ascending_partitions,
    brute_sigma,
    counted_rank_counts,
    counted_spt,
    counted_spt23,
    dp_partition_count,
    dp_partition_count_parts_mult3,
    recursive_partitions,
)
from sptlab.partitions import (
    enumerate_partitions,
    p3,
    p_count,
    qualifies,
    rank,
    rank_counts,
    rank_moment_tail,
    second_rank_moment,
    second_rank_moment_series,
    sigma,
    spt,
    spt23,
    spt23_series,
    spt_series,
    xi_series,
)
from sptlab.series import poch

ORACLE_ORDER = 25


class TestEnumeration:
    def test_zero_yields_empty_partition(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_four_has_five_partitions(self):
        got = list(enumerate_partitions(4))
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_eight_contains_332(self):
        assert (3, 3, 2) in set(enumerate_partitions(8))

    def test_counts_and_contents_match_independent_enumeration(self):
        for n in range(13):
            ours = {parts for parts in enumerate_partitions(n)}
            theirs = {tuple(sorted(p, reverse=True)) for p in ascending_partitions(n)}
            assert ours == theirs
            assert len(list(enumerate_partitions(n))) == dp_partition_count(n)

    def test_parts_non_increasing(self):
        for parts in enumerate_partitions(9):
            assert all(a >= b for a, b in zip(parts, parts[1:]))
            assert sum(parts) == 9


class TestZS1:
    """The non-recursive walk against the recursive generator it replaced."""

    def test_same_sequence_as_the_recursive_reference(self):
        for n in range(26):
            assert list(enumerate_partitions(n)) == list(recursive_partitions(n))

    def test_every_max_part_matches_the_reference(self):
        for n in range(13):
            for max_part in range(n + 2):
                assert list(enumerate_partitions(n, max_part)) == list(
                    recursive_partitions(n, max_part)
                ), (n, max_part)

    def test_long_partitions_need_no_recursion(self):
        # the recursive generator stacked one frame per part
        assert list(enumerate_partitions(5000, 1)) == [(1,) * 5000]
        assert list(islice(enumerate_partitions(5000, 2), 2)) == [
            (2,) * 2500,
            (2,) * 2499 + (1, 1),
        ]

    def test_qualifies_matches_the_literal_rule(self):
        for n in range(1, 23):
            for parts in enumerate_partitions(n):
                s = parts[-1]
                literal = all(p < 2 * s or (p % 3 == 0 and p >= 3 * s) for p in parts)
                assert qualifies(parts) == literal, parts

    def test_oracles_match_the_counting_reference(self):
        for n in range(1, 41):
            assert spt(n) == counted_spt(n), n
            assert spt23(n) == counted_spt23(n), n
            assert rank_counts(n) == counted_rank_counts(n), n


class TestCounting:
    def test_small_values(self):
        assert p_count(0) == 1
        assert p_count(5) == 7

    def test_recurrence_matches_dp(self):
        for n in range(41):
            assert p_count(n) == dp_partition_count(n)

    def test_recurrence_matches_enumeration_at_bound(self):
        assert p_count(40) == sum(1 for _ in enumerate_partitions(40))

    def test_euler_product_route(self):
        inv = poch(1, 1, 1, None, 30).invert()
        assert all(inv[n] == p_count(n) for n in range(31))


class TestSigma:
    def test_frozen(self):
        assert sigma(1, 6) == 12
        assert sigma(0, 1) == 1
        assert sigma(1, Fraction(5, 3)) == 0
        assert sigma(1, 0) == 0
        assert sigma(1, -4) == 0

    def test_matches_brute_force(self):
        for n in range(1, 60):
            assert sigma(0, n) == brute_sigma(0, n)
            assert sigma(1, n) == brute_sigma(1, n)

    def test_integral_fraction_accepted(self):
        assert sigma(1, Fraction(9, 3)) == 4


class TestRank:
    def test_rank_examples(self):
        assert rank((3, 1, 1)) == 0
        assert rank((2,)) == 1
        assert rank((1, 1)) == -1

    def test_counts_sum_to_p(self):
        for n in range(1, 14):
            assert sum(rank_counts(n).values()) == p_count(n)

    def test_symmetry_under_conjugation(self):
        for n in range(1, 14):
            counts = rank_counts(n)
            assert all(counts[m] == counts[-m] for m in counts)

    def test_second_moment_frozen(self):
        assert second_rank_moment(2) == 2
        assert second_rank_moment(3) == 8

    def test_second_moment_series_matches_oracle(self):
        series = second_rank_moment_series(ORACLE_ORDER)
        for n in range(1, ORACLE_ORDER + 1):
            assert series[n] == second_rank_moment(n)

    def test_second_moment_series_even_non_negative(self):
        series = second_rank_moment_series(60)
        for n in range(1, 61):
            c = series[n]
            assert c.denominator == 1 and c >= 0 and c % 2 == 0

    def test_tail_relates_to_moment_series(self):
        order = 20
        lhs = rank_moment_tail(order) * -2
        rhs = second_rank_moment_series(order) * poch(1, 1, 1, None, order)
        assert lhs.equal_up_to(rhs, order) is None


class TestSpt:
    def test_frozen(self):
        assert spt(1) == 1
        assert spt(4) == 10

    def test_series_matches_oracle(self):
        series = spt_series(ORACLE_ORDER)
        for n in range(1, ORACLE_ORDER + 1):
            assert series[n] == spt(n)

    def test_moment_relation(self):
        # spt(n) = n p(n) - N2(n)/2, pointwise from the oracles
        for n in range(1, 20):
            assert spt(n) == n * p_count(n) - second_rank_moment(n) // 2


class TestSpt23:
    def test_qualification_cases(self):
        assert not qualifies((4, 1))
        assert qualifies((6, 2))
        assert qualifies((3, 2))
        assert not qualifies((9, 4))  # 9 is a multiple of 3 but below thrice 4
        assert not qualifies((3, 2, 1))
        assert qualifies((5,))

    def test_qualifying_partitions_of_5(self):
        got = [p for p in enumerate_partitions(5) if qualifies(p)]
        assert got == [(5,), (3, 2), (3, 1, 1), (1, 1, 1, 1, 1)]

    def test_qualifying_partitions_of_8(self):
        got = [p for p in enumerate_partitions(8) if qualifies(p)]
        assert got == [
            (8,),
            (6, 2),
            (6, 1, 1),
            (5, 3),
            (4, 4),
            (3, 3, 2),
            (3, 3, 1, 1),
            (3, 1, 1, 1, 1, 1),
            (2, 2, 2, 2),
            (1, 1, 1, 1, 1, 1, 1, 1),
        ]

    def test_frozen_values(self):
        assert spt23(3) == 4
        assert spt23(5) == 9
        assert spt23(8) == 27

    def test_series_matches_oracle(self):
        series = spt23_series(ORACLE_ORDER)
        for n in range(1, ORACLE_ORDER + 1):
            assert series[n] == spt23(n)

    def test_series_leading_coefficients(self):
        series = spt23_series(10)
        assert [int(series[n]) for n in (1, 2, 3)] == [1, 3, 4]


class TestXi:
    def test_frozen_values(self):
        series = xi_series(12)
        assert series[1] == 1
        assert series[2] == 3 == spt23(2)
        assert series[5] == 9

    def test_all_integer_non_negative(self):
        series = xi_series(60)
        for n in range(61):
            assert series[n].denominator == 1
            assert series[n] >= 0


class TestP3:
    def test_frozen(self):
        assert p3(0) == 1
        assert p3(4) == 0
        assert p3(9) == 3

    def test_nine_by_listing(self):
        mult3 = [
            parts
            for parts in enumerate_partitions(9)
            if all(part % 3 == 0 for part in parts)
        ]
        assert mult3 == [(9,), (6, 3), (3, 3, 3)]

    def test_matches_dp_and_p(self):
        for n in range(40):
            assert p3(n) == dp_partition_count_parts_mult3(n)
            if n % 3 == 0:
                assert p3(n) == p_count(n // 3)


class TestPreconditions:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))
        with pytest.raises(ValueError):
            p_count(-1)
        with pytest.raises(ValueError):
            rank(())
        with pytest.raises(ValueError):
            spt(0)
        with pytest.raises(ValueError):
            second_rank_moment(0)
        with pytest.raises(ValueError):
            spt23(0)
        with pytest.raises(ValueError):
            qualifies(())
        with pytest.raises(ValueError):
            p3(-3)
