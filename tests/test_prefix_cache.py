"""The prefix memo behind the order-keyed builders.

A builder memoized by ``series.prefix_cache`` keeps only its largest result
and serves a smaller order by truncating it.  A result served warm must be
``==`` to one built cold, and the memo must never shrink or swallow an
argument the builder would reject.
"""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_series
from sptlab import identities, partitions, theta
from sptlab.series import Series, prefix_cache

MEMOIZED = (
    partitions.spt_series,
    partitions.spt23_series,
    partitions.rank_moment_tail,
    partitions.second_rank_moment_series,
    partitions.xi_series,
    theta.lattice_table,
)


def clear_all():
    # one builder reads another (xi_series reads lattice_table's R), so a
    # cold build needs every memo empty
    for fn in MEMOIZED:
        fn.cache_clear()


def order_of(result) -> int:
    return result.bound if isinstance(result, theta.LatticeCountTable) else result.order


class TestWarmEqualsCold:
    @pytest.mark.parametrize("builder", MEMOIZED, ids=lambda f: f.__name__)
    @settings(deadline=None, max_examples=15)
    @given(data=st.data())
    def test_truncated_result_equals_a_cold_build(self, builder, data):
        big = data.draw(st.integers(0, 80), label="big")
        small = data.draw(st.integers(0, big), label="small")
        clear_all()
        builder(big)
        warm = builder(small)
        assert builder.cache_info().hits == 1
        clear_all()
        cold = builder(small)
        assert builder.cache_info().misses == 1
        assert warm == cold
        assert order_of(warm) == small

    def test_equal_order_returns_the_kept_result(self):
        clear_all()
        assert partitions.spt_series(30) is partitions.spt_series(30)


rationals = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 12)))


class TestToyBuilder:
    @settings(max_examples=200)
    @given(st.lists(rationals, min_size=1, max_size=16), st.data())
    def test_truncation_keeps_the_canonical_form(self, coeffs, data):
        def build(order):
            return rational_series(coeffs[: order + 1])

        memo = prefix_cache(build)
        big = data.draw(st.integers(0, len(coeffs) - 1), label="big")
        small = data.draw(st.integers(0, big), label="small")
        memo(big)
        warm = memo(small)
        cold = build(small)
        assert warm == cold and hash(warm) == hash(cold)
        assert warm == rational_series(warm.coeffs)

    def test_a_denominator_cancelled_by_truncation_is_gone(self):
        memo = prefix_cache(lambda order: rational_series([1, 2, Fraction(1, 3)][: order + 1]))
        memo(2)
        assert memo(1) == Series([1, 2])
        assert [(c.numerator, c.denominator) for c in memo(1).coeffs] == [(1, 1), (2, 1)]


class TestGuards:
    def test_a_negative_bound_still_raises(self):
        theta.lattice_table(40)
        with pytest.raises(ValueError, match="bound must be non-negative"):
            theta.lattice_table(-1)

    def test_a_negative_order_still_raises(self):
        partitions.spt_series(20)
        with pytest.raises(ValueError, match="order must be non-negative"):
            partitions.spt_series(-1)

    def test_a_table_truncates_only_downward(self):
        table = theta.lattice_table.__wrapped__(10)
        assert table.truncate(10) == table
        for bound in (-1, 11):
            with pytest.raises(ValueError):
                table.truncate(bound)

    def test_a_re_entrant_call_does_not_shrink_the_memo(self):
        def build(order):
            if order == 5:
                memo(10)  # finishes, and is kept, before order 5 does
            return Series(range(order + 1))

        memo = prefix_cache(build)
        memo(5)
        misses = memo.cache_info().misses
        assert memo(10) == build(10)
        assert memo.cache_info().misses == misses
        assert memo.cache_info().currsize == 1

    def test_a_slower_smaller_build_in_another_thread_does_not_shrink_the_memo(self):
        small_started, big_done = threading.Event(), threading.Event()

        def build(order):
            if order == 5:
                small_started.set()
                big_done.wait(timeout=10)
            return Series(range(order + 1))

        memo = prefix_cache(build)
        small = threading.Thread(target=memo, args=(5,))
        small.start()
        assert small_started.wait(timeout=10)
        memo(10)
        big_done.set()
        small.join(timeout=10)
        assert not small.is_alive()
        misses = memo.cache_info().misses
        assert memo(10) == build(10)
        assert memo.cache_info().misses == misses

    def test_threads_racing_keep_the_largest_order(self):
        orders = list(range(1, 41))
        memo = prefix_cache(lambda order: Series(range(order + 1)))
        failures = []

        def worker(seed):
            rng = random.Random(seed)
            for order in rng.sample(orders, len(orders)):
                if memo(order) != Series(range(order + 1)):
                    failures.append(order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert failures == []
        misses = memo.cache_info().misses
        memo(max(orders))
        assert memo.cache_info().misses == misses


class TestMemoryBound:
    def test_scattered_exports_keep_one_result_per_builder(self):
        clear_all()
        uptos = random.Random(3).sample(range(10, 121), 20)
        for upto in uptos:
            for name in identities.SEQUENCE_NAMES:
                identities.export_sequence(name, upto, "csv")
        for fn in MEMOIZED:
            info = fn.cache_info()
            assert info.currsize == 1, fn.__name__
            # rank_moment_tail's only caller is memoized, so it never hits
            assert info.hits > 0 or fn is partitions.rank_moment_tail, fn.__name__
