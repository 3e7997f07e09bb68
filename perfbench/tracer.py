"""Span tracer for sptlab, installed from outside the package.

``install()`` replaces the public functions of each sptlab module with
wrappers that record one span per call: name, start, end and parent span.
Spans stay in memory; ``Tracer.dump`` writes them out when the run ends and
``Tracer.layer_metrics`` turns them into the per-layer numbers.

Self time is a span's duration minus the time covered by its child spans.
The tracer's own bookkeeping (counting products, measuring coefficient
sizes, storing the span) runs outside the timed interval of the span and is
charged to neither the span nor its parent, so it shows only in the traced
run's wall time.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate

# fixed here rather than read from sptlab, so that the benchmark's request mix
# and metric names do not change when the program does
SEQUENCE_NAMES = (
    "p", "sigma0", "sigma1", "N2", "spt", "spt23", "xi", "p3", "P3", "R", "a_coeffs",
)
CHECK_IDS = tuple(f"I{k}" for k in range(1, 23))
PARTITION_BUILDERS = (
    "spt_series", "spt23_series", "rank_moment_tail", "second_rank_moment_series", "xi_series",
)
ORACLES = ("spt", "spt23", "second_rank_moment", "rank_counts")
CONVOLUTIONS = ("p3_convolution", "p3_alt", "R_lattice")


def _mul_products(a, b) -> int:
    """Coefficient products the dense multiply performs (zero operands skipped)."""
    if isinstance(b, type(a)):
        n = min(a.order, b.order)
        nonzero_b = list(accumulate(1 if x else 0 for x in b.coeffs[: n + 1]))
        return sum(nonzero_b[n - i] for i, x in enumerate(a.coeffs[: n + 1]) if x)
    if isinstance(b, (int, Fraction)) and b:
        return sum(1 for x in a.coeffs if x)
    return 0


def _invert_products(f) -> int:
    """Products g_n += f_k g_{n-k} the inversion recurrence performs."""
    n = f.order
    return sum(n - k + 1 for k, x in enumerate(f.coeffs) if k and x)


def _coeff_bits(s) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in s.coeffs)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self.bits_max = 0

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, before=None, after=None, keep_durations=False):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the call's arguments.
        ``before(*args)`` runs ahead of the call and its result is passed to
        ``after(state, result, *args)``; both run outside the span's timing.
        """
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            t_in = clock()
            label = name if isinstance(name, str) else name(*args, **kwargs)
            state = before(*args) if before else None
            frame = [tracer._open(label, stack[-1][0] if stack else -1), 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                tracer._close(frame[0], label, t0, t1, frame[1], keep_durations)
                if ok and after:
                    after(state, result, *args)
                if stack:
                    stack[-1][1] += clock() - t_in
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _open(self, label, parent) -> int:
        """Allocate the span at entry, so a span's index precedes its children's."""
        self.span_name.append(self._name_id(label))
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_end) - 1

    def _close(self, index, label, t0, t1, child_s, keep_durations):
        self.span_start[index] = t0
        self.span_end[index] = t1
        dur = t1 - t0
        self.calls[label] += 1
        self.total_s[label] += dur
        self.self_s[label] += dur - child_s
        if keep_durations:
            self.durations[label].append(dur)

    def dump(self, path) -> int:
        """Write one tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w") as out:
            out.write("span\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i, (nid, parent, t0, t1) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                out.write(f"{i}\t{parent}\t{names[nid]}\t{t0:.9f}\t{t1:.9f}\n")
        return len(self.span_start)

    def layer_metrics(self) -> dict:
        """Per-layer numbers named as in the benchmark's ``per_layer`` list."""
        calls, self_s, total_s, counts = self.calls, self.self_s, self.total_s, self.counts
        m = {}
        for op in ("mul", "invert"):
            m[f"series.{op}.calls"] = calls[f"series.{op}"]
            m[f"series.{op}.self_s"] = self_s[f"series.{op}"]
            m[f"series.{op}.products"] = counts[f"series.{op}.products"]
        for op in ("poch", "lambert"):
            m[f"series.{op}.calls"] = calls[f"series.{op}"]
            m[f"series.{op}.self_s"] = self_s[f"series.{op}"]
        m["series.add.self_s"] = self_s["series.add"]
        m["series.coeff_bits_max"] = self.bits_max
        builder_calls = builder_misses = 0
        for b in PARTITION_BUILDERS:
            key = f"partitions.{b}"
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.misses"] = counts[f"{key}.misses"]
            m[f"{key}.self_s"] = self_s[key]
            builder_calls += calls[key]
            builder_misses += counts[f"{key}.misses"]
        m["partitions.cache_hit_ratio"] = (
            (builder_calls - builder_misses) / builder_calls if builder_calls else 0.0
        )
        oracle_keys = [f"partitions.oracle.{o}" for o in ORACLES]
        m["partitions.oracle.calls"] = sum(calls[k] for k in oracle_keys)
        m["partitions.oracle.self_s"] = sum(self_s[k] for k in oracle_keys)
        m["partitions.oracle.partitions_enumerated"] = counts["partitions.oracle.enumerated"]
        m["theta.lattice_table.calls"] = calls["theta.lattice_table"]
        m["theta.lattice_table.misses"] = counts["theta.lattice_table.misses"]
        m["theta.lattice_table.self_s"] = self_s["theta.lattice_table"]
        for f in ("a_lattice", "a_lambert", "a_eta"):
            m[f"theta.{f}.self_s"] = self_s[f"theta.{f}"]
        m["theta.convolution.self_s"] = sum(self_s[f"theta.{f}"] for f in CONVOLUTIONS)
        m["bailey.slater_j1.calls"] = calls["bailey.slater_j1"]
        m["bailey.slater_j1.misses"] = counts["bailey.slater_j1.misses"]
        m["bailey.slater_j1.self_s"] = self_s["bailey.slater_j1"]
        for f in ("verify_pair", "lemma_sides", "derivative_identity_sides"):
            m[f"bailey.{f}.self_s"] = self_s[f"bailey.{f}"]
        for cid in CHECK_IDS:
            m[f"identities.check.{cid}.s"] = total_s[f"identities.check.{cid}"]
        m["identities.report_s"] = total_s["identities.report"]
        for name in SEQUENCE_NAMES:
            durs = self.durations[f"identities.seq.{name}"]
            m[f"identities.seq.{name}.median_ms"] = statistics.median(durs) * 1e3 if durs else 0.0
        m["cli.main.self_s"] = self_s["cli.main"]
        return m


def install(tracer: Tracer) -> None:
    """Wrap sptlab's public functions everywhere they are bound."""
    import sptlab
    from sptlab import bailey, cli, identities, partitions, series, theta

    modules = (sptlab, series, partitions, theta, bailey, identities, cli)

    def rebind(original, wrapper):
        # ``from .series import poch`` copies the binding into other modules
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    Series = series.Series

    def counting(key):
        def after(products, result, *args):
            tracer.counts[key] += products
            if isinstance(result, Series):
                tracer.bits_max = max(tracer.bits_max, _coeff_bits(result))
        return after

    mul = tracer.wrap(Series.__mul__, "series.mul", _mul_products, counting("series.mul.products"))
    Series.__mul__ = Series.__rmul__ = mul  # __rmul__ is an alias of __mul__
    Series.invert = tracer.wrap(
        Series.invert, "series.invert", _invert_products, counting("series.invert.products"))
    Series.__add__ = Series.__radd__ = tracer.wrap(Series.__add__, "series.add")
    for f in ("poch", "lambert"):
        original = getattr(series, f)
        rebind(original, tracer.wrap(original, f"series.{f}"))

    def cached(module, key, fn_name, cache=None, enumerates=False):
        """Wrap an lru_cache'd function; a miss is read from the cache_info()
        of ``cache`` (the function's own cache unless given)."""
        original = getattr(module, fn_name)
        cache = cache or original
        key = f"{key}.{fn_name}"

        def before(*args):
            return cache.cache_info().misses

        def after(misses_before, result, *args):
            if cache.cache_info().misses > misses_before:
                tracer.counts[f"{key}.misses"] += 1
                if enumerates:  # a missed oracle call walks all p(n) partitions of n
                    tracer.counts["partitions.oracle.enumerated"] += partitions.p_count(args[0])

        rebind(original, tracer.wrap(original, key, before, after))

    for b in PARTITION_BUILDERS:
        cached(partitions, "partitions", b)
    for o in ORACLES:
        # second_rank_moment and rank_counts share the _rank_count_items cache
        rank_based = o in ("second_rank_moment", "rank_counts")
        cache = partitions._rank_count_items if rank_based else None
        cached(partitions, "partitions.oracle", o, cache, enumerates=True)
    cached(theta, "theta", "lattice_table")
    for f in ("a_lattice", "a_lambert", "a_eta") + CONVOLUTIONS:
        original = getattr(theta, f)
        rebind(original, tracer.wrap(original, f"theta.{f}"))
    cached(bailey, "bailey", "slater_j1")
    for f in ("verify_pair", "lemma_sides", "derivative_identity_sides"):
        original = getattr(bailey, f)
        rebind(original, tracer.wrap(original, f"bailey.{f}"))

    rebind(identities.run, tracer.wrap(
        identities.run, lambda check_id, *a, **k: f"identities.check.{check_id}"))
    rebind(identities.report, tracer.wrap(identities.report, "identities.report"))
    rebind(identities.export_sequence, tracer.wrap(
        identities.export_sequence, lambda name, *a, **k: f"identities.seq.{name}",
        keep_durations=True))
    rebind(cli.main, tracer.wrap(cli.main, "cli.main"))
