"""Child process of the sptlab benchmark: one fresh interpreter per run.

    python3 child.py READY_FD TRACE_OUT MODE [ARGS...]

The child imports ``sptlab.cli`` (the set-up the parent times), writes one
byte to READY_FD, then runs MODE.  When MODE ends it writes to READY_FD its
own peak RSS in KiB (VmHWM), the mean time of its speed-meter samples in
seconds and their count.  The peak RSS is read here because the
``ru_maxrss`` that ``wait4`` reports would also include the parent's RSS,
which a child inherits through fork and exec.

The speed meter measures how fast the host runs Python at the time of the
run.  The child pins itself to one CPU.  In the ``cli`` and ``serve`` modes
it starts a thread that, every ``METER_PERIOD_S``, takes the GIL and times
one fixed chunk of Python work (``meter_chunk``).  The samples
interleave with the workload on the same CPU, so a host that runs the
workload slower at some moment runs the chunk slower then too; the parent
divides by their mean to put times on a common scale.  Other modes take no
samples and report a mean of 0.
Modes:

    setup            exit at once; only the set-up is measured
    cli ARGS...      ``sptlab ARGS...``, exactly as ``python -m sptlab`` runs it
    serve            answer ``<name> <upto>`` lines on stdin with
                     ``identities.export_sequence(name, upto, "csv")``, replying
                     ``ok <nbytes>\\n<csv>`` or ``err <message>\\n``
    probe NAME       time one layer probe and print ``{"value": seconds}``

TRACE_OUT is ``-`` for an untraced run.  Otherwise the tracer is installed
before the ready byte and, when MODE ends, the per-layer numbers go to
TRACE_OUT as JSON and the spans to TRACE_OUT with ``.spans.tsv`` appended.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction


def serve(inp, out) -> int:
    from sptlab import identities

    for line in inp:
        name, upto = line.decode().split()
        try:
            text = identities.export_sequence(name, int(upto), "csv").encode()
        except Exception as exc:  # reported to the client, which counts it as failed
            out.write(f"err {type(exc).__name__}: {exc}".replace("\n", " ").encode() + b"\n")
        else:
            out.write(b"ok %d\n" % len(text) + text)
        out.flush()
    return 0


def _median_time(fn, reps: int) -> float:
    import statistics  # here, not at the top: sptlab itself does not load it

    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe(name: str) -> int:
    """The layer probes behind the baseline table, each in its own process."""
    from sptlab import partitions, series

    def oracle(n):
        return lambda: (partitions.spt23(n), partitions.spt(n), partitions.second_rank_moment(n))

    def euler_inverse_squared(n):
        x = series.poch(1, 1, 1, None, n).invert()  # 1/(q;q)_inf
        return lambda: x * x

    probes = {
        "series.mul.n60_s": (euler_inverse_squared(60), 21),
        "series.mul.n240_s": (euler_inverse_squared(240), 7),
        "partitions.spt_series.n240_s": (lambda: partitions.spt_series(240), 1),
        "partitions.spt23_series.n240_s": (lambda: partitions.spt23_series(240), 1),
        "partitions.oracle.n40_s": (oracle(40), 1),
        "partitions.oracle.n50_s": (oracle(50), 1),
    }
    fn, reps = probes[name]
    print(json.dumps({"value": _median_time(fn, reps)}))
    return 0


METER_PERIOD_S = 0.05


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def meter_chunk() -> int:
    """The speed meter's fixed unit of work: about a millisecond here.

    It mixes, in about equal time, the two kinds of work sptlab does:
    enumerating partitions as tuples and summing ``Fraction`` values.  A
    host slows some kinds of work more than others, and a chunk of one kind
    alone followed the workloads of the other kind less closely.  Its code is the meter's own, so a
    change to sptlab does not change it.
    """
    parts = sum(len(p) for p in _partitions(15, 15))
    h = Fraction(0)
    for k in range(1, 150):
        h += Fraction(1, k)
    return parts + h.denominator


def time_chunk() -> float:
    t0 = time.perf_counter()
    meter_chunk()
    return time.perf_counter() - t0


def start_meter() -> list[float]:
    """Sample the host's speed in a thread until the process ends."""
    import threading  # here, not at the top, so that set-up does not pay for it

    samples: list[float] = []

    def run():
        while True:
            time.sleep(METER_PERIOD_S)
            samples.append(time_chunk())

    threading.Thread(target=run, name="speed-meter", daemon=True).start()
    return samples


def pin_to_one_cpu() -> None:
    """Keep the child, its meter thread and the parent on the same CPU.

    The CPUs of a shared host change speed independently, so a meter that
    ran on another CPU than the workload would not measure its host speed.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    ready_fd, trace_out, mode, *args = argv
    pin_to_one_cpu()
    import sptlab.cli

    tracer = None
    if trace_out != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready_fd = int(ready_fd)
    os.write(ready_fd, b"r")
    meter = start_meter() if mode in ("cli", "serve") else []
    try:
        if mode == "setup":
            return 0
        if mode == "cli":
            return sptlab.cli.main(args)
        if mode == "serve":
            return serve(sys.stdin.buffer, sys.stdout.buffer)
        if mode == "probe":
            return probe(args[0])
        raise SystemExit(f"unknown child mode {mode!r}")
    finally:
        samples = list(meter)
        mean = sum(samples) / len(samples) if samples else 0.0
        os.write(ready_fd, b"%d %r %d" % (peak_rss_kib(), mean, len(samples)))
        os.close(ready_fd)
        if tracer is not None:
            spans = tracer.dump(trace_out + ".spans.tsv")
            with open(trace_out, "w") as f:
                json.dump({"spans": spans, "metrics": tracer.layer_metrics()}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
