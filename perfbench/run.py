#!/usr/bin/env python3
"""Benchmark for sptlab: cold identity-registry runs and a warm sequence-export mix.

Run from the repository root:

    python3 perfbench/run.py --workload verify-120 --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    verify-120  cold ``sptlab verify --order 120 --oracle-bound 40 --format json``
    oracle-52   cold ``sptlab verify --order 12 --oracle-bound 52 --format json``
    seq-mix     one client, closed loop, against one warm process answering
                ``identities.export_sequence(name, upto, "csv")`` requests
                generated from the seed

Every run is a fresh interpreter executing this checkout's ``src/``.  An
invocation starts one run, then another only while it should still end
within ``--seconds``, and reports medians over its runs.  Each output is checked against the golden outputs in ``golden/``;
a check or request that raises or differs counts as failed, and any failure
makes the command exit 1.

The host is shared, and how fast it runs Python drifts by tens of percent
over seconds to minutes.  So every run carries a speed meter: a fixed chunk
of Python work timed every 50 ms in the run's own process, on the same
(pinned) CPU, and for a set-up right before and after it (see child.py).
Times are reported on the scale of a reference host, whose meter chunk
takes ``REF_METER_S`` (``REF_SETUP_METER_S`` when timed back to back
around a set-up): ``wall_s`` and ``setup_s`` are divided by the
slowdown the meter saw during them, ``requests_per_s`` multiplied by it.
The times as measured, and the slowdowns, are printed after the metrics and
kept in the record under ``out/``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with the tracer installed, runs the layer
probes, and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; a fuller
record (environment, quartiles, sample counts, every sample) goes to
``out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from child import time_chunk  # noqa: E402
from tracer import SEQUENCE_NAMES  # noqa: E402

VERIFY_ARGS = {
    "verify-120": ("--order", "120", "--oracle-bound", "40", "--format", "json"),
    "oracle-52": ("--order", "12", "--oracle-bound", "52", "--format", "json"),
}
WORKLOADS = (*VERIFY_ARGS, "seq-mix")
UPTO_MIN, UPTO_MAX = 10, 120
REQUESTS_PER_NAME = 15
SETUP_PROBES = 10  # before and again after the runs
SETUP_METER_SAMPLES = 10  # meter chunks timed just before and again just after each set-up
# The speed meter's reference: its mean sample on a typical host of the kind
# the benchmark was written on (2 vCPUs, Python 3.11.7).  Times are reported
# as they would read on a host that runs the meter's chunk in this long.  The
# chunks timed back to back around a set-up run faster than those interleaved
# with a workload, which evicts them from the caches, so they have their own.
REF_METER_S = 0.001
REF_SETUP_METER_S = 0.0008
CHILD_TIMEOUT_S = 170
PROBES = (
    "series.mul.n60_s",
    "series.mul.n240_s",
    "partitions.spt_series.n240_s",
    "partitions.spt23_series.n240_s",
    "partitions.oracle.n40_s",
    "partitions.oracle.n50_s",
)
UNITS = {"wall_s": "s", "requests_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# inputs and golden outputs
# ---------------------------------------------------------------------------


def make_requests(seed: int, per_name: int = REQUESTS_PER_NAME) -> list[tuple[str, int]]:
    """The seq-mix request list: ``per_name`` requests for each sequence name.

    Each name's orders are drawn one from each of ``per_name`` equal strata
    of [UPTO_MIN, UPTO_MAX], so every order stays (near) uniformly likely
    while the total work, which grows like upto^3 for spt and spt23, varies
    little from seed to seed.  The list is then shuffled.
    """
    rng = random.Random(seed)
    width = UPTO_MAX - UPTO_MIN + 1
    requests = []
    for name in SEQUENCE_NAMES:
        for j in range(per_name):
            lo = UPTO_MIN + j * width // per_name
            hi = UPTO_MIN + (j + 1) * width // per_name
            requests.append((name, rng.randrange(lo, hi)))
    rng.shuffle(requests)
    return requests


def load_golden(workload: str) -> dict:
    name = "seq-sha256.json" if workload == "seq-mix" else f"{workload}.json"
    return json.loads((GOLDEN / name).read_text())


def strip_runtimes(report: dict) -> dict:
    """The report as the gate compares it: ``runtime_ms`` removed from each result."""
    return {
        "config": report["config"],
        "results": [{k: v for k, v in r.items() if k != "runtime_ms"} for r in report["results"]],
    }


def verify_failures(stdout: bytes, returncode: int, golden: dict) -> int:
    """Checks whose result differs from the golden report.

    Every check fails when the report cannot be read or its config differs;
    a wrong exit code fails at least one.
    """
    expected = golden["results"]
    try:
        report = strip_runtimes(json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError):
        return len(expected)
    if report["config"] != golden["config"]:
        return len(expected)
    got = {r.get("id"): r for r in report["results"]}
    failed = sum(got.get(r["id"]) != r for r in expected)
    if returncode != golden["exit_code"]:
        failed = max(failed, 1)
    return failed


def csv_matches(name: str, upto: int, text: bytes, golden: dict) -> bool:
    shas = golden["sha256"].get(name)
    if shas is None or not golden["upto_min"] <= upto <= golden["upto_max"]:
        return False
    return hashlib.sha256(text).hexdigest() == shas[upto - golden["upto_min"]]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Child:
    """A fresh interpreter running child.py; times its set-up and whole run."""

    def __init__(self, args, trace_out=None, stdin=None):
        ready_r, ready_w = os.pipe()
        cmd = [sys.executable, str(HERE / "child.py"), str(ready_w), str(trace_out or "-"), *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                cmd, stdin=stdin, stdout=subprocess.PIPE, pass_fds=(ready_w,), env=env
            )
        finally:
            os.close(ready_w)
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()
        self._ready = os.fdopen(ready_r, "rb")
        is_ready = self._ready.read(1) == b"r"
        self.setup_s = time.perf_counter() - self.t0 if is_ready else None

    def finish(self) -> bytes:
        """Wait for the child; returns its remaining stdout."""
        if self.proc.stdin:
            self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status = os.waitpid(self.proc.pid, 0)
        self.wall_s = time.perf_counter() - self.t0
        self._timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        with self._ready:
            tail = self._ready.read().split()
        self.peak_rss_mb = int(tail[0]) / 1024 if tail else None
        self.meter_s = float(tail[1]) if tail and int(tail[2]) else None  # None: no samples
        return out

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.returncode is None:  # left early: stop the child and reap it
            self.proc.kill()
            self.finish()


@dataclass
class Rep:
    """One cold run of a workload."""

    wall_s: float
    setup_s: float | None
    peak_rss_mb: float | None
    requests_per_s: float
    attempted: int
    failed: int
    meter_s: float | None  # mean speed-meter sample of the run

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the host ran during this run."""
        return self.meter_s / REF_METER_S


def verify_rep(workload: str, golden: dict, trace_out=None) -> Rep:
    with Child(["cli", "verify", *VERIFY_ARGS[workload]], trace_out) as child:
        out = child.finish()
    attempted = len(golden["results"])
    failed = verify_failures(out, child.proc.returncode, golden)
    return Rep(child.wall_s, child.setup_s, child.peak_rss_mb, attempted / child.wall_s,
               attempted, failed, child.meter_s)


def seq_rep(requests, golden: dict, trace_out=None) -> Rep:
    """Send the requests one at a time (closed loop) to one warm child."""
    failed = done = 0
    with Child(["serve"], trace_out, stdin=subprocess.PIPE) as child:
        t0 = time.perf_counter()
        for name, upto in requests:
            try:
                child.proc.stdin.write(f"{name} {upto}\n".encode())
                child.proc.stdin.flush()
            except BrokenPipeError:
                break
            header = child.proc.stdout.readline()
            if not header:
                break
            done += 1
            if header.startswith(b"ok "):
                text = child.proc.stdout.read(int(header[3:]))
                failed += not csv_matches(name, upto, text, golden)
            else:
                failed += 1
        serve_s = time.perf_counter() - t0
        child.finish()
    failed += len(requests) - done  # requests the child never answered
    if child.proc.returncode != 0:
        failed = max(failed, 1)
    return Rep(child.wall_s, child.setup_s, child.peak_rss_mb, done / serve_s,
               len(requests), failed, child.meter_s)


def setup_probe() -> tuple[float, float] | None:
    """Set-up time of one fresh interpreter, and the mean meter sample around it.

    A set-up is too short for the child's meter thread, so the parent, on the
    same CPU, times meter chunks right before and right after it.
    """
    before = [time_chunk() for _ in range(SETUP_METER_SAMPLES)]
    with Child(["setup"]) as child:
        child.finish()
    after = [time_chunk() for _ in range(SETUP_METER_SAMPLES)]
    if child.proc.returncode != 0 or child.setup_s is None:
        return None
    return child.setup_s, statistics.mean(before + after)


def layer_probe(name: str) -> float:
    with Child(["probe", name]) as child:
        out = child.finish()
    if child.proc.returncode != 0:
        raise RuntimeError(f"layer probe {name} exited with {child.proc.returncode}")
    return json.loads(out)["value"]


# ---------------------------------------------------------------------------
# statistics and the environment record
# ---------------------------------------------------------------------------


def summarize(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_sha256() -> str:
    """One hash over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sptlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


NPROC = len(os.sched_getaffinity(0))  # before main() pins the process to one CPU


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": NPROC,
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def make_rep(workload: str, seed: int, golden: dict):
    """The workload's run function, and the time its input generation took."""
    if workload == "seq-mix":
        t0 = time.perf_counter()
        requests = make_requests(seed)
        gen_s = time.perf_counter() - t0
        return (lambda trace_out=None: seq_rep(requests, golden, trace_out)), gen_s
    return (lambda trace_out=None: verify_rep(workload, golden, trace_out)), 0.0


def end_to_end(rep, gen_s: float, seconds: float):
    setup_probe()  # untimed: the first interpreter in a checkout writes __pycache__
    # set-up is sampled before and after the runs, so its median spans the
    # whole measurement rather than one moment of the host's load
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    reps = [rep()]
    while time.perf_counter() - start + statistics.mean(r.wall_s for r in reps) <= seconds:
        reps.append(rep())
    setups += [setup_probe() for _ in range(SETUP_PROBES)]
    if None in setups or any(None in (r.peak_rss_mb, r.meter_s) for r in reps):
        return reps, None, None  # a child that never got through its imports, or crashed
    # Times on the reference host's scale: each divided by the slowdown the
    # speed meter saw during it, rates multiplied by it.
    summaries = {
        "wall_s": summarize(r.wall_s / r.slowdown for r in reps),
        "requests_per_s": summarize(r.requests_per_s * r.slowdown for r in reps),
        "setup_s": summarize((s + gen_s) * REF_SETUP_METER_S / meter_s for s, meter_s in setups),
        "peak_rss_mb": summarize(r.peak_rss_mb for r in reps),
    }
    raw = {
        "wall_s": summarize(r.wall_s for r in reps),
        "requests_per_s": summarize(r.requests_per_s for r in reps),
        "setup_s": summarize(s + gen_s for s, _ in setups),
        "slowdown": summarize(r.slowdown for r in reps),
        "setup_slowdown": summarize(meter_s / REF_SETUP_METER_S for _, meter_s in setups),
    }
    return reps, summaries, raw


def traced(rep, workload: str, seed: int):
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{workload}-seed{seed}.json"
    trace_out.unlink(missing_ok=True)
    untraced = rep()
    traced_rep = rep(trace_out)
    reps = [untraced, traced_rep]
    if not trace_out.exists() or None in (untraced.meter_s, traced_rep.meter_s):
        return reps, None, None
    record = json.loads(trace_out.read_text())
    layers = record["metrics"]
    layers["trace.overhead_s"] = (traced_rep.wall_s / traced_rep.slowdown
                                  - untraced.wall_s / untraced.slowdown)
    layers["trace.spans"] = record["spans"]
    for name in PROBES:
        layers[name] = layer_probe(name)
    return reps, {k: summarize([v]) for k, v in layers.items()}, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sptlab" / "__init__.py").is_file():
        print(f"sptlab sources not found under {SRC}", file=sys.stderr)
        return 2
    # children inherit this: the speed meter must run on the workload's CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    golden = load_golden(args.workload)
    rep, gen_s = make_rep(args.workload, args.seed, golden)
    if args.trace:
        reps, summaries, raw = traced(rep, args.workload, args.seed)
    else:
        reps, summaries, raw = end_to_end(rep, gen_s, args.seconds)
    if summaries is None:
        print("a child process failed before producing its measurements", file=sys.stderr)
        return 2

    line = result(reps, summaries)
    env = environment(args)
    print("env " + json.dumps(env))
    for name, s in summaries.items():
        spread = f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, " if s["n"] > 1 else ""
        print(f"{name}: {s['value']:.6g} ({spread}n={s['n']})")
    for name, s in raw.items():
        print(f"as measured, {name}: {s['value']:.6g} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
              f"n={s['n']})")
    print(f"failed_ratio: {line['failed'] / line['attempted']:.6g} "
          f"({line['failed']} of {line['attempted']} operations)")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "attempted": line["attempted"], "failed": line["failed"],
                    "metrics": summaries, "as_measured": raw,
                    "reps": [vars(r) for r in reps]}, indent=1) + "\n"
    )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def result(reps, summaries) -> dict:
    """The result line: operations attempted and failed over all runs, and medians."""
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = {
        name: {"value": s["value"], "unit": UNITS.get(name) or unit_of(name)}
        for name, s in summaries.items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
