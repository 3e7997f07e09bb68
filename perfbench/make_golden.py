#!/usr/bin/env python3
"""Record the benchmark's golden outputs from the current sources.

    python3 perfbench/make_golden.py

Writes, under ``golden/``:

    verify-120.json, oracle-52.json
        the ``verify --format json`` report with ``runtime_ms`` removed, and
        the exit code; every check must pass and every diagnostic must end
        in its expected status
    seq-sha256.json
        the SHA-256 of ``export_sequence(name, upto, "csv")`` for every
        sequence name and every upto in [UPTO_MIN, UPTO_MAX], so any seed's
        requests can be checked

Before anything is written the sequences are cross-checked against
independent routes: enumeration ``spt``, ``spt23`` and
``second_rank_moment`` for n <= 30, ``R_closed`` for ``R``, ``p_count``
for ``p``; and each shorter export must be a prefix of the longest one.
Takes a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

import run

ENUMERATION_BOUND = 30


def golden_report(workload: str) -> dict:
    with run.Child(["cli", "verify", *run.VERIFY_ARGS[workload]]) as child:
        out = child.finish()
    golden = run.strip_runtimes(json.loads(out))
    golden["exit_code"] = child.proc.returncode
    problems = [r["id"] for r in golden["results"] if r["status"] != "pass"]
    problems += [
        r["id"] + " diagnostic" for r in golden["results"]
        if "diagnostic" in r and r["diagnostic"]["status"] != r["diagnostic"]["expected_status"]
    ]
    if problems or golden["exit_code"] != 0:
        raise SystemExit(f"{workload}: not recording a failing report: {problems}")
    return golden


def cross_check(name: str, values: dict[int, Fraction]) -> None:
    from sptlab import partitions, theta

    routes = {
        "spt": (partitions.spt, range(1, ENUMERATION_BOUND + 1)),
        "spt23": (partitions.spt23, range(1, ENUMERATION_BOUND + 1)),
        "N2": (partitions.second_rank_moment, range(1, ENUMERATION_BOUND + 1)),
        "R": (theta.R_closed, range(1, run.UPTO_MAX + 1)),
        "p": (partitions.p_count, range(0, run.UPTO_MAX + 1)),
    }
    if name in routes:
        route, indices = routes[name]
        for n in indices:
            if values[n] != route(n):
                raise SystemExit(f"{name}({n}) = {values[n]} disagrees with {route.__name__}")


def golden_sequences() -> dict:
    sys.path.insert(0, str(run.SRC))
    from sptlab import identities

    shas = {}
    for name in run.SEQUENCE_NAMES:
        texts = [identities.export_sequence(name, upto, "csv")
                 for upto in range(run.UPTO_MIN, run.UPTO_MAX + 1)]
        longest = texts[-1]
        for text in texts:
            if not longest.startswith(text):
                raise SystemExit(f"{name}: a shorter export is not a prefix of the longest")
        values = {}
        for row in longest.split():
            n, v = row.split(",")
            values[int(n)] = Fraction(v)
        cross_check(name, values)
        shas[name] = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        print(f"{name}: {len(texts)} exports checked", flush=True)
    return {"upto_min": run.UPTO_MIN, "upto_max": run.UPTO_MAX, "sha256": shas}


def main() -> int:
    reports = {w: golden_report(w) for w in run.VERIFY_ARGS}
    sequences = golden_sequences()
    run.GOLDEN.mkdir(exist_ok=True)
    for workload, report in reports.items():
        (run.GOLDEN / f"{workload}.json").write_text(json.dumps(report, indent=1) + "\n")
    (run.GOLDEN / "seq-sha256.json").write_text(json.dumps(sequences, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
