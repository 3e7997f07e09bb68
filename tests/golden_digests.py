"""SHA-256 digests of the reports and exports that must not change, and their writer.

    PYTHONPATH=src python tests/golden_digests.py

records ``golden_digests.json`` beside this file:

    verify-60-40, verify-240-40
        ``report(run_all(order, bound), order, bound)`` as canonical JSON, with
        ``runtime_ms`` removed and ``all_passed`` as the exit status
    verify-1000-40, verify-2000-40
        the same at the orders too slow for the test suite; CI compares them
        with ``check(order, bound)``
    id-I1 .. id-I22
        the same for ``run(id, 24, 14)`` alone, as ``verify --id`` reports it
    exports
        one digest over ``export_sequence(name, upto, fmt)`` for every sequence
        name, every upto in 0..150 and both formats
    demo-01_exact_series .. demo-04_bailey_pairs
        the stdout bytes of each demo, run as a script; demo 05 prints
        timings and is left out

Only ``config`` and ``results`` are hashed, so a new top-level report key
leaves the digests alone.  The writer refuses to record when a check fails,
when a diagnostic drifts from its expected status, when a shorter CSV export
is not a prefix of the longest, or when ``p`` or ``R`` disagrees with an
independent route (the coin DP of ``conftest``, ``theta.R_closed``).  A
change that means to alter a report reruns it and says why.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from conftest import dp_partition_count
from sptlab import identities, theta

DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = ("01_exact_series", "02_partition_statistics", "03_cubic_theta", "04_bailey_pairs")
RUNS = ((60, 40), (240, 40))
LONG_RUNS = ((1000, 40), (2000, 40))
ID_ORDER, ID_BOUND = 24, 14
UPTOS = range(0, 151)
FORMATS = ("csv", "json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(results, order: int, bound: int) -> dict:
    report = identities.report(results, order, bound)
    for r in report["results"]:
        del r["runtime_ms"]
    report["exit_code"] = 0 if identities.all_passed(results) else 1
    return json.loads(json.dumps(report))


def verify_reports(runs) -> dict[str, dict]:
    return {f"verify-{o}-{b}": canonical(identities.run_all(o, b), o, b) for o, b in runs}


def reports() -> dict[str, dict]:
    out = verify_reports(RUNS)
    for meta in identities.registry():
        out[f"id-{meta.id}"] = canonical([identities.run(meta.id, ID_ORDER, ID_BOUND)], ID_ORDER, ID_BOUND)
    return out


def exports() -> dict[tuple[str, int, str], str]:
    return {
        (name, upto, fmt): identities.export_sequence(name, upto, fmt)
        for name in identities.SEQUENCE_NAMES
        for upto in UPTOS
        for fmt in FORMATS
    }


def demo_digest(name: str) -> str:
    """SHA-256 of the stdout of ``demos/<name>.py``; a demo that fails raises."""
    script = DEMO_DIR / f"{name}.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, check=True).stdout
    return hashlib.sha256(out).hexdigest()


def digest(report: dict) -> str:
    return sha256(json.dumps(report, sort_keys=True, separators=(",", ":")))


def digests(reports: dict[str, dict], exports: dict) -> dict[str, str]:
    out = {key: digest(r) for key, r in reports.items()}
    out["exports"] = sha256("\n".join(sha256(text) for text in exports.values()))
    return out


def refusals(reports: dict[str, dict], exports: dict) -> list[str]:
    """Every reason not to record these outputs as the golden ones."""
    problems = []
    for key, report in reports.items():
        for r in report["results"]:
            if r["status"] != "pass":
                problems.append(f"{key}: {r['id']} {r['status']}")
            d = r.get("diagnostic") or {}
            if "expected_status" in d and d["status"] != d["expected_status"]:
                problems.append(f"{key}: {r['id']} diagnostic drifted to {d['status']}")
    upto = UPTOS[-1]
    for name in identities.SEQUENCE_NAMES:
        longest = exports[name, upto, "csv"]
        if not all(longest.startswith(exports[name, u, "csv"]) for u in UPTOS):
            problems.append(f"{name}: a shorter export is not a prefix of the longest")
    routes = {"p": (dp_partition_count, 0), "R": (theta.R_closed, 1)}
    for name, (route, first) in routes.items():
        values = dict(json.loads(exports[name, upto, "json"])["values"])
        for n in range(first, upto + 1):
            if Fraction(values[n]) != route(n):
                problems.append(f"{name}({n}) = {values[n]} disagrees with {route.__name__}")
                break
    return problems


def check(order: int, bound: int) -> int:
    """0 when ``verify`` at (order, bound) matches its recorded digest, else 1:

        PYTHONPATH=src:tests python -c "import golden_digests as g; raise SystemExit(g.check(1000, 40))"
    """
    [(key, report)] = verify_reports([(order, bound)]).items()
    recorded = json.loads(DIGESTS.read_text()).get(key)
    if digest(report) != recorded:
        print(f"{key}: the report does not match its recorded digest", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    got_reports, got_exports = reports() | verify_reports(LONG_RUNS), exports()
    problems = refusals(got_reports, got_exports)
    if problems:
        print("not recording:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    demos = {f"demo-{name}": demo_digest(name) for name in DEMOS}
    DIGESTS.write_text(json.dumps(digests(got_reports, got_exports) | demos, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
