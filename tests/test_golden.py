"""Same behaviour, byte for byte: the benchmark's golden outputs.

``perfbench/golden/`` holds the ``verify --format json`` reports of the
``verify-120`` and ``oracle-52`` workloads (without ``runtime_ms``, with the
exit code) and the SHA-256 of every CSV export the ``seq-mix`` workload can
ask for.  These tests rebuild each of them in process and compare, so a
changed coefficient, erratum diagnostic or CSV row fails here.  The golden
files are read, never written; ``perfbench/make_golden.py`` records them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sptlab import identities

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize(
    "name, order, bound", [("verify-120.json", 120, 40), ("oracle-52.json", 12, 52)]
)
def test_verify_report_matches_its_golden(name, order, bound):
    results = identities.run_all(order, bound)
    got = json.loads(json.dumps(identities.report(results, order, bound)))
    for r in got["results"]:
        del r["runtime_ms"]
    got["exit_code"] = 0 if identities.all_passed(results) else 1
    assert got == load(name)


def test_csv_exports_match_their_golden_digests():
    golden = load("seq-sha256.json")
    uptos = range(golden["upto_min"], golden["upto_max"] + 1)
    for name, shas in golden["sha256"].items():
        got = [hashlib.sha256(identities.export_sequence(name, upto, "csv").encode()).hexdigest()
               for upto in uptos]
        assert got == shas, name
