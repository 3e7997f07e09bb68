"""Same behaviour, byte for byte: the golden outputs.

``perfbench/golden/`` holds the ``verify --format json`` reports of the
``verify-120`` and ``oracle-52`` workloads (without ``runtime_ms``, with the
exit code) and the SHA-256 of every CSV export the ``seq-mix`` workload can
ask for.  ``golden_digests.json`` beside this file holds the SHA-256 of the
reports at (60, 40) and (240, 40), of the 22 ``--id`` runs at (24, 14) and
of every CSV and JSON export for upto 0..150, of the stdout of demos
01-04 (and of the reports at (1000, 40) and (2000, 40), which CI compares).
These tests rebuild each of the rest, in process or by running the demo, and
compare, so a changed coefficient, erratum diagnostic, CSV row or demo line
fails here.  The golden files are read, never written;
``perfbench/make_golden.py`` and ``golden_digests.py`` record them.
"""

import json
from pathlib import Path

import pytest

import golden_digests
from sptlab import identities

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize(
    "name, order, bound", [("verify-120.json", 120, 40), ("oracle-52.json", 12, 52)]
)
def test_verify_report_matches_its_golden(name, order, bound):
    assert golden_digests.canonical(identities.run_all(order, bound), order, bound) == load(name)


def test_csv_exports_match_their_golden_digests():
    golden = load("seq-sha256.json")
    uptos = range(golden["upto_min"], golden["upto_max"] + 1)
    for name, shas in golden["sha256"].items():
        got = [golden_digests.sha256(identities.export_sequence(name, upto, "csv")) for upto in uptos]
        assert got == shas, name


def test_reports_and_exports_match_their_committed_digests():
    recorded = json.loads(golden_digests.DIGESTS.read_text())
    got = golden_digests.digests(golden_digests.reports(), golden_digests.exports())
    assert got == {key: recorded[key] for key in got}


@pytest.mark.parametrize("name", golden_digests.DEMOS)
def test_demo_prints_its_recorded_bytes(name):
    recorded = json.loads(golden_digests.DIGESTS.read_text())
    assert golden_digests.demo_digest(name) == recorded[f"demo-{name}"]
