"""Self-tests for the benchmark harness.

    python3 -m pytest -q perfbench

They check that the seq-mix inputs depend only on the seed and that the
correctness gate trips, and is counted, on wrong output.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

import pytest

import run


@pytest.fixture(scope="module")
def verify_golden():
    return run.load_golden("verify-120")


@pytest.fixture(scope="module")
def seq_golden():
    return run.load_golden("seq-mix")


def _report_bytes(golden) -> bytes:
    report = copy.deepcopy(golden)
    del report["exit_code"]
    for r in report["results"]:
        r["runtime_ms"] = 1.0
    return json.dumps(report).encode()


def test_requests_depend_only_on_the_seed():
    assert run.make_requests(7) == run.make_requests(7)
    assert run.make_requests(7) != run.make_requests(8)


def test_requests_cover_every_name_and_order_range():
    requests = run.make_requests(3)
    per_name = Counter(name for name, _ in requests)
    assert set(per_name) == set(run.SEQUENCE_NAMES)
    assert set(per_name.values()) == {run.REQUESTS_PER_NAME}
    assert all(run.UPTO_MIN <= upto <= run.UPTO_MAX for _, upto in requests)


def test_golden_report_passes_the_gate(verify_golden):
    assert run.verify_failures(_report_bytes(verify_golden), 0, verify_golden) == 0


def test_gate_trips_on_a_doctored_report(verify_golden):
    doctored = json.loads(_report_bytes(verify_golden))
    doctored["results"][2]["status"] = "fail"
    doctored["results"][2]["first_mismatch"] = [5, "1", "2"]
    doctored["results"][6]["diagnostic"]["first_mismatch"][0] += 1
    assert run.verify_failures(json.dumps(doctored).encode(), 0, verify_golden) == 2


def test_gate_fails_every_check_of_an_unreadable_report(verify_golden):
    n = len(verify_golden["results"])
    assert run.verify_failures(b"Traceback ...", 1, verify_golden) == n
    assert run.verify_failures(b"", 0, verify_golden) == n


def test_gate_trips_on_a_wrong_exit_code(verify_golden):
    assert run.verify_failures(_report_bytes(verify_golden), 1, verify_golden) == 1


def test_seq_gate_counts_a_doctored_csv_and_a_request_that_raises(seq_golden):
    doctored = copy.deepcopy(seq_golden)
    doctored["sha256"]["R"][12 - run.UPTO_MIN] = "0" * 64
    requests = [("p", 10), ("spt", -1), ("R", 12), ("sigma1", 20)]
    rep = run.seq_rep(requests, doctored)
    assert (rep.attempted, rep.failed) == (4, 2)
    assert run.seq_rep(requests[:1] + requests[3:], seq_golden).failed == 0


def test_result_counts_every_failed_operation():
    summary = run.summarize([1.0, 2.0, 3.0])
    ref = run.REF_METER_S
    reps = [run.Rep(1.0, 0.1, 17.0, 22.0, 22, 0, ref), run.Rep(1.0, 0.1, 17.0, 22.0, 22, 3, ref),
            run.Rep(1.0, 0.1, 17.0, 4.0, 4, 2, ref)]
    line = run.result(reps, {"wall_s": summary})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 48, 5)
    assert line["metrics"] == {"wall_s": {"value": 2.0, "unit": "s"}}
    assert run.result(reps[:1], {"wall_s": summary})["correct"] is True


def test_children_report_set_up_and_probe_times():
    setup_s, meter_s = run.setup_probe()
    assert 0 < setup_s < run.CHILD_TIMEOUT_S
    assert 0 < meter_s < 1
    assert 0 < run.layer_probe("series.mul.n60_s") < run.CHILD_TIMEOUT_S
