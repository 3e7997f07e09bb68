"""The names and memos that the benchmark (perfbench/) calls and wraps.

The tracer's ``install`` rebinds named functions of every sptlab module and
reads ``cache_info()`` of the memoized ones, and the layer probes of
``perfbench/child.py`` call sptlab functions by name.  A rename, or a memo
or method taken away, makes a traced benchmark run fail at install or turn
checks into ``error`` results, even though an untraced ``verify`` still
passes.  These tests run the tracer and the probes as the benchmark does, in
child processes, so that the rebinding does not leak into the other tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sptlab import identities

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def layer_probes() -> tuple[str, ...]:
    """The ``PROBES`` tuple of perfbench/run.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PROBES":
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no PROBES")

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from sptlab import identities
t = tracer.Tracer()
tracer.install(t)
results = identities.run_all(12, 12)
for name in tracer.SEQUENCE_NAMES:
    identities.export_sequence(name, 12, "csv")
print(json.dumps({"statuses": {r.id: r.status for r in results},
                  "metrics": t.layer_metrics()}))
"""


def test_traced_run_passes_and_counts_every_memo():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    statuses = out["statuses"]
    assert len(statuses) == 22
    assert {cid: s for cid, s in statuses.items() if s != "pass"} == {}
    metrics = out["metrics"]
    for key in (
        "bailey.slater_j1.misses",
        "theta.lattice_table.misses",
        "partitions.rank_moment_tail.misses",
        "partitions.oracle.calls",
    ):
        assert metrics[key] > 0, key
    exports = [f"identities.seq.{name}.median_ms" for name in identities.SEQUENCE_NAMES]
    assert [k for k in exports if not metrics.get(k, 0) > 0] == []


# the oracle probe at n = 50 walks all p(50) = 204,226 partitions three times, far longer than the rest
@pytest.mark.parametrize("name", [p for p in layer_probes() if p != "partitions.oracle.n50_s"])
def test_layer_probe_runs(name):
    ready_r, ready_w = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ready_w), "-", "probe", name],
            capture_output=True, text=True, env=ENV, timeout=120, pass_fds=(ready_w,),
        )
    finally:
        os.close(ready_w)
        os.close(ready_r)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] > 0
