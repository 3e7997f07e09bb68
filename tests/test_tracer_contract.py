"""The names and memos that the benchmark tracer (perfbench/tracer.py) wraps.

``install`` rebinds named functions of every sptlab module and reads
``cache_info()`` of the memoized ones.  A rename, or a memo taken away,
makes a traced benchmark run fail at install or turn checks into ``error``
results, even though an untraced ``verify`` still passes.  This test runs
the tracer as the benchmark does, in a child process so that its rebinding
does not leak into the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from sptlab import identities

ROOT = Path(__file__).resolve().parents[1]

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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
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
