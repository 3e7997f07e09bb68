"""What a fresh interpreter loads to start sptlab.

Every ``python -m sptlab`` run pays for its imports again.  ``dataclasses``
alone pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, so no sptlab
module may load it, and ``argparse`` belongs to the command line only.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
SCRIPT = """
import sys
import sptlab
print(" ".join(sys.modules))
import sptlab.cli
print(" ".join(sys.modules))
"""


def loaded_modules() -> tuple[set[str], set[str]]:
    """The modules loaded after ``import sptlab`` and after ``import sptlab.cli``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    package, cli = (set(line.split()) for line in out.splitlines())
    return package, cli


def test_import_loads_no_dataclasses_and_no_argparse_before_the_cli():
    package, cli = loaded_modules()
    assert "sptlab.cli" in cli
    assert HEAVY & cli == set()
    assert "argparse" not in package
