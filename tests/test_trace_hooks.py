"""The benchmark's traced run rebinds library names by attribute lookup
(`perfbench/spans.py`, `Tracer.install`).  Renaming or deleting one of them
breaks only `perfbench/run.py --trace 1`, so install and undo the hooks here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import spans
from subtree_census import census

before = census.marked_census
restore = spans.Tracer("t").install()
assert census.marked_census is not before
restore()
assert census.marked_census is before
print("ok")
"""


def test_tracer_hooks_install_and_restore():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
