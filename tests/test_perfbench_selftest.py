"""The benchmark harness's self-test runs against the current package.

The harness reads names from the package (`proofchecks.char_sum`,
`FieldCtx.mul`, `cli.run`, ...); a refactor that drops one of them
fails here rather than in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
