"""The benchmark harness's self-test runs against the current package.

The harness reads names from the package (`proofchecks.char_sum`,
`FieldCtx.mul`, `cli.run`, ...); a refactor that drops one of them
fails here rather than in a benchmark run.
"""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per-layer metrics the tracer derives rather than reads off one function
SYNTHETIC = {"maps.domain_evals", "pptest.charsum.recompute_ratio", "trace.overhead_ratio"}
STATS = {"calls", "s", "self_s", "elems", "a_values"}
ALIASES = {"pptest.char_sums": "pptest._char_sums"}


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_every_traced_name_is_defined_in_the_package():
    # `run.py --trace 1` fails on a per-layer name that names nothing in ppverify
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {spec["name"] for spec in json.load(fh)["per_layer"]} - SYNTHETIC
    assert names
    for name in sorted(names):
        path, stat = name.rsplit(".", 1)
        assert stat in STATS, name
        module, *attrs = ALIASES.get(path, path).split(".")
        obj = importlib.import_module(f"ppverify.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"{name}: ppverify.{module} defines no {attr}"
            obj = getattr(obj, attr)
        assert callable(obj), name
