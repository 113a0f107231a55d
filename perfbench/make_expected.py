"""Record the expected outputs in perfbench/expected.json.

    python3 perfbench/make_expected.py

Runs every workload invocation for workload seeds 0..POOL-1 and stores
its canonical output (exit code and verdict-bearing fields).  Before
writing, it checks each output against what the paper's theorems imply,
so a wrong program cannot be recorded as expected: every verify report
passes with all recorded character sums zero, the genuine tables test
as permutations (exit 0), and each mutant exits 1 with exactly the
collision pair its mutation implies.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _require(ok: bool, inv: workloads.Invocation, what: str) -> None:
    if not ok:
        raise SystemExit(f"{inv.key()}: {what}; refusing to record it as expected")


def _implied_by_theory(inv: workloads.Invocation, got: dict, stdout: str) -> None:
    if inv.argv[0] == "verify":
        _require(got["exit"] == 0, inv, f"exit {got['exit']}")
        for report in got["verdict"]:
            _require(report["overall"] == "pass", inv, "a report failed")
            for check in report["checks"]:
                _require(check["status"] == "pass" and check["counterexample"] is None,
                         inv, f"check {check['name']} failed")
                _require(all(s == 0 for s in (check["sums"] or {}).values()),
                         inv, f"check {check['name']} has a nonzero character sum")
    elif inv.collision is not None:
        _require(got["exit"] == 1, inv, f"mutant exit {got['exit']}")
        line = "  collision: f({:x}) = f({:x})".format(*inv.collision)
        _require(line in stdout.splitlines(), inv, f"missing {line.strip()!r}")
    else:
        _require(got["exit"] == 0, inv, f"exit {got['exit']}")
        _require(not any("not-permutation" in line for line in got["verdict"]),
                 inv, "a genuine table tested as not a permutation")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ["PPVERIFY_WORKERS"] = "1"
    from ppverify import cli

    expected: dict[str, dict] = {}
    tmp_root = os.path.join(HERE, "out")
    os.makedirs(tmp_root, exist_ok=True)
    for name, spec in workloads.WORKLOADS.items():
        for ws in range(workloads.POOL):
            tmp = tempfile.mkdtemp(prefix="expected-", dir=tmp_root)
            try:
                for inv in spec(ws, tmp):
                    out = io.StringIO()
                    with redirect_stdout(out):
                        code = cli.run(inv.argv)
                    got = workloads.canonical(inv, code, out.getvalue())
                    _implied_by_theory(inv, got, out.getvalue())
                    _require(expected.setdefault(inv.key(), got) == got, inv,
                             "output differs between two runs of the same invocation")
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        print(f"{name}: recorded", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(expected)} invocations recorded in {workloads.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
