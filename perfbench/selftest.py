"""Fast self-test of the harness at m = 6 (a few seconds).

    python3 perfbench/run.py --self-test

1. The gate: a known-bad table (one collision) labelled with the
   expected output of the genuine permutation must give fail_ratio 1.0,
   and the genuine table under the same label fail_ratio 0.0.
2. The tracer: two traced passes give exactly the same counts, the
   wrappers see calls made through names imported into other modules,
   and restore() leaves no wrapper behind.
"""

from __future__ import annotations

import io
import os
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stdout


def main(root: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    os.environ["PPVERIFY_WORKERS"] = "1"
    from ppverify import cli, pptest, proofchecks
    from ppverify.field import FieldCtx

    import passes
    import workloads
    from tracer import Tracer

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    try:
        good = os.path.join(tmp, "good.txt")
        bad = os.path.join(tmp, "bad.txt")
        with redirect_stdout(io.StringIO()):
            cli.run(["pptest", "--t", "2", "--k", "1", "--map", "builtin:g-thm1",
                     "--method", "exhaustive", "--export", good])
        test = ["--method", "both", "--mode", "all"]
        genuine = workloads.Invocation(["pptest", "--map", good] + test, {good: "{table}"})
        verify = workloads.Invocation(["verify", "thm1", "--k", "1", "--format", "json"])
        expected = {}
        for inv in (genuine, verify):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.run(inv.argv)
            expected[inv.key()] = workloads.canonical(inv, code, out.getvalue())
        check(expected[genuine.key()]["exit"] == 0, "genuine m=6 table tests as a permutation")

        workloads.write_mutant(good, bad, random.Random(0))
        labelled = workloads.Invocation(["pptest", "--map", bad] + test, {bad: "{table}"})
        check(labelled.key() == genuine.key(), "the bad table carries the genuine label")

        def ratio(inv):
            got = passes.run_pass(cli, lambda ws, tmp: iter([inv]), 0, expected, tmp)
            return got["failed"] / got["attempted"]

        check(ratio(labelled) == 1.0, "gate: bad table labelled a permutation gives fail_ratio 1.0")
        check(ratio(genuine) == 0.0, "gate: genuine table gives fail_ratio 0.0")

        def spec(ws, tmp):
            yield verify
            yield genuine

        originals = (pptest.char_sum, proofchecks.char_sum, FieldCtx.mul, cli.run)
        runs = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                got = passes.run_pass(cli, spec, 0, expected, tmp)
            finally:
                tracer.restore()
            check(got["failed"] == 0, "traced pass output matches the expected values")
            runs.append({name: value for name, value in tracer.stats().items()
                         if name.rsplit(".", 1)[-1] not in ("s", "self_s")})
        check(runs[0] == runs[1], f"counts repeat exactly between two traced passes "
                                  f"({len(runs[0])} counters)")
        check(runs[0].get("pptest.char_sum.calls", 0) > 0,
              "calls through proofchecks' imported char_sum are seen")
        check(runs[0].get("field.FieldCtx.mul.calls", 0) > 0, "scalar multiplies are counted")
        check((pptest.char_sum, proofchecks.char_sum, FieldCtx.mul, cli.run) == originals,
              "restore() puts every original back")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0
