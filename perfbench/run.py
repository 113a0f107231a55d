"""ppverify benchmark: end-to-end and per-layer metrics for three CLI workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-m18 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all             # every workload in turn
    python3 perfbench/run.py --self-test                # fast check of the harness, m = 6

Each workload runs in one fresh worker process (PPVERIFY_WORKERS=1, one
thread) that calls `ppverify.cli.run(argv)` in-process, pass after pass,
for `--seconds`.  Every invocation is judged against expected values
recorded in `perfbench/expected.json`.

With `--trace 0` the metrics are the end-to-end ones:
  wall_s       median wall time of one full pass (all the pass's CLI calls)
  wall_s_tail  the highest-ranked pass time with at least 10 passes slower
               than it, once that is at least the 90th percentile (100 passes
               or more); with fewer passes, as in every run of run_seconds,
               the p90 by linear interpolation between passes (the summary
               states n)
  setup_s      median time from starting a fresh worker process to
               `import ppverify` done, over SETUP_PROBES + 1 starts: half of
               the probes before the workload's worker and half after it
  peak_rss_mb  ru_maxrss of the workload's worker process at the end of its
               first pass: import plus one pass, as for a CLI user
The failure ratio (failed / attempted invocations) is printed in the
summary and carried by the `failed` and `attempted` fields.

With `--trace 1` the worker alternates plain and traced passes; the
metrics are the per-layer ones named in BENCHMARK.json, plus
trace.overhead_ratio (median traced / median plain pass time).  Spans of
the first traced pass go to perfbench/out/.  perfbench/layer_map.json
records which end-to-end metric each group of layer metrics should move.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(HERE, "out")
RUN_LIMIT_S = 170.0     # every run ends well inside 180 s
SETUP_PROBES = 20       # plus the workload worker's own start: 21 samples
TAIL_BEYOND = 10

# one thread everywhere: the CLI's character-sum pool and any BLAS
WORKER_ENV = {"PPVERIFY_WORKERS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _start_worker(extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it reported `ready`."""
    env = {**os.environ, **WORKER_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT]
                            + extra, stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
    except BaseException:       # interrupted or terminated: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run time limit") from None
    except BaseException:       # interrupted or terminated: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def setup_times(n: int) -> list[float]:
    times = []
    for _ in range(n):
        proc, setup = _start_worker(["--probe"])
        _finish(proc, 30.0)
        times.append(setup)
    return times


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest-ranked sample with TAIL_BEYOND samples above
    it once that rank reaches the 90th percentile; with fewer samples the p90,
    interpolated between the two samples around it."""
    ordered = sorted(walls)
    idx = len(ordered) - TAIL_BEYOND - 1
    if idx + 1 >= 0.9 * len(ordered):
        return ordered[idx], 100.0 * (idx + 1) / len(ordered)
    if len(ordered) == 1:
        return ordered[0], 90.0
    return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90.0


def git_commit() -> str:
    """`git rev-parse HEAD` of the checkout; 'unknown' outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_one(bench: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.perf_counter()
    setups = [] if trace else setup_times(SETUP_PROBES // 2)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    proc, setup = _start_worker(["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(int(trace)),
                                 "--trace-out", trace_out])
    setups.append(setup)
    out = _finish(proc, RUN_LIMIT_S - (time.perf_counter() - started))
    if not trace:
        setups += setup_times(SETUP_PROBES - SETUP_PROBES // 2)
    result = json.loads(out.strip().splitlines()[-1])

    provenance = {**result["provenance"], "commit": git_commit(), "workload": workload,
                  "seed": seed, "workload_seed": result["workload_seed"]}
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    attempted, failed = result["attempted"], result["failed"]
    walls = result["walls"]
    print(f"{workload}: {len(walls)} timed passes, {attempted} invocations")
    print(f"  pass times (s): {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"  fail_ratio  {failed / attempted:.4f} ({failed} of {attempted} invocations)")

    if trace:
        values = result["layers"]["values"]
        known = set(result["layers"]["wrapped"]) | {"maps.domain_evals",
                                                    "pptest.charsum.recompute_ratio",
                                                    "trace.overhead_ratio"}
        metrics = {}
        for spec in bench["per_layer"]:
            name = spec["name"]
            if name not in values and name.rsplit(".", 1)[0] not in known:
                raise BenchError(f"per-layer metric {name} names nothing the tracer wraps")
            metrics[name] = {"value": values.get(name, 0), "unit": spec["unit"]}
        print(f"  traced passes {result['traced_passes']}, "
              f"overhead ratio {values['trace.overhead_ratio']:.3f}")
    else:
        tail_value, tail_pct = tail(walls)
        measured = {"wall_s": statistics.median(walls), "wall_s_tail": tail_value,
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {spec["name"]: {"value": measured[spec["name"]], "unit": spec["unit"]}
                   for spec in bench["end_to_end"]}
        if len(walls) >= 10 * TAIL_BEYOND:
            print(f"  wall_s_tail is p{tail_pct:.0f} of n={len(walls)} passes")
        else:
            print(f"  wall_s_tail is the interpolated p90 of n={len(walls)} passes, too few "
                  f"for a p90 with {TAIL_BEYOND} passes beyond it")
        print(f"  setup_s from {len(setups)} worker starts")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']} {metric['unit']}")
    return {"correct": failed == 0 and not result["problems"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "ppverify", "__init__.py")):
        print(f"error: no ppverify sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main(ROOT)
    try:
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if any(name not in names for name in chosen):
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        for name in chosen:
            result = run_one(bench, name, args.seed, seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
