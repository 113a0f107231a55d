"""Timed passes over one workload, untraced or traced, inside the worker."""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import workloads
from tracer import Tracer

# names whose values are counts: they must repeat exactly between traced passes
EXACT_STATS = ("calls", "elems", "a_values")
EXACT_NAMES = ("maps.domain_evals", "pptest.charsum.recompute_ratio")


def run_pass(cli, spec, ws: int, expected: dict, tmp_root: str) -> dict:
    """One pass: every invocation of the workload, timed and judged."""
    tmp = tempfile.mkdtemp(prefix="pass-", dir=tmp_root)
    wall = 0.0
    attempted = failed = 0
    problems: list[str] = []
    try:
        steps = spec(ws, tmp)
        while True:
            try:
                inv = next(steps)
            except StopIteration:
                break
            except (OSError, ValueError, IndexError) as exc:   # harness step failed
                attempted += 1
                failed += 1
                problems.append(f"harness step failed: {exc!r}")
                break
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.run(inv.argv)
            except SystemExit as exc:       # argparse usage errors
                code = exc.code
            except Exception:               # a crash counts as a failed invocation
                code = "raised " + traceback.format_exc(limit=-3)
            wall += time.perf_counter() - t0
            attempted += 1
            found = workloads.judge(inv, code, out.getvalue(), expected)
            if found:
                failed += 1
                problems.extend(found)
                if err.getvalue():
                    problems.append(f"stderr: {err.getvalue().strip()[-500:]}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"wall": wall, "attempted": attempted, "failed": failed, "problems": problems}


def _moduli(name: str) -> dict[str, str]:
    """Modulus hex per tower the workload runs on."""
    from ppverify.field import FieldCtx
    return {f"t={t},k={k}": f"{FieldCtx.from_tower(t, k).modulus:x}"
            for t, k in workloads.TOWERS[name]}


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool,
                 trace_out: str | None, out_dir: str) -> dict:
    """Run passes for about `seconds`; traced runs alternate plain and traced passes."""
    spec = workloads.WORKLOADS[name]
    ws = seed % workloads.POOL
    expected = workloads.load_expected()
    os.makedirs(out_dir, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)

    plain_walls: list[float] = []
    traced: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    first_spans = None
    start = time.perf_counter()
    try:
        while not plain_walls or (trace and not traced) or _room_for_pass(
                start, seconds, plain_walls, traced):
            tracer = None
            if trace and len(traced) < len(plain_walls):
                tracer = Tracer()
                tracer.install()
            try:
                got = run_pass(cli, spec, ws, expected, tmp_root)
            finally:
                if tracer is not None:
                    tracer.restore()
            attempted += got["attempted"]
            failed += got["failed"]
            problems.extend(got["problems"][:max(0, 20 - len(problems))])
            if tracer is None:
                plain_walls.append(got["wall"])
                if len(plain_walls) == 1:
                    # a CLI user's process runs one pass; later passes only
                    # add allocator growth that depends on how many fit
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                traced.append({"wall": got["wall"], "stats": tracer.stats(),
                               "wrapped": tracer.wrapped})
                if first_spans is None:
                    first_spans = tracer.spans
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    result = {
        "workload": name, "seed": seed, "workload_seed": ws,
        "attempted": attempted, "failed": failed, "problems": problems,
        "walls": plain_walls,
        "peak_rss_mb": peak_rss_mb,
        "provenance": {"python": platform.python_version(), "numpy": np.__version__,
                       "cpu_count": os.cpu_count(), "moduli": _moduli(name)},
    }
    if trace:
        result["layers"], count_problems = _layer_values(traced, plain_walls)
        result["problems"].extend(count_problems)
        result["traced_passes"] = len(traced)
        if trace_out:
            _write_trace(trace_out, result, traced, first_spans)
    return result


def _room_for_pass(start: float, seconds: float, plain: list[float], traced: list[dict]) -> bool:
    """Whether another pass, as long as the slowest so far, still ends within `seconds`."""
    longest = max(plain + [t["wall"] for t in traced])
    return time.perf_counter() - start + longest <= seconds


def _layer_values(traced: list[dict], plain_walls: list[float]):
    """Per-layer values: counts from the first traced pass, times as medians."""
    problems = []
    names = set().union(*(t["stats"] for t in traced))
    values: dict[str, float] = {}
    for name in sorted(names):
        series = [t["stats"].get(name, 0) for t in traced]
        if name.rsplit(".", 1)[-1] in EXACT_STATS or name in EXACT_NAMES:
            if len(set(series)) != 1:
                problems.append(f"{name} differs between traced passes: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    values["trace.overhead_ratio"] = (statistics.median(t["wall"] for t in traced)
                                      / statistics.median(plain_walls))
    return {"values": values, "wrapped": sorted(traced[0]["wrapped"])}, problems


def _write_trace(path: str, result: dict, traced: list[dict], spans) -> None:
    """Spans of the first traced pass (times relative to its first span) and all stats."""
    origin = min((s[1] for s in spans if s is not None), default=0.0)
    doc = {"workload": result["workload"], "seed": result["seed"],
           "provenance": result["provenance"],
           "pass_stats": [t["stats"] for t in traced],
           "span_fields": ["name", "start_s", "end_s", "busy_s", "parent"],
           "spans": [None if s is None else [s[0], s[1] - origin, s[2] - origin, s[3], s[4]]
                     for s in spans]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"trace written to {path}", file=sys.stderr)
