"""The benchmark's workloads and the correctness gate on their outputs.

A workload is a generator of CLI invocations for one pass.  Anything it
does between invocations (writing the mutant table) is harness work
and is not timed.  Every invocation's verdict-bearing output is
compared with the expected values recorded in `expected.json`; report
timings (`millis`) are never compared.

Expected values exist for workload seeds 0..POOL-1.  The benchmark's
`--seed n` selects workload seed n % POOL, so equal seeds give equal
inputs and every input has a recorded expectation.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

POOL = 32
MUTANT_WINDOW = 1 << 10     # span of the collision's later input x2

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass
class Invocation:
    """One `ppverify` command line plus what the gate needs to judge it."""
    argv: list[str]
    paths: dict[str, str] = field(default_factory=dict)    # real path -> placeholder
    collision: tuple[int, int] | None = None                # implied by a mutation

    def key(self) -> str:
        return " ".join(self.paths.get(arg, arg) for arg in self.argv)


def verify_m18(ws: int, tmp: str):
    """The largest materialized tables; per-a loops are sampled."""
    yield Invocation(["verify", "thm1", "--k", "3", "--format", "json", "--seed", str(ws)])
    yield Invocation(["verify", "thm3", "--t", "1", "--k", "6", "--format", "json",
                      "--seed", str(ws)])


def chunked_m21(ws: int, tmp: str):
    """Above the table limit: every sweep re-evaluates g in chunks."""
    yield Invocation(["pptest", "--t", "7", "--k", "1", "--map", "builtin:g-thm3",
                      "--method", "both", "--mode", f"sample:4:{ws}"])


def table_io_m18(ws: int, tmp: str):
    """Export, re-import, then a seeded one-collision mutant that must be rejected."""
    table = os.path.join(tmp, "g1-m18.txt")
    mutant = os.path.join(tmp, "g1-m18-mutant.txt")
    paths = {table: "{table}", mutant: "{mutant}"}
    yield Invocation(["pptest", "--t", "2", "--k", "3", "--map", "builtin:g-thm1",
                      "--method", "exhaustive", "--export", table], paths)
    test = ["--method", "both", "--mode", f"sample:16:{ws}"]
    yield Invocation(["pptest", "--map", table] + test, paths)
    pair = write_mutant(table, mutant, random.Random(f"mutant:{ws}"))
    yield Invocation(["pptest", "--map", mutant] + test, paths, collision=pair)


WORKLOADS = {
    "verify-m18": verify_m18,
    "chunked-m21": chunked_m21,
    "table-io-m18": table_io_m18,
}

# (t, k) towers each workload runs on, for the modulus provenance; the
# re-imported tables of table-io-m18 use the default modulus of m = 18.
TOWERS = {
    "verify-m18": [(2, 3), (1, 6)],
    "chunked-m21": [(7, 1)],
    "table-io-m18": [(2, 3)],
}


def write_mutant(src: str, dst: str, rng: random.Random) -> tuple[int, int]:
    """Copy a hex table, overwriting g(x2) with g(x1) for seeded x1 < x2.

    The source is a permutation, so the first collision in enumeration
    order is exactly (x1, x2): nothing before x2 repeats, and g(x1)
    appears nowhere after it.  The program's rescan for the witness
    evaluates g on every input up to x2, so x2 is drawn from a narrow
    window at the middle of the domain: every seed costs the same work.
    """
    with open(src, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    middle = len(lines) // 2
    x2 = rng.randrange(middle, middle + min(MUTANT_WINDOW, middle))
    x1 = rng.randrange(x2)
    for x in (x1, x2):
        if not lines[x].startswith(f"{x:x}:"):
            raise ValueError(f"{src}: line {x + 1} is not the entry for x={x:#x}")
    lines[x2] = f"{x2:x}:{lines[x1].split(':', 1)[1]}"
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return x1, x2


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("theorem", "t", "k", "m", "modulus_hex", "seed", "overall",
                 "hypothesis_failure")
CHECK_FIELDS = ("name", "status", "count", "counterexample", "sums")


def canonical(inv: Invocation, code, stdout: str) -> dict:
    """Exit code plus verdict-bearing output, with file paths replaced by placeholders."""
    for path, token in sorted(inv.paths.items(), key=lambda item: -len(item[0])):
        stdout = stdout.replace(path, token)
    if inv.argv[0] == "verify":
        verdict = [{**{f: r.get(f) for f in REPORT_FIELDS},
                    "checks": [{f: c.get(f) for f in CHECK_FIELDS} for c in r["checks"]]}
                   for r in json.loads(stdout)]
    else:
        verdict = stdout.splitlines()
    return {"exit": code, "verdict": verdict}


def judge(inv: Invocation, code, stdout: str, expected: dict) -> list[str]:
    """Problems with one invocation's outcome; empty when it matches."""
    key = inv.key()
    want = expected.get(key)
    if want is None:
        return [f"{key}: no expected value recorded"]
    try:
        got = canonical(inv, code, stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{key}: unreadable output ({exc!r})"]
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"{key}: exit {got['exit']}, expected {want['exit']}")
    if got["verdict"] != want["verdict"]:
        problems.append(f"{key}: verdict differs from the expected value")
    if inv.collision is not None:
        line = "  collision: f({:x}) = f({:x})".format(*inv.collision)
        if line not in stdout.splitlines():
            problems.append(f"{key}: missing {line.strip()!r} implied by the mutation")
    return problems


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
