"""Worker process: imports ppverify fresh, then runs one workload's passes.

Started by run.py, one process per workload run.  It prints `ready`
once `import ppverify` and the CLI module are loaded (the end of
set-up), then runs passes through `ppverify.cli.run(argv)` in-process
and prints one JSON result line.  With `--probe` it exits right after
`ready`; run.py times several probes for `setup_s`.

Every pass calls the CLI afresh, so each builds its own FieldCtx and
maps: no ctx._cache or FieldMap._table carries over between passes,
as for a user who pays the table build on every invocation.
"""

from __future__ import annotations

import argparse
import os
import sys


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ppverify
    from ppverify import cli
    if not os.path.abspath(ppverify.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"imported ppverify from {ppverify.__file__}, not from {src}")
    return cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    cli = _import_program(args.root)
    print("ready", flush=True)
    if args.probe:
        return 0

    import json
    import passes
    result = passes.run_workload(cli, args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.trace_out,
                                 os.path.join(args.root, "perfbench", "out"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
