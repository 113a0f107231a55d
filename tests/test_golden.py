"""Golden CLI outputs: reports, `search-L` and `pptest` stay byte-identical apart from millis.

Each run goes through `cli.run` in this process; its exit code and its
stdout, with every `"millis": <number>` value blanked, must equal the
file stored under tests/golden.  After a deliberate change to an output,
regenerate every file with

    python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import pathlib
import re
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
RUNS = {
    "verify": ["verify", "--format", "json"],
    "verify-thm1-k1-4": ["verify", "thm1", "--k", "1..4", "--format", "json"],
    "verify-thm3-t1-k1-8": ["verify", "thm3", "--t", "1", "--k", "1..8", "--format", "json"],
    "verify-thm3-t2-k1-4": ["verify", "thm3", "--t", "2", "--k", "1..4", "--format", "json"],
    "search-L-t1-k2": ["search-L", "--t", "1", "--k", "2", "--budget", "40"],
    "pptest-t7-k1-g3-sample": ["pptest", "--t", "7", "--k", "1", "--map", "builtin:g-thm3",
                               "--mode", "sample:4:3"],
}
_MILLIS = re.compile(r'("millis": )-?[0-9.]+(e[-+]?[0-9]+)?')


def capture(argv: list[str]) -> str:
    """The exit code line, then the stdout of one in-process CLI run with millis blanked."""
    from ppverify.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return f"exit {code}\n" + _MILLIS.sub(r"\1-", out.getvalue())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name):
    assert capture(RUNS[name]) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in RUNS.items():
        (GOLDEN / f"{name}.txt").write_text(capture(argv))
        print(f"wrote {GOLDEN / name}.txt")
