"""Hex table I/O: the blocked numpy export and import against the line-by-line oracles.

`reference.format_table_lines` and `reference.parse_table_file` are the
per-line implementations the blocked passes replaced.  Export must give
the same bytes; import must give the same table, or the same ValueError
message in the same precedence, on every file in the ASCII table grammar.
"""

import contextlib
import io
import os
import random
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from ppverify import (FieldCtx, FieldMap, build_g_thm1, build_g_thm3, build_L_note, cli,
                      linearized_map, maps)

TOWERS_UP_TO_M12 = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]
WS = " \t\v\f"


def oracle_text(fmap) -> str:
    return "\n".join(reference.format_table_lines(fmap)) + "\n"


def outcome(parse, path, ctx):
    """(table, m) of a parse, or its ValueError message."""
    try:
        fmap = parse(path, ctx)
    except ValueError as exc:
        return str(exc)
    return fmap.table().tolist(), fmap.ctx


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t,k", TOWERS_UP_TO_M12)
def test_export_matches_oracle_up_to_m12(t, k):
    ctx = FieldCtx.from_tower(t, k)
    L = build_L_note(ctx)
    fmaps = [build_g_thm3(ctx, L), linearized_map(L, "L")]
    if t == 2:
        fmaps.append(build_g_thm1(ctx))
    for fmap in fmaps:
        assert "".join(maps.format_table_lines(fmap)) == oracle_text(fmap)


@pytest.mark.parametrize("m", range(1, 25))
def test_export_of_a_seeded_table_matches_both_oracles_at_every_m(m):
    # chunk by chunk against the boolean-mask export, and up to m = 16 against the per-line one
    rng = np.random.default_rng(m)
    fmap = FieldMap.from_table("noise", FieldCtx(m),
                               rng.integers(0, 1 << m, size=1 << m, dtype=np.uint32))
    got = maps.format_table_lines(fmap)
    for chunk, want in zip(got, reference.format_table_lines_masked(fmap), strict=True):
        assert chunk == want
    if m <= 16:
        assert "".join(maps.format_table_lines(fmap)) == oracle_text(fmap)


def test_export_matches_oracle_at_m18(tmp_path, capsys):
    ctx = FieldCtx.from_tower(2, 3)
    for spec, fmap in [("builtin:g-thm1", build_g_thm1(ctx)),
                       ("builtin:g-thm3", build_g_thm3(ctx, build_L_note(ctx)))]:
        path = tmp_path / "export.txt"
        assert cli.run(["pptest", "--t", "2", "--k", "3", "--map", spec,
                        "--method", "exhaustive", "--export", str(path)]) == 0
        assert path.read_bytes() == oracle_text(fmap).encode("ascii")
    rng = np.random.default_rng(18)
    noise = FieldMap.from_table("noise", FieldCtx(18),
                                rng.integers(0, 1 << 18, size=1 << 18, dtype=np.uint32))
    assert "".join(maps.format_table_lines(noise)) == oracle_text(noise)


# ---------------------------------------------------------------------------
# import
# ---------------------------------------------------------------------------

HUGE = [2 ** 24, 2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 90]


@st.composite
def table_files(draw):
    """(text, m of the ctx passed or None, read block size) of a file in the ASCII grammar."""
    m = draw(st.integers(1, 4))
    order = 1 << m

    def field(v):
        digits = format(v, "x")
        if draw(st.booleans()):
            digits = digits.upper()
        zeros = draw(st.sampled_from([0, 0, 0, 1, 3, 17]))
        return draw(st.text(WS, max_size=2)) + "0" * zeros + digits + draw(st.text(WS, max_size=2))

    lines = []
    for x in draw(st.permutations(range(order))):
        y = draw(st.integers(0, order - 1))
        action = draw(st.sampled_from(["entry"] * 8 + ["gap", "far-y", "far-x", "noise"]))
        if action == "gap":
            continue
        if action == "far-y":
            y = draw(st.sampled_from(HUGE + [order]))
        if action == "far-x":
            x = draw(st.sampled_from(HUGE + [order]))
        lines.append(field(x) + ":" + field(y))
        if draw(st.integers(0, 9)) == 0:              # a duplicate x, far ones too
            lines.append(field(x) + ":" + field(y))
        if action == "noise":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(
                st.text(WS, max_size=3),                                        # blank
                st.text(WS, max_size=2).map(lambda w: w + "#"),                 # comment
                st.text("0123456789abcdefABCDEF:#g; " + WS, max_size=10))))     # anything
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    if lines and not draw(st.booleans()):
        text = text.rstrip("\r\n")
    ctx_m = draw(st.sampled_from([None, None, m, m + 1]))
    return text, ctx_m, draw(st.sampled_from([1, 2, 3, 5, 8, 13, 64, maps._READ_BYTES]))


@settings(max_examples=200, deadline=None)
@given(table_files())
def test_parse_matches_oracle_on_generated_files(case):
    text, ctx_m, block = case
    ctx = FieldCtx(ctx_m) if ctx_m is not None else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        with mock.patch.object(maps, "_READ_BYTES", block):
            got = outcome(maps.parse_table_file, path, ctx)
        assert got == outcome(reference.parse_table_file, path, ctx)
        argv = ["pptest", "--map", path, "--method", "exhaustive"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv + (["--m", str(ctx_m)] if ctx_m else []))
        assert code in ((2,) if isinstance(got, str) else (0, 1))


ERROR_FILES = [
    "0:1\n1:2\nzz\n2:3\n3:0\n",                   # malformed line
    "0:1\r\n1:2\r\n\r\n# c\r\n0:3\r\n",           # duplicate after a blank and a comment line
    "0:1\r1:2\r2 : 3\r3:4\r\r1:0\r",              # duplicate, bare `\r` line ends
    "0:1\n1:100000000000000000000\n",              # value beyond 2^64
    "00000000000000000000:1\n1:0\n000000000000000000000:2\n",   # duplicate with leading zeros
    "0:1\n2:0\n3:2\n5:3",                          # missing entry, no final newline
    "0:1\n1:0\n2:fffffffe\n3:ffffffff\n",         # values at and past the clipping bound
    "0:1\n1:5\n2:100000000000000000\n3:2\n",       # a small bad value before a huge one
    "0:1\n0:2\nzz\n",                              # a duplicate before a malformed line
    "0:1\nzz\n0:2\n",                              # a malformed line before a duplicate
    "1000000000:1\n1000000000:2\nzz\n",            # a duplicate x beyond 2^32
    "1000000000:1\n0:1\n1000000000:2\n0:1\n",      # far duplicate before a near one
    "0:1\n1000000000:1\n0:1\n1000000000:2\n",      # near duplicate before a far one
    "1000000:1\n0:1\n1000000:2\n",                 # a duplicate x in [2^24, 2^32)
    "0:1\n1:\n",                                   # near misses of the strict layout: an empty y,
    "0:1\n:1\n",                                   # an empty x,
    "0:1\n1:2:3\n",                                # two colons on one line,
    "0:1\n12\n",                                   # no colon,
    "0:1\n1::2\n",                                 # two colons side by side,
    "0:1\n1:0\n12",                                # and an unterminated line without one
]


@pytest.mark.parametrize("text", ERROR_FILES)
def test_errors_across_block_boundaries_match_oracle(tmp_path, monkeypatch, text):
    path = tmp_path / "table.txt"
    path.write_bytes(text.encode("ascii"))
    for ctx in (None, FieldCtx(2)):
        want = outcome(reference.parse_table_file, str(path), ctx)
        assert isinstance(want, str)
        for block in range(1, len(text) + 2):
            monkeypatch.setattr(maps, "_READ_BYTES", block)
            assert outcome(maps.parse_table_file, str(path), ctx) == want, (ctx, block)


def test_strict_lines_without_a_final_newline_match_oracle(tmp_path, monkeypatch):
    # every line is in the strict layout; only the last block lacks its line end
    rng = random.Random(14)
    values = [rng.randrange(64) for _ in range(64)]
    zeros = ["", "0", "000", "0000000000"]
    text = "\n".join(f"{rng.choice(zeros)}{x:X}:{rng.choice(zeros)}{y:X}"
                     for x, y in enumerate(values))
    path = tmp_path / "table.txt"
    path.write_bytes(text.encode("ascii"))
    want = outcome(reference.parse_table_file, str(path), None)
    assert want[0] == values
    for block in (1, 7, 64, 301, maps._READ_BYTES):
        monkeypatch.setattr(maps, "_READ_BYTES", block)
        assert outcome(maps.parse_table_file, str(path), None) == want, block


@pytest.mark.parametrize("block", [64, maps._READ_BYTES])
def test_exported_tables_take_the_strict_scan(tmp_path, monkeypatch, block):
    ctx = FieldCtx.from_tower(2, 2)
    g = build_g_thm1(ctx)
    path = str(tmp_path / "g1-m12.txt")
    cli._atomic_write(path, maps.format_table_lines(g))

    def token_scan(data):
        raise AssertionError(f"token scan of a strict block: {data[:40]!r}")

    monkeypatch.setattr(maps, "_READ_BYTES", block)
    monkeypatch.setattr(maps, "_scan_tokens", token_scan)
    parsed = maps.parse_table_file(path)
    assert parsed.ctx == FieldCtx(12) and np.array_equal(parsed.table(), g.table())


def test_far_x_with_an_explicit_field_within_memory_budget(tmp_path):
    # 2^18 lines against m = 2: every x >= 4 is tracked in the table, not in a set
    path = str(tmp_path / "table.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{x:x}:0\n" for x in range(1 << 18))
    want = f"{path}: expected 4 entries for m=2, got {1 << 18}"
    assert outcome(reference.parse_table_file, path, FieldCtx(2)) == want
    tracemalloc.start()
    try:
        got = outcome(maps.parse_table_file, path, FieldCtx(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("line", ["0x1:2", "1_0:2", "-1:2", "+1:2", "1:0x2",
                                  "\u0661:2", "1:2\u00a0", "\x1c1:2"])
def test_forms_outside_the_ascii_grammar_are_line_errors(tmp_path, line):
    # the line-by-line reader, with str.strip and int(s, 16), accepts each of these
    path = tmp_path / "table.txt"
    path.write_text(f"0:1\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        maps.parse_table_file(str(path))
    assert str(exc.value) == f"{path}:2: expected `x:gx` hex pair, got {line.strip()!r}"


def test_non_utf8_bytes_are_a_line_error(tmp_path, capsys):
    path = tmp_path / "table.txt"
    path.write_bytes(b"0:1\n1:\xff\n")
    with pytest.raises(ValueError, match=r":2: expected `x:gx` hex pair, got '1:\\\\xff'"):
        maps.parse_table_file(str(path))
    assert cli.run(["pptest", "--map", str(path)]) == 2
    assert "expected `x:gx` hex pair" in capsys.readouterr().err


def test_round_trip_at_m21_within_memory_budget(tmp_path):
    ctx = FieldCtx.from_tower(7, 1)
    g = build_g_thm3(ctx, build_L_note(ctx))
    table = g.table()
    path = str(tmp_path / "g3-m21.txt")
    tracemalloc.start()
    try:
        cli._atomic_write(path, maps.format_table_lines(g))
        export_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        parsed = maps.parse_table_file(path)
        parse_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert parsed.ctx == FieldCtx(21) and np.array_equal(parsed.table(), table)
    assert export_peak < 32 << 20, export_peak
    assert parse_peak < 64 << 20, parse_peak


def test_parsed_table_is_scattered_by_x(tmp_path):
    # lines in any order, with every optional part of the grammar
    rng = random.Random(8)
    values = [rng.randrange(256) for _ in range(256)]
    lines = [f" {x:04X}\t: {values[x]:x} " for x in range(256)]
    rng.shuffle(lines)
    path = tmp_path / "table.txt"
    path.write_bytes(("# shuffled\r\n\r\n" + "\r\n".join(lines)).encode("ascii"))
    assert maps.parse_table_file(str(path)).table().tolist() == values
