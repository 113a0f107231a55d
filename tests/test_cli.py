"""CLI contracts: exit codes, formats, overrides, reproducibility."""

import json
import os
import random
import stat
import subprocess
import sys

import pytest

from ppverify.cli import build_parser, run
from ppverify.maps import parse_table_file


def test_verify_thm1_range_json(tmp_path, capsys):
    out = tmp_path / "reports.json"
    code = run(["verify", "thm1", "--k", "1..2", "--format", "json", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 2
    assert all(r["overall"] == "pass" for r in reports)
    assert [r["k"] for r in reports] == [1, 2]
    assert all(r["theorem"] == "thm1" and r["t"] == 2 for r in reports)


def test_verify_thm1_wrong_q_is_config_error(capsys):
    assert run(["verify", "thm1", "--t", "1", "--k", "1"]) == 2
    assert "q = 4" in capsys.readouterr().err


def test_verify_thm3(capsys):
    assert run(["verify", "thm3", "--t", "1", "--k", "2", "--L", "builtin:L-note"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_verify_thm3_needs_t(capsys):
    assert run(["verify", "thm3", "--k", "2"]) == 2


@pytest.mark.parametrize("flags", [["--t", "9", "--k", "9"], ["--k", "1"], ["--t", "2"]])
def test_verify_t_k_without_a_theorem_is_config_error(capsys, flags):
    # the smoke suite runs fixed towers: a tower given without thm1/thm3 is not silently dropped
    assert run(["verify"] + flags) == 2
    captured = capsys.readouterr()
    assert "--t/--k need a theorem" in captured.err and captured.out == ""


def test_verify_rejects_oversized_tower(capsys):
    assert run(["verify", "thm3", "--t", "3", "--k", "3"]) == 2


def test_verify_text_prints_one_line_per_check(capsys):
    assert run(["verify", "thm1", "--k", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("eq22", "kernel-image", "pp-exhaustive", "pp-charsum-all",
                 "case1-shift-witness", "case2-eq23", "case2-factorization"):
        assert sum(1 for line in out.splitlines() if f" {name} " in line) == 1


def test_verify_csv_summary(tmp_path):
    out = tmp_path / "summary.csv"
    assert run(["verify", "thm1", "--k", "1", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theorem,t,k,overall,millis"
    assert lines[1].startswith("thm1,2,1,pass,")


def test_verify_json_roundtrip_reproduces(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "thm1", "--k", "1", "--format", "json", "--seed", "5"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    strip = lambda rs: [[{k: v for k, v in c.items() if k != "millis"}
                         for c in r["checks"]] for r in rs]
    assert strip(r1) == strip(r2)


def test_verify_smoke_default(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("thm1") > 0 and out.count("thm3") > 0


def test_modulus_override_does_not_change_verdicts(tmp_path, capsys):
    # x^6+x^3+1 is irreducible: a different model of F_64
    override = tmp_path / "moduli.txt"
    override.write_text("6:49\n")
    out1, out2 = tmp_path / "d.json", tmp_path / "o.json"
    assert run(["verify", "thm1", "--k", "1", "--format", "json", "--out", str(out1)]) == 0
    assert run(["verify", "thm1", "--k", "1", "--format", "json", "--out", str(out2),
                "--modulus-file", str(override)]) == 0
    r1, r2 = json.loads(out1.read_text())[0], json.loads(out2.read_text())[0]
    assert r1["modulus_hex"] == "43" and r2["modulus_hex"] == "49"
    assert [(c["name"], c["status"]) for c in r1["checks"]] == \
        [(c["name"], c["status"]) for c in r2["checks"]]
    # same for the generalized driver on two towers
    for t, k in [(1, 2), (2, 1)]:
        assert run(["verify", "thm3", "--t", str(t), "--k", str(k),
                    "--modulus-file", str(override)]) == 0


def test_reducible_modulus_override_is_config_error(tmp_path, capsys):
    override = tmp_path / "moduli.txt"
    override.write_text("6:45\n")  # (x^3+x+1)^2
    assert run(["verify", "thm1", "--k", "1", "--modulus-file", str(override)]) == 2
    assert "reducible" in capsys.readouterr().err


def test_negative_modulus_override_is_config_error(tmp_path, capsys):
    # int("-43", 16) is accepted, and a negative modulus made the multiply loop spin
    override = tmp_path / "moduli.txt"
    override.write_text("6:-43\n")
    assert run(["field-info", "--m", "6", "--modulus-file", str(override)]) == 2
    assert f"{override}:1: expected `m:hex`, got '6:-43'" in capsys.readouterr().err


def test_pptest_builtin_both_methods(capsys):
    assert run(["pptest", "--t", "2", "--k", "1", "--map", "builtin:g-thm1",
                "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert "methods agree" in out
    assert out.count("permutation") >= 2


def test_pptest_gthm3_with_L(capsys):
    assert run(["pptest", "--t", "1", "--k", "1",
                "--map", "builtin:g-thm3(builtin:L-note)"]) == 0


def test_pptest_constant_table_not_permutation(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("".join(f"{x:x}:0\n" for x in range(8)))
    assert run(["pptest", "--map", str(table), "--method", "exhaustive"]) == 1
    out = capsys.readouterr().out
    assert "not-permutation" in out
    assert "collision" in out


def test_pptest_malformed_tables(tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("0:0\n1:1\n2:2\n")  # not a power of two
    assert run(["pptest", "--map", str(short)]) == 2
    out_of_range = tmp_path / "range.txt"
    out_of_range.write_text("0:0\n1:1\n2:2\n3:9\n")
    assert run(["pptest", "--map", str(out_of_range)]) == 2
    duplicate = tmp_path / "dup.txt"
    duplicate.write_text("0:0\n0:1\n1:2\n2:3\n")
    assert run(["pptest", "--map", str(duplicate)]) == 2
    for name, text in (("empty.txt", ""), ("comments.txt", "# no entries\n\n")):
        empty = tmp_path / name
        empty.write_text(text)
        capsys.readouterr()
        assert run(["pptest", "--map", str(empty)]) == 2
        assert f"{empty}: entry count 0 is not a power of two >= 2" in capsys.readouterr().err


def test_pptest_sampled_mode_on_large_field(capsys):
    assert run(["pptest", "--t", "2", "--k", "3", "--map", "builtin:g-thm1",
                "--method", "charsum", "--mode", "sample:16:42"]) == 0
    assert "probable-permutation" in capsys.readouterr().out


def _verify_json(tmp_path, argv):
    out = tmp_path / "reports.json"
    assert run(["verify"] + argv + ["--format", "json", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    for r in reports:
        for c in r["checks"]:
            del c["millis"]
        del r["millis"]
    return reports


@pytest.mark.parametrize("mode, seed", [("sample:8", 5), ("all", 5), ("sample:8:7", 7)])
def test_verify_seed_flag_applies_under_mode(tmp_path, mode, seed):
    # a SEED written in the mode wins; otherwise --seed applies
    got = _verify_json(tmp_path, ["thm1", "--k", "1", "--seed", "5", "--mode", mode])
    assert [r["seed"] for r in got] == [seed]


def test_verify_mode_seed_and_seed_flag_draw_the_same_sample(tmp_path):
    flag = _verify_json(tmp_path, ["thm1", "--k", "1", "--seed", "5", "--mode", "sample:8"])
    written = _verify_json(tmp_path, ["thm1", "--k", "1", "--mode", "sample:8:5"])
    assert flag == written
    assert flag[0]["checks"][3]["name"] == "pp-charsum-sample"


def test_verify_smoke_suite_reports_one_seed_under_mode(tmp_path):
    got = _verify_json(tmp_path, ["--seed", "5", "--mode", "sample:8"])
    assert {r["theorem"] for r in got} == {"thm1", "thm3"}
    assert {r["seed"] for r in got} == {5}


@pytest.mark.parametrize("argv, seed", [(["--seed", "5"], 5), (["--seed", "5", "--mode", "sample:8"], 5),
                                        (["--seed", "5", "--mode", "sample:8:7"], 7)])
def test_pptest_seed_flag_applies_under_mode(tmp_path, capsys, argv, seed):
    # every sum of the zero map is 2^m, so the witness is the first a checked: the first
    # drawn from the seed under sample, and a = 1 with no --mode, which checks every a
    table = tmp_path / "zero.txt"
    table.write_text("".join(f"{x:x}:0\n" for x in range(1 << 15)))
    assert run(["pptest", "--map", str(table), "--method", "charsum"] + argv) == 1
    first = random.Random(seed).randrange(1, 1 << 15) if "--mode" in argv else 1
    assert f"witness: char_sum(a={first:x}) = {1 << 15}" in capsys.readouterr().out


def test_pptest_charsum_all_above_m14(capsys):
    # every m <= 24 checks all 2^m - 1 sums, with or without --mode; the override flag is gone
    for mode in ([], ["--mode", "all"]):
        assert run(["pptest", "--t", "1", "--k", "5", "--map", "builtin:L-note",
                    "--method", "charsum"] + mode) == 0
        assert "permutation (method=charsum-all, checks=32767)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["pptest", "--t", "1", "--k", "5", "--map", "builtin:L-note", "--allow-large"])
    assert exc.value.code == 2


def test_pptest_export_roundtrip(tmp_path, capsys):
    exported = tmp_path / "g.txt"
    assert run(["pptest", "--t", "2", "--k", "1", "--map", "builtin:g-thm1",
                "--method", "exhaustive", "--export", str(exported)]) == 0
    lines = exported.read_text().strip().splitlines()
    assert len(lines) == 64
    assert lines[0].startswith("0:")
    assert run(["pptest", "--t", "2", "--k", "1", "--map", str(exported),
                "--method", "both"]) == 0


def test_output_files_get_the_mode_of_a_plain_write(tmp_path):
    table, report = tmp_path / "g.txt", tmp_path / "r.json"
    old = os.umask(0o022)
    try:
        assert run(["pptest", "--t", "2", "--k", "1", "--map", "builtin:g-thm1",
                    "--method", "exhaustive", "--export", str(table)]) == 0
        assert run(["verify", "thm1", "--k", "1", "--format", "json", "--out", str(report)]) == 0
    finally:
        os.umask(old)
    assert [stat.S_IMODE(p.stat().st_mode) for p in (table, report)] == [0o644, 0o644]


def test_table_file_names_the_first_missing_entry(tmp_path):
    table = tmp_path / "gap.txt"
    table.write_text("0:1\n1:0\n3:2\n5:3\n")   # four lines, no entry for x = 2
    with pytest.raises(ValueError, match="missing entry for x=0x2"):
        parse_table_file(str(table))


def test_charsum_command(capsys):
    assert run(["charsum", "--t", "2", "--k", "1", "--map", "builtin:g-thm1",
                "--a", "7"]) == 0
    assert "= 0" in capsys.readouterr().out
    assert run(["charsum", "--t", "2", "--k", "1", "--map", "builtin:g-thm1",
                "--a", "zz"]) == 2


@pytest.mark.parametrize("text", ["0x7", " 7", "7 ", "1_0", "+7", "-7", "\u0663", "\uff17", ""])
def test_charsum_a_takes_ascii_hex_digits_only(text, capsys):
    # int(text, 16) reads all but the last, and all of those but -7 lie in GF(2^6)
    assert run(["charsum", "--t", "2", "--k", "1", "--map", "builtin:g-thm1",
                f"--a={text}"]) == 2
    assert "--a expects a hex element in ASCII digits" in capsys.readouterr().err


def test_search_small(capsys):
    assert run(["search-L", "--t", "1", "--k", "1", "--budget", "64"]) == 0
    out = capsys.readouterr().out
    assert "M=0" in out and "PP-verified" in out


def test_search_output_is_pinned(capsys):
    assert run(["search-L", "--t", "2", "--k", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "budget: 256, accepted: 6",
        "[   0] M=0                      lin[4:1] PP-verified",
        "[   2] P=0:3a                   lin[0:3a,2:3a,4:3b] PP-verified",
        "[   3] P=0:3b                   lin[0:3b,2:3b,4:3a] PP-verified",
        "[  19] P=0:1,1:1                lin[0:1,1:1,2:1,3:1,5:1] PP-verified",
        "[  20] P=0:1,1:3a               lin[0:1,1:3a,2:1,3:3a,5:3a] PP-verified",
        "[  21] P=0:1,1:3b               lin[0:1,1:3b,2:1,3:3b,5:3b] PP-verified",
    ]


def test_search_at_m24_within_budget(capsys):
    # no size gate: the budget bounds the work at every m <= 24
    assert run(["search-L", "--t", "2", "--k", "4", "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert "budget: 2, accepted: " in out and "PP-FAILED" not in out


def test_search_candidates_written_to_file(tmp_path):
    out = tmp_path / "cands.txt"
    assert run(["search-L", "--t", "2", "--k", "1", "--budget", "64",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "lin[" in text and "family:" in text


def test_field_info(capsys):
    assert run(["field-info", "--t", "2", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "x^6 + x + 1" in out and "q=4" in out
    assert run(["field-info", "--m", "4"]) == 0


def test_one_parser_serves_every_run(capsys):
    # built once per process, so no option value may carry over from one run to the next
    assert build_parser() is build_parser()
    assert run(["field-info", "--m", "4"]) == 0
    assert run(["field-info"]) == 2


def test_missing_context_is_config_error(capsys):
    assert run(["field-info"]) == 2
    assert run(["pptest", "--map", "builtin:g-thm1"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["field-info", "--t", "1", "--k", "1", "--m", "7"], "conflicts"),
    (["pptest", "--t", "1", "--k", "1", "--m", "5", "--map", "builtin:g-thm1"], "conflicts"),
    (["charsum", "--t", "2", "--k", "1", "--m", "4", "--map", "builtin:g-thm1", "--a", "1"],
     "conflicts"),
    (["field-info", "--t", "1"], "go together"),
    (["field-info", "--k", "2", "--m", "6"], "go together"),
    (["pptest", "--k", "1", "--map", "builtin:g-thm1"], "go together"),
    (["search-L", "--t", "1", "--budget", "8"], "needs --t and --k"),
])
def test_conflicting_field_flags_are_config_errors(argv, message, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert message in err, err


def test_one_tower_flag_beside_a_table_is_a_config_error(tmp_path, capsys):
    # a lone --t beside a table is malformed input, not a flag to drop
    table = tmp_path / "t.txt"
    assert run(["pptest", "--t", "2", "--k", "1", "--map", "builtin:L-note",
                "--method", "exhaustive", "--export", str(table)]) == 0
    capsys.readouterr()
    assert run(["pptest", "--t", "1", "--map", str(table)]) == 2
    assert "go together" in capsys.readouterr().err
    assert run(["pptest", "--map", str(table), "--method", "exhaustive"]) == 0


def test_matching_m_beside_the_tower_is_taken(capsys):
    assert run(["field-info", "--t", "1", "--k", "1", "--m", "3"]) == 0
    assert "m = 3" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert run([]) == 2


def test_bad_range_is_config_error(capsys):
    assert run(["verify", "thm1", "--k", "2..1"]) == 2
    assert run(["verify", "thm1", "--k", "x"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "thm1", "--k", "1", "--out"],
    ["search-L", "--t", "1", "--k", "1", "--budget", "8", "--out"],
    ["pptest", "--t", "2", "--k", "1", "--map", "builtin:g-thm1", "--export"],
], ids=["verify", "search-L", "pptest"])
@pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, argv, where):
    target = tmp_path / "missing" / "out.txt"
    if where == "is-a-dir":   # the temp file is written, then cannot replace a directory
        target = tmp_path / "taken"
        target.mkdir()
    assert run(argv + [str(target)]) == 2
    assert f"error: cannot write {target}: " in capsys.readouterr().err
    assert not list(tmp_path.rglob(".ppverify-*"))


@pytest.mark.parametrize("argv, flag", [
    (["verify", "thm3", "--t", "1", "--k", "1", "--L=--"], "--L"),
    (["pptest", "--t", "1", "--k", "1", "--map=--"], "--map"),
    (["charsum", "--m", "6", "--map=--", "--a", "1"], "--map"),
    (["field-info", "--m", "6", "--modulus-file=--"], "--modulus-file"),
    (["verify", "--t=--", "--k", "1", "thm3"], "--t"),
    (["search-L", "--t", "1", "--k", "1", "--out=--"], "--out"),
    (["verify", "thm1", "--k", "1", "--mode=--"], "--mode"),
    (["verify", "thm1", "--k", "1", "--seed=--"], "--seed"),
    (["search-L", "--t", "1", "--k", "1", "--budget=--"], "--budget"),
], ids=["verify-L", "pptest-map", "charsum-map", "field-info-modulus-file", "verify-t",
        "search-L-out", "verify-mode", "verify-seed", "search-L-budget"])
def test_option_value_dash_dash_is_config_error(tmp_path, capsys, monkeypatch, argv, flag):
    # argparse parses `--X=--` as an empty list: it must neither crash (exit 70)
    # nor be taken for the option unset (search-L printing, verify ignoring --mode)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} expects a value, got '--'\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


SAMPLE = ["pptest", "--t", "2", "--k", "1", "--map", "builtin:g-thm1", "--method", "charsum"]


@pytest.mark.parametrize("text", ["\u0663", " 2", "+1", "1_6"])
@pytest.mark.parametrize("argv, flag", [
    (["verify", "thm1", "--k={}"], "--k"),
    (["verify", "thm1", "--k=1..{}"], "--k"),
    (["verify", "thm1", "--k={}..3"], "--k"),
    (["verify", "thm3", "--t={}", "--k", "1"], "--t"),
    (["pptest", "--t={}", "--k", "1", "--map", "builtin:g-thm1"], "--t"),
    (["pptest", "--t", "2", "--k={}", "--map", "builtin:g-thm1"], "--k"),
    (["field-info", "--m={}"], "--m"),
    (["verify", "thm1", "--k", "1", "--seed={}"], "--seed"),
    (["search-L", "--t", "1", "--k", "1", "--budget={}"], "--budget"),
    (SAMPLE + ["--mode=sample:{}"], "--mode"),
    (SAMPLE + ["--mode=sample:4:{}"], "--mode"),
    (["verify", "thm1", "--k", "1", "--mode=sample:{}"], "--mode"),
], ids=["verify-k", "verify-k-hi", "verify-k-lo", "verify-t", "pptest-t", "pptest-k",
        "field-info-m", "verify-seed", "search-L-budget", "pptest-mode-n", "pptest-mode-seed",
        "verify-mode-n"])
def test_decimal_options_take_ascii_digits_only(argv, flag, text, capsys):
    # int() takes every one of these texts, which ran a command before
    assert run([arg.format(text) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} expects ") and captured.out == ""


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_verify_loads_no_numpy_ma():
    # plain np.unique and np.isin import numpy.ma (19 ms and 0.65 MB) in numpy 2.4
    code = ("import sys; from ppverify.cli import run\n"
            "assert run(['verify', 'thm1', '--k', '3']) == 0\n"
            "assert run(['verify', 'thm3', '--t', '1', '--k', '6']) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr[-2000:]
