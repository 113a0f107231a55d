"""The `--L`, `--modulus-file`, `charsum --a` and decimal-option grammars: ASCII digits only."""

import string

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ppverify import FieldCtx, LinearizedPoly, format_linpoly, load_modulus_file, parse_linpoly
from ppverify.cli import run

CTX = FieldCtx.from_tower(1, 1)

# the pieces of both grammars, and the near misses that Python's int() takes
PIECES = ["0", "1", "7", "a", "F", "10", ":", ",", " ", "\t", "\v", "\r", "\n", "#",
          "lin[", "]", "0x", "_", "+", "-", "\u0663", "\u0661", "\u00a0", "\x1c", "\ufeff"]
near_misses = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)
texts = st.one_of(st.text(max_size=40), near_misses, near_misses.map(lambda s: f"lin[{s}]"))


def _parse_or_error(text):
    try:
        return parse_linpoly(CTX, text)
    except ValueError:
        return None


@pytest.mark.parametrize("text", ["lin[0:\u0663]", "lin[0:0x1]", "lin[0:1_0]", "lin[\u0661:1]",
                                  "lin[+1:1]", "lin[0:-1]", "lin[0:1,]", "\u3000lin[0:1]"])
def test_linpoly_rejects_forms_outside_ascii_digits(text):
    # int() takes the terms of the first six
    with pytest.raises(ValueError):
        parse_linpoly(FieldCtx(6), text)


def test_linpoly_accepts_ascii_blanks_and_either_hex_case():
    ctx = FieldCtx(6)
    L = parse_linpoly(ctx, " lin[ 0 : 1 ,\t2:B,3:c ] ")
    assert L == LinearizedPoly(ctx, [1, 0, 0xB, 0xC, 0, 0])


@settings(max_examples=300, deadline=None)
@given(texts)
def test_linpoly_raises_only_value_error_and_reads_back(text):
    L = _parse_or_error(text)
    if L is not None:
        assert parse_linpoly(CTX, format_linpoly(L)) == L
        assert text.isascii()


@pytest.mark.parametrize("line", ["6:4_3", "6:0x43", "\u0666:43", "6:+43", "+6:43", "6:43\u00a0"])
def test_modulus_file_rejects_forms_outside_ascii_digits(tmp_path, line):
    path = tmp_path / "moduli.txt"
    path.write_text(f"# ok\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_modulus_file(str(path))
    assert str(exc.value) == f"{path}:2: expected `m:hex`, got {line!r}"


def test_modulus_file_line_ends_and_blanks(tmp_path):
    path = tmp_path / "moduli.txt"
    path.write_bytes(b"# \xc3\xa9 comment\r\n\t6 : 43 \r\r3:B\n")
    assert load_modulus_file(str(path)) == {6: 0x43, 3: 0xB}


def test_modulus_file_rejects_a_second_line_for_one_degree(tmp_path, capsys):
    path = tmp_path / "moduli.txt"
    path.write_text("6:43\n3:b\n# 6:49 in a comment is fine\n 6 : 49\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_modulus_file(str(path))
    assert str(exc.value) == f"{path}:4: duplicate entry for m=6"
    assert run(["field-info", "--m", "6", "--modulus-file", str(path)]) == 2
    assert f"{path}:4: duplicate entry for m=6" in capsys.readouterr().err


def test_modulus_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "moduli.txt"
    path.write_bytes(b"6:43\n3:\xff\n")
    with pytest.raises(ValueError, match=r"moduli\.txt: not UTF-8 text \(byte 7\)"):
        load_modulus_file(str(path))
    assert run(["field-info", "--m", "6", "--modulus-file", str(path)]) == 2
    assert "moduli.txt: not UTF-8" in capsys.readouterr().err


modulus_files = st.one_of(st.binary(max_size=40),
                          st.lists(texts, max_size=4).map(lambda ls: "\n".join(ls).encode("utf-8")))


@pytest.fixture(scope="module")
def modulus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "moduli.txt"


@settings(max_examples=300, deadline=None)
@given(data=modulus_files)
def test_modulus_file_raises_only_value_error(modulus_path, data):
    modulus_path.write_bytes(data)
    try:
        table = load_modulus_file(str(modulus_path))
    except ValueError:
        return
    lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    assert all(line.isascii() for line in lines if not line.strip(" \t\v\f").startswith("#"))
    assert all(m >= 0 and modulus >= 0 for m, modulus in table.items())


@settings(max_examples=100, deadline=None)
@given(texts)
@example("--")   # argparse parses `--L=--` as an empty list, not the text
def test_malformed_linpoly_exits_2(text):
    assume(text != "builtin:L-note" and _parse_or_error(text) is None)
    assert run(["verify", "thm3", "--t", "1", "--k", "1", f"--L={text}"]) == 2


@settings(max_examples=100, deadline=None)
@given(data=modulus_files)
def test_malformed_modulus_file_exits_2(modulus_path, data):
    modulus_path.write_bytes(data)
    try:
        load_modulus_file(str(modulus_path))
    except ValueError:
        assert run(["field-info", "--m", "6", "--modulus-file", str(modulus_path)]) == 2


@settings(max_examples=100, deadline=None)
@given(texts)
@example("--")
def test_charsum_a_exits_0_only_on_ascii_hex_digits(text):
    code = run(["charsum", "--t", "1", "--k", "1", "--map", "builtin:g-thm1", f"--a={text}"])
    digits = text != "" and all(c in string.hexdigits for c in text)
    assert code == (0 if digits and int(text, 16) < CTX.order else 2)


@settings(max_examples=100, deadline=None)
@given(texts)
@example("--")
def test_decimal_m_exits_0_only_on_ascii_digits(text):
    code = run(["field-info", f"--m={text}"])
    digits = text != "" and all(c in string.digits for c in text)
    assert code == (0 if digits and 1 <= int(text) <= 24 else 2)
