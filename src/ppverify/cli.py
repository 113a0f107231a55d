"""Command-line front end.

Exit codes: 0 all requested checks passed, 1 a mathematical check
failed, 2 configuration/usage error, 70 unexpected crash.  All
randomness is seeded (default seed 1729) and the seed is embedded in
every report, so default runs are reproducible bit-for-bit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import tempfile
from typing import Iterable

from . import binpoly
from .constructions import (SEARCH_FAMILY, build_g_thm1, build_g_thm3,
                            build_L_note, search_L_candidates)
from .field import FieldCtx, load_modulus_file
from .linearized import LinearizedPoly, format_linpoly, parse_linpoly
from .maps import FieldMap, format_table_lines, linearized_map, parse_table_file
from .pptest import (DEFAULT_SAMPLES, DEFAULT_SEED, char_sum, is_permutation_exhaustive,
                     pp_verdict_charsum)
from .proofchecks import (CHARSUM_ALL_LIMIT_M, CSV_HEADER, VerificationReport, verify_thm1,
                          verify_thm3)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CRASH = 70

SMOKE_TOWERS_THM1 = [(2, 1), (2, 2)]
SMOKE_TOWERS_THM3 = [(1, 1), (1, 2), (2, 1), (1, 3)]


class ConfigError(Exception):
    """Bad flags, bad files, out-of-range parameters: exit 2 territory."""


def _digits(text: str) -> int:
    """A decimal number in ASCII digits only, else ValueError.

    int() alone would also take a sign, `_` separators, blanks and other
    scripts' digits.
    """
    if re.fullmatch("[0-9]+", text) is None:
        raise ValueError(f"not a decimal number in ASCII digits: {text!r}")
    return int(text)


def _decimal(flag: str):
    """The argparse type of a decimal option: `_digits`, or a ConfigError (exit 2)."""
    def parse(text: str) -> int:
        try:
            return _digits(text)
        except ValueError:
            raise ConfigError(f"--{flag} expects a decimal number in ASCII digits, "
                              f"got {text!r}") from None
    return parse


def _parse_range(text: str, name: str) -> list[int]:
    """'3' -> [3]; '1..4' -> [1, 2, 3, 4]; ASCII digits only."""
    lo_str, dots, hi_str = text.partition("..")
    try:
        lo = _digits(lo_str)
        hi = _digits(hi_str) if dots else lo
        if hi < lo:
            raise ValueError
        return list(range(lo, hi + 1))
    except ValueError:
        raise ConfigError(f"--{name} expects N or LO..HI in ASCII digits, got {text!r}") from None


def _parse_mode(text: str, seed: int) -> tuple[str, int, int]:
    """'all' or 'sample:N[:SEED]' -> (mode, n, seed); seed applies where no SEED is written.

    N and SEED are ASCII digits only.
    """
    if text == "all":
        return "all", DEFAULT_SAMPLES, seed
    parts = text.split(":")
    if parts[0] == "sample":
        try:
            n = _digits(parts[1]) if len(parts) > 1 else DEFAULT_SAMPLES
            seed = _digits(parts[2]) if len(parts) > 2 else seed
            if len(parts) > 3 or n < 1:
                raise ValueError
            return "sample", n, seed
        except ValueError:
            raise ConfigError(f"--mode expects sample:N[:SEED], got {text!r}") from None
    raise ConfigError(f"--mode expects all or sample:N[:SEED], got {text!r}")


def _modulus_for(m: int, modulus_file: str | None) -> int | None:
    if modulus_file is None:
        return None
    try:
        table = load_modulus_file(modulus_file)
    except OSError as exc:
        raise ConfigError(f"cannot read modulus file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return table.get(m)


def _build_ctx(args, t: int | None = None, k: int | None = None) -> FieldCtx:
    """Context from --t/--k (tower) or --m (bare field)."""
    t = t if t is not None else getattr(args, "tee", None)
    k = k if k is not None else getattr(args, "kay", None)
    m_flag = getattr(args, "m", None)
    try:
        if t is not None and k is not None:
            m = 3 * t * k
            return FieldCtx.from_tower(t, k, _modulus_for(m, args.modulus_file))
        if m_flag is not None:
            return FieldCtx(m_flag, _modulus_for(m_flag, args.modulus_file))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError("need either --t and --k (tower) or --m (bare field)")


def _parse_L(spec: str, ctx: FieldCtx) -> LinearizedPoly:
    if spec == "builtin:L-note":
        return build_L_note(ctx)
    if spec.startswith("lin["):
        try:
            return parse_linpoly(ctx, spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown linearized-map spec {spec!r}; "
                      "expected builtin:L-note or lin[i:hex,...]")


def _build_map(spec: str, ctx: FieldCtx | None) -> FieldMap:
    """Map spec: builtin:g-thm1 | builtin:L-note | builtin:g-thm3(L) | table path."""
    if spec.startswith("builtin:"):
        if ctx is None or ctx.tower is None:
            raise ConfigError(f"builtin map {spec!r} needs tower parameters --t and --k")
        name = spec[len("builtin:"):]
        if name == "g-thm1":
            return build_g_thm1(ctx)
        if name == "L-note":
            return linearized_map(build_L_note(ctx), "builtin:L-note")
        if name == "g-thm3":
            return build_g_thm3(ctx, build_L_note(ctx))
        if name.startswith("g-thm3(") and name.endswith(")"):
            return build_g_thm3(ctx, _parse_L(name[len("g-thm3("):-1], ctx))
        raise ConfigError(f"unknown builtin map {spec!r}")
    try:
        return parse_table_file(spec, ctx)
    except OSError as exc:
        raise ConfigError(f"cannot read map table: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write text, or its chunks one by one, through a temp file beside path.

    The file gets the mode a plain open(path, "w") would give it.  An
    unwritable path is a ConfigError.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ppverify-")
        try:
            os.fchmod(fd, 0o666 & ~umask)   # mkstemp's 0600 would outlive os.replace
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_reports(reports: list[VerificationReport], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    elif fmt == "csv":
        text = "\n".join([CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"
    else:
        text = "\n".join(line for r in reports for line in r.text_lines()) + "\n"
    if out:
        _atomic_write(out, text)
        print(f"wrote {len(reports)} report(s) to {out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    reports: list[VerificationReport] = []
    jobs: list[tuple[str, int, int]] = []
    if args.theorem is None:
        if args.tee is not None or args.kay is not None:
            raise ConfigError("--t/--k need a theorem: `verify thm1` or `verify thm3`")
        jobs += [("thm1", t, k) for t, k in SMOKE_TOWERS_THM1]
        jobs += [("thm3", t, k) for t, k in SMOKE_TOWERS_THM3]
    else:
        if args.kay is None:
            raise ConfigError(f"verify {args.theorem} needs --k")
        if args.theorem == "thm1":
            ts = _parse_range(args.tee, "t") if args.tee is not None else [2]
        else:
            if args.tee is None:
                raise ConfigError("verify thm3 needs --t")
            ts = _parse_range(args.tee, "t")
        ks = _parse_range(args.kay, "k")
        jobs += [(args.theorem, t, k) for t in ts for k in ks]

    for theorem, t, k in jobs:
        if theorem == "thm1" and t != 2:
            raise ConfigError(f"theorem 1 requires q = 4 (t = 2), got t={t}; "
                              "use `verify thm3` for other towers")
        if 3 * t * k > 24:
            raise ConfigError(f"tower (t={t}, k={k}) needs degree {3 * t * k} > 24")

    mode, n, seed = (_parse_mode(args.mode, args.seed) if args.mode
                     else (None, DEFAULT_SAMPLES, args.seed))
    for theorem, t, k in jobs:
        ctx = _build_ctx(args, t=t, k=k)
        if theorem == "thm1":
            reports.append(verify_thm1(ctx, seed=seed, sample_n=n, charsum_mode=mode))
        else:
            reports.append(verify_thm3(ctx, _parse_L(args.L, ctx), seed=seed))

    _emit_reports(reports, args.format, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _verdict_lines(tag: str, verdict) -> list[str]:
    lines = [f"{tag}: {verdict.verdict} (method={verdict.method}, checks={verdict.checks})"]
    if verdict.witness is not None:
        if verdict.method == "exhaustive":
            x1, x2 = verdict.witness
            lines.append(f"  collision: f({x1:x}) = f({x2:x})")
        else:
            a, s = verdict.witness
            lines.append(f"  witness: char_sum(a={a:x}) = {s}")
    return lines


def _cmd_pptest(args) -> int:
    ctx = None
    if (args.tee is not None and args.kay is not None) or args.m is not None:
        ctx = _build_ctx(args)
    fmap = _build_map(args.map, ctx)
    if args.export:
        _atomic_write(args.export, format_table_lines(fmap))
        print(f"exported table to {args.export}")

    mode, n, seed = _parse_mode(args.mode, args.seed)
    verdicts = []
    if args.method in ("exhaustive", "both"):
        verdicts.append(is_permutation_exhaustive(fmap))
    if args.method in ("charsum", "both"):
        verdicts.append(pp_verdict_charsum(fmap, mode=mode, n=n, seed=seed))

    for v in verdicts:
        for line in _verdict_lines(fmap.name, v):
            print(line)
    if args.method == "both":
        decided = [v.verdict for v in verdicts if v.verdict != "probable-permutation"]
        if len(set(decided)) > 1:
            print("METHOD DISAGREEMENT: exhaustive and character-sum verdicts differ")
            return EXIT_FAIL
        print("methods agree")
    return EXIT_OK if all(v.verdict != "not-permutation" for v in verdicts) else EXIT_FAIL


def _cmd_charsum(args) -> int:
    ctx = None
    if (args.tee is not None and args.kay is not None) or args.m is not None:
        ctx = _build_ctx(args)
    fmap = _build_map(args.map, ctx)
    if re.fullmatch("[0-9a-fA-F]+", args.a) is None:   # int(_, 16) also takes 0x, _, signs
        raise ConfigError(f"--a expects a hex element in ASCII digits, got {args.a!r}")
    a = int(args.a, 16)
    if not 0 <= a < fmap.ctx.order:
        raise ConfigError(f"--a {args.a} is outside GF(2^{fmap.ctx.m})")
    print(f"char_sum({fmap.name}, a={a:x}) = {char_sum(fmap, a)}")
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.tee is None or args.kay is None:
        raise ConfigError("search-L needs --t and --k")
    ctx = _build_ctx(args)
    try:
        candidates = search_L_candidates(ctx, args.budget)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lines = [f"family: {SEARCH_FAMILY}",
             f"budget: {args.budget}, accepted: {len(candidates)}"]
    for cand in candidates:
        status = "PP-verified" if cand.pp_verified else "PP-FAILED"
        lines.append(f"[{cand.index:4}] {cand.label:<24} {format_linpoly(cand.poly)} {status}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
        print(f"wrote {len(candidates)} candidate(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(c.pp_verified for c in candidates) else EXIT_FAIL


def _cmd_field_info(args) -> int:
    ctx = _build_ctx(args)
    print(f"m = {ctx.m} (field order {ctx.order})")
    if ctx.tower:
        t, k = ctx.tower
        print(f"tower: t={t}, k={k}, q={ctx.q} (field F_(q^3k) with subfield F_(q^k) "
              f"of order {1 << (t * k)})")
    print(f"modulus = {ctx.modulus:x} ({binpoly.pretty(ctx.modulus)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_ctx_flags(p: argparse.ArgumentParser, ranged: bool = False) -> None:
    p.add_argument("--t", dest="tee", type=(str if ranged else _decimal("t")), default=None,
                   help="tower base power t (q = 2^t)" + ("; N or LO..HI" if ranged else ""))
    p.add_argument("--k", dest="kay", type=(str if ranged else _decimal("k")), default=None,
                   help="tower parameter k" + ("; N or LO..HI" if ranged else ""))
    p.add_argument("--modulus-file", default=None,
                   help="modulus override file, lines of m:hex")


@functools.cache   # built once per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppverify",
        description="Verification lab for additive permutation maps over GF(2^m).")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="run a theorem verification battery")
    p.add_argument("theorem", nargs="?", choices=["thm1", "thm3"], default=None,
                   help="which construction; omit for the default smoke suite")
    _add_ctx_flags(p, ranged=True)
    p.add_argument("--L", default="builtin:L-note",
                   help="linearized map for thm3 (builtin:L-note or lin[i:hex,...])")
    p.add_argument("--mode", default=None, help="thm1's charsum row: all or sample:N[:SEED] "
                   f"(default all up to m = {CHARSUM_ALL_LIMIT_M}, sample:{DEFAULT_SAMPLES} above)")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", default=None, help="write reports here (atomic)")
    p.add_argument("--seed", type=_decimal("seed"), default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify, m=None)

    p = sub.add_parser("pptest", help="test one map for the permutation property")
    _add_ctx_flags(p)
    p.add_argument("--m", type=_decimal("m"), default=None, help="bare field degree (no tower)")
    p.add_argument("--map", required=True,
                   help="builtin:g-thm1 | builtin:L-note | builtin:g-thm3(L) | table file")
    p.add_argument("--method", choices=["exhaustive", "charsum", "both"], default="both")
    p.add_argument("--mode", default="all",
                   help="charsum mode: all (every nonzero a, the default) or sample:N[:SEED]")
    p.add_argument("--export", default=None, help="also export the map as a hex table")
    p.add_argument("--seed", type=_decimal("seed"), default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_pptest)

    p = sub.add_parser("charsum", help="one character sum for a single a")
    _add_ctx_flags(p)
    p.add_argument("--m", type=_decimal("m"), default=None, help="bare field degree (no tower)")
    p.add_argument("--map", required=True)
    p.add_argument("--a", required=True, help="the twist element, hex")
    p.set_defaults(func=_cmd_charsum)

    p = sub.add_parser("search-L", help="search the declared family of alternative L")
    _add_ctx_flags(p)
    p.add_argument("--budget", type=_decimal("budget"), default=256,
                   help="number of family members to examine")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_search, m=None)

    p = sub.add_parser("field-info", help="describe a field context")
    _add_ctx_flags(p)
    p.add_argument("--m", type=_decimal("m"), default=None, help="bare field degree (no tower)")
    p.set_defaults(func=_cmd_field_info)

    return parser


def _check_option_values(args) -> None:
    """Reject an option written as `--X=--`, which argparse parses as an empty list.

    No option of the parser takes a list, so a list is always this case;
    it would otherwise crash the command or be taken as the option unset.
    """
    for dest, value in vars(args).items():
        if isinstance(value, list):
            flag = {"tee": "t", "kay": "k"}.get(dest, dest).replace("_", "-")
            raise ConfigError(f"--{flag} expects a value, got '--'")


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)   # a decimal option's type raises ConfigError
        if not getattr(args, "command", None):
            parser.print_help()
            return EXIT_CONFIG
        _check_option_values(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    try:
        code = run()
    except SystemExit:
        raise
    except Exception:  # crash path, distinct from verification failure
        import traceback
        traceback.print_exc()
        sys.exit(EXIT_CRASH)
    sys.exit(code)


if __name__ == "__main__":
    main()
