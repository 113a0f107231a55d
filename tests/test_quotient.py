"""The Walsh spectrum, the Case-1 shifts and the eq23 span through the quotient by K = ker S.

A map with a linear part (L, S) reads its spectrum from bins built on the
2^(m - dim K) coset representatives of K = ker S; `FieldMap.from_table`
on the same values has no linear part and keeps the full 2^m histogram
spectrum, so the two come from independent routes and must agree bit for
bit at every mask.  The same holds for the proof rows: `FieldMap.span`
reads the shift differences and the eq23 pairs at the coset
representatives and K's basis, while the `from_table` copies read them at
every x, which is the oracle.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from ppverify import (FieldCtx, LinearizedPoly, blocks, build_g_thm1, build_g_thm3,
                      build_L_note, char_sum, gf2linalg, verify_thm1, verify_thm3)
from ppverify.cli import run
from ppverify.constructions import build_L1, s2k
from ppverify.maps import FieldMap, _quotient, linearized_map
from ppverify.pptest import shift_check, shift_checks
from ppverify.proofchecks import (_case_split, _check_eq23_batch, _check_factorization_batch,
                                  _eq23_basis)
from reference import s_power_table, shift_checks_gather

SMALL_TOWERS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]
TOWERS_M18_M21 = [(1, 6), (2, 3), (3, 2), (6, 1), (1, 7), (7, 1)]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _oracle(fmap):
    return FieldMap.from_table("oracle", fmap.ctx, fmap.table())


def _test_polys(ctx, seed):
    """L_note, L1, L zero on K (zero, and a random map after S), and seeded random L."""
    rng = random.Random(seed)

    def rand():
        return LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])

    polys = [build_L_note(ctx), build_L1(ctx), LinearizedPoly.zero(ctx), rand().compose(s2k(ctx))]
    return polys + [rand() for _ in range(8)]


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
def test_quotient_spectrum_matches_histogram_oracle(t, k):
    ctx = FieldCtx.from_tower(t, k)
    masks = np.arange(ctx.order)
    for L in _test_polys(ctx, 100 * t + k):
        for fmap in (build_g_thm3(ctx, L), linearized_map(L, "L")):
            w = fmap.walsh(masks)
            assert w.dtype == np.int32 and not fmap._walsh_bins().flags.writeable
            assert np.array_equal(w, _oracle(fmap).walsh(masks)), (fmap.name, L)


def _check_seeded_masks(t, k):
    """g1, g3 with L_note and g3 with a seeded L against the oracle, at masks in and off span(N)."""
    ctx = FieldCtx.from_tower(t, k)
    rng = np.random.default_rng(ctx.m * 100 + t)
    rand_L = LinearizedPoly(ctx, rng.integers(0, ctx.order, ctx.m).tolist())
    for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx)), build_g_thm3(ctx, rand_L)):
        _, _, pivot_bits, span_n, _ = _quotient(*g._linear)
        masks = np.concatenate([[0, ctx.order - 1], span_n[rng.integers(0, span_n.size, 4096)],
                                rng.integers(0, ctx.order, 4096)])
        inside = span_n[pivot_bits(masks).astype(np.intp)] == masks
        assert inside.sum() > 4096 and not inside.all()
        assert np.array_equal(g.walsh(masks), _oracle(g).walsh(masks)), g.name
    for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx))):   # L injective on K
        assert g._walsh_bins().size == 1 << (2 * ctx.m // 3)


@pytest.mark.parametrize("t,k", TOWERS_M18_M21, ids=str)
def test_quotient_spectrum_of_g1_and_g3_at_m18_and_m21(t, k):
    _check_seeded_masks(t, k)


def test_quotient_spectrum_of_g1_at_m24():
    _check_seeded_masks(2, 4)


def test_quotient_route_never_transforms_the_whole_field(monkeypatch):
    lengths = []
    transform = blocks.walsh

    def recording(indices, bits):
        lengths.append(1 << bits)
        return transform(indices, bits)

    monkeypatch.setattr(blocks, "walsh", recording)
    ctx = FieldCtx.from_tower(2, 3)
    masks = np.arange(ctx.order)
    for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx)),
              linearized_map(build_L_note(ctx), "L")):
        g.walsh(masks)
    assert lengths and max(lengths) < ctx.order
    # the Case-2 factorization row: g's bins, then the trace-zero and subfield sums
    _, case2, _ = _case_split(ctx, 1729)
    for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx))):
        lengths.clear()
        assert _check_factorization_batch(g, case2, None).passed
        assert len(lengths) == 3 and max(lengths) <= 1 << (2 * ctx.m // 3), g.name
    lengths.clear()
    FieldMap.from_table("table", ctx, build_g_thm1(ctx).table()).walsh(masks)
    assert lengths == [ctx.order]
    assert not hasattr(FieldMap, "spectrum")   # walsh is the one Walsh entry point
    assert not hasattr(blocks, "signed_parity_sums")


def test_quotient_pieces_are_cached_on_the_context():
    ctx = FieldCtx.from_tower(2, 2)
    S = s2k(ctx)
    build_g_thm1(ctx).walsh(np.arange(ctx.order))
    assert ("quotient", build_L1(ctx).coeffs, S.coeffs) in ctx._cache
    assert S.kernel_image() is ctx._cache[("kernel-image", S.coeffs)]


# `pptest --method both` on g3 with L = 0: a non-permutation whose sums are
# nonzero, so both witnesses are printed (outputs of the histogram route).
ZERO_L_OUTPUT = """\
builtin:g-thm3: not-permutation (method=exhaustive, checks=2)
  collision: f(0) = f(1)
builtin:g-thm3: not-permutation (method=charsum-all, checks=1)
  witness: char_sum(a=1) = {s}
methods agree
"""


@pytest.mark.parametrize("spec", ["lin[]", "lin[0:0]"])
@pytest.mark.parametrize("t,k,s", [(1, 1, -4), (1, 2, 16), (2, 1, 16), (1, 4, 256), (2, 2, 256),
                                   (2, 3, 4096)], ids=str)
def test_pptest_both_on_zero_L_keeps_its_witnesses(capsys, spec, t, k, s):
    argv = ["pptest", "--t", str(t), "--k", str(k), "--map", f"builtin:g-thm3({spec})",
            "--method", "both"]
    assert run(argv) == 1
    assert capsys.readouterr().out == ZERO_L_OUTPUT.format(s=s)


def test_pptest_both_on_a_failing_L_keeps_its_witnesses(capsys):
    argv = ["pptest", "--t", "2", "--k", "3", "--map", "builtin:g-thm3(lin[1:1])",
            "--method", "both"]
    assert run(argv) == 1
    assert capsys.readouterr().out == (
        "builtin:g-thm3: not-permutation (method=exhaustive, checks=1429)\n"
        "  collision: f(26f) = f(594)\n"
        "builtin:g-thm3: not-permutation (method=charsum-all, checks=6)\n"
        "  witness: char_sum(a=6) = -4096\n"
        "methods agree\n")


@pytest.mark.parametrize("x", [-1, 64, 1 << 40])
def test_fieldmap_call_rejects_an_element_outside_the_field(x):
    g1 = build_g_thm1(FieldCtx.from_tower(2, 1))
    with pytest.raises(ValueError, match=r"outside the field range \[0, 2\^6\)"):
        g1(x)
    assert g1(63) == int(g1.table()[63])


@pytest.mark.parametrize("bad", [-1, 64])
def test_char_sum_and_walsh_reject_values_outside_the_field(bad):
    ctx = FieldCtx.from_tower(2, 1)
    g1 = build_g_thm1(ctx)
    message = r"outside the field range \[0, 2\^6\)"
    for f in (g1, FieldMap.from_table("table", ctx, g1.table())):
        for a in (bad, [1, bad, 2], np.array([[5], [bad]])):
            with pytest.raises(ValueError, match=message):
                char_sum(f, a)
            with pytest.raises(ValueError, match=message):
                f.walsh(a)
        assert char_sum(f, [1, 63]).tolist() == [0, 0]
    with pytest.raises(ValueError, match=message):
        ctx.trace_mask(bad)


def _run_in_grandchild(argv):
    """(stdout, exit code, peak RSS in KB) of the CLI run on argv in a forked grandchild.

    The grandchild reports its own peak: RUSAGE_CHILDREN would return the
    largest child of the whole test session, and an exec'ed child's
    RUSAGE_SELF still holds the peak of the process it was started from,
    carried through exec.
    """
    code = ("import os, resource\n"
            "if os.fork() == 0:\n"
            "    from ppverify.cli import run\n"
            f"    code = run({argv!r})\n"
            "    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)\n"
            "    os._exit(0)\n"
            "os.wait()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, peak_kb = proc.stdout.splitlines()[-1].split()
    return proc.stdout, int(code), int(peak_kb)


def test_pptest_at_m24_stays_within_memory_budget():
    # A 2^m spectrum array (64 MB at m = 24) would break the bound.
    out, code, peak_kb = _run_in_grandchild(["pptest", "--t", "2", "--k", "4", "--map",
                                             "builtin:g-thm1", "--method", "both"])
    assert "methods agree" in out, out
    assert code == 0
    assert peak_kb < 140 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


def test_verify_thm1_at_m24_stays_within_memory_budget():
    # The 2^m S^E table (64 MB at m = 24) would break the bound; eq23 reads S^E on
    # the coset representatives of ker S only.
    out, code, peak_kb = _run_in_grandchild(["verify", "thm1", "--k", "4"])
    assert code == 0 and "[PASS] thm1 t=2 k=4 m=24 overall" in out, out
    assert peak_kb < 140 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


# ---------------------------------------------------------------------------
# Case-1 shifts and the eq23 span, against the full table passes
# ---------------------------------------------------------------------------

def _row_maps(ctx, seed):
    """g1, g3 with L_note and g3 with a seeded random L (which fails eq23)."""
    rng = random.Random(seed)
    rand_L = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
    return [build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx)), build_g_thm3(ctx, rand_L)]


def _check_eq23_routes(t, k):
    """The eq23 basis and row through the quotient against the from_table copy of g."""
    ctx = FieldCtx.from_tower(t, k)
    _, case2, _ = _case_split(ctx, 1729)
    statuses = []
    for g in _row_maps(ctx, 10 * t + k):
        oracle = _oracle(g)
        assert _eq23_basis(g) == _eq23_basis(oracle), g.name
        got, want = (_check_eq23_batch(f, case2, None) for f in (g, oracle))
        assert (got.status, got.count, got.counterexample) == \
            (want.status, want.count, want.counterexample)
        statuses.append(got.status)
    assert statuses[1:] == ["pass", "fail"]
    assert statuses[0] == ("pass" if t == 2 else "fail")   # g1's rewrite holds at q = 4 only


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
def test_eq23_span_through_the_quotient_matches_the_table_pass(t, k):
    _check_eq23_routes(t, k)


@pytest.mark.parametrize("t,k", [(2, 3), (6, 1), (1, 7), (2, 4)], ids=str)
def test_eq23_span_through_the_quotient_matches_the_table_pass_above_m12(t, k):
    _check_eq23_routes(t, k)


@pytest.fixture
def span_reads(monkeypatch):
    """The number of points each `blocks.span_basis` call reads, in call order."""
    read = []
    span_basis = blocks.span_basis

    def recording(vector_blocks, width):
        vector_blocks = list(vector_blocks)
        read.append(sum(len(v) for v in vector_blocks))
        return span_basis(vector_blocks, width)

    monkeypatch.setattr(blocks, "span_basis", recording)
    return read


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
def test_eq23_basis_of_every_route_matches_the_echelon_of_every_pair(t, k, span_reads):
    # g1 and g3 span_reads the pairs (g(x), S^E(x)) at the coset representatives of K = ker S and
    # K's basis; a from_table copy reads every x, and so does a linearized map, whose
    # linear part has S = 0 and is rewrapped as a table.  S^E here is s_power_block_direct.
    ctx = FieldCtx.from_tower(t, k)
    m, xs = ctx.m, np.arange(ctx.order)
    se = s_power_table(ctx)
    quotient_reads = (1 << (m - t * k)) + t * k
    maps = [(g, quotient_reads) for g in _row_maps(ctx, 10 * t + k)]
    maps += [(linearized_map(L, "L"), ctx.order) for L in (build_L1(ctx), build_L_note(ctx))]
    for g, reads in maps + [(_oracle(g), ctx.order) for g, _ in maps]:
        table = g.table()
        want = gf2linalg.echelon(np.unique(np.left_shift(se, m, dtype=np.uint64) | table).tolist())
        span_reads.clear()
        assert _eq23_basis(g) == want, g.name
        assert span_reads == [reads], g.name


@pytest.mark.parametrize("t,k", SMALL_TOWERS + [(2, 3), (1, 6)], ids=str)
def test_shift_checks_through_ker_s_match_the_table_pass(t, k):
    # every y in K = F_{q^k}, where D is constant, and seeded y outside K, against every x
    ctx = FieldCtx.from_tower(t, k)
    rng = random.Random(t * 100 + k)
    kernel = ctx.enumerate_subfield(t * k).tolist()
    outside = [y for y in (rng.randrange(ctx.order) for _ in range(8)) if y not in kernel][:4]
    a_values = (np.arange(ctx.order) if ctx.m <= 12 else
                np.array([rng.randrange(ctx.order) for _ in range(512)]))
    for g in _row_maps(ctx, 10 * t + k):
        oracle = _oracle(g)
        for y in kernel + outside:
            got = shift_checks(g, a_values, y)
            assert np.array_equal(got, shift_checks(oracle, a_values, y)), (g.name, y)
            assert (got >= 0).all() or y not in kernel


@pytest.mark.parametrize("t,k", [(7, 1), (2, 4)], ids=str)
def test_shift_checks_outside_ker_s_match_the_gather_oracle_above_m12(t, k):
    # seeded y outside K, read at the coset representatives, against every x of the table
    ctx = FieldCtx.from_tower(t, k)
    rng = random.Random(t * 100 + k)
    kernel = set(ctx.enumerate_subfield(t * k).tolist())
    ys = [y for y in (rng.randrange(ctx.order) for _ in range(8)) if y not in kernel][:4]
    a_values = [1, ctx.order - 1] + [rng.randrange(1, ctx.order) for _ in range(62)]
    for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx))):
        for y in ys:
            got = shift_checks(g, a_values, y)
            assert np.array_equal(got, shift_checks_gather(g, a_values, y)), (g.name, y)
            assert (got == -1).any()


def test_shift_checks_take_the_pass_where_the_table_disagrees_with_the_linear_part():
    # one flipped entry at x = y in K breaks g(x + u) = g(x) + L(u) at x in {0, y} only:
    # D + D(0) reads 1 at every other x, the nonzero coset representatives among them, so
    # the span read through the linear part is still the span over every x
    ctx = FieldCtx.from_tower(2, 2)
    g = build_g_thm1(ctx)
    y = int(ctx.enumerate_subfield(4)[3])
    table = g.table().copy()
    table[y] ^= 1
    liar = FieldMap("liar", ctx, lambda start, n: table[start:start + n], g._linear)
    a_values = np.arange(ctx.order)
    got = shift_checks(liar, a_values, y)
    assert np.array_equal(got, shift_checks(FieldMap.from_table("t", ctx, table), a_values, y))
    assert (got == -1).any()


def test_built_in_maps_never_reach_the_shift_pass(span_reads):
    # every span g1 or g3 takes reads 2^(m - dim K) + dim K points, for y in K and outside
    # it and in whole batteries; a from_table copy reads every x
    for t, k in [(2, 2), (1, 4), (2, 3)]:
        ctx = FieldCtx.from_tower(t, k)
        bound = (1 << (ctx.m - t * k)) + t * k
        rng = random.Random(t * 100 + k)
        kernel = ctx.enumerate_subfield(t * k).tolist()
        outside = [y for y in (rng.randrange(ctx.order) for _ in range(8)) if y not in kernel][:4]
        assert len(outside) == 4
        for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx))):
            for y in kernel + outside:
                span_reads.clear()
                shift_check(g, 1, y)
                assert span_reads and max(span_reads) <= bound, (g.name, y, span_reads)
            span_reads.clear()
            shift_check(_oracle(g), 1, outside[0])
            assert span_reads == [ctx.order]
    span_reads.clear()
    assert verify_thm1(FieldCtx.from_tower(2, 3)).passed
    assert span_reads and max(span_reads) <= (1 << 12) + 6
    for t, k in [(1, 6), (2, 2)]:
        ctx = FieldCtx.from_tower(t, k)
        span_reads.clear()
        assert verify_thm3(ctx, build_L_note(ctx)).passed
        assert span_reads and max(span_reads) <= (1 << (ctx.m - t * k)) + t * k


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
def test_fieldmap_span_matches_the_echelon_of_every_value(t, k):
    # the shift differences (y in K and outside it) and the eq23 pairs, on g1, g3 and g3
    # with a seeded L, against gf2linalg.echelon of V at every x and the from_table route
    ctx = FieldCtx.from_tower(t, k)
    m, xs = ctx.m, np.arange(ctx.order)
    rng = random.Random(t * 100 + k)
    kernel = ctx.enumerate_subfield(t * k).tolist()
    outside = [y for y in (rng.randrange(ctx.order) for _ in range(8)) if y not in kernel][:4]
    for g in _row_maps(ctx, 10 * t + k):
        table, se = g.table(), s_power_table(ctx)
        values = [(lambda v, y=y: table[v] ^ table[v ^ y] ^ table[0] ^ table[y], m)
                  for y in kernel[1:3] + outside]
        values.append((lambda v: np.left_shift(se[v], m, dtype=np.uint64) | table[v], 2 * m))
        for values_at, width in values:
            want = gf2linalg.echelon(np.unique(values_at(xs)).tolist())
            assert g.span(values_at, width) == want, g.name
            assert _oracle(g).span(values_at, width) == want, g.name


def test_passing_verify_thm1_at_m18_builds_no_s_power_table(monkeypatch):
    # the battery fills g's table alone; the 2^m S^E table is built only to name the x
    # of a failing eq23 a
    built = []
    table = FieldMap.table

    def recording(fmap):
        if fmap._table is None:
            built.append(fmap.name)
        return table(fmap)

    monkeypatch.setattr(FieldMap, "table", recording)
    ctx = FieldCtx.from_tower(2, 3)
    assert verify_thm1(ctx).passed
    assert built == ["builtin:g-thm1"]
    _, case2, _ = _case_split(ctx, 1729)
    values = build_g_thm1(ctx).table().copy()
    values[5] ^= 1 << 7
    mutant = FieldMap.from_table("mutant", ctx, values)
    failing = [a for a in case2 if ctx.trace_mask(a) >> 7 & 1][:1]
    built.clear()
    assert not _check_eq23_batch(mutant, failing, None).passed
    assert built == ["S^E"]
