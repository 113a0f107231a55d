"""The Walsh spectrum through the quotient by K = ker S, against the histogram oracle.

A map with a linear part (L, S) reads its spectrum from bins built on the
2^(m - dim K) coset representatives of K = ker S; `FieldMap.from_table`
on the same values has no linear part and keeps the full 2^m histogram
spectrum, so the two come from independent routes and must agree bit for
bit at every mask.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from ppverify import (FieldCtx, LinearizedPoly, blocks, build_g_thm1, build_g_thm3,
                      build_L_note, char_sum)
from ppverify.cli import run
from ppverify.constructions import build_L1, s2k
from ppverify.maps import FieldMap, _quotient, linearized_map

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
    transform = blocks.walsh_transform

    def recording(w):
        lengths.append(len(w))
        transform(w)

    monkeypatch.setattr(blocks, "walsh_transform", recording)
    ctx = FieldCtx.from_tower(2, 3)
    masks = np.arange(ctx.order)
    for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx)),
              linearized_map(build_L_note(ctx), "L")):
        g.walsh(masks)
    assert lengths and max(lengths) < ctx.order
    lengths.clear()
    FieldMap.from_table("table", ctx, build_g_thm1(ctx).table()).walsh(masks)
    assert lengths == [ctx.order]
    assert not hasattr(FieldMap, "spectrum")   # walsh is the one Walsh entry point


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


def test_pptest_at_m24_stays_within_memory_budget():
    # A 2^m spectrum array (64 MB at m = 24) would break the bound.  The
    # command runs in a forked grandchild that reports its own peak:
    # RUSAGE_CHILDREN would return the largest child of the whole test
    # session, and an exec'ed child's RUSAGE_SELF still holds the peak of
    # the process it was started from, carried through exec.
    code = ("import os, resource\n"
            "if os.fork() == 0:\n"
            "    from ppverify.cli import run\n"
            "    code = run(['pptest', '--t', '2', '--k', '4', '--map', 'builtin:g-thm1',"
            " '--method', 'both'])\n"
            "    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)\n"
            "    os._exit(0)\n"
            "os.wait()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "methods agree" in proc.stdout, proc.stdout + proc.stderr[-2000:]
    code, peak_kb = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert int(peak_kb) < 140 * 1024, f"peak RSS {int(peak_kb) / 1024:.1f} MB"
