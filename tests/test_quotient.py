"""The Walsh spectrum through the quotient by K = ker S, against the histogram oracle.

A map with a linear part (L, S) takes its spectrum from the 2^(m - dim K)
coset representatives of K = ker S; `FieldMap.from_table` on the same
values has no linear part and takes the full 2^m histogram, so the two
spectra come from independent routes and must agree bit for bit.
"""

import random

import numpy as np
import pytest

from ppverify import (FieldCtx, LinearizedPoly, blocks, build_g_thm1, build_g_thm3,
                      build_L_note)
from ppverify.cli import run
from ppverify.constructions import build_L1, s2k
from ppverify.maps import FieldMap, linearized_map

SMALL_TOWERS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]
TOWERS_M18_M21 = [(1, 6), (2, 3), (3, 2), (6, 1), (1, 7), (7, 1)]


def _oracle(fmap):
    return FieldMap.from_table("oracle", fmap.ctx, fmap.table()).spectrum()


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
    for L in _test_polys(ctx, 100 * t + k):
        for fmap in (build_g_thm3(ctx, L), linearized_map(L, "L")):
            w = fmap.spectrum()
            assert w.dtype == np.int32 and not w.flags.writeable
            assert np.array_equal(w, _oracle(fmap)), (fmap.name, L)


@pytest.mark.parametrize("t,k", TOWERS_M18_M21, ids=str)
def test_quotient_spectrum_of_g1_and_g3_at_m18_and_m21(t, k):
    ctx = FieldCtx.from_tower(t, k)
    for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx))):
        assert np.array_equal(g.spectrum(), _oracle(g)), g.name


def test_quotient_spectrum_of_g1_at_m24():
    g1 = build_g_thm1(FieldCtx.from_tower(2, 4))
    assert np.array_equal(g1.spectrum(), _oracle(g1))


def test_quotient_route_never_transforms_the_whole_field(monkeypatch):
    lengths = []
    transform = blocks.walsh_transform

    def recording(w):
        lengths.append(len(w))
        transform(w)

    monkeypatch.setattr(blocks, "walsh_transform", recording)
    ctx = FieldCtx.from_tower(2, 3)
    for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx)),
              linearized_map(build_L_note(ctx), "L")):
        g.spectrum()
    assert lengths and max(lengths) < ctx.order
    lengths.clear()
    FieldMap.from_table("table", ctx, build_g_thm1(ctx).table()).spectrum()
    assert lengths == [ctx.order]


def test_quotient_pieces_are_cached_on_the_context():
    ctx = FieldCtx.from_tower(2, 2)
    S = s2k(ctx)
    build_g_thm1(ctx).spectrum()
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
