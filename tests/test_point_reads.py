"""Point reads of the built-in maps and their bijection verdict, against oracles.

A map built from its parts (L's linear table and h's table on S's image)
is read at given x by `FieldMap.at`, and its bijection is decided on the
quotient by ker S from its values at the coset representatives
(`FieldMap.bijective`), so a passing check never fills its 2^m table.
`reference.g_block_direct` evaluates g with two `mul_block` products on
every x, and the `from_table` copy of a map, whose table is scattered
block by block, with `reference.first_collision` is the verdict's oracle.
"""

import random
import tracemalloc

import numpy as np
import pytest

from ppverify import (FieldCtx, LinearizedPoly, blocks, build_g_thm1, build_g_thm3,
                      build_L_note, is_permutation_exhaustive, verify_thm1, verify_thm3)
from ppverify.cli import run
from ppverify.constructions import rel_trace_poly
from ppverify.maps import FieldMap, _quotient, linearized_map
from ppverify.pptest import shift_checks
from ppverify.proofchecks import _check_case1

from reference import first_collision, g_block_direct, g_scalar

SMALL_TOWERS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]


def _random_L(ctx, rng):
    return LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])


def _maps(ctx, seed):
    """(g, L) for g1 (L None), g3 with L_note and g3 with a seeded random L."""
    L = _random_L(ctx, random.Random(seed))
    return [(build_g_thm1(ctx), None), (build_g_thm3(ctx, build_L_note(ctx)), build_L_note(ctx)),
            (build_g_thm3(ctx, L), L)]


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
def test_at_matches_direct_evaluation_on_every_x(t, k):
    ctx = FieldCtx.from_tower(t, k)
    xs = np.arange(ctx.order)
    rng = random.Random(t * 100 + k)
    for g, L in _maps(ctx, 10 * t + k):
        want = g_block_direct(ctx, xs, L)
        got = g.at(xs)
        assert got.dtype == np.uint32 and np.array_equal(got, want), g.name
        for y in (rng.randrange(ctx.order) for _ in range(3)):
            assert np.array_equal(g.at(xs ^ y), want[xs ^ y]), (g.name, y)
        reads = _quotient(*g._linear)[0]   # the kept read, and reads beside it
        for y in (0, 1, ctx.order - 1):
            assert np.array_equal(g.at(reads ^ y), want[reads ^ y]), (g.name, y)
        assert np.array_equal(g.at(reads), want[reads]), g.name
        assert [g(int(x)) for x in xs[:64]] == want[:64].tolist()
        assert g._table is None


@pytest.mark.parametrize("t,k", [(2, 3), (1, 6), (2, 4), (1, 8)], ids=str)
def test_at_matches_direct_evaluation_on_seeded_x_above_m12(t, k):
    ctx = FieldCtx.from_tower(t, k)
    rng = random.Random(t * 100 + k)
    xs = np.array([0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(4093)])
    ys = [rng.randrange(ctx.order) for _ in range(2)]
    for g, L in _maps(ctx, 10 * t + k):
        assert np.array_equal(g.at(xs), g_block_direct(ctx, xs, L)), g.name
        for y in ys:
            assert np.array_equal(g.at(xs ^ y), g_block_direct(ctx, xs ^ y, L)), (g.name, y)
        assert g._table is None


def test_one_value_at_m24_reads_no_table():
    # g(x) on one element used to fill the whole 2^24 table
    ctx = FieldCtx.from_tower(2, 4)
    g1, g3 = build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx))
    rng = random.Random(24)
    for x in [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(5)]:
        assert g1(x) == g_scalar(ctx, x)
        assert g3(np.int64(x)) == g_scalar(ctx, x, build_L_note(ctx))
    assert g1._table is None and g3._table is None


def test_point_reads_reject_non_integer_and_outside_inputs():
    ctx = FieldCtx.from_tower(2, 1)
    g1 = build_g_thm1(ctx)
    imported = FieldMap.from_table("t", ctx, g1.table())
    fresh = build_g_thm1(ctx)
    bad_types = [lambda: blocks.linear_table(rel_trace_poly(ctx))(np.array([True, False])),
                 lambda: blocks.linear_table(rel_trace_poly(ctx))(np.array([1.0, 2.0])),
                 lambda: blocks.trace_masks(ctx)(np.array([True])),
                 lambda: blocks.trace_masks(ctx)(np.array([0.5])),
                 lambda: fresh.at(np.array([True])), lambda: fresh.at([0.5]),
                 lambda: imported.at([0.5]),
                 lambda: _check_case1(fresh, build_L_note(ctx), [1.5], False)]
    for call in bad_types:
        with pytest.raises(TypeError, match="integer"):
            call()
    for call in (lambda: fresh.at([ctx.order]), lambda: fresh.at([-1]),
                 lambda: imported.at([ctx.order])):
        with pytest.raises(ValueError, match="outside the field range"):
            call()
    assert fresh._table is None
    # every integer dtype is taken as given
    xs = np.arange(ctx.order)
    for dtype in (np.uint8, np.int16, np.uint32, np.uint64):
        assert np.array_equal(fresh.at(xs.astype(dtype)), g1.table())
        assert np.array_equal(blocks.trace_masks(ctx)(xs.astype(dtype)),
                              blocks.trace_masks(ctx)(xs))


def test_at_no_x_is_an_empty_uint32_array():
    ctx = FieldCtx.from_tower(2, 1)
    g1 = build_g_thm1(ctx)
    for fmap in (g1, FieldMap.from_table("t", ctx, g1.table())):
        for xs in ([], np.array([], dtype=np.uint64)):
            got = fmap.at(xs)
            assert got.dtype == np.uint32 and got.shape == (0,), fmap.name


def _sweep_matches_the_table_oracle(g):
    verdict = is_permutation_exhaustive(g)        # on the quotient: the map has no table yet
    if verdict.verdict == "permutation":
        assert g._table is None, g.name
    table = g.table()
    assert verdict == is_permutation_exhaustive(FieldMap.from_table("t", g.ctx, table)), g.name
    pair = first_collision(table.tolist())
    assert verdict.witness == pair, g.name
    assert verdict.checks == (g.ctx.order if pair is None else pair[1] + 1), g.name
    return verdict.verdict


def _one_coset_moved(g):
    """g with h changed at one image point, so the coset of the second representative x0
    maps onto g's image of K: g'(x0 + u) = g(u), exactly one coset of L(K) is missed."""
    L, S = g._linear
    x0 = int(_quotient(L, S)[0][1])   # the read set starts with the representatives
    c0 = int(g._image.coords([x0])[0])
    values = g._image.values.copy()
    values[c0] = g(0) ^ int(blocks.linear_table(L)([x0])[0])
    return FieldMap(f"{g.name} moved", g.ctx, (L, S), blocks.ImageTable(S, lambda _: values))


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
def test_streamed_sweep_matches_the_table_sweep(t, k):
    # g1 permutes at q = 4; seeded random L mostly break condition (i) or (ii), so
    # non-permutations are among them
    ctx = FieldCtx.from_tower(t, k)
    rng = random.Random(t * 100 + k)
    maps = [build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx)),
            linearized_map(build_L_note(ctx), "L")]
    maps += [build_g_thm3(ctx, _random_L(ctx, rng)) for _ in range(6)]
    # an injective S = x^2: K = {0}, so every x is a representative and L is trivially
    # injective on K; h(s) = s^3, and x^6 permutes iff m is odd
    S = LinearizedPoly.frobenius_power(ctx, 1)
    assert not S.kernel_image()[0]
    maps += [FieldMap(f"L + x^6 #{i}", ctx, (L, S), blocks.image_product(S, (1,)))
             for i, L in enumerate([LinearizedPoly.zero(ctx), _random_L(ctx, rng)])]
    # L = 0 is not injective on g3's nonzero K = ker S, whatever g does at the representatives
    g_zero = build_g_thm3(ctx, LinearizedPoly.zero(ctx))
    assert g_zero._linear[1].kernel_image()[0]
    maps += [g_zero, _one_coset_moved(build_g_thm1(ctx))]
    verdicts = [_sweep_matches_the_table_oracle(g) for g in maps]
    assert verdicts[1:3] == ["permutation"] * 2 and "not-permutation" in verdicts[3:9]
    assert verdicts[0] == "permutation" or t != 2
    assert verdicts[9] == ("permutation" if ctx.m % 2 else "not-permutation")
    assert verdicts[11:] == ["not-permutation"] * 2


def test_bijection_of_a_linearized_map_with_the_whole_field_as_kernel():
    # S = 0, so K is the whole of GF(2^17) and 0 is the one representative: the verdict is
    # L's injectivity alone, so a singular L collides and the identity permutes
    ctx = FieldCtx(17)
    rng = random.Random(17)
    singular = []
    while len(singular) < 2:
        L = _random_L(ctx, rng)
        if L.kernel_image()[0]:
            singular.append(linearized_map(L, "singular"))
    maps = singular + [linearized_map(LinearizedPoly.identity(ctx), "id")]
    assert _quotient(*maps[0]._linear)[4] == ctx.order
    assert [_sweep_matches_the_table_oracle(g) for g in maps] == (
        ["not-permutation"] * 2 + ["permutation"])


def test_passing_sweep_of_a_built_in_map_reads_neither_blocks_nor_table(monkeypatch):
    def refuse(fmap):
        raise AssertionError(f"{fmap.name} read in x order")

    monkeypatch.setattr(FieldMap, "value_blocks", refuse)
    monkeypatch.setattr(FieldMap, "table", refuse)
    for t, k in [(2, 1), (2, 3)]:
        ctx = FieldCtx.from_tower(t, k)
        for g in (build_g_thm1(ctx), build_g_thm3(ctx, build_L_note(ctx)),
                  linearized_map(build_L_note(ctx), "L")):
            assert is_permutation_exhaustive(g).verdict == "permutation", g.name


def test_the_read_set_is_read_once_per_map(monkeypatch):
    # the bijection verdict, the Walsh bins and every shift's span share one read of the
    # read set; a shift y outside ker S also reads the map at its shifted set
    ctx = FieldCtx.from_tower(2, 2)
    g = build_g_thm3(ctx, build_L_note(ctx))
    reads = _quotient(*g._linear)[0]
    calls = []
    image = blocks.ImageTable.__call__
    monkeypatch.setattr(blocks.ImageTable, "__call__",
                        lambda table, xs: calls.append(xs is reads) or image(table, xs))
    values = g.at(reads)
    assert not values.flags.writeable and g.at(reads) is values
    assert np.array_equal(values, g_block_direct(ctx, reads, build_L_note(ctx)))
    is_permutation_exhaustive(g)
    g.walsh(np.arange(ctx.order))
    for y in (1, 2, 0x5a, ctx.order - 1):
        shift_checks(g, [1, 2, 3], y)
    assert calls.count(True) == 1 and calls[0] and len(calls) > 1


def test_a_field_map_needs_its_parts_or_its_table():
    ctx = FieldCtx.from_tower(2, 1)
    with pytest.raises(ValueError, match="FieldMap.from_table"):
        FieldMap("nothing", ctx, None, None)
    g1 = build_g_thm1(ctx)
    imported = FieldMap.from_table("t", ctx, g1.table())
    assert imported._linear is None and imported(5) == g1(5)
    assert np.array_equal(np.concatenate(list(imported.value_blocks())), g1.table())


def test_streamed_sweep_matches_the_table_sweep_at_m18():
    ctx = FieldCtx.from_tower(2, 3)
    rng = random.Random(18)
    assert _sweep_matches_the_table_oracle(build_g_thm1(ctx)) == "permutation"
    assert _sweep_matches_the_table_oracle(build_g_thm3(ctx, _random_L(ctx, rng))) == (
        "not-permutation")


@pytest.fixture
def built(monkeypatch):
    """The names of the maps whose 2^m table gets filled, in order."""
    names = []
    table = FieldMap.table

    def recording(fmap):
        if fmap._table is None:
            names.append(fmap.name)
        return table(fmap)

    monkeypatch.setattr(FieldMap, "table", recording)
    return names


def test_passing_verify_thm3_at_m18_builds_no_table(built):
    for t, k in [(1, 6), (2, 3)]:
        ctx = FieldCtx.from_tower(t, k)
        assert verify_thm3(ctx, build_L_note(ctx)).passed
    assert built == []


@pytest.mark.parametrize("spec", ["builtin:g-thm1", "builtin:g-thm3", "builtin:L-note"])
def test_pptest_both_on_a_built_in_map_builds_no_table(built, spec, capsys):
    assert run(["pptest", "--t", "2", "--k", "3", "--map", spec, "--method", "both"]) == 0
    assert "methods agree" in capsys.readouterr().out
    assert built == []


def test_passing_bijection_verdict_at_m24_reads_no_2m_array():
    # the 16 MB `seen` of a scatter alone is far above the bound: the verdict takes the
    # coordinates of g at the 2^16 representatives (three 512 KB intp arrays in the
    # lookup) and 2^16 bins; the quotient pieces and the kept read are the map's, shared
    # with walsh and span, so they are made before tracing starts
    ctx = FieldCtx.from_tower(2, 4)
    g = build_g_thm1(ctx)
    g.at(_quotient(*g._linear)[0])
    tracemalloc.start()
    try:
        verdict = is_permutation_exhaustive(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.verdict == "permutation" and verdict.checks == ctx.order
    assert peak < 2 << 20, peak


def test_verify_thm1_at_m24_stays_far_below_one_table():
    # the 2^24 uint32 table alone is 64 MB; the battery's traced peak stays under half of it
    ctx = FieldCtx.from_tower(2, 4)
    tracemalloc.start()
    try:
        report = verify_thm1(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 << 20, peak
