"""The g maps, the canonical L, condition (ii) and the candidate search."""

import random

import numpy as np
import pytest

from ppverify import (FieldCtx, LinearizedPoly, blocks, build_g_thm1, build_g_thm3,
                      build_L_note, check_condition_ii, is_permutation_exhaustive, permutes,
                      search_L_candidates)
from ppverify.constructions import build_L1, condition_ii_sides, rel_trace_poly, s2k
from ppverify.maps import FieldMap, format_table_lines, linearized_map, parse_table_file
from ppverify.proofchecks import _Thm1State

from reference import g_block_direct, g_scalar, s_power, s_power_block_direct

SIX_TOWERS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
ALL_TOWERS_M18 = [(t, k) for t in range(1, 7) for k in range(1, 7) if 3 * t * k <= 18]


def test_g1_fixes_zero_and_the_subfield():
    ctx = FieldCtx.from_tower(2, 1)
    g = build_g_thm1(ctx)
    assert g(0) == 0
    # S vanishes on F_{q^k}, so both correction terms drop out
    for z in ctx.enumerate_subfield(2):
        assert g(z) == z


def test_g1_is_permutation_of_f64():
    g = build_g_thm1(FieldCtx.from_tower(2, 1))
    assert is_permutation_exhaustive(g).verdict == "permutation"


@pytest.mark.parametrize("k", [1, 2])
def test_g1_bijection_at_q4(k):
    g = build_g_thm1(FieldCtx.from_tower(2, k))
    table = g.table()
    assert sorted(table.tolist()) == list(range(g.ctx.order))


def test_g1_scalar_and_block_paths_agree():
    ctx = FieldCtx.from_tower(2, 2)
    g = build_g_thm1(ctx)
    rng = random.Random(9)
    xs = np.array([rng.randrange(ctx.order) for _ in range(500)], dtype=np.int64)
    block = g.table()[xs]
    for x, y in zip(xs, block):
        assert g_scalar(ctx, int(x)) == int(y) == g(int(x))


def test_table_limit_and_on_demand_agreement():
    ctx = FieldCtx(19)
    frob3 = LinearizedPoly.frobenius_power(ctx, 3)
    L = linearized_map(frob3, "frob3")
    rng = random.Random(2)
    xs = np.array([rng.randrange(ctx.order) for _ in range(200)], dtype=np.int64)
    table = L.table()                 # m = 19 is tabled like every m <= 24, eight blocks
    assert table.dtype == np.uint32 and table.shape == (ctx.order,)
    for x, y in zip(xs, table[xs]):
        assert frob3(int(x)) == int(y) == L(int(x))


def test_explicit_and_parsed_tables_are_read_only_uint32(tmp_path):
    ctx = FieldCtx(4)
    squares = [ctx.sqr(x) for x in ctx.elements()]
    fmap = FieldMap.from_table("x^2", ctx, squares)
    path = tmp_path / "sq.txt"
    path.write_text("".join(format_table_lines(fmap)))
    for table in (fmap.table(), parse_table_file(str(path)).table()):
        assert table.dtype == np.uint32 and not table.flags.writeable
        assert table.tolist() == squares


def test_L_note_agrees_with_direct_power_form():
    # (x + S(x)^(q^2k))^(4 q^(3k-1)) computed with plain powers
    for t, k in [(2, 1), (1, 1), (1, 2)]:
        ctx = FieldCtx.from_tower(t, k)
        L = build_L_note(ctx)
        S = s2k(ctx)
        q = ctx.q
        outer = 4 * q ** (3 * k - 1)
        for x in ctx.elements():
            direct = ctx.pow(x ^ ctx.pow(S(x), q ** (2 * k)), outer)
            assert L(x) == direct


@pytest.mark.parametrize("k", [1, 2, 3])
def test_L1_satisfies_both_hypotheses_at_q4(k):
    # g1 is built as g3 with L = L1; at q = 4 that makes it an instance of theorem 3
    ctx = FieldCtx.from_tower(2, k)
    L1 = build_L1(ctx)
    assert permutes(L1, 2 * k)
    assert check_condition_ii(ctx, L1)


def test_L_note_additivity_spot_check():
    ctx = FieldCtx.from_tower(2, 2)
    L = build_L_note(ctx)
    rng = random.Random(4)
    for _ in range(500):
        x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert L(x ^ y) == L(x) ^ L(y)


@pytest.mark.parametrize("t,k", ALL_TOWERS_M18, ids=str)
def test_condition_ii_holds_for_L_note_all_towers(t, k):
    ctx = FieldCtx.from_tower(t, k)
    assert check_condition_ii(ctx, build_L_note(ctx))


def test_condition_ii_fails_for_identity():
    ctx = FieldCtx.from_tower(2, 1)
    ident = LinearizedPoly.identity(ctx)
    assert not check_condition_ii(ctx, ident)
    left, right = condition_ii_sides(ctx, ident)
    assert left.support() == [0, 4]
    assert right.support() == [2, 4]


def test_condition_ii_unchanged_by_adding_zero():
    ctx = FieldCtx.from_tower(2, 1)
    L = build_L_note(ctx) + LinearizedPoly.zero(ctx)
    assert check_condition_ii(ctx, L)


@pytest.mark.parametrize("t,k", [(1, 1), (2, 1), (1, 2), (2, 2)], ids=str)
def test_condition_ii_coefficients_match_pointwise_functional_check(t, k):
    ctx = FieldCtx.from_tower(t, k)
    S = s2k(ctx)
    candidates = [build_L_note(ctx), LinearizedPoly.identity(ctx),
                  LinearizedPoly.frobenius_power(ctx, 2)]
    rng = random.Random(k * 10 + t)
    candidates.append(LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)]))
    for L in candidates:
        coeff_eq = check_condition_ii(ctx, L)
        pointwise_eq = all(
            L(x) ^ ctx.frobenius(L(x), 2 * t * k) == ctx.pow(S(x), 4)
            for x in ctx.elements())
        assert coeff_eq == pointwise_eq


def test_g3_restricted_to_subfield_is_L():
    ctx = FieldCtx.from_tower(2, 1)
    L = build_L_note(ctx)
    g = build_g_thm3(ctx, L)
    for z in ctx.enumerate_subfield(2):
        assert g(z) == L(z)


def test_g3_smallest_instance_is_permutation():
    ctx = FieldCtx.from_tower(1, 1)
    g = build_g_thm3(ctx, build_L_note(ctx))
    table = [g(x) for x in ctx.elements()]
    assert sorted(table) == list(range(8))


def test_g1_and_g3_are_independent_bijections_on_f64():
    ctx = FieldCtx.from_tower(2, 1)
    g1 = build_g_thm1(ctx)
    g3 = build_g_thm3(ctx, build_L_note(ctx))
    assert is_permutation_exhaustive(g1).verdict == "permutation"
    assert is_permutation_exhaustive(g3).verdict == "permutation"


@pytest.mark.parametrize("t,k", SIX_TOWERS, ids=str)
def test_g3_bijection_on_the_six_towers(t, k):
    ctx = FieldCtx.from_tower(t, k)
    g = build_g_thm3(ctx, build_L_note(ctx))
    assert is_permutation_exhaustive(g).verdict == "permutation"


def test_g3_scalar_and_block_paths_agree():
    ctx = FieldCtx.from_tower(3, 1)
    L = build_L_note(ctx)
    table = build_g_thm3(ctx, L).table()
    for x in ctx.elements():
        assert g_scalar(ctx, x, L) == int(table[x])


@pytest.mark.parametrize("t,k", ALL_TOWERS_M18 + [(7, 1)], ids=str)
def test_image_tables_match_per_x_products(t, k):
    # every block of each table, up to 32 blocks of 2^16 at m = 21
    ctx = FieldCtx.from_tower(t, k)
    xs = np.arange(ctx.order, dtype=np.uint32)
    L = build_L_note(ctx)
    assert np.array_equal(build_g_thm1(ctx).table(), g_block_direct(ctx, xs))
    assert np.array_equal(build_g_thm3(ctx, L).table(), g_block_direct(ctx, xs, L))
    assert np.array_equal(_Thm1State(ctx).s_power.table(), s_power_block_direct(ctx, xs))


@pytest.mark.parametrize("t,k", [(7, 1), (2, 4)], ids=str)
def test_image_tables_match_scalar_oracles_above_m18(t, k):
    ctx = FieldCtx.from_tower(t, k)
    rng = random.Random(11)
    xs = np.array([0] + [rng.randrange(ctx.order) for _ in range(300)], dtype=np.int64)
    L = build_L_note(ctx)
    g1 = build_g_thm1(ctx).table()[xs]
    g3 = build_g_thm3(ctx, L).table()[xs]
    se = _Thm1State(ctx).s_power.table()[xs]
    for i, x in enumerate(xs.tolist()):
        assert int(g1[i]) == g_scalar(ctx, x)
        assert int(g3[i]) == g_scalar(ctx, x, L)
        assert int(se[i]) == s_power(ctx, x)


def test_g3_maps_share_one_image_table():
    ctx = FieldCtx.from_tower(2, 1)
    candidates = search_L_candidates(ctx, 256)
    assert len(candidates) >= 2
    for cand in candidates[:2]:
        table = build_g_thm3(ctx, cand.poly).table()
        assert table.tolist() == [g_scalar(ctx, x, cand.poly) for x in ctx.elements()]
    image_tables = [key for key in ctx._cache if key[0] == "image-product"]
    assert len(image_tables) == 1


def test_rel_trace_poly_matches_ctx_rel_trace():
    ctx = FieldCtx.from_tower(2, 1)
    T = rel_trace_poly(ctx)
    for x in ctx.elements():
        assert T(x) == ctx.rel_trace(x, 2)


def test_search_returns_L_note_first():
    ctx = FieldCtx.from_tower(1, 1)
    candidates = search_L_candidates(ctx, 1)
    assert len(candidates) == 1
    assert candidates[0].poly == build_L_note(ctx)
    assert candidates[0].pp_verified


def test_search_f8_all_candidates_give_bijections():
    ctx = FieldCtx.from_tower(1, 1)
    for cand in search_L_candidates(ctx, 64):
        g = build_g_thm3(ctx, cand.poly)
        assert sorted(g(x) for x in ctx.elements()) == list(range(8))


def test_search_accepted_candidates_satisfy_both_hypotheses():
    ctx = FieldCtx.from_tower(2, 1)
    candidates = search_L_candidates(ctx, 256)
    assert len(candidates) >= 2  # L_note plus at least one nontrivial twist
    S4 = s2k(ctx).then_frobenius(2)
    for cand in candidates:
        assert permutes(cand.poly, 2)
        left, _ = condition_ii_sides(ctx, cand.poly)
        assert left == S4
        assert cand.pp_verified


def test_search_budget_bounds_work():
    ctx = FieldCtx.from_tower(1, 1)
    with pytest.raises(ValueError):
        search_L_candidates(ctx, 0)
    assert all(cand.index < 3 for cand in search_L_candidates(ctx, 3))


def test_from_table_validation():
    ctx = FieldCtx(2)
    with pytest.raises(ValueError):
        FieldMap.from_table("bad", ctx, [0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        FieldMap.from_table("bad", ctx, [0, 1, 2, 4])  # out of range
    fmap = FieldMap.from_table("ok", ctx, [0, 1, 3, 2])
    assert [fmap(x) for x in ctx.elements()] == [0, 1, 3, 2]
