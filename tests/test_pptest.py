"""The two permutation criteria, the shift lemma and the Case-1 witness."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppverify import (FieldCtx, LinearizedPoly, blocks, build_g_thm1, build_g_thm3, build_L_note,
                      char_sum, find_case1_witness, is_permutation_exhaustive,
                      pp_verdict_charsum, shift_check)
from ppverify.maps import FieldMap, linearized_map
from ppverify.pptest import PPVerdict, _char_sums, shift_checks

from reference import (abs_trace, char_sum_definitional, char_sums_masked, first_collision,
                       frobenius_product, power, rel_trace, shift_check_sweep,
                       shift_checks_gather, subfield_trace, walsh_spectrum_levels)


def cube_map_f4():
    ctx = FieldCtx(2)
    return FieldMap.from_table("x^3", ctx, [power(ctx, x, 3) for x in range(ctx.order)])


def test_exhaustive_identity_and_squaring():
    ctx = FieldCtx(5)
    ident = linearized_map(LinearizedPoly.identity(ctx), "id")
    assert is_permutation_exhaustive(ident).verdict == "permutation"
    sq = FieldMap.from_table("x^2", ctx, [ctx.sqr(x) for x in range(ctx.order)])
    assert is_permutation_exhaustive(sq).verdict == "permutation"


def test_exhaustive_cube_in_f4_with_first_witness():
    # x^3 = 1 for every nonzero x in F_4: values are 0,1,1,1
    verdict = is_permutation_exhaustive(cube_map_f4())
    assert verdict.verdict == "not-permutation"
    assert verdict.witness == (1, 2)


def test_negative_verdicts_carry_witnesses():
    with pytest.raises(ValueError):
        PPVerdict("not-permutation", "exhaustive", 4)


def test_char_sum_at_zero_is_field_order():
    ctx = FieldCtx(6)
    ident = linearized_map(LinearizedPoly.identity(ctx), "id")
    assert char_sum(ident, 0) == 64


def test_char_sum_identity_vanishes_for_nonzero_a():
    ctx = FieldCtx(6)
    ident = linearized_map(LinearizedPoly.identity(ctx), "id")
    for a in range(1, 64):
        assert char_sum(ident, a) == 0


def test_char_sum_cube_f4():
    # enumerate x in {0, 1, w, w^2}: terms +1, -1, -1, -1
    cube = cube_map_f4()
    omega = 2
    assert abs_trace(cube.ctx, omega) == 1
    assert char_sum(cube, omega) == -2


def test_char_sum_matches_definitional_oracle():
    ctx = FieldCtx.from_tower(2, 1)
    g = build_g_thm1(ctx)
    rng = random.Random(15)
    table = [rng.randrange(ctx.order) for _ in range(ctx.order)]
    messy = FieldMap.from_table("random", ctx, table)
    for fmap in (g, messy):
        for a in (0, 1, 7, 33, 63):
            assert char_sum(fmap, a) == char_sum_definitional(fmap, a)


def test_char_sum_parity():
    ctx = FieldCtx(4)
    rng = random.Random(8)
    table = [rng.randrange(16) for _ in range(16)]
    fmap = FieldMap.from_table("random", ctx, table)
    for a in range(ctx.order):
        assert char_sum(fmap, a) % 2 == 0  # same parity as 2^m


@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_char_sum_orthogonality(m):
    # summing over all a counts zeros of f, scaled by the field order
    ctx = FieldCtx(m)
    rng = random.Random(m * 7)
    table = [rng.randrange(ctx.order) for _ in range(ctx.order)]
    fmap = FieldMap.from_table("random", ctx, table)
    total = sum(char_sum(fmap, a) for a in range(ctx.order))
    zeros = sum(1 for v in table if v == 0)
    assert total == ctx.order * zeros


def test_charsum_verdict_g1_all_sums_zero():
    g = build_g_thm1(FieldCtx.from_tower(2, 1))
    verdict = pp_verdict_charsum(g, mode="all")
    assert verdict.verdict == "permutation"
    assert verdict.checks == 63


def test_charsum_verdict_cube_f4():
    # witness is the first a in enumeration order with a nonzero sum;
    # for x^3 that is a=1 (values 0,1,1,1 all have trace 0, sum +4),
    # while a=omega and a=omega^2 both give -2
    cube = cube_map_f4()
    verdict = pp_verdict_charsum(cube, mode="all")
    assert verdict.verdict == "not-permutation"
    assert verdict.witness == (1, 4)
    assert char_sum(cube, 2) == -2
    assert char_sum(cube, 3) == -2


def test_charsum_sample_is_deterministic():
    g = build_g_thm1(FieldCtx.from_tower(2, 1))
    v1 = pp_verdict_charsum(g, mode="sample", n=20, seed=42)
    v2 = pp_verdict_charsum(g, mode="sample", n=20, seed=42)
    assert v1 == v2
    assert v1.verdict == "probable-permutation"
    bad = pp_verdict_charsum(cube_map_f4(), mode="sample", n=5, seed=42)
    bad2 = pp_verdict_charsum(cube_map_f4(), mode="sample", n=5, seed=42)
    assert bad == bad2
    assert bad.verdict == "not-permutation"


def test_charsum_all_cost_gate():
    # the blocked pass removed the m > 14 cost gate: at m = 15 mode all
    # runs with no override and mode sample still works beside it
    ctx = FieldCtx.from_tower(1, 5)  # m = 15
    g = linearized_map(LinearizedPoly.identity(ctx), "id")
    assert pp_verdict_charsum(g, mode="all") == PPVerdict("permutation", "charsum-all",
                                                          (1 << 15) - 1)
    verdict = pp_verdict_charsum(g, mode="sample", n=8, seed=1)
    assert verdict.verdict == "probable-permutation"


def test_charsum_all_gate_override():
    # the allow_large override is gone; the m = 15 all-a verdict and count
    # it used to unlock come from a plain mode-all call
    ctx = FieldCtx(15)
    ident = linearized_map(LinearizedPoly.identity(ctx), "id")
    with pytest.raises(TypeError):
        pp_verdict_charsum(ident, mode="all", allow_large=True)
    verdict = pp_verdict_charsum(ident, mode="all")
    assert verdict.verdict == "permutation"
    assert verdict.checks == (1 << 15) - 1


def test_charsum_rejects_unknown_mode():
    g = build_g_thm1(FieldCtx.from_tower(2, 1))
    with pytest.raises(ValueError):
        pp_verdict_charsum(g, mode="everything")


def test_oracle_equivalence_on_seeded_tables():
    # both criteria agree on arbitrary function tables (exact, both ways)
    ctx = FieldCtx(4)
    rng = random.Random(1234)
    for trial in range(60):
        if trial % 3 == 0:
            table = list(range(16))
            rng.shuffle(table)
        else:
            table = [rng.randrange(16) for _ in range(16)]
        fmap = FieldMap.from_table(f"t{trial}", ctx, table)
        ex = is_permutation_exhaustive(fmap).verdict
        cs = pp_verdict_charsum(fmap, mode="all").verdict
        assert ex == cs


def test_shift_check_zero_shift():
    g = build_g_thm1(FieldCtx.from_tower(2, 1))
    assert shift_check(g, 5, 0) == 0


def test_shift_check_case1_witness_gives_constant_one():
    ctx = FieldCtx.from_tower(2, 1)
    g = build_g_thm1(ctx)
    for a in range(ctx.order):
        if a and rel_trace(ctx, a, 2) != 0:
            y = find_case1_witness(ctx, a)
            assert shift_check(g, a, y) == 1
            # shift-difference lemma: constant 1 forces a vanishing sum
            assert char_sum(g, a) == 0


def test_shift_check_not_constant():
    cube = cube_map_f4()
    for y in (1, 2, 3):
        assert shift_check(cube, 2, y) is None


def test_find_case1_witness_for_a_equals_one():
    ctx = FieldCtx.from_tower(2, 1)
    # rel_trace(1) = 1 + 1 + 1 = 1 in characteristic 2
    assert rel_trace(ctx, 1, 2) == 1
    y = find_case1_witness(ctx, 1)
    subfield = ctx.enumerate_subfield(2)
    expected = next(z for z in subfield if subfield_trace(ctx, z, 2) == 1)
    assert y == expected
    assert y not in (0, 1)  # 0 and 1 have subfield trace 0 in F_4


def test_find_case1_witness_rejects_case2_a():
    ctx = FieldCtx.from_tower(2, 1)
    case2_a = next(a for a in range(1, 64) if rel_trace(ctx, a, 2) == 0)
    with pytest.raises(ValueError, match="Case 2"):
        find_case1_witness(ctx, case2_a)


def one_collision_mutant(fmap, x1, x2):
    """The table of fmap with g(x2) overwritten by g(x1)."""
    table = fmap.table().copy()
    table[x2] = table[x1]
    return FieldMap.from_table(f"{fmap.name}-mutant", fmap.ctx, table)


def test_char_sums_match_masked_sweep_for_all_a_at_m12():
    ctx = FieldCtx.from_tower(2, 2)
    g1 = build_g_thm1(ctx)
    g3 = build_g_thm3(ctx, build_L_note(ctx))
    a_values = list(range(ctx.order))
    for fmap in (g1, g3, one_collision_mutant(g1, 100, 3000)):
        assert _char_sums(fmap, a_values) == char_sums_masked(fmap, a_values)


def test_char_sums_match_definitional_for_all_a_at_m6():
    ctx = FieldCtx.from_tower(2, 1)
    g1 = build_g_thm1(ctx)
    for fmap in (g1, one_collision_mutant(g1, 5, 40)):
        assert _char_sums(fmap, list(range(ctx.order))) == [
            char_sum_definitional(fmap, a) for a in range(ctx.order)]


def test_spectrum_is_exact_int32_and_read_only():
    ctx = FieldCtx.from_tower(2, 2)
    g1 = build_g_thm1(ctx)
    w = g1.walsh(np.arange(ctx.order))
    assert w.dtype == np.int32 and w.shape == (ctx.order,)
    assert w[0] == ctx.order            # every value counted once at M = 0
    assert not g1._walsh_bins().flags.writeable   # the cached bins
    # Parseval: the squared spectrum sums to 2^m * sum of squared preimage counts
    assert int((w.astype(np.int64) ** 2).sum()) == ctx.order * ctx.order


def _walsh_maps(m):
    """g (g1 where m = 3k, else x^3), its one-collision mutant and a constant map."""
    ctx = FieldCtx.from_tower(1, m // 3) if m % 3 == 0 else FieldCtx(m)
    if ctx.tower:
        g = build_g_thm1(ctx)
    else:
        g = FieldMap.from_table("x^3", ctx, frobenius_product(
            ctx, np.arange(ctx.order, dtype=np.int64), [1]))
    constant = FieldMap.from_table("constant", ctx,
                                   np.full(ctx.order, ctx.order - 1, dtype=np.uint32))
    return g, one_collision_mutant(g, 0, ctx.order - 1), constant


@pytest.mark.parametrize("m", range(1, 21))   # one short block (m < 16), one (16), two (17), more
def test_spectrum_matches_per_level_butterfly(m):
    g, mutant, constant = _walsh_maps(m)
    masks = np.arange(1 << m)
    for fmap in (g, mutant, constant):
        assert np.array_equal(fmap.walsh(masks), walsh_spectrum_levels(fmap)), fmap.name
    assert (np.abs(constant.walsh(masks)) == 1 << m).all()   # the int32 extreme at every M


def test_spectrum_matches_per_level_butterfly_at_m24():
    g1 = build_g_thm1(FieldCtx.from_tower(2, 4))
    want = walsh_spectrum_levels(g1)
    step = 1 << 20                      # every mask, a slice at a time
    for lo in range(0, want.size, step):
        assert np.array_equal(g1.walsh(np.arange(lo, lo + step)), want[lo:lo + step]), lo


def test_parity_matches_bit_count():
    rng = np.random.default_rng(24)
    top = (1 << 24) - 1
    values = np.concatenate([[0, 1, top, top - 1],
                             rng.integers(0, top, size=5000, endpoint=True)]).astype(np.int64)
    got = blocks.parity(values)
    assert got.dtype == np.uint8
    assert got.tolist() == [v.bit_count() & 1 for v in values.tolist()]


def test_shift_check_on_table_matches_definition():
    ctx = FieldCtx.from_tower(2, 1)
    mutant = one_collision_mutant(build_g_thm1(ctx), 3, 50)
    for a in (1, 6, 37):
        mask = ctx.trace_mask(a)
        for y in (0, 1, 9, 63):
            bits = {((mask & mutant(x)).bit_count() ^ (mask & mutant(x ^ y)).bit_count()) & 1
                    for x in range(ctx.order)}
            want = bits.pop() if len(bits) == 1 else None
            assert shift_check(mutant, a, y) == want


def collision_map_m19(x1, x2):
    """Identity on GF(2^19) except g(x2) = x1: cheap to tabulate."""
    ctx = FieldCtx(19)
    table = np.arange(ctx.order, dtype=np.uint32)
    table[x2] = x1
    return FieldMap.from_table(f"collide-{x1:x}-{x2:x}", ctx, table)


@pytest.mark.parametrize("x1, x2", [
    ((1 << 18) + 5, (1 << 18) + 1000),   # both inputs in the upper half of the table
    (7, (1 << 18) + 3),                  # lower half against upper half
])
def test_exhaustive_collision_above_table_limit(x1, x2):
    verdict = is_permutation_exhaustive(collision_map_m19(x1, x2))
    assert verdict.verdict == "not-permutation"
    assert verdict.witness == (x1, x2)
    assert verdict.checks == x2 + 1


def test_char_sums_above_table_limit():
    # identity but for g(x2) = x1, so only those two terms differ from a vanishing sum
    x1, x2 = 7, (1 << 18) + 3
    fmap = collision_map_m19(x1, x2)
    ctx = fmap.ctx
    def term(a, x):
        return 1 - 2 * abs_trace(ctx, ctx.mul(a, x))

    a_values = [0, 1, 2, 0x1234, (1 << 19) - 1]
    expected = [term(a, x1) - term(a, x2) if a else ctx.order for a in a_values]
    assert any(s not in (0, ctx.order) for s in expected)
    assert _char_sums(fmap, a_values) == expected


@pytest.mark.parametrize("y", [1 << 18, (1 << 18) + 0x1234, (1 << 19) - 1])
def test_shift_check_at_m19_high_shift(y):
    # y >= 2^18 pairs every x in the lower half of the table with one in the upper half
    x1, x2 = 7, (1 << 18) + 3
    collide = collision_map_m19(x1, x2)
    ctx = collide.ctx
    ident = linearized_map(LinearizedPoly.identity(ctx), "id")
    for a in (1, 0x2b, 0x5a5a5, (1 << 19) - 1):
        assert shift_check(ident, a, y) == abs_trace(ctx, ctx.mul(a, y))
    # only x2 and x2 + y see the changed value, where the bit moves by Tr(a*(x1+x2))
    a_moved = next(a for a in range(1, ctx.order) if abs_trace(ctx, ctx.mul(a, x1 ^ x2)) == 1)
    a_fixed = next(a for a in range(1, ctx.order) if abs_trace(ctx, ctx.mul(a, x1 ^ x2)) == 0)
    assert shift_check(collide, a_moved, y) is None
    assert shift_check(collide, a_fixed, y) == abs_trace(ctx, ctx.mul(a_fixed, y))


def test_exhaustive_identity_above_table_limit():
    ctx = FieldCtx(19)
    ident = linearized_map(LinearizedPoly.identity(ctx), "id")
    assert is_permutation_exhaustive(ident) == PPVerdict("permutation", "exhaustive", 1 << 19)


@st.composite
def tables_with_collisions(draw):
    """A permutation of GF(2^m), m = 2..8, with up to five entries overwritten by others."""
    m = draw(st.integers(2, 8))
    table = draw(st.permutations(range(1 << m)))
    for _ in range(draw(st.integers(0, 5))):
        x1 = draw(st.integers(0, (1 << m) - 1))
        x2 = draw(st.integers(0, (1 << m) - 1))
        table[x2] = table[x1]
    return m, table


@settings(max_examples=150, deadline=None)
@given(tables_with_collisions())
def test_exhaustive_witness_matches_dict_scan(case):
    m, table = case
    verdict = is_permutation_exhaustive(FieldMap.from_table("t", FieldCtx(m), table))
    pair = first_collision(table)
    if pair is None:
        assert verdict == PPVerdict("permutation", "exhaustive", 1 << m)
    else:
        assert verdict.verdict == "not-permutation"
        assert verdict.witness == pair
        assert verdict.checks == pair[1] + 1


def _as_checks(values):
    return [-1 if v is None else v for v in values]


def test_shift_checks_match_shift_check_for_every_a_and_y_at_m6():
    ctx = FieldCtx.from_tower(2, 1)
    g = build_g_thm1(ctx)
    rng = random.Random(6)
    noise = FieldMap.from_table("noise", ctx, [rng.randrange(64) for _ in range(64)])
    a_values = list(range(ctx.order))
    for fmap in (g, one_collision_mutant(g, 3, 50), noise):
        for y in range(ctx.order):
            assert shift_checks(fmap, a_values, y).tolist() == \
                _as_checks(shift_check_sweep(fmap, a, y) for a in a_values)


def test_char_sum_takes_an_array_of_a():
    ctx = FieldCtx.from_tower(2, 2)
    g = one_collision_mutant(build_g_thm1(ctx), 10, 20)
    a_values = np.arange(ctx.order)
    sums = char_sum(g, a_values)
    assert sums.shape == (ctx.order,)
    assert sums.tolist() == [char_sum(g, int(a)) for a in a_values]
    assert isinstance(char_sum(g, 5), int)


@pytest.mark.parametrize("y", [5, 1 << 18, (1 << 19) - 1])
def test_shift_checks_at_m19_across_blocks(y):
    # the collision sits past the first 2^16 x: only the span's later blocks see it
    collide = collision_map_m19(7, (1 << 18) + 3)
    rng = random.Random(y)
    a_values = [1, 0x2b, (1 << 19) - 1] + [rng.randrange(1, 1 << 19) for _ in range(20)]
    assert shift_checks(collide, a_values, y).tolist() == \
        _as_checks(shift_check_sweep(collide, a, y) for a in a_values)


# every tower with m <= 12, then one at m = 18 (g1 and g3) and one at m = 21 (g3 only)
SHIFT_TOWERS = [(t, k) for t in range(1, 5) for k in range(1, 5) if 3 * t * k <= 12]
SHIFT_TOWERS += [(2, 3), (7, 1)]


@pytest.mark.parametrize("t, k", SHIFT_TOWERS)
def test_shift_checks_match_the_gather_oracle(t, k):
    # a shift y below 2^16, one above it, the single top bit and two subfield shifts, on
    # g1 (t = 2), g3 and their seeded mutants: the mutants give D a span for the reducer
    ctx = FieldCtx.from_tower(t, k)
    rng = random.Random(f"shift:{t}:{k}")
    maps = [build_g_thm3(ctx, build_L_note(ctx))] + ([build_g_thm1(ctx)] if t == 2 else [])
    for g in list(maps):
        x1, x2, x3 = rng.sample(range(ctx.order), 3)
        two = g.table().copy()
        two[[x1, x3]] ^= np.array([rng.randrange(1, ctx.order) for _ in range(2)],
                               dtype=np.uint32)
        maps += [one_collision_mutant(g, x1, x2), FieldMap.from_table("two", ctx, two)]
    ys = [rng.randrange(1, min(ctx.order, 1 << 16)), 1 << (ctx.m - 1)]
    ys += ctx.enumerate_subfield(t * k)[1:3].tolist()
    if ctx.order > 1 << 16:
        ys.append(rng.randrange(1 << 16, ctx.order))
    a_values = [1, ctx.order - 1] + [rng.randrange(1, ctx.order) for _ in range(30)]
    seen = set()
    for fmap in maps:
        for y in ys:
            const = shift_checks(fmap, a_values, y)
            assert np.array_equal(const, shift_checks_gather(fmap, a_values, y)), (fmap.name, y)
            seen.update(const.tolist())
    assert seen == {-1, 0, 1}
