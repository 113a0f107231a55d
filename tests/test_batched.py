"""The batched per-a proof checks against the per-a oracle loops.

verify decides each Case-1 and Case-2 row for its whole a list at once,
by GF(2) linear algebra over the map tables.  Every row here must equal
the row the one-sweep-per-a loop of `reference` gives: same status, same
count and, on a failure, the same first failing a and counterexample.
"""

import random

import numpy as np
import pytest

from ppverify import (FieldCtx, LinearizedPoly, blocks, build_g_thm1, build_g_thm3,
                      build_L_note, check_case2_factorization, check_eq23, find_case1_witness)
from ppverify.maps import FieldMap
from ppverify.pptest import adapted_witness
from ppverify.proofchecks import (_case_split, _check_case1, _check_eq23_batch,
                                  _check_factorization_batch, _Thm1State, decompose_a,
                                  least_decompositions)

from reference import case1_per_a, case2_per_a

SMALL_TOWERS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]


def _row(check):
    return check.name, check.status, check.count, check.counterexample


def _witnesses(ctx, L):
    if L is None:
        return lambda a: find_case1_witness(ctx, a)
    return lambda a: adapted_witness(ctx, L, a)


def _assert_rows_match(g, witness_for, case1, case2, state):
    """Case-1, eq23 and factorization rows, batched against per a; returns the oracle rows."""
    ctx = g.ctx
    want = [case1_per_a(g, case1, witness_for),
            case2_per_a("case2-eq23", case2, lambda a: check_eq23(ctx, a, state)),
            case2_per_a("case2-factorization", case2,
                        lambda a: check_case2_factorization(ctx, a, state))]
    got = [_check_case1(g, case1, False, witness_for),
           _check_eq23_batch(state, case2, None),
           _check_factorization_batch(state, case2, None)]
    assert [_row(c) for c in got] == [_row(c) for c in want]
    return want


def _flipped(fmap, x0, bit):
    """fmap's table with bit `bit` of the entry at x0 flipped."""
    table = fmap.table().copy()
    table[x0] ^= 1 << bit
    return FieldMap.from_table(f"{fmap.name}-flip", fmap.ctx, table)


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
@pytest.mark.parametrize("which", ["g1", "g3"])
def test_every_a_matches_oracle_up_to_m12(t, k, which):
    # eq23 holds for g1 only at q = 4, so the other towers exercise the failure rows
    ctx = FieldCtx.from_tower(t, k)
    L = None if which == "g1" else build_L_note(ctx)
    g = build_g_thm1(ctx) if L is None else build_g_thm3(ctx, L)
    case1, case2, sampled = _case_split(ctx, 1729, 128)
    assert not sampled and len(case1) + len(case2) == ctx.order - 1
    rows = _assert_rows_match(g, _witnesses(ctx, L), case1, case2, _Thm1State(ctx, g))
    if which == "g3" or t == 2:
        assert all(row.passed for row in rows)
    else:
        assert rows[0].passed and not rows[1].passed


@pytest.mark.parametrize("t,k", [(1, 1), (2, 1), (1, 3), (2, 2), (1, 4), (2, 3)], ids=str)
def test_least_decompositions_match_decompose_a(t, k):
    # the least member of each coset, which the Case-2 rows and their messages use
    ctx = FieldCtx.from_tower(t, k)
    _, case2, _ = _case_split(ctx, 1729, 128)
    got = least_decompositions(ctx, case2)
    assert got.tolist() == [decompose_a(ctx, a) for a in case2]


@pytest.mark.parametrize("seed", range(4))
def test_random_L_matches_oracle(seed):
    # an arbitrary L breaks the hypotheses: missing witnesses, non-constant shifts
    ctx = FieldCtx.from_tower(2, 1)
    rng = random.Random(seed)
    L = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
    g = build_g_thm3(ctx, L)
    case1, case2, _ = _case_split(ctx, 1729, 128)
    _assert_rows_match(g, _witnesses(ctx, L), case1, case2, _Thm1State(ctx, g))


@pytest.mark.parametrize("x0, bit, passed", [
    (0, 0, [False, True, True]),         # Tr(a * 1) = 0 on every Case-2 a
    (0xfff, 11, [False, False, False]),
    (0x800, 2, [False, False, False]),
])
def test_flipped_g_entry_fails_like_oracle_at_m12(x0, bit, passed):
    ctx = FieldCtx.from_tower(2, 2)
    g = _flipped(build_g_thm1(ctx), x0, bit)
    case1, case2, _ = _case_split(ctx, 1729, 128)
    rows = _assert_rows_match(g, _witnesses(ctx, None), case1, case2, _Thm1State(ctx, g))
    assert [row.passed for row in rows] == passed


@pytest.mark.parametrize("x0, bit", [(0x3c, 5), (0xabc, 7)])
def test_flipped_s_power_entry_fails_like_oracle_at_m12(x0, bit):
    ctx = FieldCtx.from_tower(2, 2)
    g = build_g_thm1(ctx)
    state = _Thm1State(ctx, g)
    state.s_power = _flipped(state.s_power, x0, bit)
    case1, case2, _ = _case_split(ctx, 1729, 128)
    rows = _assert_rows_match(g, _witnesses(ctx, None), case1, case2, state)
    assert [row.passed for row in rows] == [True, False, True]
    assert rows[1].counterexample.endswith(f"x={x0:#x}")


@pytest.fixture(scope="module")
def m18():
    ctx = FieldCtx.from_tower(2, 3)
    g = build_g_thm1(ctx)
    case1, case2, sampled = _case_split(ctx, 1729, 128)
    assert sampled
    return ctx, g, _Thm1State(ctx, g), case1, case2


def test_seeded_a_match_oracle_at_m18(m18):
    ctx, g, state, case1, case2 = m18
    rows = _assert_rows_match(g, _witnesses(ctx, None), case1, case2, state)
    assert all(row.passed for row in rows)
    L = build_L_note(ctx)
    g3 = build_g_thm3(ctx, L)
    rows = _assert_rows_match(g3, _witnesses(ctx, L), case1, case2, _Thm1State(ctx, g3))
    assert all(row.passed for row in rows)


def test_mutants_beyond_the_first_block_fail_like_oracle_at_m18(m18):
    # the flips sit past the first 2^16 x, where only the span's residual pass sees them
    ctx, g, state, case1, case2 = m18
    mutant = _flipped(g, 0x2b4e1, 5)
    rows = _assert_rows_match(mutant, _witnesses(ctx, None), case1, case2,
                              _Thm1State(ctx, mutant))
    assert not any(row.passed for row in rows)
    bad_state = _Thm1State(ctx, g)
    bad_state.s_power = _flipped(state.s_power, 0x3fffe, 16)
    rows = _assert_rows_match(g, _witnesses(ctx, None), case1, case2, bad_state)
    assert [row.passed for row in rows] == [True, False, True]
    assert rows[1].counterexample.endswith("x=0x3fffe")


@pytest.fixture(scope="module")
def m24():
    ctx = FieldCtx.from_tower(2, 4)
    g = build_g_thm1(ctx)
    case1, case2, _ = _case_split(ctx, 1729, 4)   # the oracle sweeps 2^24 x per a
    return ctx, g, _Thm1State(ctx, g), case1, case2


def test_seeded_a_and_a_mutant_match_oracle_at_m24(m24):
    ctx, g, state, case1, case2 = m24
    rows = _assert_rows_match(g, _witnesses(ctx, None), case1, case2, state)
    assert all(row.passed for row in rows)
    bad_state = _Thm1State(ctx, g)
    bad_state.s_power = _flipped(state.s_power, 0xd00d1e, 20)   # only eq23 reads S^E
    want = case2_per_a("case2-eq23", case2, lambda a: check_eq23(ctx, a, bad_state))
    assert not want.passed and want.counterexample.endswith("x=0xd00d1e")
    assert _row(_check_eq23_batch(bad_state, case2, None)) == _row(want)


def test_mask_table_matches_trace_mask_at_m24(m24):
    ctx = m24[0]
    rng = random.Random(24)
    a_values = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(500)]
    masks = blocks.trace_masks(ctx)(np.array(a_values, dtype=np.uint32))
    assert masks.dtype == np.uint32
    assert masks.tolist() == [ctx.trace_mask(a) for a in a_values]
