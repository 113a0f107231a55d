"""The blocked character-sum pass against the list/dict oracle.

`_charsum_run` sends the a-values through the map's Walsh bins in
blocks of `blocks.BLOCK` and stops at the first nonzero sum; a sample is
summed once, in one block.  Its verdict,
check count, witness and sample sums must equal those of
`reference.charsum_run_lists`, which gathers every sum into one list.
"""

import tracemalloc

import numpy as np
import pytest

from ppverify import (FieldCtx, blocks, build_g_thm1, build_g_thm3, build_L_note, pptest,
                      verify_thm1)
from ppverify.maps import FieldMap
from ppverify.pptest import (DEFAULT_SAMPLES, DEFAULT_SEED, PPVerdict, _charsum_run, char_sum,
                             pp_verdict_charsum)

from reference import charsum_run_lists

SMALL_TOWERS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]


def _assert_matches_oracle(f, mode, n=DEFAULT_SAMPLES, seed=DEFAULT_SEED) -> PPVerdict:
    verdict, by_a = _charsum_run(f, mode, n, seed)
    want_verdict, want_by_a = charsum_run_lists(f, mode, n, seed)
    assert verdict == want_verdict
    if mode == "sample":
        assert list(by_a.items()) == list(want_by_a.items())   # values and order
    else:
        assert by_a is None
    return verdict


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
@pytest.mark.parametrize("which", ["g1", "g3"])
def test_g1_and_g3_match_oracle(t, k, which):
    ctx = FieldCtx.from_tower(t, k)
    g = build_g_thm1(ctx) if which == "g1" else build_g_thm3(ctx, build_L_note(ctx))
    verdicts = [_assert_matches_oracle(g, "all"),
                _assert_matches_oracle(g, "sample"),
                _assert_matches_oracle(g, "sample", n=40, seed=5)]
    if which == "g3" or t == 2:   # theorem 1 is a q = 4 statement
        assert [v.verdict for v in verdicts] == ["permutation"] + ["probable-permutation"] * 2


def test_one_collision_mutant_and_zero_map_match_oracle():
    ctx = FieldCtx.from_tower(2, 2)
    table = build_g_thm1(ctx).table().copy()
    table[0x9a5] = table[0x3c]
    mutant = FieldMap.from_table("mutant", ctx, table)
    zero = FieldMap.from_table("zero", ctx, np.zeros(ctx.order, dtype=np.uint32))
    for f in (mutant, zero):
        for mode in ("all", "sample"):
            assert _assert_matches_oracle(f, mode).verdict == "not-permutation"
    assert pp_verdict_charsum(zero, "all") == PPVerdict("not-permutation", "charsum-all", 1,
                                                        witness=(1, ctx.order))


def test_witness_past_the_first_block_matches_oracle():
    # identity with one collision of difference delta: the sum at a is nonzero iff
    # Tr(a * delta) = parity(a & M_delta) = 1, so M_delta = 1 << 17 puts the first
    # witness at a = 2^17, in the second block of a
    ctx = FieldCtx(18)
    delta = int(np.flatnonzero(blocks.trace_masks(ctx)(np.arange(ctx.order)) == 1 << 17)[0])
    table = np.arange(ctx.order, dtype=np.uint32)
    table[5 ^ delta] = 5
    mutant = FieldMap.from_table("mutant", ctx, table)
    verdict = _assert_matches_oracle(mutant, "all")
    assert verdict.witness[0] == verdict.checks == 1 << 17 > blocks.BLOCK + 1
    ident = FieldMap.from_table("id", ctx, np.arange(ctx.order, dtype=np.uint32))
    n = blocks.BLOCK + 100
    assert _assert_matches_oracle(ident, "sample", n=n).checks == n
    assert _assert_matches_oracle(mutant, "sample", n=n).verdict == "not-permutation"


def test_sample_with_a_repeated_a_matches_oracle():
    ctx = FieldCtx.from_tower(1, 1)   # 7 nonzero a: a draw of 20 repeats some
    g = build_g_thm3(ctx, build_L_note(ctx))
    verdict = _assert_matches_oracle(g, "sample", n=20)
    assert verdict.checks == 20
    assert len(_charsum_run(g, "sample", 20, DEFAULT_SEED)[1]) < 20
    zero = FieldMap.from_table("zero", ctx, [0] * ctx.order)
    assert _assert_matches_oracle(zero, "sample", n=20).checks == 1


def test_sample_mode_sums_each_drawn_a_once(monkeypatch):
    g = build_g_thm1(FieldCtx.from_tower(2, 2))
    summed = []
    monkeypatch.setattr(pptest, "char_sum", lambda f, a: summed.append(len(a)) or char_sum(f, a))
    for n in (1, 40, blocks.BLOCK + 100):
        summed.clear()
        _charsum_run(g, "sample", n, DEFAULT_SEED)
        assert sum(summed) == n


def test_charsum_all_at_m21_within_memory_budget():
    ctx = FieldCtx.from_tower(7, 1)
    g = build_g_thm3(ctx, build_L_note(ctx))
    char_sum(g, 1)                      # the cached bins and mask tables, before tracing
    tracemalloc.start()
    try:
        verdict = pp_verdict_charsum(g, "all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == PPVerdict("permutation", "charsum-all", ctx.order - 1)
    assert peak < 16 << 20


def test_an_empty_sample_is_rejected_not_passed():
    # n < 1 sums no a, so it used to pass vacuously with checks = 0, even on a collision
    ctx = FieldCtx.from_tower(2, 1)
    table = build_g_thm1(ctx).table().copy()
    table[3] = table[7]
    mutant = FieldMap.from_table("mutant", ctx, table)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1"):
            pp_verdict_charsum(mutant, mode="sample", n=n)
        with pytest.raises(ValueError, match="n >= 1"):
            verify_thm1(ctx, sample_n=n, charsum_mode="sample")
    assert pp_verdict_charsum(mutant, mode="sample", n=1).checks == 1
    assert verify_thm1(ctx, sample_n=0, charsum_mode="all").passed   # n sizes a sample only
