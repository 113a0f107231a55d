"""The batched per-a proof checks against the per-a oracle loops.

verify decides each Case-1 and Case-2 row for its whole a list at once,
by GF(2) linear algebra over the map tables.  Every row here must equal
the row the one-sweep-per-a loop of `reference` gives: same status, same
count and, on a failure, the same first failing a and counterexample.
The Case-1 shifts of every relative trace (`case1_witnesses`) are pinned
against the scalar witness loops of `reference` the same way.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from ppverify import (FieldCtx, LinearizedPoly, blocks, build_g_thm1, build_g_thm3,
                      build_L_note, proofchecks, search_L_candidates)
from ppverify.constructions import build_L1
from ppverify.maps import FieldMap
from ppverify.pptest import case1_witnesses
from ppverify.proofchecks import (_case_split, _check_case1, _check_eq23_batch,
                                  _check_factorization_batch, decompose_a,
                                  least_decompositions, tracezero_basis, tracezero_set)

from reference import (adapted_witness, case1_per_a, case2_per_a, case_split_scalar,
                       decomposition_cosets, eq23_one_a, factorization_one_a,
                       find_case1_witness_scalar, lin_eval, tracezero_set_scalar)

SMALL_TOWERS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]


def _row(check):
    return check.name, check.status, check.count, check.counterexample


def _assert_rows_match(g, L, case1, case2):
    """Case-1, eq23 and factorization rows, batched against per a; returns the oracle rows.

    L is g's linear part, None for g1, whose Case-1 witness is the L1-free scalar loop.
    """
    ctx = g.ctx
    witness_for = ((lambda a: find_case1_witness_scalar(ctx, a)) if L is None
                   else (lambda a: adapted_witness(ctx, L, a)))
    want = [case1_per_a(g, case1, witness_for),
            case2_per_a("case2-eq23", g, case2, eq23_one_a),
            case2_per_a("case2-factorization", g, case2, factorization_one_a)]
    got = [_check_case1(g, build_L1(ctx) if L is None else L, case1, False),
           _check_eq23_batch(g, case2, None),
           _check_factorization_batch(g, case2, None)]
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
    case1, case2, sampled = _case_split(ctx, 1729)
    assert not sampled and len(case1) + len(case2) == ctx.order - 1
    rows = _assert_rows_match(g, L, case1, case2)
    if which == "g3" or t == 2:
        assert all(row.passed for row in rows)
    else:
        assert rows[0].passed and not rows[1].passed


@pytest.mark.parametrize("t,k", [(1, 1), (2, 1), (1, 3), (2, 2), (1, 4), (2, 3)], ids=str)
def test_least_decompositions_match_decompose_a(t, k):
    # the least member of each coset, which the Case-2 rows and their messages use;
    # decompose_a is the one-a call, and both must equal the least c found by a domain filter
    ctx = FieldCtx.from_tower(t, k)
    _, case2, _ = _case_split(ctx, 1729)
    want = [coset[0] for coset in decomposition_cosets(ctx, case2)]
    assert least_decompositions(ctx, case2).tolist() == want
    assert [decompose_a(ctx, a) for a in case2] == want


@pytest.mark.parametrize("seed", range(4))
def test_random_L_matches_oracle(seed):
    # an arbitrary L breaks the hypotheses: missing witnesses, non-constant shifts
    ctx = FieldCtx.from_tower(2, 1)
    rng = random.Random(seed)
    L = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
    g = build_g_thm3(ctx, L)
    case1, case2, _ = _case_split(ctx, 1729)
    _assert_rows_match(g, L, case1, case2)


@pytest.mark.parametrize("x0, bit, passed", [
    (0, 0, [False, True, True]),         # Tr(a * 1) = 0 on every Case-2 a
    (0xfff, 11, [False, False, False]),
    (0x800, 2, [False, False, False]),
])
def test_flipped_g_entry_fails_like_oracle_at_m12(x0, bit, passed):
    ctx = FieldCtx.from_tower(2, 2)
    g = _flipped(build_g_thm1(ctx), x0, bit)
    case1, case2, _ = _case_split(ctx, 1729)
    rows = _assert_rows_match(g, None, case1, case2)
    assert [row.passed for row in rows] == passed


def _eq23_flip(g, x0, a):
    """g with one bit of its entry at x0 flipped, a bit b with Tr(a * 2^b) = 1.

    Tr(a g(x)) then changes at x0 alone, so eq23 fails for a at x0 as long
    as it held at every x before.
    """
    mask = g.ctx.trace_mask(a)
    return _flipped(g, x0, (mask & -mask).bit_length() - 1)


@pytest.mark.parametrize("x0", [0x3c, 0xabc])
def test_flipped_g_entry_names_its_x_in_eq23_like_oracle_at_m12(x0):
    # the row reads S^E through its image table and the oracle through s_power_block_direct
    ctx = FieldCtx.from_tower(2, 2)
    case1, case2, _ = _case_split(ctx, 1729)
    rows = _assert_rows_match(_eq23_flip(build_g_thm1(ctx), x0, case2[0]), None, case1, case2)
    assert not rows[1].passed
    assert rows[1].counterexample == f"a={case2[0]:#x}, x={x0:#x}"


@pytest.mark.parametrize("zero_g", [False, True])
def test_broken_trace_zero_basis_fails_like_oracle_at_m12(zero_g, monkeypatch):
    # d2 = d1 spans one line only, so the product step fails; with g and every w^E
    # zeroed as well, the restriction step holds and the basis-trace step fails first
    ctx = FieldCtx.from_tower(2, 2)
    g = FieldMap.from_table("zero", ctx, [0] * ctx.order) if zero_g else build_g_thm1(ctx)
    d1, _ = tracezero_basis(ctx)
    monkeypatch.setattr(proofchecks, "tracezero_basis", lambda _: (d1, d1))
    tz_powers = None
    if zero_g:
        tz_powers = np.zeros(1 << (2 * ctx.m // 3), dtype=np.uint32)
        monkeypatch.setattr(proofchecks, "_s_power", lambda _: SimpleNamespace(values=tz_powers))
    _, case2, _ = _case_split(ctx, 1729)
    want = case2_per_a("case2-factorization", g, case2, lambda g, a, c: factorization_one_a(
        g, a, c, basis=(d1, d1), tz_powers=tz_powers))
    assert _row(_check_factorization_batch(g, case2, None)) == _row(want)
    assert want.counterexample.endswith("both basis traces vanish" if zero_g else "(product step)")


def _assert_witnesses_match(ctx, L):
    """case1_witnesses against the scalar loop on every nonzero relative trace; returns them.

    An r in F_{q^k} is its own relative trace (r + r + r = r), so it serves as its own a.
    """
    rs = ctx.enumerate_subfield(ctx.t * ctx.k)[1:].tolist()
    got = case1_witnesses(ctx, L, rs).tolist()
    assert got == [-1 if y is None else y for y in (adapted_witness(ctx, L, r) for r in rs)]
    return got


@pytest.mark.parametrize("t,k", SMALL_TOWERS, ids=str)
def test_case1_witnesses_match_scalar_loops_up_to_m12(t, k):
    ctx = FieldCtx.from_tower(t, k)
    subfield = ctx.enumerate_subfield(t * k).tolist()
    # L1 is the identity on F_{q^k} (S vanishes there), so g1's own loop gives the same shifts
    assert _assert_witnesses_match(ctx, build_L1(ctx)) == \
        [find_case1_witness_scalar(ctx, r) for r in subfield[1:]]
    for L in [build_L_note(ctx)] + [c.poly for c in search_L_candidates(ctx, 8)[:3]]:
        assert -1 not in _assert_witnesses_match(ctx, L)
    # arbitrary coefficients map F_{q^k} outside itself; coefficients in F_{q^k} keep it,
    # and a singular such L leaves some r without a y
    missed_inside = set()
    for seed in range(3):
        rng = random.Random(seed)
        for coeffs in ([rng.randrange(ctx.order) for _ in range(ctx.m)],
                       [rng.choice(subfield) for _ in range(ctx.m)]):
            L = LinearizedPoly(ctx, coeffs)
            if -1 in _assert_witnesses_match(ctx, L):
                images = [lin_eval(L, y) for y in subfield]
                missed_inside.add(all(ctx.frobenius(w, t * k) == w for w in images))
    assert missed_inside == {False, True}


@pytest.mark.parametrize("t,k", [(1, 6), (2, 3), (3, 2), (6, 1), (2, 4), (1, 8)], ids=str)
def test_case1_witnesses_match_scalar_loops_at_m18_and_m24(t, k):
    ctx = FieldCtx.from_tower(t, k)
    rs = ctx.enumerate_subfield(t * k)[1:].tolist()
    assert _assert_witnesses_match(ctx, build_L1(ctx)) == \
        [find_case1_witness_scalar(ctx, r) for r in rs]
    assert -1 not in _assert_witnesses_match(ctx, build_L_note(ctx))


@pytest.fixture(scope="module")
def m18():
    ctx = FieldCtx.from_tower(2, 3)
    g = build_g_thm1(ctx)
    case1, case2, sampled = _case_split(ctx, 1729)
    assert sampled
    return ctx, g, case1, case2


def test_seeded_a_match_oracle_at_m18(m18):
    ctx, g, case1, case2 = m18
    rows = _assert_rows_match(g, None, case1, case2)
    assert all(row.passed for row in rows)
    L = build_L_note(ctx)
    g3 = build_g_thm3(ctx, L)
    rows = _assert_rows_match(g3, L, case1, case2)
    assert all(row.passed for row in rows)


def test_mutants_beyond_the_first_block_fail_like_oracle_at_m18(m18):
    # the flips sit past the first 2^16 x, where only the every-x span of a table sees them
    ctx, g, case1, case2 = m18
    rows = _assert_rows_match(_flipped(g, 0x2b4e1, 5), None, case1, case2)
    assert not any(row.passed for row in rows)
    rows = _assert_rows_match(_eq23_flip(g, 0x3fffe, case2[0]), None, case1, case2)
    assert not rows[1].passed
    assert rows[1].counterexample == f"a={case2[0]:#x}, x=0x3fffe"


@pytest.mark.parametrize("t,k,seed", [(2, 3, 1729), (1, 6, 5), (2, 4, 1729), (1, 8, 24)])
def test_sampled_case_split_matches_scalar_draw(t, k, seed):
    ctx = FieldCtx.from_tower(t, k)
    assert tracezero_set(ctx).tolist() == tracezero_set_scalar(ctx)
    case1, case2, sampled = _case_split(ctx, seed)
    assert sampled and (case1, case2) == case_split_scalar(ctx, seed)


def test_sampled_case_split_replays_its_draws_across_batches(monkeypatch):
    # With the absolute trace standing in for the relative one, half the draws are
    # rejected, so 128 Case-1 a sometimes take more than one batch of lookups; the
    # draws and the rng state handed to the Case-2 sample must match a one-a-at-a-time draw.
    ctx = FieldCtx.from_tower(2, 3)
    tz = [a for a in tracezero_set(ctx).tolist() if a]      # cached before the swap
    trace = LinearizedPoly(ctx, [1] * ctx.m)
    monkeypatch.setattr(proofchecks, "rel_trace_poly", lambda _: trace)
    draws = []
    for seed in range(6):
        rng = random.Random(f"{seed}:cases")
        want: list[int] = []
        seen: set[int] = set()
        drawn = 0
        while len(want) < 128:
            a = rng.randrange(1, ctx.order)
            drawn += 1
            if a not in seen:
                seen.add(a)
                if lin_eval(trace, a):
                    want.append(a)
        assert _case_split(ctx, seed) == (want, sorted(rng.sample(tz, 128)), True)
        draws.append(drawn)
    assert min(draws) <= 256 < max(draws)    # one batch of 256 draws, and more than one


@pytest.fixture(scope="module")
def m24():
    ctx = FieldCtx.from_tower(2, 4)
    g = build_g_thm1(ctx)
    case1, case2, _ = _case_split(ctx, 1729)
    return ctx, g, case1[:4], case2[:4]   # the oracle sweeps 2^24 x per a


def test_seeded_a_and_a_mutant_match_oracle_at_m24(m24):
    ctx, g, case1, case2 = m24
    rows = _assert_rows_match(g, None, case1, case2)
    assert all(row.passed for row in rows)
    # the eq23 row alone: the flipped bit has Tr(a * 2^bit) = 1 for the first a
    mutant = _eq23_flip(g, 0xd00d1e, case2[0])
    want = case2_per_a("case2-eq23", mutant, case2, eq23_one_a)
    assert want.counterexample == f"a={case2[0]:#x}, x=0xd00d1e"
    assert _row(_check_eq23_batch(mutant, case2, None)) == _row(want)


def test_mask_table_matches_trace_mask_at_m24(m24):
    ctx = m24[0]
    rng = random.Random(24)
    a_values = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(500)]
    masks = blocks.trace_masks(ctx)(np.array(a_values, dtype=np.uint32))
    assert masks.dtype == np.uint32
    assert masks.tolist() == [ctx.trace_mask(a) for a in a_values]
