"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass.  Every tolerance is exact integer equality; the runtime
bounds are the stated desk-scale budgets.
"""

import random
import time

import numpy as np

from ppverify import (FieldCtx, binpoly, build_g_thm1, build_g_thm3, build_L_note,
                      char_sum, check_condition_ii, check_eq22, check_kernel_image,
                      find_case1_witness, is_permutation_exhaustive, permutes,
                      pp_verdict_charsum, shift_check)
from ppverify.constructions import s2k
from ppverify.maps import FieldMap, linearized_map
from ppverify.pptest import _char_sums
from ppverify.proofchecks import _Thm1State, check_case2_factorization, check_eq23

from reference import decomposition_cosets, s_power

SIX_TOWERS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
ALL_TOWERS_M18 = [(t, k) for t in range(1, 7) for k in range(1, 7) if 3 * t * k <= 18]
SEED = 20250809


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nacceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bijection_and_all_sums(ctx) -> tuple[bool, int]:
    g = build_g_thm1(ctx)
    bijective = is_permutation_exhaustive(g).verdict == "permutation"
    sums = _char_sums(g, list(range(1, ctx.order)))
    return bijective and all(s == 0 for s in sums), len(sums)


def test_criterion_01_thm1_k1():
    start = time.perf_counter()
    ok, n_sums = _bijection_and_all_sums(FieldCtx.from_tower(2, 1))
    elapsed = time.perf_counter() - start
    _report(1, ok and n_sums == 63 and elapsed < 0.1,
            f"F_64 bijection + {n_sums} character sums all zero in {elapsed:.4f}s (< 0.1s)")


def test_criterion_02_thm1_k2():
    start = time.perf_counter()
    ok, n_sums = _bijection_and_all_sums(FieldCtx.from_tower(2, 2))
    elapsed = time.perf_counter() - start
    _report(2, ok and n_sums == 4095 and elapsed < 60.0,
            f"F_4096 bijection + {n_sums} character sums all zero in {elapsed:.2f}s (< 60s)")


def test_criterion_03_thm1_k3():
    start = time.perf_counter()
    ctx = FieldCtx.from_tower(2, 3)
    g = build_g_thm1(ctx)
    bijective = is_permutation_exhaustive(g).verdict == "permutation"
    rng = random.Random(SEED)
    a_values = [rng.randrange(1, ctx.order) for _ in range(128)]
    sums = _char_sums(g, a_values)
    elapsed = time.perf_counter() - start
    ok = bijective and all(s == 0 for s in sums) and elapsed < 120.0
    _report(3, ok, f"F_262144 bijection + {len(sums)} sampled character sums "
            f"all zero in {elapsed:.2f}s (< 120s)")


def test_criterion_04_thm3_six_towers():
    start = time.perf_counter()
    ok = True
    for t, k in SIX_TOWERS:
        ctx = FieldCtx.from_tower(t, k)
        L = build_L_note(ctx)
        ok &= permutes(L, t * k)
        ok &= check_condition_ii(ctx, L)
        ok &= is_permutation_exhaustive(build_g_thm3(ctx, L)).verdict == "permutation"
    elapsed = time.perf_counter() - start
    _report(4, ok and elapsed < 60.0,
            f"conditions (i)+(ii) and bijection on {len(SIX_TOWERS)} towers "
            f"in {elapsed:.2f}s (< 60s)")


def test_criterion_05_eq22():
    coeff_ok = True
    pointwise_ok = True
    for t, k in ALL_TOWERS_M18:
        ctx = FieldCtx.from_tower(t, k)
        S = s2k(ctx)
        total = S + S.then_frobenius(k * t) + S.then_frobenius(2 * k * t)
        coeff_ok &= total.is_zero()
        if ctx.m <= 12:
            pointwise_ok &= all(total(x) == 0 for x in ctx.elements())
        coeff_ok &= check_eq22(ctx).passed
    _report(5, coeff_ok and pointwise_ok,
            f"coefficient identity on {len(ALL_TOWERS_M18)} towers (m <= 18), "
            "pointwise zero everywhere for m <= 12")


def test_criterion_06_kernel_image():
    ok = True
    for t, k in ALL_TOWERS_M18:
        ctx = FieldCtx.from_tower(t, k)
        S = s2k(ctx)
        kernel, image = S.kernel_image()
        ok &= (1 << len(kernel)) == ctx.q ** k
        ok &= (1 << len(image)) == ctx.q ** (2 * k)
        ok &= check_kernel_image(ctx).passed
    _report(6, ok, f"|ker| = q^k and |image| = q^(2k) with set equality "
            f"on {len(ALL_TOWERS_M18)} towers (m <= 18)")


def test_criterion_07_gcd_identity():
    ok = all(
        binpoly.gcd(binpoly.all_ones(2 * k), (1 << (3 * k)) | 1) == ((1 << k) | 1)
        for k in range(1, 9))
    _report(7, ok, "gcd(1+x+...+x^(2k-1), x^(3k)+1) = x^k+1 for k = 1..8")


def test_criterion_08_case_analysis_exhaustive():
    ctx = FieldCtx.from_tower(2, 1)
    state = _Thm1State(ctx)
    g = state.g
    case1 = [a for a in range(1, 64) if ctx.rel_trace(a, 2) != 0]
    case2 = [a for a in range(1, 64) if ctx.rel_trace(a, 2) == 0]
    ok = len(case1) == 48 and len(case2) == 15

    for a in case1:
        y = find_case1_witness(ctx, a)
        ok &= shift_check(g, a, y) == 1
        ok &= char_sum(g, a) == 0  # the lemma's conclusion, cross-checked

    g_table = g.table()
    for a, coset in zip(case2, decomposition_cosets(ctx, case2)):
        ok &= check_eq23(ctx, a, state).passed
        ok &= check_case2_factorization(ctx, a, state).passed
        # the conclusions hold for every member of the solution coset
        mask_a = ctx.trace_mask(a)
        ok &= len(coset) == 4
        for c in coset:
            mask_c = ctx.trace_mask(c)
            ok &= not ctx.in_subfield(c, 2)
            ok &= all(((mask_a & int(g_table[x])).bit_count() & 1) ==
                      ((mask_c & s_power(ctx, x)).bit_count() & 1)
                      for x in ctx.elements())
            ok &= sum(1 - 2 * ((mask_c & int(w)).bit_count() & 1)
                      for w in state.tz_powers) == 0
    _report(8, ok, "48 Case-1 a's give shift constant 1; 15 Case-2 a's pass the "
            "identity chain, coset-invariantly")


def test_criterion_09_oracle_equivalence():
    rng = random.Random(SEED)
    ctx16 = FieldCtx(4)
    disagreements = 0
    for trial in range(200):
        table = [rng.randrange(16) for _ in range(16)]
        fmap = FieldMap.from_table(f"rand{trial}", ctx16, table)
        ex = is_permutation_exhaustive(fmap).verdict
        cs = pp_verdict_charsum(fmap, mode="all").verdict
        disagreements += ex != cs

    builtins = []
    for t, k in [(2, 1), (2, 2)]:
        builtins.append(build_g_thm1(FieldCtx.from_tower(t, k)))
    for t, k in SIX_TOWERS:
        ctx = FieldCtx.from_tower(t, k)
        L = build_L_note(ctx)
        builtins.append(build_g_thm3(ctx, L))
        builtins.append(linearized_map(L, "builtin:L-note"))
    for fmap in builtins:
        ex = is_permutation_exhaustive(fmap).verdict
        cs = pp_verdict_charsum(fmap, mode="all").verdict
        disagreements += ex != cs
    _report(9, disagreements == 0,
            f"exhaustive and character-sum verdicts agree on 200 random tables "
            f"and {len(builtins)} built-in maps (m <= 12), {disagreements} discrepancies")


def test_criterion_10_mutation_sensitivity():
    ctx = FieldCtx.from_tower(2, 1)
    base = build_g_thm1(ctx).table().tolist()
    rng = random.Random(SEED)
    space = [(x, v) for x in range(64) for v in range(64) if v != base[x]]
    assert len(space) == 64 * 63
    missed = 0
    for x, v in rng.sample(space, 500):
        mutated = list(base)
        mutated[x] = v
        fmap = FieldMap.from_table("mutated", ctx, mutated)
        ex = is_permutation_exhaustive(fmap).verdict == "not-permutation"
        cs = pp_verdict_charsum(fmap, mode="all").verdict == "not-permutation"
        if not (ex or cs):
            missed += 1
    _report(10, missed == 0,
            f"500 seeded single-entry mutations all flagged not-permutation "
            f"({missed} missed)")
