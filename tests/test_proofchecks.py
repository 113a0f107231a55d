"""Per-identity checks and the theorem-level verification drivers."""

import json
import random

import numpy as np
import pytest

from ppverify import (CheckResult, FieldCtx, LinearizedPoly, VerificationReport, blocks,
                      build_g_thm1, build_L_note, char_sum, check_case2_factorization,
                      check_eq22, check_eq23, check_kernel_image, decompose_a,
                      is_permutation_exhaustive, pp_verdict_charsum, tracezero_basis,
                      verify_thm1, verify_thm3)
from ppverify.constructions import build_L1, s2k
from ppverify.maps import FieldMap
from ppverify.pptest import case1_witnesses, find_case1_witness, shift_check, shift_checks
from ppverify.proofchecks import _s_power, least_decompositions, tracezero_set

from reference import abs_trace, decomposition_cosets, lin_eval, power, rel_trace, s_power


TOWERS_M6_TO_24 = [(t, k) for t in range(1, 9) for k in range(1, 9) if 6 <= 3 * t * k <= 24]
SMALL_TOWERS = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]


@pytest.mark.parametrize("t,k", [(1, 1)] + TOWERS_M6_TO_24, ids=str)
def test_eq22_passes(t, k, monkeypatch):
    # step (b) evaluates the sum on the basis, which decides every x: no map table
    def no_table(fmap):
        raise AssertionError(f"eq22 built the table of {fmap.name}")

    monkeypatch.setattr(FieldMap, "table", no_table)
    result = check_eq22(FieldCtx.from_tower(t, k))
    assert result.passed and result.count == 1 << (3 * t * k)


def test_eq22_basis_step_names_the_least_nonzero_x(monkeypatch):
    # identity tables in place of the Frobenius ones turn the sum into S itself,
    # which vanishes at x = 1 (2k ones) but not at x = 2
    ctx = FieldCtx.from_tower(2, 1)
    identity = blocks.linear_table(LinearizedPoly.identity(ctx))
    monkeypatch.setattr(blocks, "linear_table", lambda poly: identity)
    result = check_eq22(ctx)
    assert not result.passed and result.count == ctx.order
    assert result.counterexample == f"sum = {lin_eval(s2k(ctx), 2):#x} at x=0x2"


@pytest.mark.parametrize("t,k", SMALL_TOWERS + [(2, 3)], ids=str)
def test_tz_powers_are_s_power_over_the_trace_zero_set(t, k):
    # tz_powers is the value table of S^E on S's image; S permutes the trace-zero set
    # (its kernel F_{q^k} meets it in 0), so S(w)^E over w there is the same multiset
    ctx = FieldCtx.from_tower(t, k)
    want = sorted(s_power(ctx, w) for w in tracezero_set(ctx))
    assert sorted(_s_power(ctx).values.tolist()) == want


def test_eq22_coefficient_cancellation_pattern():
    # at (2,1) the three supports are {0,2}, {2,4}, {0,4}: full XOR cancel
    ctx = FieldCtx.from_tower(2, 1)
    S = s2k(ctx)
    assert S.support() == [0, 2]
    assert S.then_frobenius(2).support() == [2, 4]
    assert S.then_frobenius(4).support() == [0, 4]


def test_eq22_detects_perturbed_s():
    ctx = FieldCtx.from_tower(2, 1)
    S = s2k(ctx)
    flipped = list(S.coeffs)
    flipped[1] ^= 1
    result = check_eq22(ctx, s_poly=LinearizedPoly(ctx, flipped))
    assert not result.passed
    assert result.counterexample


@pytest.mark.parametrize("t,k", [(2, 1), (1, 2), (1, 1), (2, 2), (3, 2)], ids=str)
def test_kernel_image_passes(t, k):
    assert check_kernel_image(FieldCtx.from_tower(t, k)).passed


def test_kernel_image_sizes_at_21():
    ctx = FieldCtx.from_tower(2, 1)
    S = s2k(ctx)
    kernel = {x for x in range(ctx.order) if lin_eval(S, x) == 0}
    image = {lin_eval(S, x) for x in range(ctx.order)}
    assert len(kernel) == 4 and len(image) == 16
    assert kernel == set(ctx.enumerate_subfield(2))
    assert image == {x for x in range(ctx.order) if rel_trace(ctx, x, 2) == 0}


def test_kernel_image_sizes_at_12():
    # q = 2, k = 2 inside F_64: kernel F_4 (4 elements), image 16
    ctx = FieldCtx.from_tower(1, 2)
    S = s2k(ctx)
    assert len({x for x in range(ctx.order) if lin_eval(S, x) == 0}) == 4
    assert len({lin_eval(S, x) for x in range(ctx.order)}) == 16


def test_decompose_a_exhaustive_at_21():
    ctx = FieldCtx.from_tower(2, 1)
    valid = [a for a in range(1, 64) if rel_trace(ctx, a, 2) == 0]
    assert len(valid) == 15  # q^(2k) - 1
    for a, coset in zip(valid, decomposition_cosets(ctx, valid)):
        c = decompose_a(ctx, a)
        assert c ^ ctx.frobenius(c, 2) == a
        assert ctx.frobenius(c, 2) != c
        assert len(coset) == 4  # one solution per subfield element
        assert c == coset[0] == min(coset)
        assert all(cc ^ ctx.frobenius(cc, 2) == a for cc in coset)


def test_decompose_a_rejects_case1_and_zero():
    ctx = FieldCtx.from_tower(2, 1)
    assert rel_trace(ctx, 1, 2) == 1
    with pytest.raises(ValueError, match="Case 1"):
        decompose_a(ctx, 1)
    with pytest.raises(ValueError):
        decompose_a(ctx, 0)


def test_eq23_exponent_value():
    # E = 1 + 2q + q^2 = 25 at q = 4: the S^E image table reads S(x)^25 at every x
    ctx = FieldCtx.from_tower(2, 1)
    table = _s_power(ctx)(np.arange(ctx.order))
    assert table.tolist() == [power(ctx, lin_eval(s2k(ctx), x), 25) for x in range(ctx.order)]


def test_eq23_all_valid_a_at_21():
    ctx = FieldCtx.from_tower(2, 1)
    g = build_g_thm1(ctx)
    for a in (x for x in range(1, 64) if rel_trace(ctx, x, 2) == 0):
        assert check_eq23(g, a).passed


def test_eq23_both_sides_vanish_on_subfield():
    ctx = FieldCtx.from_tower(2, 1)
    g = build_g_thm1(ctx)
    a = next(x for x in range(1, 64) if rel_trace(ctx, x, 2) == 0)
    c = decompose_a(ctx, a)
    for z in ctx.enumerate_subfield(2):
        assert abs_trace(ctx, ctx.mul(a, g(z))) == 0
        assert abs_trace(ctx, ctx.mul(c, s_power(ctx, z))) == 0


def test_eq23_detects_mutated_g():
    ctx = FieldCtx.from_tower(2, 1)
    table = build_g_thm1(ctx).table().tolist()
    table[5], table[9] = table[9], table[5]
    mutated = FieldMap.from_table("mutated", ctx, table)
    failures = sum(1 for a in range(1, 64)
                   if rel_trace(ctx, a, 2) == 0 and not check_eq23(mutated, a).passed)
    assert failures > 0


def test_eq23_checks_every_x_at_m24():
    # thm1 k = 4: check_eq23 decides every x, g1 through the quotient by ker S and the
    # mutant table at every x; it is the one-a call of the batched row, which counts its a list
    ctx = FieldCtx.from_tower(2, 4)
    g = build_g_thm1(ctx)
    rng = random.Random(3)
    for c in (0x123456, 0xabcdef):
        a = c ^ ctx.frobenius(c, 8)   # a = c + c^(q^k) is a nonzero Case-2 element
        assert a and rel_trace(ctx, a, 8) == 0
        result = check_eq23(g, a)
        assert result.passed and result.count == 1 and result.note is None
        # flip Tr(a*g) at one seeded point, and nowhere else
        x0 = rng.randrange(ctx.order)
        mask = ctx.trace_mask(a)
        flip = mask & -mask               # Tr(a * flip) = parity(mask & flip) = 1
        values = g.table().copy()
        values[x0] ^= flip
        bad = check_eq23(FieldMap.from_table("flipped", ctx, values), a)
        assert not bad.passed
        assert bad.counterexample == f"a={a:#x}, x={x0:#x}"


def test_tracezero_basis_at_21():
    ctx = FieldCtx.from_tower(2, 1)
    d1, d2 = tracezero_basis(ctx)
    subfield = ctx.enumerate_subfield(2)
    assert d1 != 0 and d2 != 0
    assert d2 not in {ctx.mul(d1, u) for u in subfield}
    spanned = {ctx.mul(d1, u) ^ ctx.mul(d2, v) for u in subfield for v in subfield}
    assert len(spanned) == 16
    assert all(rel_trace(ctx, w, 2) == 0 for w in spanned)


def test_tracezero_basis_at_11():
    # F_8: the trace-zero set x + x^2 + x^4 = 0 has 4 elements
    ctx = FieldCtx.from_tower(1, 1)
    tz = tracezero_set(ctx)
    assert len(tz) == 4
    assert tz.tolist() == [x for x in range(ctx.order) if rel_trace(ctx, x, 1) == 0]
    d1, d2 = tracezero_basis(ctx)
    assert {d1 ^ 0, d2 ^ 0} <= set(tz)


def test_case2_factorization_all_a_at_21():
    ctx = FieldCtx.from_tower(2, 1)
    g = build_g_thm1(ctx)
    valid = [a for a in range(1, 64) if rel_trace(ctx, a, 2) == 0]
    for a in valid:
        assert check_case2_factorization(g, a).passed


def test_case2_factor_sums_are_zero_or_qk():
    ctx = FieldCtx.from_tower(2, 1)
    d1, d2 = tracezero_basis(ctx)
    subfield = ctx.enumerate_subfield(2)
    for a in (x for x in range(1, 64) if rel_trace(ctx, x, 2) == 0):
        c = decompose_a(ctx, a)
        factors = []
        for di in (d1, d2):
            beta = ctx.mul(c, ctx.frobenius(di, 2))
            factors.append(sum(1 - 2 * abs_trace(ctx, ctx.mul(beta, u)) for u in subfield))
        assert all(f in (0, 4) for f in factors)
        assert 0 in factors  # the not-both-zero claim makes the product vanish


def test_case2_factorization_all_a_at_11():
    ctx = FieldCtx.from_tower(1, 1)
    valid = [a for a in range(1, 8) if rel_trace(ctx, a, 1) == 0]
    assert len(valid) == 3
    g = build_g_thm1(ctx)
    for a in valid:
        assert check_case2_factorization(g, a).passed


def test_eq23_is_specific_to_q4():
    # the trace-rewrite endpoint cancels S^q against S^4, so it needs
    # q = 4; at q = 2 it fails pointwise (hence the hard t=2 gate on the
    # first driver), even though the factorization chain above still
    # closes because both sides vanish
    ctx = FieldCtx.from_tower(1, 1)
    g = build_g_thm1(ctx)
    failures = [a for a in (2, 4, 6) if not check_eq23(g, a).passed]
    assert failures


def test_case2_conclusions_are_coset_invariant():
    # the proof never picks a specific c: sweep the whole solution coset
    ctx = FieldCtx.from_tower(2, 1)
    g_table = build_g_thm1(ctx).table()
    case2 = [x for x in range(1, 64) if rel_trace(ctx, x, 2) == 0]
    for a, coset in zip(case2, decomposition_cosets(ctx, case2)):
        for c in coset:
            mask_a = ctx.trace_mask(a)
            mask_c = ctx.trace_mask(c)
            for x in range(ctx.order):
                lhs = (mask_a & int(g_table[x])).bit_count() & 1
                rhs = (mask_c & s_power(ctx, x)).bit_count() & 1
                assert lhs == rhs
            tz_sum = sum(1 - 2 * ((mask_c & int(w)).bit_count() & 1)
                         for w in _s_power(ctx).values)
            assert tz_sum == 0


def test_case_partition():
    ctx = FieldCtx.from_tower(2, 1)
    case1 = [a for a in range(1, 64) if rel_trace(ctx, a, 2) != 0]
    case2 = [a for a in range(1, 64) if rel_trace(ctx, a, 2) == 0]
    assert len(case1) + len(case2) == 63
    assert len(case2) == 15  # q^(2k) - 1
    assert set(case1) & set(case2) == set()


def test_verify_thm1_k1():
    report = verify_thm1(FieldCtx.from_tower(2, 1))
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["pp-exhaustive"].count == 64
    assert by_name["pp-charsum-all"].count == 63
    assert by_name["case1-shift-witness"].count == 48
    assert by_name["case2-eq23"].count == 15


def test_verify_thm1_rejects_other_towers():
    with pytest.raises(ValueError, match="q = 4"):
        verify_thm1(FieldCtx.from_tower(1, 1))


def test_verify_thm1_k3_full_battery():
    # the big sweep: exhaustive bijection on F_262144, everything else sampled
    report = verify_thm1(FieldCtx.from_tower(2, 3))
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["pp-exhaustive"].count == 1 << 18
    assert by_name["pp-charsum-sample"].count == 128
    assert "sampled" in by_name["case1-shift-witness"].note


def test_verify_thm1_k4_full_battery():
    # m = 24: every row of the battery on 2^24-entry tables, the per-a rows batched
    report = verify_thm1(FieldCtx.from_tower(2, 4))
    assert report.passed
    counts = {c.name: c.count for c in report.checks}
    assert counts == {"eq22": 1 << 24, "kernel-image": (1 << 8) + (1 << 16),
                      "pp-exhaustive": 1 << 24, "pp-charsum-sample": 128,
                      "case1-shift-witness": 128, "case2-eq23": 128,
                      "case2-factorization": 128}
    assert report.millis < 15_000


def test_verify_thm1_mutation_is_caught():
    ctx = FieldCtx.from_tower(2, 1)
    table = build_g_thm1(ctx).table().tolist()
    table[3] = table[7]  # break the bijection
    broken = FieldMap.from_table("broken", ctx, table)
    assert is_permutation_exhaustive(broken).verdict == "not-permutation"
    assert pp_verdict_charsum(broken, mode="all").verdict == "not-permutation"


def test_verify_thm3_smallest_tower():
    ctx = FieldCtx.from_tower(1, 1)
    report = verify_thm3(ctx, build_L_note(ctx))
    assert report.passed
    assert not report.hypothesis_failure


def test_verify_thm3_at_21():
    ctx = FieldCtx.from_tower(2, 1)
    report = verify_thm3(ctx, build_L_note(ctx))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names[:3] == ["condition-i", "condition-ii", "pp-exhaustive"]


def test_verify_thm3_at_m21():
    # tower (1, 7): a full battery on a 2^21-entry table, with sampled Case-1 a's
    ctx = FieldCtx.from_tower(1, 7)
    report = verify_thm3(ctx, build_L_note(ctx))
    assert report.overall == "pass"
    by_name = {c.name: c for c in report.checks}
    assert by_name["pp-exhaustive"].count == 1 << 21
    assert by_name["case1-shift-witness"].count == 128


def test_verify_thm3_identity_is_hypothesis_failure():
    ctx = FieldCtx.from_tower(2, 1)
    report = verify_thm3(ctx, LinearizedPoly.identity(ctx))
    assert not report.passed
    assert report.hypothesis_failure
    by_name = {c.name: c for c in report.checks}
    assert by_name["condition-ii"].status == "fail"
    # the conclusion still holds for the identity twist here; the report
    # flags the broken hypothesis, not a broken theorem
    assert by_name["pp-exhaustive"].status == "pass"


def test_report_json_roundtrip():
    report = verify_thm1(FieldCtx.from_tower(2, 1), seed=99)
    blob = report.to_json()
    back = VerificationReport.from_dict(json.loads(blob))
    rerun = verify_thm1(FieldCtx.from_tower(2, 1), seed=99)
    assert back.seed == rerun.seed == 99
    assert [(c.name, c.status) for c in back.checks] == \
        [(c.name, c.status) for c in rerun.checks]
    assert [c.sums for c in back.checks] == [c.sums for c in rerun.checks]
    assert back.overall == rerun.overall


def test_sampled_runs_record_sums_and_reproduce():
    # above m = 14 the character-sum row samples 128 seeded a and records their sums
    ctx = FieldCtx.from_tower(2, 3)
    r1 = verify_thm1(ctx, seed=7)
    r2 = verify_thm1(ctx, seed=7)
    s1 = next(c for c in r1.checks if c.name == "pp-charsum-sample")
    s2 = next(c for c in r2.checks if c.name == "pp-charsum-sample")
    assert s1.sums == s2.sums
    assert s1.count == 128 and s1.sums and all(v == 0 for v in s1.sums.values())


def test_eq24_scaling_is_exact():
    # the full-field sum is exactly q^k times the trace-zero sum; this
    # rides on the rewrite endpoint, so it is a q = 4 statement
    for t, k in [(2, 1), (2, 2)]:
        ctx = FieldCtx.from_tower(t, k)
        g = build_g_thm1(ctx)
        d = t * k
        for a in (x for x in range(1, ctx.order) if rel_trace(ctx, x, d) == 0):
            c = decompose_a(ctx, a)
            mask_c = ctx.trace_mask(c)
            tz_sum = sum(1 - 2 * ((mask_c & int(w)).bit_count() & 1)
                         for w in _s_power(ctx).values)
            assert char_sum(g, a) == (1 << d) * tz_sum


def test_checks_are_deterministic():
    ctx = FieldCtx.from_tower(2, 1)
    r1 = verify_thm1(ctx, seed=5)
    r2 = verify_thm1(ctx, seed=5)
    assert [(c.name, c.status, c.count) for c in r1.checks] == \
        [(c.name, c.status, c.count) for c in r2.checks]


@pytest.mark.parametrize("bad", [-1, 64, 1 << 40])
def test_case1_and_case2_entry_points_reject_values_outside_the_field(bad):
    ctx = FieldCtx.from_tower(2, 1)
    g1 = build_g_thm1(ctx)
    message = r"outside the field range \[0, 2\^6\)"
    case1 = [lambda: shift_check(g1, bad, 1), lambda: shift_check(g1, 1, bad),
             lambda: shift_checks(g1, [1, bad], 1), lambda: find_case1_witness(ctx, bad),
             lambda: case1_witnesses(ctx, build_L1(ctx), [1, bad])]
    case2 = [lambda: decompose_a(ctx, bad), lambda: least_decompositions(ctx, [5, bad]),
             lambda: check_eq23(g1, bad), lambda: check_case2_factorization(g1, bad)]
    for call in case1 + case2:
        with pytest.raises(ValueError, match=message):
            call()
    a = int(tracezero_set(ctx)[1])
    assert check_eq23(g1, a).passed and check_case2_factorization(g1, a).passed
    assert shift_check(g1, 63, find_case1_witness(ctx, 63)) == 1


def test_entry_points_reject_non_integer_elements():
    # a float must not be truncated to an element (1.5 read as 1) nor fail as an IndexError:
    # every entry point rejects it as given, before any cast to int64
    ctx = FieldCtx.from_tower(2, 1)
    g1 = build_g_thm1(ctx)
    a = int(tracezero_set(ctx)[1])
    calls = [lambda: FieldMap.from_table("x", FieldCtx(2), [0.5, 1, 2, 3]),
             lambda: blocks.mul_block(ctx, [1.5], [2]), lambda: blocks.mul_block(ctx, [2], 2.0),
             lambda: decompose_a(ctx, 3.7), lambda: least_decompositions(ctx, [a, 1.5]),
             lambda: shift_checks(g1, [1.5], 1), lambda: shift_checks(g1, [1], 2.0),
             lambda: case1_witnesses(ctx, build_L1(ctx), [1.5]),
             lambda: char_sum(g1, [1.5]), lambda: char_sum(g1, 1.5), lambda: g1(1.5),
             lambda: g1.walsh(np.array([1.0])), lambda: shift_check(g1, 1, 2.0),
             lambda: shift_check(g1, 1.5, 1), lambda: find_case1_witness(ctx, 1.5),
             lambda: check_eq23(g1, 1.5), lambda: check_case2_factorization(g1, 1.5),
             lambda: ctx.trace_mask(np.float64(2)), lambda: ctx.check_element(np.array([True])),
             lambda: g1(True)]
    for call in calls:
        with pytest.raises(TypeError, match="integer"):
            call()
    # every integer type is taken, and an empty array of any dtype
    assert char_sum(g1, np.array([a], dtype=np.uint8)).tolist() == [char_sum(g1, a)]
    assert decompose_a(ctx, np.int16(a)) == decompose_a(ctx, a)
    assert shift_checks(g1, [], 1).size == 0


def test_case2_entry_points_reject_a_zero():
    # a = 0 has no Case-2 decomposition c with c outside F_{q^k}: every entry point raises
    # the same error, where check_eq23 used to pass vacuously and the factorization to fail
    ctx = FieldCtx.from_tower(2, 1)
    g1 = build_g_thm1(ctx)
    for call in (lambda: decompose_a(ctx, 0), lambda: least_decompositions(ctx, [5, 0]),
                 lambda: check_eq23(g1, 0), lambda: check_case2_factorization(g1, 0)):
        with pytest.raises(ValueError, match="a must be nonzero"):
            call()
    assert least_decompositions(ctx, [5]).tolist() == [decompose_a(ctx, 5)]


def test_report_dicts_follow_the_dataclass_fields():
    # the keys come in field order, None fields are left out and millis is rounded;
    # from_dict fills absent optional fields with their defaults and ignores unknown keys
    check = CheckResult("eq22", "fail", count=3, millis=1.23456, counterexample="x")
    assert check.to_dict() == {"name": "eq22", "status": "fail", "count": 3, "millis": 1.235,
                               "counterexample": "x"}
    assert list(check.to_dict()) == ["name", "status", "count", "millis", "counterexample"]
    assert CheckResult.from_dict({"name": "eq22", "status": "pass", "extra": 1}) == \
        CheckResult("eq22", "pass")
    report = VerificationReport("thm1", 2, 1, 6, "5b", 7, [check, CheckResult("a", "pass")],
                                "fail", 2.5)
    data = report.to_dict()
    assert list(data) == ["theorem", "t", "k", "m", "modulus_hex", "seed", "checks", "overall",
                          "millis", "hypothesis_failure"]
    assert data["checks"] == [check.to_dict(), {"name": "a", "status": "pass", "count": 0,
                                                "millis": 0.0}]
    back = VerificationReport.from_dict(json.loads(json.dumps(data)))
    assert back.to_dict() == data and isinstance(back.checks[0], CheckResult)
    del data["hypothesis_failure"]
    assert VerificationReport.from_dict(data).hypothesis_failure is False
