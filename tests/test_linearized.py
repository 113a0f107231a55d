"""Linearized polynomials as coefficient vectors and as linear maps."""

import random

import pytest

from ppverify import FieldCtx, LinearizedPoly, format_linpoly, parse_linpoly, permutes, s_polynomial
from ppverify.constructions import build_L_note
from ppverify.gf2linalg import span
from ppverify.linearized import subfield_permutation_check
from ppverify.proofchecks import tracezero_set

from reference import (columns_of_map, image_by_sweep, kernel_by_sweep,
                       subfield_permutation_scalar)

ALL_TOWERS_M18 = [(t, k) for t in range(1, 7) for k in range(1, 7) if 3 * t * k <= 18]


def test_identity_and_zero_eval():
    ctx = FieldCtx(4)
    ident = LinearizedPoly.identity(ctx)
    for x in ctx.elements():
        assert ident(x) == x
    L = LinearizedPoly.from_pairs(ctx, [(1, 3), (2, 7)])
    assert L(0) == 0


@pytest.mark.parametrize("x", [-1, -64, 64, 1 << 40])
def test_call_rejects_an_element_outside_the_field(x):
    ctx = FieldCtx(6)
    for L in (LinearizedPoly.identity(ctx), LinearizedPoly.zero(ctx)):
        with pytest.raises(ValueError, match=r"outside the field range \[0, 2\^6\)"):
            L(x)


def test_s2_vanishes_on_subfield():
    # ker S_2 is the subfield F_4 inside F_64
    ctx = FieldCtx.from_tower(2, 1)
    S = s_polynomial(ctx, 2)
    for z in ctx.enumerate_subfield(2):
        assert S(z) == 0


def test_coefficient_vector_length_is_enforced():
    ctx = FieldCtx(4)
    with pytest.raises(ValueError):
        LinearizedPoly(ctx, [1, 0])


def test_compose_identity():
    ctx = FieldCtx(6)
    rng = random.Random(3)
    B = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
    assert LinearizedPoly.identity(ctx).compose(B) == B
    assert B.compose(LinearizedPoly.identity(ctx)) == B


def test_compose_frobenius_powers_add():
    ctx = FieldCtx(6)
    for a in range(6):
        for b in range(6):
            fa = LinearizedPoly.frobenius_power(ctx, a)
            fb = LinearizedPoly.frobenius_power(ctx, b)
            assert fa.compose(fb) == LinearizedPoly.frobenius_power(ctx, (a + b) % 6)


def test_compose_agrees_with_nested_eval_f256():
    ctx = FieldCtx(8)
    rng = random.Random(11)
    for _ in range(5):
        A = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
        B = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
        C = A.compose(B)
        for x in ctx.elements():
            assert C(x) == A(B(x))


def test_s_polynomial_single_term_is_identity():
    ctx = FieldCtx.from_tower(2, 1)
    assert s_polynomial(ctx, 1) == LinearizedPoly.identity(ctx)


def test_s_polynomial_support():
    ctx = FieldCtx.from_tower(2, 1)
    assert s_polynomial(ctx, 2).support() == [0, 2]  # x + x^4
    ctx22 = FieldCtx.from_tower(2, 2)
    assert s_polynomial(ctx22, 4).support() == [0, 2, 4, 6]  # up to x^64 in m=12


def test_s_polynomial_matches_power_sum():
    ctx = FieldCtx.from_tower(2, 2)
    S = s_polynomial(ctx, 4)
    rng = random.Random(17)
    for _ in range(100):
        x = rng.randrange(ctx.order)
        direct = 0
        for i in range(4):
            direct ^= ctx.pow(x, ctx.q ** i)
        assert S(x) == direct


def test_kernel_image_identity_and_zero():
    ctx = FieldCtx(6)
    kernel, image = LinearizedPoly.identity(ctx).kernel_image()
    assert span(kernel) == [0]
    assert span(image) == list(ctx.elements())
    kernel, image = LinearizedPoly.zero(ctx).kernel_image()
    assert span(kernel) == list(ctx.elements())
    assert span(image) == [0]


def test_kernel_image_of_s2():
    ctx = FieldCtx.from_tower(2, 1)
    kernel, image = s_polynomial(ctx, 2).kernel_image()
    assert len(kernel) == 2 and len(image) == 4
    assert span(kernel) == ctx.enumerate_subfield(2)


def test_kernel_image_exhaustive_cross_check():
    ctx = FieldCtx.from_tower(2, 1)
    rng = random.Random(23)
    polys = [s_polynomial(ctx, 2), LinearizedPoly.identity(ctx)]
    polys += [LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
              for _ in range(10)]
    for L in polys:
        kernel, image = L.kernel_image()
        assert len(kernel) + len(image) == ctx.m
        assert set(span(kernel)) == kernel_by_sweep(L)
        assert set(span(image)) == image_by_sweep(L)


def test_rank_nullity_random():
    ctx = FieldCtx(8)
    rng = random.Random(5)
    for _ in range(100):
        L = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
        kernel, image = L.kernel_image()
        assert len(kernel) + len(image) == ctx.m


def test_kernel_membership_decides_vanishing_m12():
    # L(x) = 0 exactly on the kernel span, checked over the whole field
    ctx = FieldCtx(12)
    rng = random.Random(6)
    L = LinearizedPoly(ctx, [rng.randrange(ctx.order) if i < 3 else 0
                             for i in range(ctx.m)])
    kernel, _ = L.kernel_image()
    members = set(span(kernel))
    for x in ctx.elements():
        assert (L(x) == 0) == (x in members)


def test_matrix_columns_match_eval():
    ctx = FieldCtx(7)
    rng = random.Random(31)
    L = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
    cols = L.matrix_columns()
    for _ in range(100):
        x = rng.randrange(ctx.order)
        acc = 0
        for i in range(ctx.m):
            if (x >> i) & 1:
                acc ^= cols[i]
        assert acc == L(x)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_additivity_exhaustive(m):
    ctx = FieldCtx(m)
    rng = random.Random(m)
    L = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
    for x in ctx.elements():
        for y in ctx.elements():
            assert L(x ^ y) == L(x) ^ L(y)


def test_additivity_random_m12():
    ctx = FieldCtx(12)
    rng = random.Random(42)
    L = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.m)])
    for _ in range(10_000):
        x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert L(x ^ y) == L(x) ^ L(y)


@pytest.mark.parametrize("t,k", ALL_TOWERS_M18, ids=lambda v: str(v))
def test_s2k_kernel_is_subfield_image_is_tracezero(t, k):
    ctx = FieldCtx.from_tower(t, k)
    S = s_polynomial(ctx, 2 * k)
    kernel, image = S.kernel_image()
    assert span(kernel) == ctx.enumerate_subfield(t * k)
    assert span(image) == tracezero_set(ctx)


def test_permutes_identity():
    ctx = FieldCtx.from_tower(2, 1)
    for d in (1, 2, 3, 6):
        assert permutes(LinearizedPoly.identity(ctx), d)


def test_permutes_s2_fails_on_its_kernel():
    ctx = FieldCtx.from_tower(2, 1)
    ok, reason = subfield_permutation_check(s_polynomial(ctx, 2), 2)
    assert not ok
    assert "not injective" in reason


def test_permutes_reports_instability_distinctly():
    # x -> x^2 + c with linear part only: multiplication by a non-subfield
    # constant pushes subfield elements outside
    ctx = FieldCtx.from_tower(2, 1)
    outsider = next(a for a in ctx.elements() if not ctx.in_subfield(a, 2))
    L = LinearizedPoly.from_pairs(ctx, [(0, outsider)])
    ok, reason = subfield_permutation_check(L, 2)
    assert not ok
    assert "not subfield-stable" in reason


@pytest.mark.parametrize("t, k", [(t, k) for t in range(1, 5) for k in range(1, 5)
                                  if 3 * t * k <= 12])
def test_subfield_permutation_check_matches_the_scalar_loop(t, k):
    # every subfield degree d <= 6 of the tower; L with coefficients anywhere (mostly
    # not subfield-stable), in GF(2^d) (stable: a permutation or not injective), or
    # one coefficient outside it
    ctx = FieldCtx.from_tower(t, k)
    rng = random.Random(f"condition-i:{t}:{k}")
    outcomes = set()
    for d in [d for d in range(1, 7) if ctx.m % d == 0]:
        sub = ctx.enumerate_subfield(d)
        for i in range(90):
            coeffs = [rng.choice(sub) if rng.random() < 0.4 else 0 for _ in range(ctx.m)]
            if i % 3 == 0:
                coeffs = [rng.randrange(ctx.order) for _ in range(ctx.m)]
            elif i % 3 == 1:
                coeffs[rng.randrange(ctx.m)] = rng.randrange(ctx.order)
            L = LinearizedPoly(ctx, coeffs)
            ok, reason = subfield_permutation_check(L, d)
            assert (ok, reason) == subfield_permutation_scalar(L, d), (d, coeffs)
            outcomes.add("pass" if ok else reason.split(":")[0])
    assert outcomes == {"pass", "not subfield-stable", "not injective"}


def test_permutes_L_note():
    ctx = FieldCtx.from_tower(2, 1)
    assert permutes(build_L_note(ctx), 2)
    ctx11 = FieldCtx.from_tower(1, 1)
    assert permutes(build_L_note(ctx11), 1)


@pytest.mark.parametrize("m", range(1, 25))
def test_matrix_columns_match_evaluation_at_the_basis(m):
    ctx = FieldCtx(m)
    rng = random.Random(m)
    for _ in range(4):
        L = LinearizedPoly(ctx, [rng.choice((0, 1, rng.randrange(ctx.order))) for _ in range(m)])
        assert L.matrix_columns() == columns_of_map(m, L.__call__)


def test_textual_roundtrip():
    ctx = FieldCtx.from_tower(2, 1)
    L = LinearizedPoly.from_pairs(ctx, [(0, 0x2A), (4, 1)])
    text = format_linpoly(L)
    assert text == "lin[0:2a,4:1]"
    assert parse_linpoly(ctx, text) == L
    assert parse_linpoly(ctx, "lin[]") == LinearizedPoly.zero(ctx)


def test_parse_rejects_garbage():
    ctx = FieldCtx(6)
    with pytest.raises(ValueError):
        parse_linpoly(ctx, "notlin[0:1]")
    with pytest.raises(ValueError):
        parse_linpoly(ctx, "lin[0=1]")


def test_immutability():
    ctx = FieldCtx(4)
    L = LinearizedPoly.identity(ctx)
    with pytest.raises(AttributeError):
        L.coeffs = (0, 0, 0, 0)
