"""The concrete permutation-map constructions under test.

Over a tower context (t, k) with q = 2^t, write s = S(x) for the
q-linearized sum x + x^q + ... + x^(q^(2k-1)).  The two candidate
permutations are

    g1(x) = x + s^(q^(2k)) + s^(q^k + 3)
    g3(x) = L(x) + s^(q^k + 3)

where L is any 2-linearized map that permutes F_{q^k} and satisfies the
twist identity L + L^(q^(2k)) = S^4 coefficient-for-coefficient.  The
canonical such L folds the power 4*q^(3k-1) into a Frobenius index:
L = Frob^e (L1) with L1 = x + S(x)^(q^(2k)) and e = 2 + t*(3k-1).

g1 is g3 with L = L1, and it is built that way: one block formula serves
both maps.  At q = 4, L1 permutes F_{q^k} and satisfies
L1 + L1^(q^(2k)) = S^4 (the tests check both for k = 1, 2, 3), so the
conjectured g1 is an instance of the generalized theorem.

Maps are realized as evaluators, not expanded polynomials; functional
identity mod x^(2^m) - x is all the verification needs.  The nonlinear
part depends on x only through s, so its field products run on S's image
(q^(2k) = 2^(2m/3) elements), never on all 2^m inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import blocks
from .field import FieldCtx
from .linearized import LinearizedPoly, permutes, s_polynomial
from .maps import FieldMap


def s2k(ctx: FieldCtx) -> LinearizedPoly:
    """The 2k-term sum S for this tower; its support never wraps mod m."""
    _, k = ctx.require_tower()
    poly = s_polynomial(ctx, 2 * k)
    assert len(poly.support()) == 2 * k, "stride t with 2k terms stays below m = 3tk"
    return poly


def build_L1(ctx: FieldCtx) -> LinearizedPoly:
    """x + S(x)^(q^(2k)): the L for which g3 is g1."""
    t, k = ctx.require_tower()
    return LinearizedPoly.identity(ctx) + s2k(ctx).then_frobenius(2 * k * t)


def build_g_thm1(ctx: FieldCtx) -> FieldMap:
    """x + s^(q^(2k)) + s^(q^k + 3): g3 with L = L1."""
    return _g_map(ctx, build_L1(ctx), "builtin:g-thm1")


def build_L_note(ctx: FieldCtx) -> LinearizedPoly:
    """The canonical L: Frob^e after L1, e = 2 + t(3k-1)."""
    t, k = ctx.require_tower()
    return build_L1(ctx).then_frobenius(2 + t * (3 * k - 1))


def condition_ii_sides(ctx: FieldCtx, L: LinearizedPoly) -> tuple[LinearizedPoly, LinearizedPoly]:
    """Reduced coefficient vectors of L + L^(q^(2k)) and of S^4."""
    t, k = ctx.require_tower()
    left = L + L.then_frobenius(2 * k * t)
    right = s2k(ctx).then_frobenius(2)
    return left, right


def check_condition_ii(ctx: FieldCtx, L: LinearizedPoly) -> bool:
    """Exact coefficient equality of L + L^(q^(2k)) with S^4.

    Reduced linearized polynomials are in bijection with the maps they
    induce, so this is equivalent to the functional congruence mod
    x^(2^m) - x.
    """
    left, right = condition_ii_sides(ctx, L)
    return left == right


def build_g_thm3(ctx: FieldCtx, L: LinearizedPoly) -> FieldMap:
    """L(x) + s^(q^k + 3), with s = S(x)."""
    return _g_map(ctx, L, "builtin:g-thm3")


def _g_map(ctx: FieldCtx, L: LinearizedPoly, name: str) -> FieldMap:
    """L(x) + P(x) with P(x) = s * s^2 * s^(q^k), from its parts: L's table and P's on S's image.

    P depends on x only through s = S(x), so it is tabled on S's
    q^(2k)-element image, from its coefficients in S's image basis: P is
    trilinear in s's coordinates, and its products run once per triple of
    basis vectors (`blocks.image_product`).  That value table is cached on the
    context and shared by every map with the same S; (L, S) is the map's linear part.
    """
    t, k = ctx.require_tower()
    S = s2k(ctx)
    return FieldMap(name, ctx, (L, S), blocks.image_product(S, (1, t * k)))


def rel_trace_poly(ctx: FieldCtx) -> LinearizedPoly:
    """x + x^(q^k) + x^(q^(2k)) as a linearized polynomial."""
    t, k = ctx.require_tower()
    return LinearizedPoly.from_pairs(ctx, [(0, 1), (t * k, 1), (2 * t * k, 1)])


@dataclass(frozen=True)
class LCandidate:
    """An accepted L from the search, with its per-candidate verification."""
    index: int
    label: str
    poly: LinearizedPoly
    pp_verified: bool


# family description recorded in search output; see search_L_candidates
SEARCH_FAMILY = ("L = L_note + P(RelTrace(x)) with P 2-linearized over F_{q^k}: "
                 "M=0 first, then single-coefficient P, then coefficient pairs")


def _family_members(ctx: FieldCtx):
    """Deterministic (label, M) sequence for the search family, M = P o RelTrace, made lazily."""
    t, k = ctx.require_tower()
    trace = rel_trace_poly(ctx)
    coeffs = ctx.enumerate_subfield(t * k)[1:].tolist()
    yield "M=0", LinearizedPoly.zero(ctx)
    singles = [(i, c) for i in range(ctx.m) for c in coeffs]
    for i, c in singles:
        yield f"P={i}:{c:x}", LinearizedPoly.from_pairs(ctx, [(i, c)]).compose(trace)
    for (i1, c1), (i2, c2) in itertools.combinations(singles, 2):
        if i1 != i2:
            P = LinearizedPoly.from_pairs(ctx, [(i1, c1), (i2, c2)])
            yield f"P={i1}:{c1:x},{i2}:{c2:x}", P.compose(trace)


def search_L_candidates(ctx: FieldCtx, budget: int) -> list[LCandidate]:
    """Examine the first `budget` members of the declared family of L and keep
    the ones that pass both hypotheses; each survivor is then PP-verified
    exactly by `is_permutation_exhaustive`, on the quotient by ker S: g at
    the coset representatives, with the image table all candidates share.

    Duplicated coefficient vectors (the family parametrization repeats
    itself) are reported once, at their first index.
    """
    from .pptest import is_permutation_exhaustive  # local import, avoids a cycle

    t, k = ctx.require_tower()
    if budget < 1:
        raise ValueError("budget must be at least 1")
    base = build_L_note(ctx)
    accepted: list[LCandidate] = []
    seen: set[tuple] = set()
    for index, (label, M) in enumerate(itertools.islice(_family_members(ctx), budget)):
        L = base + M
        if L.coeffs in seen:
            continue
        if not permutes(L, t * k):
            continue
        if not check_condition_ii(ctx, L):
            continue
        seen.add(L.coeffs)
        verdict = is_permutation_exhaustive(build_g_thm3(ctx, L))
        accepted.append(LCandidate(index, label, L, verdict.verdict == "permutation"))
    return accepted
