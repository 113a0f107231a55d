"""Independent brute-force oracles the tests check the fast paths against.

Everything here prefers the dumbest correct algorithm: trial division,
exhaustive filters, definitional sums, one masked sweep per character
sum.  Deliberately disjoint from the implementation's Frobenius/gcd
irreducibility test, kernel-basis subfield enumeration, Walsh-spectrum
character sums, popcount parity kernel, image-table map formulas and
vectorized collision search.  The `*_block_direct` oracles reuse the
linear-table and multiply kernels, which are pinned on their own, but
multiply on every x instead of once per image element.  The `*_per_a`
oracles are the case loops as verify ran them before batching: one
full-table sweep of the single-a check per a.
"""

import numpy as np

from ppverify import binpoly, blocks, char_sum, shift_check
from ppverify.constructions import s2k
from ppverify.linearized import LinearizedPoly
from ppverify.proofchecks import CheckResult


def trial_division_irreducible(f: int) -> bool:
    """No divisor of degree 1..deg(f)//2, by dividing by every candidate."""
    n = binpoly.degree(f)
    if n < 1:
        return False
    for d in range(2, 1 << (n // 2 + 1)):
        if binpoly.mod(f, d) == 0:
            return False
    return True


def least_irreducible_by_trial(m: int) -> int:
    for cand in range(1 << m, 1 << (m + 1)):
        if trial_division_irreducible(cand):
            return cand
    raise AssertionError


def common_divisors(f: int, g: int, max_degree: int = 8) -> list[int]:
    """All monic common divisors up to max_degree, by enumeration."""
    out = []
    for d in range(1, 1 << (max_degree + 1)):
        if (f == 0 or binpoly.mod(f, d) == 0) and (g == 0 or binpoly.mod(g, d) == 0):
            out.append(d)
    return out


def mul_via_polymod(ctx, a: int, b: int) -> int:
    """Field product through an explicit carry-less multiply + long division."""
    return binpoly.mod(binpoly.multiply(a, b), ctx.modulus)


def subfield_by_filter(ctx, d: int) -> list[int]:
    """Exhaustive filter of the frobenius fixed-point condition."""
    return [a for a in ctx.elements() if ctx.frobenius(a, d) == a]


def char_sum_definitional(fmap, a: int) -> int:
    """Sum of (-1)^Tr(a*f(x)) term by term, no masks."""
    ctx = fmap.ctx
    return sum(1 - 2 * ctx.abs_trace(ctx.mul(a, fmap(x))) for x in ctx.elements())


def char_sums_masked(fmap, a_values) -> list[int]:
    """One masked-parity sweep over the value table per a; parity by bit folding."""
    ctx = fmap.ctx
    table = fmap.table()
    sums = []
    for a in a_values:
        v = table & ctx.trace_mask(a)
        for shift in (16, 8, 4, 2, 1):
            v = v ^ (v >> shift)
        sums.append(ctx.order - 2 * int((v & 1).sum()))
    return sums


def kernel_by_sweep(L) -> set[int]:
    return {x for x in L.ctx.elements() if L(x) == 0}


def image_by_sweep(L) -> set[int]:
    return {L(x) for x in L.ctx.elements()}


def g_scalar(ctx, x: int, L=None) -> int:
    """g1(x), or g3(x) given L, with s = S(x) and s^(q^k+3) = s * s^2 * s^(q^k), by scalar ops."""
    t, k = ctx.require_tower()
    s = s2k(ctx)(x)
    head = x ^ ctx.frobenius(s, 2 * t * k) if L is None else L(x)
    return head ^ ctx.mul(ctx.mul(s, ctx.sqr(s)), ctx.frobenius(s, t * k))


def s_power(ctx, x: int) -> int:
    """S(x)^(1 + 2q^k + q^(2k)) = v * v^(2^(tk+1)) * v^(2^(2tk)) with v = S(x), by scalar ops."""
    t, k = ctx.require_tower()
    v = s2k(ctx)(x)
    return ctx.mul(ctx.mul(v, ctx.frobenius(v, t * k + 1)), ctx.frobenius(v, 2 * t * k))


def g_block_direct(ctx, xs, L=None):
    """g1(xs), or g3(xs) given L, with two shift-and-XOR products on every x (no image table)."""
    t, k = ctx.require_tower()
    s = blocks.linear_table(s2k(ctx))(xs)
    if L is None:
        head = xs ^ blocks.linear_table(LinearizedPoly.frobenius_power(ctx, 2 * t * k))(s)
    else:
        head = blocks.linear_table(L)(xs)
    return head ^ blocks.frobenius_product(ctx, s, (1, t * k))


def s_power_block_direct(ctx, xs):
    """S(xs)^(1 + 2q^k + q^(2k)) with two shift-and-XOR products on every x (no image table)."""
    t, k = ctx.require_tower()
    return blocks.frobenius_product(ctx, blocks.linear_table(s2k(ctx))(xs), (t * k + 1, 2 * t * k))


def first_collision(values):
    """(x1, x2) for the least x2 whose value appeared before, by a dict scan; None if none."""
    first = {}
    for x, y in enumerate(values):
        if y in first:
            return first[y], x
        first[y] = x
    return None


def case1_per_a(g, case1, witness_for) -> CheckResult:
    """The case1-shift-witness row by one shift_check sweep and one char_sum per a."""
    def fail(why):
        return CheckResult("case1-shift-witness", "fail", count=len(case1), counterexample=why)

    for a in case1:
        y = witness_for(a)
        if y is None:
            return fail(f"a={a:#x}: no shift witness in the subfield")
        const = shift_check(g, a, y)
        if const != 1:
            return fail(f"a={a:#x}, y={y:#x}: "
                        f"difference {'not constant' if const is None else const}")
        if char_sum(g, a) != 0:
            return fail(f"a={a:#x}: constant-1 shift but nonzero character sum")
    return CheckResult("case1-shift-witness", "pass", count=len(case1))


def case2_per_a(name, case2, check) -> CheckResult:
    """A Case-2 row: check(a) for each a in turn, the first failure standing for all."""
    for a in case2:
        got = check(a)
        if not got.passed:
            return got
    return CheckResult(name, "pass", count=len(case2))
