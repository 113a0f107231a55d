"""Two permutation criteria plus the shift-difference lemma.

The definitional check decides whether every value is hit.  The
character-sum check evaluates, for nonzero a, the exact integer sum of
(-1)^Tr(a*f(x)) over the field; f is a permutation iff every such sum
vanishes.  Sums are accumulated as machine integers (each term is +-1),
so there is no rounding anywhere.

For the paper's g, built from its parts with g(x_s + u) = g(x_s) + L(u)
for u in K = ker S, the definitional check is decided on the quotient by
K (`FieldMap.bijective`): L is injective on K and g at the coset
representatives x_s meets every coset of L(K), 2^(2m/3) bins, so it
never fills the 2^m table unless g collides; an imported map scatters
its table.  Character sums use the linearity of the trace: Tr(a*y) =
parity(M_a & y) for a per-a bitmask M_a, so the sum at a is W[M_a],
where W is the map's Walsh spectrum (`FieldMap.walsh`): one exact
integer transform per map, at every m.  For g it is a transform of the
same coset bins, and W[M_a] is one lookup in them, 0 unless M_a lies in
their span; an imported map keeps the transform of its whole table.  So
for g the two criteria read the same values, g at the representatives,
and their agreement is no independent check; the tests pin both against
the table of g's aligned blocks.  M_a is linear in a too, so the masks
of any number of a are one table lookup.

The shift-difference lemma is checked the same way for many a at once:
Tr(a*(f(x+y) + f(x))) is constant in x iff M_a annihilates the span of
the differences, so one span per shift y decides every a
(`shift_checks`).  The span is `FieldMap.span`'s: for the paper's g the
differences are constant on the cosets of ker S, so they are read at the
2^(m - dim K) coset representatives only (`FieldMap.at`), and for y in
ker S they are the constant L(y), with no span to read; an imported map
reads them at every x.  One pass over L(F_{q^k}) finds the Case-1
shift y of every relative trace (`case1_witnesses`).  `shift_check` and
`find_case1_witness` are their one-element calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import blocks, gf2linalg
from .constructions import build_L1, rel_trace_poly
from .field import FieldCtx
from .linearized import LinearizedPoly
from .maps import FieldMap

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 128

PERMUTATION = "permutation"
NOT_PERMUTATION = "not-permutation"
PROBABLE = "probable-permutation"


@dataclass(frozen=True)
class PPVerdict:
    """Outcome of a permutation test.

    witness is a colliding input pair for the exhaustive method, or an
    (a, sum) pair with a nonzero character sum; negative verdicts always
    carry one.  checks counts inputs decided or a-values summed.
    """
    verdict: str
    method: str
    checks: int
    witness: tuple[int, int] | None = None

    def __post_init__(self):
        if self.verdict == NOT_PERMUTATION and self.witness is None:
            raise ValueError("negative verdicts must carry a witness")


def is_permutation_exhaustive(f: FieldMap) -> PPVerdict:
    """Permutation iff every value is hit; exact, and checks = 2^m on a pass.

    A map built from its parts (L, S) is decided on the quotient by K =
    ker S (`FieldMap.bijective`), from f at the 2^(m - dim K) coset
    representatives, so a pass reads no 2^m array.  A map given by its
    table scatters its table's blocks into a 2^m `seen`, cast to intp
    (numpy would convert uint32 indices itself, more slowly).  On a
    collision the table is built and the witness is the first colliding
    pair in enumeration order: the least x2 whose value already appeared,
    paired with that value's first preimage.
    """
    if f._linear is None:
        table, seen = f.table(), np.zeros(f.ctx.order, dtype=bool)
        n = min(blocks.BLOCK, f.ctx.order)
        index = np.empty(n, dtype=np.intp)
        for start in range(0, f.ctx.order, n):
            index[:] = table[start:start + n]
            seen[index] = True
        passed = np.count_nonzero(seen) == f.ctx.order
    else:
        passed = f.bijective()
    if passed:
        return PPVerdict(PERMUTATION, "exhaustive", f.ctx.order)
    # first[v] = the least preimage of v; x2 is the least x that is not its value's first
    table = f.table()
    xs = np.arange(table.size, dtype=np.uint32)
    first = np.full(f.ctx.order, table.size, dtype=np.uint32)
    np.minimum.at(first, table, xs)
    x2 = int(np.argmax(first[table] != xs))
    return PPVerdict(NOT_PERMUTATION, "exhaustive", x2 + 1, witness=(int(first[table[x2]]), x2))


def char_sum(f: FieldMap, a):
    """Exact integer sum of (-1)^Tr(a*f(x)) over the whole field.

    Given an array of a, returns the array of their sums: one gather of
    the trace masks from their linear table, then `FieldMap.walsh` at
    those masks.  Every a must be an int in [0, 2^m): TypeError or
    ValueError otherwise, before any lookup.
    """
    sums = f.walsh(blocks.trace_masks(f.ctx)(f.ctx.element_array(a)))
    return sums if np.ndim(a) else int(sums)


def _char_sums(f: FieldMap, a_values) -> list[int]:
    """Character sums for many a at once, as a list: lookups in the map's Walsh bins."""
    return char_sum(f, a_values).tolist()


def pp_verdict_charsum(f: FieldMap, mode: str = "all", n: int = DEFAULT_SAMPLES,
                       seed: int = DEFAULT_SEED) -> PPVerdict:
    """Permutation verdict from character sums.

    mode="all" checks every nonzero a, at every m (exact both ways);
    mode="sample" checks n seeded pseudo-random nonzero a and can only
    return probable-permutation or not-permutation.  The witness is the
    first a (in check order) with a nonzero sum.
    """
    return _charsum_run(f, mode, n, seed)[0]


def _charsum_run(f: FieldMap, mode: str, n: int,
                 seed: int) -> tuple[PPVerdict, dict[int, int] | None]:
    """pp_verdict_charsum's verdict plus, in sample mode, every drawn a's sum (also past a witness).

    In mode all the a go through `FieldMap.walsh` in blocks of blocks.BLOCK,
    made by np.arange, and the pass stops at the first nonzero sum; in mode
    sample the drawn a are summed once, in one block; n must be at least 1
    (ValueError), since an empty sample would pass vacuously.
    """
    ctx = f.ctx
    if mode == "all":
        a_blocks = (np.arange(lo, min(lo + blocks.BLOCK, ctx.order), dtype=np.int64)
                    for lo in range(1, ctx.order, blocks.BLOCK))
        summed = ((a, char_sum(f, a)) for a in a_blocks)
        clean_verdict, by_a = PERMUTATION, None
    elif mode == "sample":
        if n < 1:
            raise ValueError(f"a character-sum sample needs n >= 1, got {n}")
        rng = random.Random(seed)
        drawn = np.array([rng.randrange(1, ctx.order) for _ in range(n)], dtype=np.int64)
        sums = char_sum(f, drawn)
        summed = [(drawn, sums)]
        clean_verdict, by_a = PROBABLE, dict(zip(drawn.tolist(), sums.tolist()))
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'all' or 'sample'")

    checked = 0
    for a, sums in summed:
        bad = np.flatnonzero(sums)
        if bad.size:
            i = int(bad[0])
            return PPVerdict(NOT_PERMUTATION, f"charsum-{mode}", checked + i + 1,
                             witness=(int(a[i]), int(sums[i]))), by_a
        checked += a.size
    return PPVerdict(clean_verdict, f"charsum-{mode}", checked), by_a


def shift_check(f: FieldMap, a: int, y: int) -> int | None:
    """The constant bit of Tr(a*f(x+y)) + Tr(a*f(x)) over all x, if constant.

    Returns None when the difference is not constant.  A constant 1
    lets the caller conclude char_sum(f, a) = 0 (shift-difference
    lemma); verify runs cross-check that implication wherever it fires.
    """
    const = int(shift_checks(f, [a], y)[0])
    return None if const < 0 else const


def shift_checks(f: FieldMap, a_values, y: int) -> np.ndarray:
    """shift_check(f, a, y) for every a at once, as int8: the constant bit, or -1 if none.

    With D(x) = f(x) + f(x+y), Tr(a*D(x)) = parity(M_a & D(x)) is constant
    in x iff the trace mask M_a annihilates the span of D(x) + D(0) over
    every x, and the constant is then parity(M_a & D(0)).  The span is
    `FieldMap.span` of D(x) + D(0), read by `FieldMap.at`: for a map with a
    linear part (L, S), f(x + u) = f(x) + L(u) for u in K = ker S, so D is
    constant on the cosets of K, and only the 2^(m - dim K) coset
    representatives and K's basis are read; for y in K, D(x) = L(y) at every
    x, so the span is {0} and none is read.  At most one span per y,
    whatever the number of a.  y and every a must lie in [0, 2^m), as ints:
    TypeError or ValueError otherwise, before any lookup.
    """
    a_values = f.ctx.element_array(a_values)
    f.ctx.check_element(y)
    d0 = f(0) ^ f(y)
    masks = blocks.trace_masks(f.ctx)(a_values)
    const = blocks.parity(masks & d0).astype(np.int8)
    if f._linear is not None and not gf2linalg.apply(f._linear[1].matrix_columns(), y):
        return const
    for b in f.span(lambda xs: f.at(xs) ^ f.at(xs, y) ^ d0, f.ctx.m):
        const[blocks.parity(masks & b) == 1] = -1
    return const


def case1_witnesses(ctx: FieldCtx, L: LinearizedPoly, r_values) -> np.ndarray:
    """For each relative trace r, the first y in F_{q^k} with Tr_{q^k/2}(L(y) r) = 1, as int64.

    -1 where no y qualifies, or where L maps a y met on the way outside
    F_{q^k}.  There Tr_{q^k/2} is the absolute trace (m/d = 3 is odd), so
    the test is parity(M_r & L(y)), one masked pass over L(F_{q^k}).  g1 is
    g3 with L1, which is the identity on F_{q^k}: one search serves both.
    Every r must be an int in [0, 2^m): TypeError or ValueError otherwise,
    before any lookup.
    """
    r_values = ctx.element_array(r_values)
    t, k = ctx.require_tower()
    d = t * k
    ys = ctx.enumerate_subfield(d)
    ly = blocks.linear_table(L)(ys)
    inside = np.logical_and.accumulate(
        blocks.linear_table(LinearizedPoly.frobenius_power(ctx, d))(ly) == ly)
    masks = blocks.trace_masks(ctx)(r_values)
    hit = (blocks.parity(masks[:, None] & ly) == 1) & inside
    return np.where(hit.any(axis=1), ys[hit.argmax(axis=1)].astype(np.int64), -1)


def find_case1_witness(ctx: FieldCtx, a: int) -> int:
    """First y in F_{q^k} (enumeration order) with Tr_{q^k/2}(y * rel_trace(a)) = 1.

    Only defined for a with nonzero relative trace; the trace form on
    the subfield is nondegenerate, so a witness always exists.  a must
    be an int in [0, 2^m): TypeError or ValueError otherwise.
    """
    ctx.check_element(a)
    r = int(blocks.linear_table(rel_trace_poly(ctx))(a))
    if r == 0:
        raise ValueError(f"a={a:#x} has zero relative trace; it belongs to Case 2")
    return int(case1_witnesses(ctx, build_L1(ctx), [r])[0])
