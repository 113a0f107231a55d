"""Two independent permutation criteria plus the shift-difference lemma.

The definitional check sweeps all 2^m inputs and watches for output
collisions.  The character-sum check evaluates, for nonzero a, the
exact integer sum of (-1)^Tr(a*f(x)) over the field; f is a permutation
iff every such sum vanishes.  Sums are accumulated as machine integers
(each term is +-1), so there is no rounding anywhere.

Character sums use the linearity of the trace: Tr(a*y) = parity(M_a & y)
for a per-a bitmask M_a, so the sum at a is W[M_a], where W is the Walsh
spectrum of the value histogram: one exact integer transform per map with
a table (m <= TABLE_LIMIT_M).  Above the table limit each sum is one
masked popcount sweep over the chunked domain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import blocks
from .field import FieldCtx
from .maps import TABLE_LIMIT_M, FieldMap

CHARSUM_ALL_LIMIT_M = 14
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
    carry one.  checks counts inputs swept or a-values summed.
    """
    verdict: str
    method: str
    checks: int
    witness: tuple[int, int] | None = None

    def __post_init__(self):
        if self.verdict == NOT_PERMUTATION and self.witness is None:
            raise ValueError("negative verdicts must carry a witness")


def is_permutation_exhaustive(f: FieldMap) -> PPVerdict:
    """Sweep all inputs in order; permutation iff no output collides.

    On a collision the witness is the first colliding pair in
    enumeration order: the least x2 whose value already appeared,
    paired with that value's first preimage.
    """
    ctx = f.ctx
    seen = np.zeros(ctx.order, dtype=bool)
    filled = 0
    for _, ys in f.value_chunks():
        seen[ys] = True
        grown = np.count_nonzero(seen)
        if grown - filled != ys.size:   # a value repeated or was already seen
            x1, x2 = _first_collision(f)
            return PPVerdict(NOT_PERMUTATION, "exhaustive", x2 + 1, witness=(x1, x2))
        filled = grown
    return PPVerdict(PERMUTATION, "exhaustive", ctx.order)


def _first_collision(f: FieldMap) -> tuple[int, int]:
    """(x1, x2): the least x2 whose value appeared before it, and that value's first preimage."""
    seen = np.zeros(f.ctx.order, dtype=bool)
    for xs, ys in f.value_chunks():
        _, first, inverse = np.unique(ys, return_index=True, return_inverse=True)
        repeat = seen[ys] | (first[inverse] != np.arange(ys.size))
        if repeat.any():
            i2 = int(np.argmax(repeat))
            y, x2 = ys[i2], int(xs[i2])
            break
        seen[ys] = True
    else:
        raise AssertionError("collision vanished on rescan; map is not deterministic")
    for xs, ys in f.value_chunks():
        hits = np.flatnonzero(ys == y)
        if hits.size:
            return int(xs[hits[0]]), x2


def char_sum(f: FieldMap, a: int) -> int:
    """Exact integer sum of (-1)^Tr(a*f(x)) over the whole field."""
    return _char_sums(f, [a])[0]


def _char_sums(f: FieldMap, a_values) -> list[int]:
    """Character sums for many a at once: spectrum lookups, or one masked sweep per a."""
    ctx = f.ctx
    masks = np.array([ctx.trace_mask(a) for a in a_values], dtype=np.int64)
    if ctx.m <= TABLE_LIMIT_M:
        return f.spectrum()[masks].tolist()
    odd = np.zeros(len(masks), dtype=np.int64)
    for _, ys in f.value_chunks():
        odd += [np.count_nonzero(blocks.parity(ys & mask)) for mask in masks]
    return (ctx.order - 2 * odd).tolist()


def pp_verdict_charsum(f: FieldMap, mode: str = "all", n: int = DEFAULT_SAMPLES,
                       seed: int = DEFAULT_SEED, allow_large: bool = False) -> PPVerdict:
    """Permutation verdict from character sums.

    mode="all" checks every nonzero a (exact both ways) and is gated at
    m <= CHARSUM_ALL_LIMIT_M unless allow_large is set; mode="sample"
    checks n seeded pseudo-random nonzero a and can only return
    probable-permutation or not-permutation.  The witness is the first a
    (in check order) with a nonzero sum.
    """
    return _charsum_run(f, mode, n, seed, allow_large)[0]


def _charsum_run(f: FieldMap, mode: str, n: int, seed: int,
                 allow_large: bool = False) -> tuple[PPVerdict, dict[int, int]]:
    """pp_verdict_charsum's verdict plus every checked a's sum, from one computation."""
    ctx = f.ctx
    if mode == "all":
        if ctx.m > CHARSUM_ALL_LIMIT_M and not allow_large:
            raise ValueError(
                f"mode=all costs 2^m*(2^m-1) trace evaluations; m={ctx.m} exceeds "
                f"{CHARSUM_ALL_LIMIT_M} (pass allow_large to override)")
        a_values = list(range(1, ctx.order))
        clean_verdict = PERMUTATION
    elif mode == "sample":
        rng = random.Random(seed)
        a_values = [rng.randrange(1, ctx.order) for _ in range(n)]
        clean_verdict = PROBABLE
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'all' or 'sample'")

    sums = _char_sums(f, a_values)
    by_a = dict(zip(a_values, sums))
    for checked, (a, s) in enumerate(zip(a_values, sums), 1):
        if s != 0:
            return PPVerdict(NOT_PERMUTATION, f"charsum-{mode}", checked, witness=(a, s)), by_a
    return PPVerdict(clean_verdict, f"charsum-{mode}", len(a_values)), by_a


def shift_check(f: FieldMap, a: int, y: int) -> int | None:
    """The constant bit of Tr(a*f(x+y)) + Tr(a*f(x)) over all x, if constant.

    Returns None when the difference is not constant.  A constant 1
    lets the caller conclude char_sum(f, a) = 0 (shift-difference
    lemma); verify runs cross-check that implication wherever it fires.
    """
    ctx = f.ctx
    mask = ctx.trace_mask(a)
    constant: int | None = None
    for xs, ys in f.value_chunks():
        par = blocks.parity(ys & mask)
        if ys.size == ctx.order:    # the whole table: shift the parities by index
            bits = par ^ par[xs ^ y]
        else:
            bits = par ^ blocks.parity(f.eval_block(xs ^ y) & mask)
        lo, hi = int(bits.min()), int(bits.max())
        if lo != hi:
            return None
        if constant is None:
            constant = lo
        elif constant != lo:
            return None
    return constant


def find_case1_witness(ctx: FieldCtx, a: int) -> int:
    """First y in F_{q^k} (enumeration order) with Tr_{q^k/2}(y * rel_trace(a)) = 1.

    Only defined for a with nonzero relative trace; the trace form on
    the subfield is nondegenerate, so a witness always exists.
    """
    t, k = ctx.require_tower()
    d = t * k
    r = ctx.rel_trace(a, d)
    if r == 0:
        raise ValueError(f"a={a:#x} has zero relative trace; it belongs to Case 2")
    for y in ctx.enumerate_subfield(d):
        if ctx.subfield_trace(ctx.mul(y, r), d) == 1:
            return y
    raise AssertionError("nondegenerate trace form yielded no witness")
