"""ImageTable, LinearTable and their cosets, span bases and trace masks: the table kernels of `blocks`."""

import functools
import operator
import random

import numpy as np
import pytest

from ppverify import FieldCtx, LinearizedPoly, blocks, gf2linalg
from ppverify.constructions import build_L1, rel_trace_poly, s2k
from ppverify.proofchecks import _s_power, tracezero_basis
from reference import rel_trace, signed_parity_sums


def _cube(ctx):
    return lambda v: blocks.frobenius_product(ctx, v, (1,))


def _square_mod(ctx):
    """Integer squaring mod 2^m: nonlinear over F2 and cheap at m = 21."""
    return lambda v: (v * v) & (ctx.order - 1)


def _by_blocks(coset, order):
    """coset(start, n) on every aligned block of the field, n = min(BLOCK, order), concatenated."""
    n = min(blocks.BLOCK, order)
    return np.concatenate([coset(start, n) for start in range(0, order, n)])


CASES = {
    "zero-m8": (lambda: LinearizedPoly.zero(FieldCtx(8)), _cube, 0),
    "L1-bijective-m12": (lambda: build_L1(FieldCtx.from_tower(2, 2)), _cube, 12),
    "S-m12": (lambda: s2k(FieldCtx.from_tower(1, 4)), _cube, 8),
    "S-tower-7-1": (lambda: s2k(FieldCtx.from_tower(7, 1)), _square_mod, 14),
}


@pytest.mark.parametrize("case", list(CASES))
def test_image_table_matches_fn_of_poly_on_every_x(case):
    make_poly, make_fn, rank = CASES[case]
    poly = make_poly()
    ctx = poly.ctx
    fn = make_fn(ctx)
    xs = np.arange(ctx.order, dtype=np.uint32)
    ys = blocks.linear_table(poly)(xs)
    table = blocks.ImageTable(poly, fn)
    assert table.values.dtype == np.uint32 and table.values.shape == (1 << rank,)
    assert np.array_equal(_by_blocks(table.coset, ctx.order), fn(ys))


@pytest.mark.parametrize("case", list(CASES))
def test_image_table_of_identity_reproduces_poly(case):
    make_poly, _, rank = CASES[case]
    poly = make_poly()
    xs = np.arange(poly.ctx.order, dtype=np.uint32)
    table = blocks.ImageTable(poly, lambda v: v)
    coords = table.coords(xs)
    assert coords.dtype == np.intp
    assert coords.min() >= 0 and coords.max() < 1 << rank
    assert np.array_equal(table.values[coords], blocks.linear_table(poly)(xs))
    # the image has exactly 2^rank elements, one per coordinate vector
    assert len(np.unique(table.values)) == 1 << rank


def test_image_product_is_cached_per_poly_and_exponents():
    ctx = FieldCtx.from_tower(2, 1)
    S = s2k(ctx)
    first = blocks.image_product(S, (1, 2))
    assert blocks.image_product(S, (1, 2)) is first
    assert blocks.image_product(S, (3, 4)) is not first
    assert blocks.image_product(LinearizedPoly.identity(ctx), (1, 2)) is not first
    # the coordinate table is shared by every image table of one poly
    assert blocks.ImageTable(S, lambda v: v).coords is first.coords
    assert blocks.image_product(LinearizedPoly.identity(ctx), (1, 2)).coords is not first.coords


@pytest.mark.parametrize("n_in, width", [(5, 6), (13, 21), (24, 24), (48, 48)])
def test_linear_table_is_the_xor_of_its_columns(n_in, width):
    rng = random.Random(n_in * 100 + width)
    cols = [rng.getrandbits(width) for _ in range(n_in)]
    table = blocks.LinearTable(cols)
    assert all(t.size <= 1 << 12 for t in table.tables)
    xs = [0, (1 << n_in) - 1] + [rng.getrandbits(n_in) for _ in range(3000)]
    got = table(np.array(xs, dtype=np.uint64 if n_in > 32 else np.uint32))
    assert got.dtype == (np.uint64 if width > 32 else np.uint32)
    want = []
    for x in xs:
        acc = 0
        for i, col in enumerate(cols):
            if (x >> i) & 1:
                acc ^= col
        want.append(acc)
    assert got.tolist() == want


@pytest.mark.parametrize("m", [1, 12, 15, 16, 17, 19])
def test_linear_table_coset_is_the_map_on_every_aligned_block(m):
    rng = random.Random(m)
    table = blocks.LinearTable([rng.getrandbits(m) for _ in range(m)])
    n = min(blocks.BLOCK, 1 << m)
    span = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << m, n):
        got = table.coset(start, n)
        assert got.dtype == np.uint32
        assert np.array_equal(got, table(start ^ span))
    assert table.coset(0, n) is not table.coset(0, n)   # a fresh array, never the cached one


@pytest.mark.parametrize("start, n", [(1, 2), (4096, 1 << 16), ((1 << 16) + 1, 1 << 16), (0, 3),
                                      (-(1 << 16), 1 << 16), (1 << 17, 1 << 16)])
def test_linear_table_coset_rejects_a_misaligned_block(start, n):
    table = blocks.LinearTable([1 << i for i in range(17)])
    with pytest.raises(ValueError, match="not aligned"):
        table.coset(start, n)


def _blocks_of(values, size):
    return (values[i:i + size] for i in range(0, len(values), size))


@pytest.mark.parametrize("rank, late", [(0, False), (1, True), (9, False), (30, True)])
def test_span_basis_is_the_reduced_echelon_basis_of_the_span(rank, late):
    # late: the first blocks hold only zeros, so every vector comes from a later block
    rng = random.Random(rank)
    width = 40
    gens = [rng.getrandbits(width) for _ in range(rank)]
    vectors = []
    for _ in range(3000):
        v = 0
        for g in gens:
            if rng.getrandbits(1):
                v ^= g
        vectors.append(v)
    if late:
        vectors = [0] * 2000 + vectors
    values = np.array(vectors, dtype=np.uint64)
    basis = blocks.span_basis(_blocks_of(values, 700), width)
    pivots, _ = gf2linalg._rref(vectors)
    assert basis == sorted(img for img, _ in pivots.values())
    assert len(basis) == len(gf2linalg.kernel_image(gens)[1])


def test_trace_masks_are_cached_and_linear():
    ctx = FieldCtx.from_tower(2, 2)
    masks = blocks.trace_masks(ctx)
    assert blocks.trace_masks(ctx) is masks
    assert masks(np.arange(ctx.order)).tolist() == [ctx.trace_mask(a) for a in range(ctx.order)]


def test_span_walsh_matches_the_definition_and_the_parity_oracle():
    # 16-bit values, so their span (16 dimensions) keeps the transform at 2^16 bins;
    # 300 values put 218 masks in an oracle block, so the 1000 masks span five blocks
    rng = random.Random(7)
    values = np.array([rng.getrandbits(16) for _ in range(300)], dtype=np.int64)
    masks = np.array([rng.getrandbits(16) for _ in range(1000)], dtype=np.uint32)
    want = [sum(1 - 2 * ((int(mask) & int(v)).bit_count() & 1) for v in values) for mask in masks]
    assert signed_parity_sums(values, masks).tolist() == want
    got = blocks.span_walsh(values, masks, 16)
    assert got.dtype == np.int32 and got.tolist() == want


def _span_walsh_value_sets(ctx):
    """The value sets of the Case-2 sums, a full-span set and all-zero values, by name."""
    t, k = ctx.require_tower()
    subfield = ctx.enumerate_subfield(t * k)
    tz_powers = _s_power(ctx).values
    rng = np.random.default_rng(ctx.m)
    full = np.concatenate([1 << np.arange(ctx.m), rng.integers(0, ctx.order, 500)])
    sets = {"tz_powers": tz_powers, "subfield": subfield, "full-span": full,
            "zero": np.zeros_like(tz_powers)}
    for i, di in enumerate(tracezero_basis(ctx)):
        e = gf2linalg.apply(ctx.frobenius_images()[t * k], di)
        sets[f"d{i + 1}^(q^k) F_q^k"] = blocks.mul_block(ctx, e, subfield)
    return sets


@pytest.mark.parametrize("t,k", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1),
                                 (2, 3), (1, 6), (2, 4), (1, 8)], ids=str)
def test_span_walsh_matches_the_parity_oracle_on_the_case2_value_sets(t, k):
    # every mask up to m = 12, seeded masks above (fewer at m = 24: the oracle is values x masks)
    ctx = FieldCtx.from_tower(t, k)
    if ctx.m <= 12:
        masks = np.arange(ctx.order, dtype=np.uint32)
    else:
        rng = np.random.default_rng(ctx.m * 100 + t)
        masks = rng.integers(0, ctx.order, 4096 if ctx.m < 24 else 512).astype(np.uint32)
    for name, values in _span_walsh_value_sets(ctx).items():
        assert np.array_equal(blocks.span_walsh(values, masks, ctx.m),
                              signed_parity_sums(values, masks)), name


def test_kernels_reject_entries_outside_their_input_range():
    # unchecked, a masked or wrapped index reads these as [58, 0] and [5, -2018] at m = 6
    ctx = FieldCtx.from_tower(1, 2)
    rel = blocks.linear_table(rel_trace_poly(ctx))
    with pytest.raises(ValueError, match=r"outside the range \[0, 2\^6\)"):
        rel([-1, -64])
    with pytest.raises(ValueError, match="element 64 outside"):
        blocks.mul_block(ctx, [64, -1], [3, 1])
    with pytest.raises(ValueError, match="element -1 outside"):
        blocks.mul_block(ctx, [3, 1], [1, -1])
    for wide in ([64], np.array([3, 1 << 40]), np.array([1 << 63], dtype=np.uint64)):
        with pytest.raises(ValueError, match=r"outside the range \[0, 2\^6\)"):   # not IndexError
            rel(wide)
    assert rel(np.arange(ctx.order)).tolist() == [rel_trace(ctx, a, 2) for a in range(ctx.order)]


@pytest.mark.parametrize("width", [36, 48])
def test_linear_table_reads_uint64_inputs_as_int64(width):
    # the eq23 span pass feeds 2m-bit uint64 vectors; they are read through an int64 view
    rng = random.Random(width)
    images = [rng.getrandbits(width) for _ in range(width)]
    table = blocks.LinearTable(images)
    xs = [0, 1, (1 << width) - 1, 1 << (width - 1)] + [rng.getrandbits(width) for _ in range(3000)]
    got = table(np.array(xs, dtype=np.uint64))
    want = table(np.array(xs, dtype=np.int64))
    assert got.dtype == want.dtype == np.uint64
    assert np.array_equal(got, want)
    for x, value in zip(xs[:50], want[:50].tolist()):
        assert value == functools.reduce(operator.xor, (v for i, v in enumerate(images)
                                                        if x >> i & 1), 0)
