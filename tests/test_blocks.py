"""ImageTable: a function of a linear map's value, tabled once on the map's image."""

import numpy as np
import pytest

from ppverify import FieldCtx, LinearizedPoly, blocks
from ppverify.constructions import build_L1, s2k


def _cube(ctx):
    return lambda v: blocks.frobenius_product(ctx, v, (1,))


def _square_mod(ctx):
    """Integer squaring mod 2^m: nonlinear over F2 and cheap at m = 21."""
    return lambda v: (v * v) & (ctx.order - 1)


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
    xs = blocks.domain(ctx)
    ys = blocks.linear_table(poly)(xs)
    table = blocks.ImageTable(poly, fn)
    assert table.values.dtype == np.uint32 and table.values.shape == (1 << rank,)
    assert np.array_equal(table(xs), fn(ys))


@pytest.mark.parametrize("case", list(CASES))
def test_image_table_of_identity_reproduces_poly(case):
    make_poly, _, rank = CASES[case]
    poly = make_poly()
    xs = blocks.domain(poly.ctx)
    table = blocks.ImageTable(poly, lambda v: v)
    coords = table.coords(xs)
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
