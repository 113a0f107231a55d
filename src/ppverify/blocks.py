"""Vectorized numpy kernels for full-field sweeps.

The kernels compute in int64 (products before reduction reach 2m-1 < 48
bits) and accept any integer array, such as the uint32 map tables of
`maps`.  Linear maps get split-table lookups built from their columns,
cached per coefficient vector.  General products use a vectorized
shift-and-XOR multiply, and a map that is nonlinear only through a linear
map's value is tabled on that map's image (`ImageTable`), so products run
once per image element, never once per input.  The scalar paths in `field`
stay the reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import gf2linalg
from .field import FieldCtx
from .linearized import LinearizedPoly


def parity(values: np.ndarray) -> np.ndarray:
    """Bit parity of each nonnegative entry, as uint8."""
    return np.bitwise_count(values) & 1


def mul_block(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field product of two encoding arrays."""
    a = a.astype(np.int64, copy=False)
    b = b.astype(np.int64, copy=False)
    m = ctx.m
    acc = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    bit, term = np.empty_like(acc), np.empty_like(acc)   # reused: no temporaries per step
    for i in range(m):
        np.bitwise_and(np.right_shift(b, i, out=bit), 1, out=bit)
        acc ^= np.multiply(np.left_shift(a, i, out=term), bit, out=term)
    for j in range(2 * m - 2, m - 1, -1):
        np.bitwise_and(np.right_shift(acc, j, out=bit), 1, out=bit)
        acc ^= np.multiply(bit, ctx.modulus << (j - m), out=bit)
    return acc


def frobenius_product(ctx: FieldCtx, v: np.ndarray, exponents) -> np.ndarray:
    """v times v^(2^e) for each e in exponents, elementwise: one lookup and one product per e."""
    out = v
    for e in exponents:
        out = mul_block(ctx, out, linear_table(LinearizedPoly.frobenius_power(ctx, e))(v))
    return out


def linear_table(poly: LinearizedPoly) -> "LinearTable":
    """The lookup table of a linearized polynomial, cached on its context by coefficients."""
    key = ("linear", poly.coeffs)
    if key not in poly.ctx._cache:
        poly.ctx._cache[key] = LinearTable(poly.matrix_columns())
    return poly.ctx._cache[key]


class LinearTable:
    """Split lookup tables for an F2-linear map, given its columns (the images of 1 << i)."""

    def __init__(self, images: list[int]):
        self.lo_bits = (len(images) + 1) // 2
        self.lo_mask = (1 << self.lo_bits) - 1
        self.lo = _span_table(images[:self.lo_bits])
        self.hi = _span_table(images[self.lo_bits:])

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = xs.astype(np.int64, copy=False)
        return self.lo[xs & self.lo_mask] ^ self.hi[xs >> self.lo_bits]


def image_product(poly: LinearizedPoly, exponents) -> "ImageTable":
    """xs -> frobenius_product(poly(xs), exponents) through poly's image, cached on its context."""
    key = ("image-product", poly.coeffs, tuple(exponents))
    if key not in poly.ctx._cache:
        poly.ctx._cache[key] = ImageTable(
            poly, lambda v: frobenius_product(poly.ctx, v, exponents))
    return poly.ctx._cache[key]


class ImageTable:
    """The block function xs -> fn(poly(xs)), with fn evaluated once per image element.

    The reduced row-echelon form of poly's columns gives an image basis in
    which each basis vector holds its own pivot bit and no other, so the
    pivot bits of y = poly(x) are y's coordinates.  `coords` maps x to
    them (a LinearTable from m to r = rank bits, built from the same
    columns), `values[c]` is fn at the image element with coordinates c,
    and a block is one gather, values[coords(xs)].
    """

    def __init__(self, poly: LinearizedPoly, fn: Callable[[np.ndarray], np.ndarray]):
        cols = poly.matrix_columns()
        pivots, _ = gf2linalg._rref(cols)
        bits = sorted(pivots)
        self.coords = LinearTable([sum(((col >> b) & 1) << j for j, b in enumerate(bits))
                                   for col in cols])
        self.values = fn(_span_table([pivots[b][0] for b in bits])).astype(np.uint32)

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return self.values[self.coords(xs)]


def _span_table(images: list[int]) -> np.ndarray:
    table = np.zeros(1 << len(images), dtype=np.int64)
    for i, img in enumerate(images):
        table[1 << i:2 << i] = table[:1 << i] ^ img
    return table


def domain(ctx: FieldCtx) -> np.ndarray:
    """All 2^m encodings in order, as one read-only array shared on the context."""
    if "domain" not in ctx._cache:
        ctx._cache["domain"] = np.arange(ctx.order, dtype=np.int64)
        ctx._cache["domain"].setflags(write=False)
    return ctx._cache["domain"]

