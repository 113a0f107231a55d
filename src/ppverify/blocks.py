"""Vectorized numpy kernels for full-field sweeps.

The multiply computes in int64 (products before reduction reach 2m-1 <
48 bits) on element arrays of any integer dtype, such as the uint32 map
tables of `maps`.  Linear maps get split-table lookups built from their
columns, uint32 and cached per coefficient vector; the trace masks a ->
M_a are one of them.  Both reject an entry outside their input range.
A map table is filled one aligned block x = start ^ i (i < n,
start a multiple of n) at a time, and there a linear map is one cached
low table XOR L(start) (`LinearTable.coset`).  General products use a
vectorized shift-and-XOR multiply, and a map that is nonlinear only
through a linear map's value is tabled on that map's image (`ImageTable`),
so products run once per image element, never once per input; g's
s^(q^k+3) and the Case-2 power S^E are both `image_product` tables.
Every shared table here is kept on its context by `FieldCtx.cached`.
`span_basis` finds the F2-span of a table's worth of vectors in one
blocked pass, which lets a per-a check be decided for every a at once.
Subspaces, their tables and the coordinates in their bases are
`gf2linalg`'s.  Every character sum is a lookup in the bins of `walsh`,
the one engine: a histogram, then the exact int32 Walsh-Hadamard
transform, cache-blocked; `span_walsh` sums over values of small span.
These kernels are the only way the package evaluates traces, powers
and linearized maps; the scalar oracles that pin them are in
`tests/reference.py`.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import gf2linalg
from .field import FieldCtx
from .linearized import LinearizedPoly

BLOCK = 1 << 16    # inputs per block of a pass over a whole table
_CHUNK_BITS = 12   # input bits per LinearTable chunk: 4096-entry tables
_WALSH_BITS = 16   # index bits per cache-resident block of walsh
_WALSH_ROUND_BITS = 4   # levels per round of walsh, then the index rotates


def parity(values: np.ndarray) -> np.ndarray:
    """Bit parity of each nonnegative entry, as uint8."""
    return np.bitwise_count(values) & 1


def walsh(indices: np.ndarray, bits: int) -> np.ndarray:
    """W[M] = sum over i in indices of (-1)^parity(M & i) for every M < 2^bits, exact int32.

    The int32 histogram of the indices (in [0, 2^bits)) takes the
    Walsh-Hadamard transform in place: level i maps each pair (lo, hi) at
    stride 2^i to (lo + hi, lo - hi), the levels in any order.  For bits >=
    16, levels 0-15 run on one 2^16-entry block (256 KB) at a time, while
    it is in cache, in four rounds: levels 12-15 in place, then a (4096,
    16) transpose into one reused buffer rotates the index right by 4 bits,
    bringing the next 4 bits up to 12-15.  So every low level runs at a
    stride of at least 2^12; the levels above run over the whole array.
    """
    w = np.zeros(1 << bits, dtype=np.int32)
    np.add.at(w, indices, np.int32(1))   # an int32 increment keeps the fast path
    if bits < _WALSH_BITS:
        for i in range(bits):
            _butterfly(w, 1 << i)
        return w
    size, cols = 1 << _WALSH_BITS, 1 << _WALSH_ROUND_BITS
    buf = np.empty(size, dtype=w.dtype)
    for start in range(0, len(w), size):
        src, dst = w[start:start + size], buf
        for _ in range(_WALSH_BITS // _WALSH_ROUND_BITS):
            for i in range(_WALSH_BITS - _WALSH_ROUND_BITS, _WALSH_BITS):
                _butterfly(src, 1 << i)
            np.copyto(dst.reshape(cols, -1), src.reshape(-1, cols).T)
            src, dst = dst, src
    for i in range(_WALSH_BITS, bits):
        _butterfly(w, 1 << i)
    return w


def _butterfly(w: np.ndarray, stride: int) -> None:
    """(lo, hi) -> (lo + hi, lo - hi) in place, for every pair of entries stride apart."""
    pairs = w.reshape(-1, 2, stride)
    lo, hi = pairs[:, 0], pairs[:, 1]
    lo += hi
    hi *= -2
    hi += lo


def mul_block(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field product of two encoding arrays, checked by `FieldCtx.element_array`."""
    a, b = ctx.element_array(a), ctx.element_array(b)
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
    return poly.ctx.cached(("linear", poly.coeffs), lambda: LinearTable(poly.matrix_columns()))


class LinearTable:
    """Split lookup tables for an F2-linear map, given its columns (the images of 1 << i).

    The input bits are cut into equal chunks of at most _CHUNK_BITS, one
    table per chunk, and a lookup XORs one gather per chunk.  Tables are
    uint32, or uint64 for images wider than 32 bits, unless a dtype is
    given.  An input outside [0, 2^len(images)) is a ValueError; a uint64
    one is read through its int64 view, which is free and exact (inputs are
    at most 48 bits wide).  Each chunk's index is shifted and masked into
    one reused intp buffer, so every gather takes numpy's fast signed-index
    path (its unsigned one is much slower) and no other temporary is made.
    On an aligned block, `coset` needs no gather at all.
    """

    def __init__(self, images: list[int], dtype=None):
        pieces = max(1, -(-len(images) // _CHUNK_BITS))
        self.bits = -(-len(images) // pieces)
        self.mask = (1 << self.bits) - 1
        if dtype is None:
            dtype = np.uint32 if max(images, default=0) >> 32 == 0 else np.uint64
        self.images = images
        self.tables = [gf2linalg.span_table(images[i:i + self.bits], dtype)
                       for i in range(0, len(images), self.bits)]
        self._low: dict[int, np.ndarray] = {}   # n -> the map on range(n), for coset

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        if xs.dtype == np.uint64:
            xs = xs.view(np.int64)
        last = len(self.tables) - 1
        part = np.empty(xs.shape, dtype=np.intp)   # each chunk's indices in turn
        for j, table in enumerate(self.tables):
            np.right_shift(xs, j * self.bits, out=part)
            if j < last:
                part &= self.mask
            elif part.view(np.uintp).max(initial=0) >= len(table):   # a negative input reads huge
                raise ValueError(f"an input outside the range [0, 2^{len(self.images)})")
            if j:
                out ^= table[part]
            else:
                out = table[part]
        return out

    def coset(self, start: int, n: int) -> np.ndarray:
        """The map at start ^ i for i < n: its cached table on range(n), XOR its value at start.

        n must be a power of two and start a multiple of it (then start ^ i
        = start + i) in the input range; otherwise ValueError.
        """
        if n < 1 or n & (n - 1) or start % n or start >> len(self.images):
            raise ValueError(f"block (start={start:#x}, n={n}) is not aligned: n must be a power "
                             f"of two and start a multiple of n in [0, 2^{len(self.images)})")
        if n not in self._low:   # filled in place: no n-entry temporaries beside it
            self._low[n] = gf2linalg.span_table(self.images[:n.bit_length() - 1],
                                                self.tables[0].dtype)
        return self._low[n] ^ gf2linalg.apply(self.images, start)


def image_product(poly: LinearizedPoly, exponents) -> "ImageTable":
    """x -> frobenius_product(poly(x), exponents) through poly's image, cached on its context."""
    exponents = tuple(exponents)
    return poly.ctx.cached(("image-product", poly.coeffs, exponents), lambda: ImageTable(
        poly, lambda v: frobenius_product(poly.ctx, v, exponents)))


def image_coords(poly: LinearizedPoly) -> tuple[LinearTable, list[int]]:
    """x -> the coordinates of poly(x) in its echelon image basis, as intp, and that basis; cached.

    The coordinate table (m to rank bits) maps poly's columns to their
    pivot coordinates (`gf2linalg.coordinate_columns`).  It is intp, so
    gathers through it need no index conversion, and one is shared by
    every ImageTable of poly.
    """
    def build():
        cols = poly.matrix_columns()
        basis = gf2linalg.echelon(cols)
        pivots, _ = gf2linalg.coordinate_columns(basis, poly.ctx.m)
        return LinearTable([gf2linalg.apply(pivots, col) for col in cols], dtype=np.intp), basis

    return poly.ctx.cached(("image-coords", poly.coeffs), build)


class ImageTable:
    """The map x -> fn(poly(x)), with fn evaluated once per image element.

    `coords` maps x to the coordinates c of poly(x) (`image_coords`) and
    `values[c]` is fn at the image element with coordinates c, so the map
    on an aligned block is one gather, values[coords.coset(start, n)].
    """

    def __init__(self, poly: LinearizedPoly, fn: Callable[[np.ndarray], np.ndarray]):
        self.coords, basis = image_coords(poly)
        self.values = fn(gf2linalg.span_table(basis)).astype(np.uint32)
        self.values.setflags(write=False)   # cached on the context, shared by every reader

    def coset(self, start: int, n: int) -> np.ndarray:
        """The map at start ^ i for i < n, with start a multiple of the power of two n."""
        return self.values[self.coords.coset(start, n)]


def trace_masks(ctx: FieldCtx) -> LinearTable:
    """a -> ctx.trace_mask(a) over arrays of a, cached on the context.

    Bit i of the mask is Tr(a * e_i) for the basis element e_i = 1 << i;
    that is linear in a, so the columns are the masks of the basis elements.
    """
    return ctx.cached("trace-masks",
                      lambda: LinearTable([ctx.trace_mask(1 << i) for i in range(ctx.m)]))


def span_basis(vector_blocks: Iterable[np.ndarray], width: int) -> list[int]:
    """Reduced row-echelon basis of the span of all vectors in the blocks (width-bit ints).

    Each block is reduced by the linear map z -> z + (the basis vectors
    whose pivot bits z has), one split-table lookup: z lies in the span iff
    its residual is 0.  Up to `width` nonzero residuals then join the
    basis (`gf2linalg.echelon`), and the block is reduced anew.  Earlier
    blocks lie in the old span and need no second look.
    """
    basis: list[int] = []
    reduce = None
    for vs in vector_blocks:
        residual = vs if reduce is None else reduce(vs)
        while residual.any():
            basis = gf2linalg.echelon(basis + residual[residual != 0][:width].tolist())
            on_top = {v.bit_length() - 1: v for v in basis}   # pivot bit -> its basis vector
            reduce = LinearTable([(1 << i) ^ on_top.get(i, 0) for i in range(width)])
            residual = reduce(vs)
    return basis


def span_walsh(values: np.ndarray, masks: np.ndarray, width: int) -> np.ndarray:
    """The exact sum over v in values of (-1)^parity(M & v), for each mask M, as int32.

    The `walsh` of the values' coordinates in the echelon basis B of their
    span (`span_basis`, whatever its dimension), read at the masks'
    pairings with B (`gf2linalg.coordinate_columns`); both are width-bit.
    """
    basis = span_basis([values], width)
    pivots, pairings = gf2linalg.coordinate_columns(basis, width)
    bins = walsh(LinearTable(pivots, dtype=np.intp)(values), len(basis))
    return bins[LinearTable(pairings, dtype=np.intp)(masks)]
