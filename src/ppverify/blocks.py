"""Vectorized numpy kernels for full-field sweeps.

The multiply computes in int64 (products before reduction reach 2m-1 <
48 bits) on element arrays of any integer dtype, such as the uint32 map
tables of `maps`.  Linear maps get split-table lookups built from their
columns, uint32 and cached per coefficient vector; the trace masks a ->
M_a are one of them.  Both reject an entry outside their input range.
A map is read one aligned block x = start ^ i (i < n, start a multiple
of n) at a time, and there a linear map is one cached low table XOR
L(start) (`LinearTable.coset`), or at any given x (`LinearTable` and
`ImageTable` calls).  General products (`mul_block`) are 16 integer
products of operands split into every-4th-bit parts, which cannot carry
into the bits kept, and one linear-table reduction; a map that is
nonlinear only through a linear map's value is tabled on that map's
image (`ImageTable`).
g's s^(q^k+3) and the Case-2 power S^E are both `image_product` tables:
a product of Frobenius powers is multilinear in s's image coordinates,
so its table is an XOR subset-sum of its coefficients, and the products
run once per tuple of basis vectors, never once per image element.
Every shared table here is kept on its context by `FieldCtx.cached`.
`span_basis` finds the F2-span of a table's worth of vectors in one
blocked pass, which lets a per-a check be decided for every a at once.
Subspaces, their tables and the coordinates in their bases are
`gf2linalg`'s.  Every character sum is a lookup in the bins of `walsh`,
the one engine: a histogram, then the exact int32 Walsh-Hadamard
transform, every level at a long stride (`_levels`, shared with the
subset sum); `span_walsh` sums over values of small span.
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
_WALSH_BITS = 16   # index bits per cache-resident block of _levels
_WALSH_ROUND_BITS = 4   # levels per round of _levels, then the index rotates
_MUL_CHUNK = 1 << 13    # elements per chunk of mul_block's integer products
_A_PARTS = np.array([0x111111 << i for i in range(4)], dtype=np.int64)[:, None, None]
_B_PARTS = np.array([[0x111111 << ((k - i) % 4) for k in range(4)] for i in range(4)],
                    dtype=np.int64)[:, :, None]
_KEEP = np.array([0x111111111111 << k for k in range(4)], dtype=np.int64)[:, None]


def parity(values: np.ndarray) -> np.ndarray:
    """Bit parity of each nonnegative entry, as uint8."""
    return np.bitwise_count(values) & 1


def walsh(indices: np.ndarray, bits: int) -> np.ndarray:
    """W[M] = sum over i in indices of (-1)^parity(M & i) for every M < 2^bits, exact int32.

    The int32 histogram of the indices (in [0, 2^bits)) takes the
    Walsh-Hadamard transform in place: level i maps each pair (lo, hi) at
    stride 2^i to (lo + hi, lo - hi), the levels in any order.  Below 16
    bits half the levels run in place and the other half after one
    transpose brings the low index bits up; from 16 bits they run in
    cache-resident blocks (`_levels`).
    """
    w = np.zeros(1 << bits, dtype=np.int32)
    np.add.at(w, indices, np.int32(1))   # an int32 increment keeps the fast path
    _levels(w, bits, _butterfly)
    return w


def _levels(w: np.ndarray, bits: int, level: Callable[[np.ndarray, int], None]) -> None:
    """level(w, 2^i) in place for every i < bits, each at a long stride; levels commute.

    Below 16 bits, levels h..bits-1 (h = bits // 2) run in place, then one
    transpose of the (2^(bits-h), 2^h) view into a copy brings the low h
    index bits up, where the other h levels run at strides of 2^(bits-h)
    or more, and the copy goes back.  From 16 bits, levels 0-15 run on one
    2^16-entry block (256 KB) at a time, while it is in cache, in four
    rounds: levels 12-15 in place, then a (4096, 16) transpose into one
    reused buffer rotates the index right by 4 bits, bringing the next 4
    bits up to 12-15.  So every low level runs at a stride of at least
    2^12; the levels above run over the whole array.
    """
    if bits < _WALSH_BITS:
        h = bits // 2
        for i in range(h, bits):
            level(w, 1 << i)
        low_up = w.reshape(-1, 1 << h).T.copy()
        for i in range(bits - h, bits):
            level(low_up.reshape(-1), 1 << i)
        w.reshape(-1, 1 << h)[...] = low_up.T
        return
    size, cols = 1 << _WALSH_BITS, 1 << _WALSH_ROUND_BITS
    buf = np.empty(size, dtype=w.dtype)
    for start in range(0, len(w), size):
        src, dst = w[start:start + size], buf
        for _ in range(_WALSH_BITS // _WALSH_ROUND_BITS):
            for i in range(_WALSH_BITS - _WALSH_ROUND_BITS, _WALSH_BITS):
                level(src, 1 << i)
            np.copyto(dst.reshape(cols, -1), src.reshape(-1, cols).T)
            src, dst = dst, src
    for i in range(_WALSH_BITS, bits):
        level(w, 1 << i)


def _butterfly(w: np.ndarray, stride: int) -> None:
    """(lo, hi) -> (lo + hi, lo - hi) in place, for every pair of entries stride apart."""
    pairs = w.reshape(-1, 2, stride)
    lo, hi = pairs[:, 0], pairs[:, 1]
    lo += hi
    hi *= -2
    hi += lo


def _xor_up(w: np.ndarray, stride: int) -> None:
    """hi ^= lo in place, for every pair of entries stride apart: one level of a subset sum."""
    pairs = w.reshape(-1, 2, stride)
    pairs[:, 1] ^= pairs[:, 0]


def mul_block(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise field product of two encoding arrays, checked by `FieldCtx.element_array`.

    The carry-less product comes from 16 integer products.  Each operand is
    split by the masks 0x111111 << i (i < 4) into parts a_i and b_j whose set
    bits lie 4 apart.  Operands are below 2^24 (`MAX_DEGREE`), so a part has
    at most 6 set bits, and at each bit p of the same residue as i + j mod 4
    the integer product a_i * b_j sums c_p <= 6 terms: c_p 2^p < 2^(p+3)
    never reaches bit p + 4, the next one of that residue, so bit p is c_p
    mod 2, the carry-less bit, and every product is below 2^48, exact in
    int64.  For each k < 4 the XOR of the four products a_i * b_((k-i) mod
    4), kept at bits 0x111111111111 << k, is the carry-less product at the
    bits k mod 4, and the four are ORed.  The products run on chunks of
    _MUL_CHUNK elements as one (4, 4, n) array.  Bits m..2m-2 are then
    reduced by one `LinearTable` whose columns are x^(m+j) mod the modulus,
    cached on the context.  The result is int64, in the operands' broadcast
    shape.
    """
    a, b = ctx.element_array(a), ctx.element_array(b)
    shape = np.broadcast_shapes(a.shape, b.shape)
    a, b = (np.broadcast_to(v, shape).reshape(-1) for v in (a, b))
    out = np.empty(a.size, dtype=np.int64)
    for start in range(0, a.size, _MUL_CHUNK):
        chunk = slice(start, start + _MUL_CHUNK)
        terms = b[chunk] & _B_PARTS     # [i, k]: b_((k - i) mod 4)
        terms *= a[chunk] & _A_PARTS    # times a_i
        prods = np.bitwise_xor.reduce(terms, axis=0)
        prods &= _KEEP
        np.bitwise_or.reduce(prods, axis=0, out=out[chunk])
    high = out >> ctx.m
    out &= ctx.order - 1
    out ^= _reduction(ctx)(high)
    return out.reshape(shape)


def _reduction(ctx: FieldCtx) -> "LinearTable":
    """The linear table of bits m..2m-2 of a product: column j is x^(m+j) mod the modulus."""
    def build():
        cols, v = [], 1 << (ctx.m - 1)
        for _ in range(ctx.m - 1):
            v = ctx.mul_by_x(v)
            cols.append(v)
        return LinearTable(cols)

    return ctx.cached("reduction", build)


def linear_table(poly: LinearizedPoly) -> "LinearTable":
    """The lookup table of a linearized polynomial, cached on its context by coefficients."""
    return poly.ctx.cached(("linear", poly.coeffs), lambda: LinearTable(poly.matrix_columns()))


class LinearTable:
    """Split lookup tables for an F2-linear map, given its columns (the images of 1 << i).

    The input bits are cut into equal chunks of at most _CHUNK_BITS, one
    table per chunk, and a lookup XORs one gather per chunk.  Tables are
    uint32, or uint64 for images wider than 32 bits, unless a dtype is
    given; with no images it is the zero map on {0}.  An input outside
    [0, 2^len(images)) is a ValueError; a uint64 one is read through its
    int64 view, which is free and exact (inputs are at most 48 bits wide).
    Each chunk's index is shifted and masked into one reused intp buffer,
    so every gather takes numpy's fast signed-index path (its unsigned one
    is much slower) and no other temporary is made.  On an aligned block,
    `coset` needs no gather at all.
    """

    def __init__(self, images: list[int], dtype=None):
        pieces = max(1, -(-len(images) // _CHUNK_BITS))
        self.bits = -(-len(images) // pieces)
        self.mask = (1 << self.bits) - 1
        if dtype is None:
            dtype = np.uint32 if max(images, default=0) >> 32 == 0 else np.uint64
        self.images = images
        self.tables = [gf2linalg.span_table(images[i:i + self.bits], dtype)
                       for i in range(0, max(len(images), 1), max(self.bits, 1))]
        self._low: dict[int, np.ndarray] = {}   # n -> the map on range(n), for coset

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        if not np.issubdtype(xs.dtype, np.integer):
            raise TypeError(f"linear-table inputs must be integers, got an array of {xs.dtype}")
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

    def coset(self, start: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The map at start ^ i for i < n: its cached table on range(n), XOR its value at start.

        n must be a power of two and start a multiple of it (then start ^ i
        = start + i), the block inside the input range; otherwise ValueError.
        The values go to out if given (n entries), as in numpy's ufuncs.
        """
        if n < 1 or n & (n - 1) or start % n or (start | (n - 1)) >> len(self.images):
            raise ValueError(f"block (start={start:#x}, n={n}) is not aligned: n must be a power "
                             f"of two and start a multiple of n in [0, 2^{len(self.images)})")
        if n not in self._low:   # filled in place: no n-entry temporaries beside it
            self._low[n] = gf2linalg.span_table(self.images[:n.bit_length() - 1],
                                                self.tables[0].dtype)
        return np.bitwise_xor(self._low[n], gf2linalg.apply(self.images, start), out=out)


def image_product(poly: LinearizedPoly, exponents) -> "ImageTable":
    """x -> v * prod_e v^(2^e) with v = poly(x), through poly's image, cached on its context."""
    exponents = tuple(exponents)
    return poly.ctx.cached(("image-product", poly.coeffs, exponents),
                           lambda: ImageTable(poly, exponents=exponents))


def _product_table(ctx: FieldCtx, basis: list[int], exponents: tuple) -> np.ndarray:
    """v * prod_e v^(2^e) at every v of span_table(basis), from its multilinear coefficients.

    Each v^(2^e) is linear in v, so at v = XOR of b_j over c's bits the
    product is the XOR of b_i0 * prod_t F_et(b_it) over every index tuple
    drawn from c's bits.  Those products are one `mul_block` per exponent
    on the r^(n+1)-tuple tensor (r = len(basis), n exponents), XORed into
    A[T] at the bitmask T of each tuple's index set; a repeated index counts
    once, since c_i * c_i = c_i.  The value at c is then the XOR of A[T]
    over T inside c: r levels of the in-place subset-sum, hi ^= lo (`_levels`).
    """
    frobenius = ctx.frobenius_images()
    terms = np.array(basis, dtype=np.int64)
    bits = np.left_shift(1, np.arange(len(basis)), dtype=np.intp)
    index = bits
    for e in exponents:
        images = np.array([gf2linalg.apply(frobenius[e % ctx.m], b) for b in basis], dtype=np.int64)
        terms = mul_block(ctx, terms[..., None], images)
        index = index[..., None] | bits
    values = np.zeros(1 << len(basis), dtype=np.uint32)
    np.bitwise_xor.at(values, index.ravel(), terms.ravel().astype(np.uint32))
    _levels(values, len(basis), _xor_up)
    return values


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
    """The map x -> fn(poly(x)), or x -> v * prod_e v^(2^e) with v = poly(x), on poly's image.

    `coords` maps x to the coordinates c of poly(x) (`image_coords`) and
    `values[c]` is the map's value at the image element with coordinates
    c, so the map is one gather, values[coords(xs)] at any x and
    values[coords.coset(start, n)] on an aligned block.  fn is evaluated
    once per image element, on `gf2linalg.span_table` of the image basis;
    the Frobenius product with the given exponents is built from its
    coefficients in that basis instead (`_product_table`), in the same order.
    """

    def __init__(self, poly: LinearizedPoly, fn: Callable[[np.ndarray], np.ndarray] | None = None,
                 exponents: tuple | None = None):
        self.coords, basis = image_coords(poly)
        if exponents is None:
            self.values = fn(gf2linalg.span_table(basis)).astype(np.uint32)
        else:
            self.values = _product_table(poly.ctx, basis, exponents)
        self.values.setflags(write=False)   # cached on the context, shared by every reader
        self._coords: np.ndarray | None = None   # coset's coordinate buffer

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """The map at every x in xs, checked as `LinearTable` inputs."""
        return self.values[self.coords(xs)]

    def coset(self, start: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The map at start ^ i for i < n, with start a multiple of the power of two n.

        With out given (n entries), the values go there, and the coordinates
        to a buffer kept for the next such call: no block allocates.
        """
        if out is None:
            return self.values[self.coords.coset(start, n)]
        if self._coords is None or len(self._coords) != n:
            self._coords = np.empty(n, dtype=np.intp)
        coords = self.coords.coset(start, n, self._coords)   # in range: "clip" never clips
        return np.take(self.values, coords, out=out, mode="clip")


def trace_masks(ctx: FieldCtx) -> LinearTable:
    """a -> ctx.trace_mask(a) over arrays of a, cached on the context.

    Bit i of the mask is Tr(a * x^i); that is linear in a, so column j is
    the mask of x^j, whose bit i is Tr(x^(i+j)): bits j..j+m-1 of the trace
    sequence T = sum of Tr(x^n) 2^n over n < 2m - 1, which is the masks of
    1 and x^(m-1) side by side.
    """
    def build():
        m = ctx.m
        seq = ctx.trace_mask(1) | ctx.trace_mask(1 << (m - 1)) << (m - 1)
        return LinearTable([(seq >> j) & (ctx.order - 1) for j in range(m)])

    return ctx.cached("trace-masks", build)


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
