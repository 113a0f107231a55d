"""Linear algebra over GF(2) on bitmask-encoded vectors.

A linear map on m-bit values is handed around as its list of columns:
column i is the image of the basis vector 1 << i, itself an int bitmask.
Everything here is exact and deterministic; m stays small (<= 24), so a
reduced-row-echelon dict is all the machinery needed.  Only this module
knows how a subspace is stored: as its `echelon` basis, and as the table
of every combination of a basis (`span_table`), ascending for an echelon
basis (`span`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def apply(cols: Sequence[int], v: int) -> int:
    """The linear map with columns cols at v: the XOR of the columns of v's set bits."""
    acc = 0
    while v:
        low = v & -v
        acc ^= cols[low.bit_length() - 1]
        v ^= low
    return acc


def _rref(cols: Sequence[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Reduced row echelon form of the column set.

    Returns (pivots, kernel): pivots maps a pivot bit to an (image,
    preimage) pair whose image has that bit on top and no other pivot's
    bit, and kernel is a basis of the null space as input-space bitmasks.
    Column i is reduced paired with its preimage 1 << i; a nonzero residual
    joins under its top bit, cleared from the other images first.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for i, v in enumerate(cols):
        pre = 1 << i
        for bit, (img, p) in pivots.items():
            if (v >> bit) & 1:
                v ^= img
                pre ^= p
        if v == 0:
            kernel.append(pre)
            continue
        b = v.bit_length() - 1
        for bit, (img, p) in list(pivots.items()):
            if (img >> b) & 1:
                pivots[bit] = (img ^ v, p ^ pre)
        pivots[b] = (v, pre)
    return pivots, kernel


def kernel_image(cols: Sequence[int]) -> tuple[list[int], list[int]]:
    """Kernel basis (input space) and image basis (output space)."""
    pivots, kernel = _rref(cols)
    return kernel, [img for img, _ in pivots.values()]


def particular_solution(cols: Sequence[int], width: int) -> list[int]:
    """Columns (on width-bit targets) of a linear map P with A(P(v)) = v for
    every v in the image of A, the map with columns cols.

    In reduced row echelon form each image basis vector alone holds its
    pivot bit, so reducing v flips exactly v's own pivot bits: the
    preimage is linear in v, with column b the preimage paired with pivot
    b, and 0 where b is not a pivot.
    """
    pivots, _ = _rref(cols)
    return [pivots[b][1] if b in pivots else 0 for b in range(width)]


def echelon(vectors: Sequence[int]) -> list[int]:
    """The reduced echelon basis of the span of vectors, ascending by pivot (top) bit."""
    pivots, _ = _rref(vectors)
    return [pivots[b][0] for b in sorted(pivots)]


def span_table(images: Sequence[int], dtype=np.uint32) -> np.ndarray:
    """The XOR of the images selected by each index's bits, for every index, filled in place."""
    table = np.zeros(1 << len(images), dtype=dtype)
    for i, img in enumerate(images):
        np.bitwise_xor(table[:1 << i], img, out=table[1 << i:2 << i])
    return table


def span(vectors: Sequence[int]) -> np.ndarray:
    """Every element of the span of vectors, ascending, as one read-only uint32 array.

    The `echelon` basis has distinct top bits, so its span table ascends.
    """
    table = span_table(echelon(vectors))
    table.setflags(write=False)
    return table
