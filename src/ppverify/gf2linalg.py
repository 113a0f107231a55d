"""Linear algebra over GF(2) on bitmask-encoded vectors.

A linear map on m-bit values is handed around as its list of columns:
column i is the image of the basis vector 1 << i, itself an int bitmask.
Everything here is exact and deterministic; m stays small (<= 24), so a
reduced-row-echelon dict is all the machinery needed.
"""

from __future__ import annotations

from typing import Sequence


def apply(cols: Sequence[int], v: int) -> int:
    """The linear map with columns cols at v: the XOR of the columns of v's set bits."""
    acc = 0
    while v:
        low = v & -v
        acc ^= cols[low.bit_length() - 1]
        v ^= low
    return acc


def echelon_insert(pivots: dict[int, tuple[int, int]], v: int, pre: int) -> int | None:
    """Reduce the pair (v, pre) by the pivots, and add it as a pivot if v survives.

    pivots maps a pivot bit to an (image, preimage) pair whose image holds
    that bit and no other pivot's bit (reduced row echelon form); every
    XOR into an image is made into its preimage too.  A nonzero residual
    joins under its top bit, cleared from the other images first.
    Returns the reduced preimage if v reduces to 0, else None.
    """
    for bit, (img, p) in pivots.items():
        if (v >> bit) & 1:
            v ^= img
            pre ^= p
    if v == 0:
        return pre
    b = v.bit_length() - 1
    for bit, (img, p) in list(pivots.items()):
        if (img >> b) & 1:
            pivots[bit] = (img ^ v, p ^ pre)
    pivots[b] = (v, pre)
    return None


def _rref(cols: Sequence[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Reduced row echelon form of the column set.

    Returns (pivots, kernel): pivots maps a pivot bit to an
    (image, preimage) pair where no image contains another pivot's bit,
    and kernel is a basis of the null space as input-space bitmasks.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for i, col in enumerate(cols):
        pre = echelon_insert(pivots, col, 1 << i)
        if pre is not None:
            kernel.append(pre)
    return pivots, kernel


def kernel_image(cols: Sequence[int]) -> tuple[list[int], list[int]]:
    """Kernel basis (input space) and image basis (output space)."""
    pivots, kernel = _rref(cols)
    image = [img for img, _ in pivots.values()]
    return kernel, image


def particular_solution(cols: Sequence[int], width: int) -> tuple[list[int], list[int]]:
    """Columns (on width-bit targets) of a linear map P with A(P(v)) = v for
    every v in the image of A, the map with columns cols; and a kernel basis of A.

    In reduced row echelon form each image basis vector alone holds its
    pivot bit, so reducing v flips exactly v's own pivot bits: the
    preimage is linear in v, with column b the preimage paired with pivot
    b, and 0 where b is not a pivot.
    """
    pivots, kernel = _rref(cols)
    return [pivots[b][1] if b in pivots else 0 for b in range(width)], kernel


def span(basis: Sequence[int]) -> list[int]:
    """All XOR combinations of the basis, sorted ascending."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return sorted(out)
