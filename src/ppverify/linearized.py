"""2-linearized polynomials: sums of c_i * x^(2^i) acting on GF(2^m).

Coefficient vectors always have length exactly m (exponents reduced
mod m, valid because x^(2^m) = x on the field), so reduced polynomials
are in bijection with the F2-linear maps they induce; coefficient
equality is functional equality.  q-linearized polynomials embed by
placing coefficients at stride t when q = 2^t.  A polynomial is
evaluated only through its columns (`matrix_columns`), as the lookup
table of `blocks.linear_table`; the term-by-term sum is the oracle that
pins that table, in `tests/reference.py`.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from . import gf2linalg
from .field import BLANKS, FieldCtx, parse_pair


class LinearizedPoly:
    """Immutable coefficient vector of a 2-linearized polynomial."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable[int]):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.m:
            raise ValueError(f"need exactly m={ctx.m} coefficients, got {len(coeffs)}")
        if any(c >> ctx.m for c in coeffs):
            raise ValueError("coefficient out of field range")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LinearizedPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LinearizedPoly":
        return cls(ctx, [0] * ctx.m)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "LinearizedPoly":
        return cls.frobenius_power(ctx, 0)

    @classmethod
    def frobenius_power(cls, ctx: FieldCtx, e: int) -> "LinearizedPoly":
        """The map x -> x^(2^e): single coefficient 1 at index e mod m."""
        coeffs = [0] * ctx.m
        coeffs[e % ctx.m] = 1
        return cls(ctx, coeffs)

    @classmethod
    def from_pairs(cls, ctx: FieldCtx, pairs: Iterable[tuple[int, int]]) -> "LinearizedPoly":
        """Build from (index, coefficient) pairs, XOR-accumulating collisions."""
        coeffs = [0] * ctx.m
        for i, c in pairs:
            coeffs[i % ctx.m] ^= c
        return cls(ctx, coeffs)

    # -- basics ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearizedPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        if self.ctx != other.ctx:
            raise ValueError("operands belong to different field contexts")
        return LinearizedPoly(self.ctx, [a ^ b for a, b in zip(self.coeffs, other.coeffs)])

    def __repr__(self) -> str:
        return f"LinearizedPoly({format_linpoly(self)!r}, m={self.ctx.m})"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> list[int]:
        """Indices of nonzero coefficients."""
        return [i for i, c in enumerate(self.coeffs) if c]

    # -- composition -------------------------------------------------------------

    def compose(self, inner: "LinearizedPoly") -> "LinearizedPoly":
        """self after inner: coefficient h picks up A[i] * B[j]^(2^i) for i+j = h mod m.

        B[j]^(2^i) is an XOR of the context's cached Frobenius images of
        the basis, and the product is taken only where A[i] is not 1.
        """
        if self.ctx != inner.ctx:
            raise ValueError("operands belong to different field contexts")
        ctx = self.ctx
        coeffs = [0] * ctx.m
        for i, (a, images) in enumerate(zip(self.coeffs, ctx.frobenius_images())):
            if not a:
                continue
            for j, b in enumerate(inner.coeffs):
                if not b:
                    continue
                b_i = gf2linalg.apply(images, b)
                coeffs[(i + j) % ctx.m] ^= b_i if a == 1 else ctx.mul(a, b_i)
        return LinearizedPoly(ctx, coeffs)

    def then_frobenius(self, e: int) -> "LinearizedPoly":
        """Frobenius^e composed after this map, i.e. x -> self(x)^(2^e)."""
        return LinearizedPoly.frobenius_power(self.ctx, e).compose(self)

    # -- linear-algebra views ----------------------------------------------------

    def matrix_columns(self) -> list[int]:
        """Column j is the encoding of the image of the basis element x^j.

        Column j is the sum of c_i * (x^j)^(2^i): an XOR of the context's
        cached Frobenius images, with a product only where c_i is not 0 or 1.
        """
        ctx = self.ctx
        cols = [0] * ctx.m
        for c, images in zip(self.coeffs, ctx.frobenius_images()):
            if c == 1:
                cols = [col ^ v for col, v in zip(cols, images)]
            elif c:
                cols = [col ^ ctx.mul(c, v) for col, v in zip(cols, images)]
        return cols

    def kernel_image(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """F2 bases of the kernel and the image (dim kernel + dim image = m), cached on the context."""
        return self.ctx.cached(("kernel-image", self.coeffs), lambda: tuple(
            map(tuple, gf2linalg.kernel_image(self.matrix_columns()))))


def s_polynomial(ctx: FieldCtx, n_terms: int) -> LinearizedPoly:
    """x + x^q + ... + x^(q^(n_terms-1)) with q = 2^t, as a 2-linearized poly.

    Coefficient 1 lands at index t*i mod m for each of the n_terms terms;
    wrapped collisions XOR-accumulate.
    """
    t, _ = ctx.require_tower()
    if n_terms < 0:
        raise ValueError("n_terms must be non-negative")
    return LinearizedPoly.from_pairs(ctx, (((t * i) % ctx.m, 1) for i in range(n_terms)))


def subfield_permutation_check(L: LinearizedPoly, d: int) -> tuple[bool, str | None]:
    """Whether L maps GF(2^d) into itself bijectively, with a failure reason.

    The reason distinguishes "not subfield-stable" from "not injective"
    and carries a witness element: the first failing z in enumeration
    order, the stability test first.  L on the whole subfield is one
    lookup in L's cached table, stability one in the x^(2^d) table, and
    the repeats come from one stable sort.
    """
    from . import blocks   # blocks imports this module

    ctx = L.ctx
    zs = ctx.enumerate_subfield(d)
    ws = blocks.linear_table(L)(zs)
    outside = blocks.linear_table(LinearizedPoly.frobenius_power(ctx, d))(ws) != ws
    order = np.argsort(ws, kind="stable")
    repeat = np.zeros(zs.size, dtype=bool)   # w already met at an earlier z
    repeat[order[1:]] = ws[order[1:]] == ws[order[:-1]]
    bad = outside | repeat
    if not bad.any():
        return True, None
    i = int(np.argmax(bad))
    z, w = int(zs[i]), int(ws[i])
    if outside[i]:
        return False, f"not subfield-stable: L({z:#x}) = {w:#x} outside GF(2^{d})"
    return False, f"not injective: L({int(zs[np.argmax(ws == w)]):#x}) = L({z:#x}) = {w:#x}"


def permutes(L: LinearizedPoly, d: int) -> bool:
    """True iff L restricted to the subfield GF(2^d) is a permutation of it."""
    ok, _ = subfield_permutation_check(L, d)
    return ok


_LIN_RE = re.compile(r"lin\[(.*)\]")


def format_linpoly(L: LinearizedPoly) -> str:
    """Textual form lin[i:hexcoef,...] listing nonzero coefficients by index."""
    inside = ",".join(f"{i}:{c:x}" for i, c in enumerate(L.coeffs) if c)
    return f"lin[{inside}]"


def parse_linpoly(ctx: FieldCtx, text: str) -> LinearizedPoly:
    """Inverse of format_linpoly; indices are reduced mod m.

    Each term is a decimal index and a hex coefficient in ASCII digits
    (`field.parse_pair`).
    """
    match = _LIN_RE.fullmatch(text.strip(BLANKS))
    if match is None:
        raise ValueError(f"expected lin[i:hex,...], got {text!r}")
    body = match.group(1).strip(BLANKS)
    pairs = []
    if body:
        for part in body.split(","):
            try:
                pairs.append(parse_pair(part))
            except ValueError as exc:
                raise ValueError(f"bad linearized term {part!r}") from exc
    return LinearizedPoly.from_pairs(ctx, pairs)
