"""Named evaluators from field elements to field elements.

A FieldMap is defined by one vectorized block function, its only
evaluation path; calling it on a single element evaluates a one-element
block.  The full 2^m value table, uint32 (64 MB at m = 24), is the only
way a check reads a whole map: it is filled from the block function in
fixed blocks of 2^16 inputs and cached, with its Walsh spectrum beside it.
Determinism contract: repeated evaluation at the same input yields
identical results.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import blocks
from .field import FieldCtx
from .linearized import LinearizedPoly


class FieldMap:
    """A named, pure map on GF(2^m) element encodings."""

    def __init__(self, name: str, ctx: FieldCtx, block_fn: Callable[[np.ndarray], np.ndarray]):
        self.name = name
        self.ctx = ctx
        self._block_fn = block_fn
        self._table: np.ndarray | None = None
        self._spectrum: np.ndarray | None = None

    def __call__(self, x: int) -> int:
        return int(self.eval_block(np.array([x], dtype=np.int64))[0])

    def __repr__(self) -> str:
        return f"FieldMap({self.name!r}, m={self.ctx.m})"

    def eval_block(self, xs: np.ndarray) -> np.ndarray:
        if self._table is not None:
            return self._table[xs]
        return self._block_fn(xs)

    def table(self) -> np.ndarray:
        """The full 2^m value table as read-only uint32, filled block by block and cached."""
        if self._table is None:
            order = self.ctx.order
            table = np.empty(order, dtype=np.uint32)
            for start in range(0, order, blocks.BLOCK):
                stop = min(start + blocks.BLOCK, order)
                table[start:stop] = self._block_fn(np.arange(start, stop, dtype=np.int64))
            table.setflags(write=False)
            self._table = table
        return self._table

    def spectrum(self) -> np.ndarray:
        """Walsh spectrum W[M] = sum_x (-1)^popcount(M & f(x)), cached beside the table.

        One in-place fast Walsh-Hadamard transform of the preimage counts,
        which are accumulated straight into int32 (no int64 histogram);
        every |W[M]| <= 2^m, so int32 is exact.
        """
        if self._spectrum is None:
            w = np.zeros(self.ctx.order, dtype=np.int32)
            np.add.at(w, self.table(), np.int32(1))   # an int32 increment keeps the fast path
            for i in range(self.ctx.m):
                pairs = w.reshape(-1, 2, 1 << i)
                lo, hi = pairs[:, 0], pairs[:, 1]
                lo += hi          # (lo, hi) -> (lo + hi, lo - hi)
                hi *= -2
                hi += lo
            w.setflags(write=False)
            self._spectrum = w
        return self._spectrum

    @classmethod
    def from_table(cls, name: str, ctx: FieldCtx, values) -> "FieldMap":
        """Wrap an explicit value table (length 2^m, entries in range), stored as uint32."""
        table = np.asarray(values, dtype=np.int64)
        if table.shape != (ctx.order,):
            raise ValueError(f"table must have exactly {ctx.order} entries, got {table.shape}")
        if table.size and (table.min() < 0 or table.max() >= ctx.order):
            raise ValueError("table entry out of field range")
        table = table.astype(np.uint32)
        table.setflags(write=False)
        fmap = cls(name, ctx, table.__getitem__)
        fmap._table = table
        return fmap


def linearized_map(L: LinearizedPoly, name: str) -> FieldMap:
    """View a linearized polynomial as a FieldMap through its cached lookup table."""
    return FieldMap(name, L.ctx, blocks.linear_table(L))


def format_table_lines(fmap: FieldMap) -> Iterator[str]:
    """Hex table exchange format: one `x:gx` line per element, sorted by x."""
    for x, y in enumerate(fmap.table()):
        yield f"{x:x}:{int(y):x}"


def parse_table_file(path: str, ctx: FieldCtx | None = None) -> FieldMap:
    """Read a hex table file back into a FieldMap.

    With no ctx given, the extension degree is inferred from the line
    count (which must be a power of two) and the default modulus is used.
    """
    entries: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                x_str, y_str = line.split(":", 1)
                x, y = int(x_str, 16), int(y_str, 16)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: expected `x:gx` hex pair, got {line!r}") from exc
            if x in entries:
                raise ValueError(f"{path}:{lineno}: duplicate entry for x={x:#x}")
            entries[x] = y
    count = len(entries)
    if ctx is None:
        m = count.bit_length() - 1
        if m < 1 or count != 1 << m:
            raise ValueError(f"{path}: entry count {count} is not a power of two >= 2")
        ctx = FieldCtx(m)
    if count != ctx.order:
        raise ValueError(f"{path}: expected {ctx.order} entries for m={ctx.m}, got {count}")
    values = [entries.get(x) for x in range(count)]
    if None in values:
        raise ValueError(f"{path}: missing entry for x={values.index(None):#x}")
    if any(v >> ctx.m for v in values) or min(values) < 0:
        bad = next(x for x in range(count) if values[x] >> ctx.m or values[x] < 0)
        raise ValueError(f"{path}: value {values[bad]:#x} at x={bad:#x} outside GF(2^{ctx.m})")
    return FieldMap.from_table(path, ctx, values)
