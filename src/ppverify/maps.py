"""Named evaluators from field elements to field elements.

A FieldMap is built from its parts or given by its table, and is read
two ways: on the aligned blocks x = start ^ i (i < n, n = min(2^16,
2^m), start a multiple of n), in turn (`value_blocks`), and at any given
x (`at`).  The paper's maps are a linear map plus a function of a linear
map's value, f = L + h(S) (the paper's g; a linearized map, with h = 0),
and are built from those parts: L's lookup table and h's table on S's
image (`blocks.LinearTable`, `blocks.ImageTable`).  On an aligned block
a linear map is one cached low table XOR one value
(`blocks.LinearTable.coset`), and at a given x each part is a lookup.
Such a map has no 2^m table on a passing path, nor for export or eq23's
failing x, which read its aligned blocks as they are made; every other
check reads it through `at`, only at the points it needs.  `table()`,
the full 2^m value table as uint32 (64 MB at m = 24), filled block by
block and cached, is for naming a collision.  Any other map (an imported
one) is given by its table (`from_table`), and every read is a lookup in it.

A map built from its parts satisfies f(x + u) = f(x) + L(u) for every u
in K = ker S, so three readers work on the quotient by K, from f at the
2^(m - dim K) coset representatives (`at`'s kept read) and the
annihilator N of L(K): its bijection (`bijective`: L injective on K,
read from dim N and |K| alone, and f at the representatives meets every
coset of L(K), one bin per element of span(N), 2^(2m/3) for g); its
Walsh spectrum, read at given masks through `walsh`, which is 0 off
span(N) and takes int32 bins (`blocks.walsh`, 256 KB for g at m = 24)
cached on the map, a mask looked up by its coordinates in N
(`gf2linalg.coordinate_columns`), with span(N) tabled for `walsh` alone;
and `span`, the proof rows' spans (of a V with V(x + u) + V(x) constant
in x for u in K), read at the representatives and K's basis.  So for such a
map the bijection and the character sums read the same coset bins.  A
map given by its table scatters its table for the bijection (in
`pptest`), keeps the whole spectrum, from the histogram of its table,
and its `span` reads every x.
Determinism contract: repeated evaluation at the same input yields
identical results.

Tables are exchanged as hex text files, one `x:gx` line per element,
and both ends work in blocks with whole-array passes, never per line:
export formats 2^16 entries at a time into one text chunk, and import
reads the file in blocks of whole lines (about 256 KB), splits each
block into lines and fields, decodes the fields in a few passes over the
block, then scatters the values into one uint32 table.  Two scans split
a block.  A block in the strict layout that export writes (hex digits,
one `:` between two nonempty fields, `\\n` after every line) is split
from its colons and line ends alone; any other block (whitespace, `#`
or blank lines, `\\r`, an unterminated last line, or any malformed
line) goes through the token scan, which classifies every byte with a
translate table and names the first malformed line.  Export reads the
map's `value_blocks` and needs a few MB of block buffers, no table;
import a few MB beside its table, plus the half-size old table while the
table grows (when m is inferred from the line count, or x >= 2^m turn
up).  Every x below 2^24 is tracked in the table, so only an x past
every field costs a Python int.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import blocks, gf2linalg
from .field import MAX_DEGREE, FieldCtx
from .linearized import LinearizedPoly


class FieldMap:
    """A named, pure map on GF(2^m) element encodings, built from its parts or given by its table.

    Built from its parts, linear = (L, S) and image, h's `blocks.ImageTable`
    on S's image or None when h = 0, it is f(x) = L(x) + h(S(x)), read
    through L's `blocks.linear_table` and image; `bijective`, `walsh` and
    `span` read the quotient by ker S.  linear None is a ValueError: a map
    given by its table, with neither part, is made by `from_table` alone.
    """

    def __init__(self, name: str, ctx: FieldCtx,
                 linear: tuple[LinearizedPoly, LinearizedPoly],
                 image: blocks.ImageTable | None):
        if linear is None:
            raise ValueError(f"FieldMap {name!r} needs its parts (L, S); "
                             "a map given by its table is made by FieldMap.from_table")
        self._fields(name, ctx, linear, image)

    def _fields(self, name, ctx, linear, image) -> None:
        """Set every attribute; `from_table` calls this on a bare instance, then sets the table."""
        self.name = name
        self.ctx = ctx
        self._linear = linear
        self._l_tab = None if linear is None else blocks.linear_table(linear[0])
        self._image = image
        self._table: np.ndarray | None = None
        self._bins: np.ndarray | None = None
        self._kept: np.ndarray | None = None   # f at the quotient's read set, read-only

    def __call__(self, x: int) -> int:
        """f(x) for one checked element x: a table entry, or the parts' columns at x."""
        self.ctx.check_element(x)
        x = int(x)
        if self._linear is None:
            return int(self._table[x])
        value = gf2linalg.apply(self._l_tab.images, x)
        if self._image is not None:
            value ^= int(self._image.values[gf2linalg.apply(self._image.coords.images, x)])
        return value

    def __repr__(self) -> str:
        return f"FieldMap({self.name!r}, m={self.ctx.m})"

    def value_blocks(self) -> Iterator[np.ndarray]:
        """The values on the aligned blocks start = 0, n, 2n, ..., n = min(blocks.BLOCK, 2^m).

        Slices of the table when there is one (always, for a map given by
        its table), else blocks made from the parts one at a time in two
        reused buffers, so each is valid only until the next is asked for.
        """
        n = min(blocks.BLOCK, self.ctx.order)
        starts = range(0, self.ctx.order, n)
        if self._table is not None:
            yield from (self._table[start:start + n] for start in starts)
            return
        values, image = np.empty(n, dtype=np.uint32), np.empty(n, dtype=np.uint32)
        for start in starts:
            self._l_tab.coset(start, n, values)
            if self._image is not None:
                values ^= self._image.coset(start, n, image)
            yield values

    def table(self) -> np.ndarray:
        """The full 2^m value table as read-only uint32, filled from `value_blocks` and cached."""
        if self._table is None:
            table = np.empty(self.ctx.order, dtype=np.uint32)
            start = 0
            for values in self.value_blocks():
                table[start:start + len(values)] = values
                start += len(values)
            table.setflags(write=False)
            self._table = table
        return self._table

    def at(self, xs) -> np.ndarray:
        """The map at every x in xs, as uint32; xs are checked field elements.

        A map built from its parts reads L's table and h's image table at
        those x alone.  At the quotient's read set (`span`'s) the values are
        kept and returned read-only, so the bijection, the Walsh bins and
        every span read them once.  A map given by its table reads it.
        """
        if self._linear is None:
            return self._table[self.ctx.element_array(xs)]
        kept = xs is _quotient(*self._linear)[0]
        if kept and self._kept is not None:
            return self._kept
        xs = xs if kept else self.ctx.element_array(xs)
        values = self._l_tab(xs)
        if self._image is not None:
            values ^= self._image(xs)
        if kept:
            values.setflags(write=False)
            self._kept = values
        return values

    def walsh(self, masks) -> np.ndarray:
        """The Walsh spectrum W[M] = sum_x (-1)^popcount(M & f(x)) at each mask M, as int32.

        masks is an integer array with entries in [0, 2^m), checked before
        any lookup (ValueError).  Built from its parts (L, S), through the
        quotient by K = ker S: f(x + u) = f(x) + L(u) for u in K, so the sum
        over a coset x_s + K is 0 unless M annihilates L(K), and then |K|
        (-1)^(M . f(x_s)).  With N an echelon basis of that annihilator and
        c M's pivot coordinates in N, W[M] is bins[c] if span(N)[c] = M
        (`_span_n`), else 0; bins is |K| times the `blocks.walsh` of
        f(x_s)'s pairings with N (`gf2linalg.coordinate_columns`) over the
        representatives x_s (read by `at`): 2^dim(N) values.  Given by its
        table, bins is the `blocks.walsh` of the table.  Every |W[M]| <=
        2^m, so int32 is exact.
        """
        masks = np.asarray(masks)
        self.ctx.check_element(masks)
        if self._linear is None:
            return self._walsh_bins()[masks]
        pivot_bits = _quotient(*self._linear)[2]
        c = pivot_bits(masks).astype(np.intp)
        return np.where(_span_n(*self._linear)[c] == masks, self._walsh_bins()[c], np.int32(0))

    def _walsh_bins(self) -> np.ndarray:
        """`walsh`'s bins, read-only int32, cached beside the table."""
        if self._bins is None:
            if self._linear is None:
                w = blocks.walsh(self.table(), self.ctx.m)
            else:
                reads, coords, _, basis_n, size_k = _quotient(*self._linear)
                reps = self.at(reads)[:self.ctx.order // size_k]
                w = blocks.walsh(coords(reps), len(basis_n))
                w *= np.int32(size_k)
            w.setflags(write=False)
            self._bins = w
        return self._bins

    def span(self, values_at: Callable[[np.ndarray], np.ndarray], width: int) -> list[int]:
        """The echelon basis (`blocks.span_basis`) of span{V(x)} over every x.

        values_at(xs) gives the width-bit values V(x) at an integer array
        of x.  Built from its parts (L, S), V(x + u) + V(x) must not depend
        on x for u in K = ker S; it is then V(u) + V(0), so V at the
        quotient's read set, the 2^(m - dim K) coset representatives of K
        (0 among them) and K's basis, spans every V(x).  Given by its table,
        V is read at every x, in `blocks.BLOCK`-sized aranges.
        """
        if self._linear is None:
            n = min(blocks.BLOCK, self.ctx.order)
            return blocks.span_basis((values_at(np.arange(start, start + n, dtype=np.intp))
                                      for start in range(0, self.ctx.order, n)), width)
        return blocks.span_basis([values_at(_quotient(*self._linear)[0])], width)

    def bijective(self) -> bool:
        """Whether a map built from its parts (L, S) permutes, decided on the quotient by K = ker S.

        f(x_s + u) = f(x_s) + L(u) for u in K, so f permutes iff L is
        injective on K and f at the 2^(m - dim K) coset representatives x_s
        meets every coset of L(K) exactly once (Akbary, Ghioca and Wang,
        Finite Fields Appl. 17 (2011)).  With N an echelon basis of the
        annihilator of L(K), L is injective on K iff 2^dim(N) |K| = 2^m,
        and then there are as many representatives as cosets, each coset
        one bin of the pairings with N: f(x_s) must hit every bin.  It reads
        f at the representatives (`at`'s kept read, as `walsh` does) and
        2^dim(N) bins, 2^(2m/3) for g; no 2^m array.
        """
        reads, coords, _, basis_n, size_k = _quotient(*self._linear)
        bins = 1 << len(basis_n)
        if bins * size_k != self.ctx.order:
            return False
        hit = np.zeros(bins, dtype=bool)
        hit[coords(self.at(reads)[:bins])] = True
        return bool(hit.all())

    @classmethod
    def from_table(cls, name: str, ctx: FieldCtx, values) -> "FieldMap":
        """Wrap an explicit value table (length 2^m, entries checked by `FieldCtx.check_element`).

        The table is stored as uint32; a uint32 array is taken over
        without a copy and made read-only.
        """
        table = np.asarray(values)
        if table.shape != (ctx.order,):
            raise ValueError(f"table must have exactly {ctx.order} entries, got {table.shape}")
        ctx.check_element(table)
        table = table.astype(np.uint32, copy=False)
        table.setflags(write=False)
        fmap = cls.__new__(cls)
        fmap._fields(name, ctx, None, None)
        fmap._table = table
        return fmap


def _quotient(L: LinearizedPoly, S: LinearizedPoly):
    """The quotient-spectrum pieces of L + h(S), cached on the context by both polynomials.

    N is the echelon basis of the annihilator of L(K), K = ker S: the
    kernel of the pairings with L(K).  Returns the coset representatives
    of K (the span of the bits that are not pivots of K's echelon basis)
    followed by K's basis, as one intp array, the read set of `span` and
    `FieldMap.at`; N's pairings y -> (parity(N_j & y))_j as an intp linear
    table, its pivot coordinates M -> (M's bit at N_j's pivot)_j as a
    uint32 one (its gathers are faster; both
    `gf2linalg.coordinate_columns`), N itself, and |K|.  span(N) is not
    among them (`_span_n`): with L = 0 it is the whole field.
    """
    def build():
        m = L.ctx.m
        kernel = S.kernel_image()[0]
        on_k, _ = gf2linalg.coordinate_columns(gf2linalg.echelon(kernel), m)
        reps = gf2linalg.span_table([1 << b for b in range(m) if not on_k[b]], np.intp)
        reads = np.concatenate([reps, np.array(kernel, dtype=np.intp)])
        reads.setflags(write=False)
        cols = L.matrix_columns()
        lk = [gf2linalg.apply(cols, u) for u in kernel]
        basis = gf2linalg.echelon(gf2linalg.kernel_image(gf2linalg.coordinate_columns(lk, m)[1])[0])
        pivots, pairings = gf2linalg.coordinate_columns(basis, m)
        coords = blocks.LinearTable(pairings, dtype=np.intp)
        pivot_bits = blocks.LinearTable(pivots)
        return reads, coords, pivot_bits, basis, 1 << len(kernel)

    return L.ctx.cached(("quotient", L.coeffs, S.coeffs), build)


def _span_n(L: LinearizedPoly, S: LinearizedPoly) -> np.ndarray:
    """span(N) of `_quotient` in coordinate order (uint32), cached on the context; only `walsh`
    reads it."""
    return L.ctx.cached(("quotient-span", L.coeffs, S.coeffs),
                        lambda: gf2linalg.span_table(_quotient(L, S)[3]))


def linearized_map(L: LinearizedPoly, name: str) -> FieldMap:
    """View a linearized polynomial as a FieldMap, read through its cached lookup table."""
    return FieldMap(name, L.ctx, (L, LinearizedPoly.zero(L.ctx)), None)


_READ_BYTES = 1 << 18       # bytes read per block of a table file, cut back to a line end
_UNSET = 0xFFFFFFFF         # table entry that no line has set
_CLIPPED = 0xFFFFFFFE       # table entry of a value >= _CLIPPED, read exactly on the error path

# Byte classes and nibble values of the table grammar, applied by bytes.translate.
_WS, _HEX, _COLON, _HASH, _OTHER = range(5)
_HEX_DIGITS = b"0123456789abcdefABCDEF"
_STRICT_BYTES = _HEX_DIGITS + b":\n"    # every byte of an exported table
_CLASS = bytes(_HEX if c in _HEX_DIGITS else _COLON if c == ord(":") else
               _HASH if c == ord("#") else _WS if c in b" \t\v\f\r\n" else _OTHER
               for c in range(256))
_NIBBLE = bytes(int(chr(c), 16) if c in _HEX_DIGITS else 0 for c in range(256))


def format_table_lines(fmap: FieldMap) -> Iterator[str]:
    """Hex table exchange format: one `x:gx` line per element, sorted by x.

    Yields one text chunk of newline-terminated lines per block of
    `FieldMap.value_blocks` (a map built from its parts is never tabled):
    a character array, one contiguous row per character column, filled
    by uint8 arithmetic on the nibbles, with each value's leading zero
    digits multiplied to NUL bytes; its transpose's bytes are the lines,
    and one `bytes.translate` drops the NULs.
    """
    width = (fmap.ctx.m + 3) // 4                     # hex digits of the widest value
    for start, ys in zip(range(0, fmap.ctx.order, blocks.BLOCK), fmap.value_blocks()):
        chars = np.empty((2 * width + 2, len(ys)), dtype=np.uint8)
        for field, values in enumerate((np.arange(start, start + len(ys), dtype=np.uint32), ys)):
            for i in range(width):                    # digit columns, from the left
                prefix = values >> np.uint32(4 * (width - 1 - i))
                digit = (prefix & np.uint32(15)).astype(np.uint8)   # '0' + digit, or 'a' + digit - 10
                column = chars[field * (width + 1) + i]
                np.add(digit, 48 + 39 * (digit > 9).view(np.uint8), out=column)
                if i < width - 1:                     # zero is written as one digit
                    column *= (prefix != 0).view(np.uint8)
        chars[[width, 2 * width + 1]] = [[ord(":")], [ord("\n")]]
        yield chars.T.tobytes().translate(None, b"\0").decode("ascii")


def _read_blocks(fh) -> Iterator[bytes]:
    """About _READ_BYTES of whole lines at a time; only the last may lack a line end.

    A cut never falls inside `\\r\\n`: a `\\r` ends a block only when the
    byte after it is already read and is not `\\n`.
    """
    carry = b""
    while data := fh.read(_READ_BYTES):
        data = carry + data
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        carry = data[cut:]
        if cut:
            yield data[:cut]
    if carry:
        yield carry


def _scan_block(data: bytes):
    """Split one block into lines and classify them with whole-array passes.

    Returns (line_ends, malformed, rows, x_runs, y_runs): the byte offset
    of every line's end, the in-block indices of the malformed lines and
    of the table lines, and the [start, end) digit runs of the latter's
    two fields.  Blank and `#` lines are neither.

    A block in the strict layout that export writes is split by
    `_scan_strict`.  Every other block goes to `_scan_tokens`: one with
    whitespace, `#`, `\\r` or any byte outside hex digits, `:` and `\\n`,
    one whose last line is unterminated, and one with a line that is not
    exactly one colon between two nonempty fields.  So the token scan
    alone finds the malformed lines, and the results downstream do not
    depend on which scan ran.
    """
    scan = _scan_strict(data)
    return scan if scan is not None else _scan_tokens(data)


def _scan_strict(data: bytes):
    """`_scan_block` of a block of plain `x:gx` lines, or None if it is not one.

    Such a block holds only hex digits, `:` and `\\n`, ends in `\\n`, and
    each of its lines is one colon between two nonempty fields: one
    translate and two sparse nonzero passes find every line and field.
    """
    if not data.endswith(b"\n") or data.translate(None, _STRICT_BYTES):
        return None
    byte = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(byte == ord("\n"))
    colons = np.flatnonzero(byte == ord(":"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if colons.size != ends.size or (colons <= starts).any() or (ends <= colons + 1).any():
        return None
    return (ends, np.empty(0, dtype=np.intp), np.arange(ends.size),
            (starts, colons), (colons + 1, ends))


def _scan_tokens(data: bytes):
    """`_scan_block` of any block, by its tokens.

    A line's tokens are its hex runs, its bytes outside hex digits and
    whitespace, and its line end; a table line is exactly (run, `:`,
    run).
    """
    byte = np.frombuffer(data, dtype=np.uint8)
    cls = np.frombuffer(data.translate(_CLASS), dtype=np.uint8)
    zero = np.int8(0)
    edges = np.diff((cls == _HEX).view(np.int8), prepend=zero, append=zero)   # +1 at a run, -1 past it
    is_end = byte == ord("\n")
    if b"\r" in data:                                 # `\r` alone ends a line, as `\r\n` does
        is_end |= (byte == ord("\r")) & np.append(byte[1:] != ord("\n"), True)
    pos = np.flatnonzero((edges[:-1] == 1) | (cls > _HEX) | is_end)
    kind = cls[pos]                                   # a line end reads _WS
    if not is_end[-1]:                                # the file's last line, unterminated
        pos, kind = np.append(pos, len(data)), np.append(kind, _WS)
    ends = np.flatnonzero(kind == _WS)               # token index of each line end
    count = np.diff(ends, prepend=-1) - 1

    def token(back):                                  # read only where count >= back
        return kind.take(ends - back, mode="clip")

    skipped = (count == 0) | (token(count) == _HASH)
    valid = (count == 3) & (token(3) == _HEX) & (token(2) == _COLON) & (token(1) == _HEX)
    rows = np.flatnonzero(valid)
    x, y = ends[rows] - 3, ends[rows] - 1             # token index of each field's run
    run_e = np.flatnonzero(edges == -1)[np.cumsum(kind == _HEX, dtype=np.int32)[[x, y]] - 1]
    return (pos[ends], np.flatnonzero(~(valid | skipped)), rows,
            (pos[x], run_e[0]), (pos[y], run_e[1]))


def _hex_values(nibbles: np.ndarray, runs) -> np.ndarray:
    """int64 values of hex digit runs [s, e); over 8 significant digits reads 2^32.

    nibbles holds each byte's digit value, 0 off the digits, plus a 0
    past the end: the byte left of a run, read at index s - 1, is 0.  The
    low 8 digits are accumulated in uint32, where they fit.
    """
    s, e = runs
    values = np.zeros(len(s), dtype=np.uint32)
    pos, left = e - 1, s - 1
    for i in range(min(8, int((e - s).max(initial=0)))):   # digit positions, from the right
        values |= np.left_shift(nibbles[np.maximum(pos, left)], 4 * i, dtype=np.uint32)
        pos -= 1
    values = values.astype(np.int64)
    long = np.flatnonzero(e - s > 8)
    if long.size:                                     # leading zeros, or a value >= 2^32
        nonzero = np.concatenate(([0], np.cumsum(nibbles != 0)))
        values[long[nonzero[e[long] - 8] > nonzero[s[long]]]] = 1 << 32
    return values


def _grown(table: np.ndarray, size: int) -> np.ndarray:
    """table extended to size entries, the new ones _UNSET."""
    out = np.full(size, _UNSET, dtype=np.uint32)
    out[:len(table)] = table
    return out


def parse_table_file(path: str, ctx: FieldCtx | None = None) -> FieldMap:
    """Read a hex table file back into a FieldMap.

    With no ctx given, the extension degree is inferred from the line
    count (which must be a power of two) and the default modulus is used.
    The file is read in blocks of whole lines, each decoded by
    whole-array passes and scattered into one uint32 table.  Errors are
    reported in the order of a line-by-line read: the first malformed or
    duplicate line, then the entry count, the first missing x and the
    first value outside the field.
    """
    limit = 1 << MAX_DEGREE       # the x below it are tracked in the table, which grows to fit
    table = np.full(ctx.order if ctx is not None else 0, _UNSET, dtype=np.uint32)
    large: set[int] = set()       # the x >= limit seen so far, for the duplicate check
    clipped = None                # (x, value) of the least x whose value reads _CLIPPED
    count = lineno = 0
    with open(path, "rb") as fh:
        for data in _read_blocks(fh):
            line_ends, malformed, rows, x_runs, y_runs = _scan_block(data)
            nibbles = np.frombuffer(data.translate(_NIBBLE) + b"\0", dtype=np.uint8)
            xs, ys = _hex_values(nibbles, x_runs), _hex_values(nibbles, y_runs)
            small = xs < limit
            sx, sy = xs[small].astype(np.intp), ys[small]
            if sx.size and sx.max() >= len(table):
                table = _grown(table, 1 << int(sx.max()).bit_length())
            dup = table[sx] != _UNSET                 # set by an earlier block
            by_x = np.argsort(sx, kind="stable")
            dup[by_x[1:][sx[by_x[1:]] == sx[by_x[:-1]]]] = True
            errors = []                               # (in-block line index, message)
            if malformed.size:
                i = malformed[0]
                start = line_ends[i - 1] + 1 if i else 0
                line = data[start:line_ends[i]].decode("utf-8", "backslashreplace").strip()
                errors.append((i, f"expected `x:gx` hex pair, got {line!r}"))
            if dup.any():
                i = np.argmax(dup)
                errors.append((rows[small][i], f"duplicate entry for x={int(sx[i]):#x}"))
            for i in np.flatnonzero(~small):          # x past every table: the file must fail,
                x = int(data[x_runs[0][i]:x_runs[1][i]], 16)   # so its lines go one by one
                if x in large:
                    errors.append((rows[i], f"duplicate entry for x={x:#x}"))
                    break
                large.add(x)
            if errors:
                i, message = min(errors)
                raise ValueError(f"{path}:{lineno + i + 1}: {message}")
            table[sx] = np.minimum(sy, _CLIPPED)
            over = np.flatnonzero(sy >= _CLIPPED)
            if over.size:
                i = over[np.argmin(sx[over])]
                if clipped is None or sx[i] < clipped[0]:
                    j = np.flatnonzero(small)[i]
                    clipped = int(sx[i]), int(data[y_runs[0][j]:y_runs[1][j]], 16)
            count += len(rows)
            lineno += len(line_ends)
    if ctx is None:
        m = count.bit_length() - 1
        if m < 1 or count != 1 << m:
            raise ValueError(f"{path}: entry count {count} is not a power of two >= 2")
        ctx = FieldCtx(m)
    if count != ctx.order:
        raise ValueError(f"{path}: expected {ctx.order} entries for m={ctx.m}, got {count}")
    if len(table) < ctx.order:
        table = _grown(table, ctx.order)
    table = table[:ctx.order]
    bad = np.flatnonzero(table >= ctx.order)
    if bad.size:
        unset = bad[table[bad] == _UNSET]
        if unset.size:
            raise ValueError(f"{path}: missing entry for x={int(unset[0]):#x}")
        x = int(bad[0])
        value = clipped[1] if table[x] == _CLIPPED else int(table[x])
        raise ValueError(f"{path}: value {value:#x} at x={x:#x} outside GF(2^{ctx.m})")
    return FieldMap.from_table(path, ctx, table)
