"""Arithmetic in GF(2^m) over a configurable irreducible modulus.

Field elements are plain ints in [0, 2^m): bit i is the coordinate of
x^i in the power basis of the modulus, so addition is XOR and zero/one
are literally 0 and 1.  The scalar core is small: the shift-and-XOR
product, squaring, the Frobenius images of the basis and the trace
row, enough to build the vectorized tables of `blocks`, which every
check reads.  Traces, powers and inverses element by element are not
here: they are the slow oracles of `tests/reference.py`, which pin
those tables.

A context may carry tower parameters (t, k) with m = 3*t*k and
q = 2^t, giving the subfield ladder F_2 <= F_{q^k} <= F_{q^{3k}} that
the permutation-map constructions live on.  Contexts are immutable
after construction.
"""

from __future__ import annotations

import re

import numpy as np

from . import binpoly, gf2linalg

MAX_DEGREE = 24

# `d:h` with d decimal and h hex, ASCII digits only, padded by space, \t, \v or \f
_PAIR = re.compile(r"[ \t\v\f]*([0-9]+)[ \t\v\f]*:[ \t\v\f]*([0-9a-fA-F]+)[ \t\v\f]*")
BLANKS = " \t\v\f\r\n"   # the ASCII whitespace the text grammars strip


class FieldCtx:
    """GF(2^m) with a fixed irreducible modulus and optional (t, k) tower."""

    def __init__(self, m: int, modulus: int | None = None,
                 tower: tuple[int, int] | None = None):
        if not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"extension degree m={m} out of range 1..{MAX_DEGREE}")
        if modulus is None:
            modulus = binpoly.find_irreducible(m)
        else:
            if modulus < 0:
                raise ValueError(f"modulus {modulus:#x} is negative")
            if binpoly.degree(modulus) != m:
                raise ValueError(
                    f"modulus {binpoly.pretty(modulus)} has degree "
                    f"{binpoly.degree(modulus)}, expected {m}")
            if not binpoly.is_irreducible(modulus):
                factor = binpoly.least_factor(modulus)
                raise ValueError(
                    f"modulus {binpoly.pretty(modulus)} is reducible: "
                    f"divisible by {binpoly.pretty(factor)}")
        if tower is not None:
            t, k = tower
            if t < 1 or k < 1:
                raise ValueError(f"tower parameters must be positive, got (t={t}, k={k})")
            if 3 * t * k != m:
                raise ValueError(f"tower (t={t}, k={k}) needs m = 3*t*k = {3 * t * k}, got m={m}")
        self.m = m
        self.modulus = modulus
        self.tower = tower
        self.order = 1 << m
        self._cache: dict = {}

    @classmethod
    def from_tower(cls, t: int, k: int, modulus: int | None = None) -> "FieldCtx":
        """Context for F_{q^{3k}} with q = 2^t; modulus defaults to the least irreducible."""
        if t < 1 or k < 1:
            raise ValueError(f"tower parameters must be positive, got (t={t}, k={k})")
        m = 3 * t * k
        if m > MAX_DEGREE:
            raise ValueError(f"tower (t={t}, k={k}) needs degree {m} > {MAX_DEGREE}")
        return cls(m, modulus, tower=(t, k))

    # -- identity / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (self.m, self.modulus, self.tower) == (other.m, other.modulus, other.tower)

    def __hash__(self) -> int:
        return hash((self.m, self.modulus, self.tower))

    def __repr__(self) -> str:
        tow = f", tower=(t={self.tower[0]}, k={self.tower[1]})" if self.tower else ""
        return f"FieldCtx(GF(2^{self.m}), modulus={binpoly.pretty(self.modulus)}{tow})"

    @property
    def t(self) -> int:
        return self.require_tower()[0]

    @property
    def k(self) -> int:
        return self.require_tower()[1]

    @property
    def q(self) -> int:
        """Base power q = 2^t of the tower."""
        return 1 << self.t

    def require_tower(self) -> tuple[int, int]:
        if self.tower is None:
            raise ValueError("operation needs tower parameters (t, k); construct via from_tower")
        return self.tower

    def cached(self, key, build):
        """The object stored under key on this context, made by build() on the first request.

        The one memo for tables and bases derived from the context: they
        depend only on (m, modulus, tower), which never change, so each is
        built once per context and shared, not copied.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- arithmetic ---------------------------------------------------------

    def check_element(self, a) -> None:
        """ValueError unless a is an element encoding, an int in [0, 2^m); elementwise for an array.

        A non-integer scalar (a bool included), or a non-empty array whose
        dtype is not an integer type, is a TypeError: it is rejected as
        given, never truncated.  For an array, the error names its first
        entry outside the range.
        """
        if isinstance(a, np.ndarray):
            if not a.size:
                return
            if not np.issubdtype(a.dtype, np.integer):
                raise TypeError(f"field elements must be integers, got an array of {a.dtype}")
            if a.min() >= 0 and a.max() < self.order:
                return
            flat = a.ravel()
            a = flat[np.argmax((flat < 0) | (flat >= self.order))]
        elif isinstance(a, bool) or not isinstance(a, (int, np.integer)):
            raise TypeError(f"a field element must be an integer, got {a!r}")
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} outside the field range [0, 2^{self.m})")

    def element_array(self, a) -> np.ndarray:
        """a as an int64 array, once `check_element` has accepted it as given."""
        a = np.asarray(a)
        self.check_element(a)
        return a.astype(np.int64, copy=False)

    def mul(self, a: int, b: int) -> int:
        if (a | b) >> self.m:   # nonzero iff a or b is negative or at least 2^m
            self.check_element(a)
            self.check_element(b)
        acc = 0
        mod = self.modulus
        top = 1 << self.m
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            if a & top:
                a ^= mod
            b >>= 1
        return acc

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def mul_by_x(self, a: int) -> int:
        """Multiply by the basis generator x (one shift-reduce step)."""
        a <<= 1
        if a >> self.m:
            a ^= self.modulus
        return a

    def frobenius_images(self) -> list[list[int]]:
        """images[i][j] = (x^j)^(2^i): the basis under every Frobenius power, cached.

        Squaring is linear, so row i + 1 is row i under the squares of the
        basis: one int64 pass per row, the XOR of three lookups by byte in
        the 256-entry `gf2linalg.span_table`s of those squares (m <= 24).
        Each row becomes a list once.  A linearized polynomial's columns are
        XORs of these rows (`LinearizedPoly.matrix_columns`).
        """
        def build():
            squares = [self.sqr(1 << j) for j in range(self.m)]
            by_byte = [gf2linalg.span_table(squares[i:i + 8], np.int64) for i in (0, 8, 16)]
            row = np.left_shift(1, np.arange(self.m, dtype=np.int64))
            images = [row.tolist()]
            while len(images) < self.m:
                row = by_byte[0][row & 0xFF] ^ by_byte[1][row >> 8 & 0xFF] ^ by_byte[2][row >> 16]
                images.append(row.tolist())
            return images

        return self.cached("frobenius-images", build)

    def frobenius(self, a: int, i: int) -> int:
        """a^(2^i) by repeated squaring; i is reduced mod m."""
        for _ in range(i % self.m):
            a = self.sqr(a)
        return a

    # -- traces and subfields -----------------------------------------------

    def enumerate_subfield(self, d: int) -> np.ndarray:
        """The 2^d elements fixed by x -> x^(2^d), ascending: one cached read-only uint32 array."""
        if d < 1 or self.m % d:
            raise ValueError(f"subfield degree {d} does not divide m={self.m}")

        def build():   # the columns of v -> v + v^(2^d), from the cached Frobenius images
            cols = [v ^ (1 << j) for j, v in enumerate(self.frobenius_images()[d % self.m])]
            kernel, _ = gf2linalg.kernel_image(cols)
            assert len(kernel) == d
            return gf2linalg.span(kernel)

        return self.cached(("subfield", d), build)

    def trace_mask(self, a: int) -> int:
        """Bitmask M with Tr(a*y) = parity(M & y); the fast path for character sums."""
        self.check_element(a)
        row = self.cached("trace-row", self._trace_row)
        mask = 0
        ax = a
        for i in range(self.m):
            if (row & ax).bit_count() & 1:
                mask |= 1 << i
            ax = self.mul_by_x(ax)
        return mask

    def _trace_row(self) -> int:
        """Bit j is Tr(x^j): the XOR of the basis element's Frobenius images."""
        row = 0
        for j, images in enumerate(zip(*self.frobenius_images())):
            bit = 0
            for v in images:
                bit ^= v
            assert bit in (0, 1)
            row |= bit << j
        return row


def parse_pair(text: str) -> tuple[int, int]:
    """The decimal and hex values of one `d:h` pair; ValueError if text is not one.

    Only ASCII digits count: no sign, `0x` prefix, `_` separator or
    non-ASCII digit, as in the table file grammar.
    """
    match = _PAIR.fullmatch(text)
    if match is None:
        raise ValueError(f"expected `decimal:hex`, got {text!r}")
    return int(match[1]), int(match[2], 16)


def load_modulus_file(path: str) -> dict[int, int]:
    """Parse a modulus override file: one `m:hex` entry per line (see `parse_pair`).

    The file must be UTF-8; blank lines and lines whose first non-blank
    character is '#' are ignored.  A second line for one degree is an
    error.  Values are validated lazily by FieldCtx when actually used.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    table: dict[int, int] = {}
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.strip(BLANKS)
        if not line or line.startswith("#"):
            continue
        try:
            m, modulus = parse_pair(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected `m:hex`, got {line!r}") from exc
        if m in table:
            raise ValueError(f"{path}:{lineno}: duplicate entry for m={m}")
        table[m] = modulus
    return table
