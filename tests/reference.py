"""Independent brute-force oracles the tests check the fast paths against.

Everything here prefers the dumbest correct algorithm: trial division,
exhaustive filters, definitional sums, one masked sweep per character
sum.  The scalar field oracles come first: `power` and `inverse` by
square and multiply, `abs_trace`, `rel_trace` and `subfield_trace` by
repeated squaring, and `lin_eval`, a linearized polynomial as the sum
of its terms c_i * x^(2^i).  They are the package's former `FieldCtx`
and `LinearizedPoly.__call__` methods, moved here unchanged and built on
the scalar product alone, so they share nothing with the tables and
linear algebra they pin.  Deliberately disjoint from the implementation's Frobenius/gcd
irreducibility test, kernel-basis subfield enumeration, Walsh-spectrum
character sums, popcount parity kernel, image-table map formulas and
vectorized collision search.  The `*_block_direct` oracles reuse the
linear-table and multiply kernels, which are pinned on their own, but
multiply on every x instead of tabling on S's image.
`frobenius_product` is the image-product table as it was before it was
built from its multilinear coefficients: one lookup and one
`mul_block` product per exponent on every element.  The `*_per_a`
oracles are the case loops as verify ran them before batching, and they
hold the one-a sweeps the package replaced by its batched rows: one
full-table sweep of the single-a check per a, the Case-1 witness by a
scalar loop over F_{q^k}, and c from a filter of the whole domain; the
eq23 loop reads S^E at every x from `s_power_table`, by
`s_power_block_direct`.
`walsh_spectrum_levels` is the spectrum as it was before the cache-blocked
transform, one whole-array butterfly pass per level.
`signed_parity_sums` is the Case-2 character sums as they were computed
before they went through the Walsh bins: a masks-by-values parity
matrix, one block of masks at a time.
`charsum_run_lists` is the character-sum verdict as it was before the
blocked pass: every sum in one list, then a scan for the first nonzero.
`shift_checks_gather` is the batched shift check as it was before the
quotient by ker S and the half-table pass: every block of the table, its
partners gathered through a uint32 index.  `subfield_permutation_scalar`
is condition (i) as it was before the table lookups: L evaluated by
scalar field arithmetic on every subfield element, with a dict of the
values seen.
`subfield_by_squaring` and `compose_by_squaring` are the subfield basis
and linearized composition as they were before the cached Frobenius
images: every Frobenius power by repeated squaring.
`frobenius_images_by_squaring` is that cache as it was built before its
rows came from row 1's columns: m - 1 rows of generic squarings.
`format_table_lines` and `parse_table_file` are the hex table I/O as it
was before the blocked numpy passes: one formatted line per entry, and
a line-by-line text read with `int(s, 16)` into a dict.
`format_table_lines_masked` is the blocked export as it was before its
leading zeros were dropped as NUL bytes: a boolean-mask compaction, fast
enough to compare against at every m up to 24.
`span_by_closure` is the span of a vector list by brute force, as the
subspaces were enumerated before the echelon span table: a Python set
closed under XOR one vector at a time, then sorted.
"""

import functools
import random
from typing import Iterator

import numpy as np

from ppverify import FieldCtx, FieldMap, binpoly, blocks, char_sum, gf2linalg
from ppverify.constructions import s2k
from ppverify.linearized import LinearizedPoly
from ppverify.pptest import NOT_PERMUTATION, PERMUTATION, PROBABLE, PPVerdict, _char_sums
from ppverify.proofchecks import CheckResult, tracezero_basis, tracezero_set


def _check_subfield_degree(ctx, d: int) -> None:
    if d < 1 or ctx.m % d != 0:
        raise ValueError(f"subfield degree {d} does not divide m={ctx.m}")


def power(ctx, a: int, e: int) -> int:
    """a^e for e >= 0, by square and multiply (0^0 = 1)."""
    if e < 0:
        raise ValueError("negative exponent; use inverse and a positive power")
    result = 1
    while e:
        if e & 1:
            result = ctx.mul(result, a)
        a = ctx.sqr(a)
        e >>= 1
    return result


def inverse(ctx, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return power(ctx, a, ctx.order - 2)


def abs_trace(ctx, a: int) -> int:
    """Absolute trace onto GF(2): sum of a^(2^i) for i < m, as a bit."""
    acc = 0
    v = a
    for _ in range(ctx.m):
        acc ^= v
        v = ctx.sqr(v)
    assert acc in (0, 1)
    return acc


def rel_trace(ctx, a: int, d: int) -> int:
    """Trace onto the subfield GF(2^d): sum of a^(2^(d*i)) for i < m/d."""
    _check_subfield_degree(ctx, d)
    acc = 0
    v = a
    for _ in range(ctx.m // d):
        acc ^= v
        v = ctx.frobenius(v, d)
    return acc


def subfield_trace(ctx, z: int, d: int) -> int:
    """Trace of z from GF(2^d) down to GF(2); z must lie in GF(2^d)."""
    _check_subfield_degree(ctx, d)
    if ctx.frobenius(z, d) != z:
        raise ValueError(f"element {z:#x} is not in the subfield GF(2^{d})")
    acc = 0
    v = z
    for _ in range(d):
        acc ^= v
        v = ctx.sqr(v)
    assert acc in (0, 1)
    return acc


def lin_eval(L: LinearizedPoly, x: int) -> int:
    """L(x) = sum of c_i * x^(2^i), term by term; additive in x."""
    ctx = L.ctx
    ctx.check_element(x)
    acc = 0
    xp = x
    for c in L.coeffs:
        if c:
            acc ^= ctx.mul(c, xp)
        xp = ctx.sqr(xp)
    return acc


def trial_division_irreducible(f: int) -> bool:
    """No divisor of degree 1..deg(f)//2, by dividing by every candidate."""
    n = binpoly.degree(f)
    if n < 1:
        return False
    for d in range(2, 1 << (n // 2 + 1)):
        if binpoly.mod(f, d) == 0:
            return False
    return True


def least_irreducible_by_trial(m: int) -> int:
    for cand in range(1 << m, 1 << (m + 1)):
        if trial_division_irreducible(cand):
            return cand
    raise AssertionError


def common_divisors(f: int, g: int, max_degree: int = 8) -> list[int]:
    """All monic common divisors up to max_degree, by enumeration."""
    out = []
    for d in range(1, 1 << (max_degree + 1)):
        if (f == 0 or binpoly.mod(f, d) == 0) and (g == 0 or binpoly.mod(g, d) == 0):
            out.append(d)
    return out


def mul_via_polymod(ctx, a: int, b: int) -> int:
    """Field product through an explicit carry-less multiply + long division."""
    return binpoly.mod(binpoly.multiply(a, b), ctx.modulus)


def subfield_by_filter(ctx, d: int) -> list[int]:
    """Exhaustive filter of the frobenius fixed-point condition."""
    return [a for a in range(ctx.order) if ctx.frobenius(a, d) == a]


def columns_of_map(m: int, fn) -> list[int]:
    """Columns [fn(1), fn(2), fn(4), ...] of a linear map on m bits, one call each."""
    return [fn(1 << i) for i in range(m)]


def span_by_closure(vectors) -> list[int]:
    """All XOR combinations of the vectors, each once, sorted ascending."""
    out = {0}
    for v in vectors:
        out |= {u ^ v for u in out}
    return sorted(out)


def subfield_by_squaring(ctx, d: int) -> list[int]:
    """GF(2^d) as the kernel span of v -> v + v^(2^d), its columns by repeated squaring."""
    cols = columns_of_map(ctx.m, lambda v: ctx.frobenius(v, d) ^ v)
    return span_by_closure(gf2linalg.kernel_image(cols)[0])


def frobenius_images_by_squaring(ctx) -> list[list[int]]:
    """images[i][j] = (x^j)^(2^i), every row squared from the one before."""
    images = [[1 << j for j in range(ctx.m)]]
    while len(images) < ctx.m:
        images.append([ctx.mul(v, v) for v in images[-1]])
    return images


def compose_by_squaring(A: LinearizedPoly, B: LinearizedPoly) -> LinearizedPoly:
    """A after B: coefficient i + j picks up A[i] * B[j]^(2^i), by repeated squaring."""
    ctx = A.ctx
    coeffs = [0] * ctx.m
    for i, a in enumerate(A.coeffs):
        for j, b in enumerate(B.coeffs):
            coeffs[(i + j) % ctx.m] ^= ctx.mul(a, ctx.frobenius(b, i))
    return LinearizedPoly(ctx, coeffs)


def walsh_spectrum_levels(fmap) -> np.ndarray:
    """The int32 Walsh spectrum as `FieldMap.spectrum` built it before cache
    blocking: preimage counts, then one butterfly pass per level over the
    whole array."""
    w = np.bincount(fmap.table(), minlength=fmap.ctx.order).astype(np.int32)
    for i in range(fmap.ctx.m):
        pairs = w.reshape(-1, 2, 1 << i)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi          # (lo, hi) -> (lo + hi, lo - hi)
        hi *= -2
        hi += lo
    return w


def signed_parity_sums(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The exact sum over v in values of (-1)^parity(M & v), for each mask M, as int64."""
    out = np.empty(len(masks), dtype=np.int64)
    step = max(1, blocks.BLOCK // max(1, len(values)))   # bounds the masks-by-values block
    for i in range(0, len(masks), step):
        odd = blocks.parity(masks[i:i + step, None] & values).sum(axis=1, dtype=np.int64)
        out[i:i + step] = len(values) - 2 * odd
    return out


def char_sum_definitional(fmap, a: int) -> int:
    """Sum of (-1)^Tr(a*f(x)) term by term, no masks."""
    ctx = fmap.ctx
    return sum(1 - 2 * abs_trace(ctx, ctx.mul(a, fmap(x))) for x in range(ctx.order))


def char_sums_masked(fmap, a_values) -> list[int]:
    """One masked-parity sweep over the value table per a; parity by bit folding."""
    ctx = fmap.ctx
    table = fmap.table()
    sums = []
    for a in a_values:
        v = table & ctx.trace_mask(a)
        for shift in (16, 8, 4, 2, 1):
            v = v ^ (v >> shift)
        sums.append(ctx.order - 2 * int((v & 1).sum()))
    return sums


def charsum_run_lists(f, mode: str, n: int, seed: int):
    """(verdict, {a: sum}) from every checked a's sum as one Python list and dict.

    The character-sum verdict as it was before the blocked pass: all
    2^m - 1 sums (or the n seeded ones) are gathered at once, then scanned
    in order for the first nonzero one.
    """
    ctx = f.ctx
    if mode == "all":
        a_values = list(range(1, ctx.order))
        clean_verdict = PERMUTATION
    elif mode == "sample":
        rng = random.Random(seed)
        a_values = [rng.randrange(1, ctx.order) for _ in range(n)]
        clean_verdict = PROBABLE
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'all' or 'sample'")

    sums = _char_sums(f, a_values)
    by_a = dict(zip(a_values, sums))
    for checked, (a, s) in enumerate(zip(a_values, sums), 1):
        if s != 0:
            return PPVerdict(NOT_PERMUTATION, f"charsum-{mode}", checked, witness=(a, s)), by_a
    return PPVerdict(clean_verdict, f"charsum-{mode}", len(a_values)), by_a


def tracezero_set_scalar(ctx) -> list[int]:
    """The relative-trace-zero subspace, spanned by the kernel of the scalar rel_trace's columns."""
    t, k = ctx.require_tower()
    cols = columns_of_map(ctx.m, lambda v: rel_trace(ctx, v, t * k))
    return span_by_closure(gf2linalg.kernel_image(cols)[0])


def case_split_scalar(ctx, seed: int, n: int = 128) -> tuple[list[int], list[int]]:
    """verify's seeded (case1, case2) a-samples, drawn with one scalar rel_trace per a."""
    t, k = ctx.require_tower()
    rng = random.Random(f"{seed}:cases")
    case1: list[int] = []
    seen: set[int] = set()
    while len(case1) < n:
        a = rng.randrange(1, ctx.order)
        if a in seen:
            continue
        seen.add(a)
        if rel_trace(ctx, a, t * k) != 0:
            case1.append(a)
    case2 = [a for a in tracezero_set_scalar(ctx) if a != 0]
    return case1, sorted(rng.sample(case2, min(n, len(case2))))


def kernel_by_sweep(L) -> set[int]:
    return {x for x in range(L.ctx.order) if lin_eval(L, x) == 0}


def image_by_sweep(L) -> set[int]:
    return {lin_eval(L, x) for x in range(L.ctx.order)}


def g_scalar(ctx, x: int, L=None) -> int:
    """g1(x), or g3(x) given L, with s = S(x) and s^(q^k+3) = s * s^2 * s^(q^k), by scalar ops."""
    t, k = ctx.require_tower()
    s = lin_eval(s2k(ctx), x)
    head = x ^ ctx.frobenius(s, 2 * t * k) if L is None else lin_eval(L, x)
    return head ^ ctx.mul(ctx.mul(s, ctx.sqr(s)), ctx.frobenius(s, t * k))


def s_power(ctx, x: int) -> int:
    """S(x)^(1 + 2q^k + q^(2k)) = v * v^(2^(tk+1)) * v^(2^(2tk)) with v = S(x), by scalar ops."""
    t, k = ctx.require_tower()
    v = lin_eval(s2k(ctx), x)
    return ctx.mul(ctx.mul(v, ctx.frobenius(v, t * k + 1)), ctx.frobenius(v, 2 * t * k))


def frobenius_product(ctx, v: np.ndarray, exponents) -> np.ndarray:
    """v times v^(2^e) for each e in exponents, elementwise: one lookup and one `mul_block`
    product per e on every entry (the oracle of `blocks.image_product`'s coefficient route)."""
    out = v
    for e in exponents:
        powers = blocks.linear_table(LinearizedPoly.frobenius_power(ctx, e))(v)
        out = blocks.mul_block(ctx, out, powers)
    return out


def g_block_direct(ctx, xs, L=None):
    """g1(xs), or g3(xs) given L, with two `mul_block` products on every x (no image table)."""
    t, k = ctx.require_tower()
    s = blocks.linear_table(s2k(ctx))(xs)
    if L is None:
        head = xs ^ blocks.linear_table(LinearizedPoly.frobenius_power(ctx, 2 * t * k))(s)
    else:
        head = blocks.linear_table(L)(xs)
    return head ^ frobenius_product(ctx, s, (1, t * k))


def s_power_block_direct(ctx, xs):
    """S(xs)^(1 + 2q^k + q^(2k)) with two `mul_block` products on every x (no image table)."""
    t, k = ctx.require_tower()
    return frobenius_product(ctx, blocks.linear_table(s2k(ctx))(xs), (t * k + 1, 2 * t * k))


def first_collision(values):
    """(x1, x2) for the least x2 whose value appeared before, by a dict scan; None if none."""
    first = {}
    for x, y in enumerate(values):
        if y in first:
            return first[y], x
        first[y] = x
    return None


def shift_check_sweep(f, a: int, y: int) -> int | None:
    """The constant bit of Tr(a*f(x+y)) + Tr(a*f(x)) over all x, or None: one masked sweep."""
    par = blocks.parity(f.table() & f.ctx.trace_mask(a))
    bits = par ^ par[np.arange(f.ctx.order, dtype=np.uint32) ^ y]
    lo, hi = int(bits.min()), int(bits.max())
    return lo if lo == hi else None


def shift_checks_gather(f, a_values, y: int) -> np.ndarray:
    """pptest.shift_checks over every x: D(x) + D(0) for each block, then the span's test."""
    table = f.table()
    d0 = int(table[0] ^ table[y])
    local = np.arange(min(table.size, blocks.BLOCK), dtype=np.uint32)
    diffs = (table[start:start + local.size] ^ table[local ^ (start ^ y)] ^ d0
             for start in range(0, table.size, local.size))
    masks = blocks.trace_masks(f.ctx)(np.asarray(a_values, dtype=np.int64))
    const = blocks.parity(masks & d0).astype(np.int8)
    for b in blocks.span_basis(diffs, f.ctx.m):
        const[blocks.parity(masks & b) == 1] = -1
    return const


def subfield_permutation_scalar(L, d: int) -> tuple[bool, str | None]:
    """linearized.subfield_permutation_check by scalar evaluation, z by z in enumeration order."""
    ctx = L.ctx
    seen: dict[int, int] = {}
    for z in ctx.enumerate_subfield(d).tolist():
        w = lin_eval(L, z)
        if ctx.frobenius(w, d) != w:
            return False, f"not subfield-stable: L({z:#x}) = {w:#x} outside GF(2^{d})"
        if w in seen:
            return False, f"not injective: L({seen[w]:#x}) = L({z:#x}) = {w:#x}"
        seen[w] = z
    return True, None


def find_case1_witness_scalar(ctx, a: int) -> int:
    """First y in F_{q^k} (enumeration order) with Tr_{q^k/2}(y * rel_trace(a)) = 1, by scalar ops."""
    t, k = ctx.require_tower()
    d = t * k
    r = rel_trace(ctx, a, d)
    if r == 0:
        raise ValueError(f"a={a:#x} has zero relative trace; it belongs to Case 2")
    for y in ctx.enumerate_subfield(d).tolist():
        if subfield_trace(ctx, ctx.mul(y, r), d) == 1:
            return y
    raise AssertionError("nondegenerate trace form yielded no witness")


def adapted_witness(ctx, L, a: int) -> int | None:
    """First y in F_{q^k} with Tr_{q^k/2}[L(y) rel_trace(a)] = 1, the Case-1 shift of g3.

    None if no y qualifies, or if L maps a y met on the way outside F_{q^k}.
    """
    t, k = ctx.require_tower()
    d = t * k
    r = rel_trace(ctx, a, d)
    for y in ctx.enumerate_subfield(d).tolist():
        ly = lin_eval(L, y)
        if ctx.frobenius(ly, d) != ly:
            return None
        if subfield_trace(ctx, ctx.mul(ly, r), d) == 1:
            return y
    return None


def decomposition_cosets(ctx, a_values) -> list[list[int]]:
    """For each a, every c with c + c^(q^k) = a, ascending: a filter of the whole domain,
    one block of 2^16 x at a time."""
    t, k = ctx.require_tower()
    frobenius = blocks.linear_table(LinearizedPoly.frobenius_power(ctx, t * k))
    cosets: list[list[int]] = [[] for _ in a_values]
    for start in range(0, ctx.order, blocks.BLOCK):
        xs = np.arange(start, min(start + blocks.BLOCK, ctx.order), dtype=np.uint32)
        phi = xs ^ frobenius(xs)
        for coset, a in zip(cosets, a_values):
            coset += (start + np.flatnonzero(phi == a)).tolist()
    return cosets


@functools.lru_cache(maxsize=1)
def s_power_table(ctx):
    """S^E at every x by `s_power_block_direct`, one block of 2^16 x at a time, as uint32."""
    out = np.empty(ctx.order, dtype=np.uint32)
    for start in range(0, ctx.order, blocks.BLOCK):
        out[start:start + blocks.BLOCK] = s_power_block_direct(
            ctx, np.arange(start, min(start + blocks.BLOCK, ctx.order)))
    return out


def eq23_one_a(g, a: int, c: int) -> str | None:
    """Tr(a*g(x)) = Tr(c*S(x)^E) at every x, by one parity sweep per side; the counterexample or None."""
    ctx = g.ctx
    left = blocks.parity(g.table() & ctx.trace_mask(a))
    right = blocks.parity(s_power_table(ctx) & ctx.trace_mask(c))
    diff = left ^ right
    if diff.any():
        x = int(np.argmax(diff))
        return f"a={a:#x}, x={x:#x}"
    return None


def factorization_one_a(g, a: int, c: int, basis=None, tz_powers=None) -> str | None:
    """The Case-2 chain for one a, with scalar factor sums; the counterexample or None.

    basis defaults to `tracezero_basis`, and tz_powers, the w^E over the
    trace-zero set, to two `mul_block` products on every w.
    """
    ctx = g.ctx
    t, k = ctx.require_tower()
    d = t * k
    mask_c = ctx.trace_mask(c)
    if tz_powers is None:
        tz_powers = frobenius_product(ctx, tracezero_set(ctx), (d + 1, 2 * d))
    odd = int(blocks.parity(tz_powers & mask_c).sum(dtype=np.int64))
    tz_sum = len(tz_powers) - 2 * odd
    full_sum = char_sum(g, a)
    if full_sum != (1 << d) * tz_sum:
        return f"a={a:#x}: full sum {full_sum} != q^k * {tz_sum} (eq. restriction step)"
    d1, d2 = basis if basis is not None else tracezero_basis(ctx)
    subfield = ctx.enumerate_subfield(d).tolist()
    factors = []
    for di in (d1, d2):
        beta = ctx.mul(c, ctx.frobenius(di, d))
        mask_b = ctx.trace_mask(beta)
        factors.append(sum(1 - 2 * ((mask_b & u).bit_count() & 1) for u in subfield))
    if tz_sum != factors[0] * factors[1]:
        return (f"a={a:#x}: trace-zero sum {tz_sum} != "
                f"{factors[0]} * {factors[1]} (product step)")
    rts = [rel_trace(ctx, ctx.mul(c, ctx.frobenius(di, d)), d) for di in (d1, d2)]
    if rts[0] == 0 and rts[1] == 0:
        return f"a={a:#x}: both basis traces vanish"
    if tz_sum != 0:
        return f"a={a:#x}: trace-zero sum {tz_sum} != 0"
    return None


def case1_per_a(g, case1, witness_for) -> CheckResult:
    """The case1-shift-witness row by one shift_check_sweep and one char_sum per a."""
    def fail(why):
        return CheckResult("case1-shift-witness", "fail", count=len(case1), counterexample=why)

    for a in case1:
        y = witness_for(a)
        if y is None:
            return fail(f"a={a:#x}: no shift witness in the subfield")
        const = shift_check_sweep(g, a, y)
        if const != 1:
            return fail(f"a={a:#x}, y={y:#x}: "
                        f"difference {'not constant' if const is None else const}")
        if char_sum(g, a) != 0:
            return fail(f"a={a:#x}: constant-1 shift but nonzero character sum")
    return CheckResult("case1-shift-witness", "pass", count=len(case1))


def case2_per_a(name, g, case2, check) -> CheckResult:
    """A Case-2 row: check(g, a, c) for each a in turn, c its least decomposition.

    The first failure stands for all; the row counts the whole a list, pass or fail.
    """
    for a, coset in zip(case2, decomposition_cosets(g.ctx, case2)):
        why = check(g, a, coset[0])
        if why is not None:
            return CheckResult(name, "fail", count=len(case2), counterexample=why)
    return CheckResult(name, "pass", count=len(case2))


def format_table_lines(fmap: FieldMap) -> Iterator[str]:
    """Hex table exchange format: one `x:gx` line per element, sorted by x."""
    for x, y in enumerate(fmap.table()):
        yield f"{x:x}:{int(y):x}"


def format_table_lines_masked(fmap: FieldMap) -> Iterator[str]:
    """maps.format_table_lines as it was before the NUL-drop compaction.

    One chunk per `blocks.BLOCK` entries: a row-major character array
    filled one digit column at a time, then one boolean-mask compaction
    of the leading zero digits.
    """
    table = fmap.table()
    width = (fmap.ctx.m + 3) // 4
    for start in range(0, len(table), blocks.BLOCK):
        ys = table[start:start + blocks.BLOCK]
        chars = np.empty((len(ys), 2 * width + 2), dtype=np.uint8)
        keep = np.ones(chars.shape, dtype=bool)
        for field, values in enumerate((np.arange(start, start + len(ys), dtype=np.uint32), ys)):
            for i in range(width):
                prefix = values >> np.uint32(4 * (width - 1 - i))
                digit = (prefix & np.uint32(15)).astype(np.uint8)
                chars[:, field * (width + 1) + i] = digit + (48 + 39 * (digit > 9).view(np.uint8))
                keep[:, field * (width + 1) + i] = prefix != 0
        keep[:, [width - 1, 2 * width]] = True
        chars[:, [width, 2 * width + 1]] = (ord(":"), ord("\n"))
        yield chars[keep].tobytes().decode("ascii")


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
