"""Step-by-step numeric validation of the permutation-map arguments.

Each identity used in the two proofs gets its own check: the telescoping
relation S + S^(q^k) + S^(q^(2k)) = 0, the kernel/image description of
S, the gcd identity behind it, the a = c + c^(q^k) decomposition, the
trace-zero basis claim, and the character-sum factorization that closes
Case 2.  The nine-line trace rewrite chain is checked at its endpoint
only (equality over all x is stronger evidence than replaying each
rewrite).  Pointwise identities are checked at every x, at every m:
eq23 through one `g.span` of (g(x), S^E(x)) (on the cosets of ker S for
the paper's g), and eq22, a sum of linear maps, on the m basis elements,
which is exact at every x.  The per-a case checks cover every a up to
PER_A_FULL_LIMIT_M and a seeded sample above it, as the report records.
The trace-zero set and its basis, S^E on S's image and the decomposition
tables are built once per context, by `FieldCtx.cached`; the Case-2 rows
are functions of the map g alone and read them there.

Each per-a row is decided for its whole a list in one batch, exactly,
by GF(2) linear algebra over the tables: the trace conditions are linear
in the masks M_a, so a row costs one pass per table (the span of the
values a condition must annihilate) plus a few array operations over a.
The first failing a in list order is reported, its message built from
the row's own arrays; eq23 finds its x by a blockwise parity sweep of that a.
The one-a checks (`check_eq23(g, a)`, `check_case2_factorization(g,
a)`) are one-element calls of the batched rows.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import binpoly, blocks, gf2linalg
from .constructions import (build_g_thm1, build_g_thm3, build_L1, condition_ii_sides,
                            rel_trace_poly, s2k)
from .field import FieldCtx
from .linearized import LinearizedPoly, format_linpoly, subfield_permutation_check
from .maps import FieldMap
from .pptest import (DEFAULT_SAMPLES, DEFAULT_SEED, _charsum_run, case1_witnesses,
                     char_sum, is_permutation_exhaustive, shift_checks)

PER_A_FULL_LIMIT_M = 12   # per-a case loops cover every a up to here
CHARSUM_ALL_LIMIT_M = 14  # verify_thm1 reports every character sum up to here


class _Record:
    """JSON dicts of a report dataclass, over its fields: the schema is stated only there."""

    def to_dict(self) -> dict:
        """The fields in order, None ones left out, millis rounded to 3 places, records as dicts."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "millis":
                value = round(value, 3)
            elif isinstance(value, list):
                value = [v.to_dict() for v in value]
            if value is not None:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict):
        """The record of a `to_dict` dict; absent fields take defaults, other keys are ignored."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass
class CheckResult(_Record):
    """One named check inside a verification report."""
    name: str
    status: str                      # "pass" | "fail"
    count: int = 0
    millis: float = 0.0
    counterexample: str | None = None
    note: str | None = None
    sums: dict[str, int] | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport(_Record):
    """Aggregated outcome of one theorem verification run."""
    theorem: str
    t: int
    k: int
    m: int
    modulus_hex: str
    seed: int
    checks: list[CheckResult] = dc_field(default_factory=list)
    overall: str = "pass"
    millis: float = 0.0
    hypothesis_failure: bool = False

    def finish(self) -> "VerificationReport":
        self.overall = "pass" if all(c.passed for c in self.checks) else "fail"
        self.millis = round(sum(c.millis for c in self.checks), 3)
        return self

    @property
    def passed(self) -> bool:
        return self.overall == "pass"

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        report = super().from_dict(data)
        report.checks = [CheckResult.from_dict(c) for c in report.checks]
        return report

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def text_lines(self) -> list[str]:
        head = f"{self.theorem} t={self.t} k={self.k} m={self.m}"
        lines = []
        for c in self.checks:
            line = f"[{c.status.upper():>4}] {head} {c.name} (count={c.count}, {c.millis:.1f} ms)"
            if c.counterexample:
                line += f" counterexample: {c.counterexample}"
            lines.append(line)
        lines.append(f"[{self.overall.upper():>4}] {head} overall ({self.millis:.1f} ms)")
        return lines

    def csv_row(self) -> str:
        return f"{self.theorem},{self.t},{self.k},{self.overall},{self.millis}"


CSV_HEADER = "theorem,t,k,overall,millis"


def _timed(check):
    """check with the wall time of each call recorded in its CheckResult's millis."""
    @functools.wraps(check)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = check(*args, **kwargs)
        result.millis = (time.perf_counter() - start) * 1000.0
        return result
    return timed


# ---------------------------------------------------------------------------
# individual identity checks
# ---------------------------------------------------------------------------

@_timed
def check_eq22(ctx: FieldCtx, s_poly: LinearizedPoly | None = None) -> CheckResult:
    """S + S^(q^k) + S^(q^(2k)) reduces to the zero map, twice over.

    (a) the three coefficient vectors XOR-cancel exactly; (b) the sum
    vanishes at every x, evaluated apart from (a): S's matrix columns,
    XORed with their images under the cached Frobenius tables for q^k and
    q^(2k).  The sum is linear, so its m basis values decide every x; a
    failure names the least x with a nonzero sum, 1 << j for the first
    nonzero column j.
    """
    t, k = ctx.require_tower()
    S = s_poly if s_poly is not None else s2k(ctx)
    total = S + S.then_frobenius(k * t) + S.then_frobenius(2 * k * t)
    if not total.is_zero():
        bad = next(i for i, c in enumerate(total.coeffs) if c)
        return CheckResult("eq22", "fail", count=0,
                           counterexample=f"coefficient {total.coeffs[bad]:#x} at index {bad}")
    cols = np.array(S.matrix_columns(), dtype=np.int64)
    q_k, q_2k = (blocks.linear_table(LinearizedPoly.frobenius_power(ctx, e))
                 for e in (k * t, 2 * k * t))
    sums = cols ^ q_k(cols) ^ q_2k(cols)
    if sums.any():
        j = int(np.argmax(sums != 0))
        return CheckResult("eq22", "fail", count=ctx.order,
                           counterexample=f"sum = {int(sums[j]):#x} at x={1 << j:#x}")
    return CheckResult("eq22", "pass", count=ctx.order)


def tracezero_set(ctx: FieldCtx) -> np.ndarray:
    """The relative-trace-zero subspace (q^{2k} elements) as one cached, read-only, ascending
    uint32 array (`gf2linalg.span`): each call gets the same array, no copy.
    """
    return ctx.cached("tracezero", lambda: gf2linalg.span(rel_trace_poly(ctx).kernel_image()[0]))


@_timed
def check_kernel_image(ctx: FieldCtx) -> CheckResult:
    """Kernel and image of S match the subfield and the trace-zero set.

    Asserts: kernel(S) = F_{q^k} as a set, image(S) = trace-zero set as
    a set (so |image| = q^{2k}), and the gcd identity
    gcd(1 + x + ... + x^(2k-1), x^(3k) + 1) = x^k + 1 over GF(2).
    Sets come from F2 bases, which is exact at any m here.  S vanishing
    on F_{q^k}, the literal subfield reading, is the kernel claim's subcase.
    """
    t, k = ctx.require_tower()
    d = t * k
    S = s2k(ctx)
    note = ("image computed over the full field domain; on the literal "
            "subfield reading (domain meets F_{q^{2k}} in F_{q^k}) S vanishes, "
            "a subcase of the kernel claim")
    kernel, image = S.kernel_image()
    kernel_set = gf2linalg.span(kernel)
    subfield = ctx.enumerate_subfield(d)
    if not np.array_equal(kernel_set, subfield):
        return CheckResult("kernel-image", "fail", count=len(kernel_set),
                           counterexample="kernel differs from the subfield "
                           f"(dim {len(kernel)} vs {d})")
    image_set = gf2linalg.span(image)
    tz = tracezero_set(ctx)
    if not np.array_equal(image_set, tz):
        return CheckResult("kernel-image", "fail", count=len(image_set),
                           counterexample="image differs from the trace-zero set")
    if len(image_set) != 1 << (2 * d):
        return CheckResult("kernel-image", "fail", count=len(image_set),
                           counterexample=f"image size {len(image_set)} != q^(2k)")
    got = binpoly.gcd(binpoly.all_ones(2 * k), (1 << (3 * k)) | 1)
    want = (1 << k) | 1
    if got != want:
        return CheckResult("kernel-image", "fail", count=0,
                           counterexample=f"gcd = {binpoly.pretty(got)}, "
                           f"expected {binpoly.pretty(want)}")
    return CheckResult("kernel-image", "pass",
                       count=len(kernel_set) + len(image_set), note=note)


def decompose_a(ctx: FieldCtx, a: int) -> int:
    """Solve c + c^(q^k) = a; returns the least solution in encoding order.

    Valid exactly for nonzero a of relative trace zero (the image of the
    map is the trace-zero set).  The solution coset is c + F_{q^k}; no
    member lies in F_{q^k} because a is nonzero.
    """
    return int(least_decompositions(ctx, [a])[0])


def least_decompositions(ctx: FieldCtx, a_values) -> np.ndarray:
    """decompose_a for an array of Case-2 a at once, as uint32.

    One linear-table lookup (`_decomposition`) and an exact check that
    every c solves c + c^(q^k) = a: a ValueError names the first a outside
    the map's image.  Every a must be a nonzero int in [0, 2^m): TypeError
    or ValueError otherwise, before any lookup.
    """
    a_values = ctx.element_array(a_values)
    if (a_values == 0).any():
        raise ValueError("a must be nonzero")
    phi, least = _decomposition(ctx)
    c = least(a_values)
    missed = phi(c) != a_values
    if missed.any():
        raise ValueError(
            f"a={int(a_values[np.argmax(missed)]):#x} has nonzero relative trace, so it is "
            f"outside the image of c -> c + c^(q^k); it belongs to Case 1")
    return c


def _decomposition(ctx: FieldCtx):
    """Tables of c -> c + c^(q^k) and of its least solution c (`particular_solution`); cached."""
    t, k = ctx.require_tower()
    d = t * k

    def build():
        cols = [c ^ (1 << j) for j, c in enumerate(ctx.frobenius_images()[d])]
        least = blocks.LinearTable(gf2linalg.particular_solution(cols, ctx.m))
        return blocks.LinearTable(cols), least

    return ctx.cached(("decomposition", d), build)


def _s_power(ctx: FieldCtx) -> blocks.ImageTable:
    """S^E, E = 1 + 2q^k + q^(2k), tabled on S's image (`blocks.image_product`, cached).

    Its `coords` map x to S(x)'s image coordinates and its `values` are
    w^E for every w in the image, which is the trace-zero set (the
    kernel-image row checks that); eq23 reads it on aligned blocks
    (`coset`) only to name the x of a failing a, and never as a 2^m table.
    """
    t, k = ctx.require_tower()
    return blocks.image_product(s2k(ctx), (t * k + 1, 2 * t * k))


def check_eq23(g: FieldMap, a: int) -> CheckResult:
    """Endpoint of the Case-2 trace rewrite: Tr(a*g(x)) = Tr(c*S(x)^E).

    E = 1 + 2q^k + q^(2k), c is the least decomposition of a and the field
    is g's.  The rewrite cancels S^q against S^4.  For g = g1 that makes it
    a q = 4 identity (the t=2 towers), and it fails pointwise at other q;
    for g3, condition (ii) supplies the cancellation at every q.  Every x
    is checked, through the span of (g(x), S^E(x)).  The count is 1, the
    one a.
    """
    return _check_eq23_batch(g, [a], None)


def tracezero_basis(ctx: FieldCtx) -> tuple[int, int]:
    """A greedy F_{q^k}-basis (d1, d2) of the trace-zero set, cached on the context.

    d1 is the first nonzero trace-zero element in encoding order and d2
    the first one outside d1 * F_{q^k}; their F_{q^k}-span is the whole
    q^{2k}-element trace-zero set.
    """
    t, k = ctx.require_tower()
    d = t * k

    def build():
        tz = tracezero_set(ctx)
        subfield = ctx.enumerate_subfield(d)
        d1 = int(tz[1])                     # tz is ascending and tz[0] = 0
        line = blocks.mul_block(ctx, d1, subfield)
        on_line = np.zeros(tz.size, dtype=bool)
        on_line[np.searchsorted(tz, line)] = True   # d1 * F_{q^k} lies in the trace-zero set
        d2 = int(tz[np.argmin(on_line)])
        span = line[:, None] ^ blocks.mul_block(ctx, d2, subfield)
        assert tz.size == 1 << (2 * d) and np.array_equal(np.sort(span, axis=None), tz)
        return d1, d2

    return ctx.cached("tracezero-basis", build)


def check_case2_factorization(g: FieldMap, a: int) -> CheckResult:
    """The Case-2 chain: restriction to the trace-zero set, the two-factor
    product formula, the not-both-zero basis claim, and the vanishing sum.

    With c decomposing a, E = 1 + 2q^k + q^(2k), and (d1, d2) the
    trace-zero basis, asserts
      (a) sum_x (-1)^Tr(a g(x)) = q^k * T with T = sum over trace-zero w
          of (-1)^Tr(c w^E),
      (b) T = F1 * F2 where Fi = sum over u in F_{q^k} of
          (-1)^Tr(c di^(q^k) u),
      (c) rel_trace(c d1^(q^k)) and rel_trace(c d2^(q^k)) are not both 0,
      (d) T = 0.
    The count is 1, the one a.
    """
    return _check_factorization_batch(g, [a], None)


# ---------------------------------------------------------------------------
# theorem-level drivers
# ---------------------------------------------------------------------------

def _case_split(ctx: FieldCtx, seed: int) -> tuple[list[int], list[int], bool]:
    """(case1 a's, case2 a's, sampled?): all a up to PER_A_FULL_LIMIT_M, else 128 seeded a each.

    Above it, a are drawn one at a time until 128 distinct ones have a
    nonzero relative trace; the Case-2 draw continues the same rng.
    """
    rel = rel_trace_poly(ctx)
    case2 = [a for a in tracezero_set(ctx).tolist() if a != 0]
    if ctx.m <= PER_A_FULL_LIMIT_M:
        case1 = np.flatnonzero(blocks.linear_table(rel)(np.arange(ctx.order))).tolist()
        return case1, case2, False
    rng = random.Random(f"{seed}:cases")
    cols = rel.matrix_columns()
    case1: list[int] = []
    while len(case1) < DEFAULT_SAMPLES:
        a = rng.randrange(1, ctx.order)
        if gf2linalg.apply(cols, a) and a not in case1:
            case1.append(a)
    case2 = sorted(rng.sample(case2, min(DEFAULT_SAMPLES, len(case2))))
    return case1, case2, True


@_timed
def _check_case1(g: FieldMap, L: LinearizedPoly, case1: list[int], sampled: bool) -> CheckResult:
    """Shift-difference lemma hypothesis for every Case-1 a, decided in one batch.

    The shift y depends on a only through rel_trace(a), so
    `case1_witnesses` finds it once per distinct relative trace, and
    `shift_checks` decides each distinct y for all its a (for g, from the
    coset representatives of ker S).  The check asserts the difference bit
    is the constant 1 and cross-checks the implied vanishing sum; the first
    failing a in list order is reported.
    """
    ctx = g.ctx

    a_values = ctx.element_array(case1)
    rel = blocks.linear_table(rel_trace_poly(ctx))(a_values)
    r_values, inverse = np.unique(rel, return_inverse=True)
    ys = case1_witnesses(ctx, L, r_values)[inverse]
    const = np.zeros(len(case1), dtype=np.int8)
    for y in sorted(set(ys[ys >= 0].tolist())):
        const[ys == y] = shift_checks(g, a_values[ys == y], y)
    sums = char_sum(g, a_values)

    def why(i):
        a, y = case1[i], int(ys[i])
        if y < 0:
            return f"a={a:#x}: no shift witness in the subfield"
        if const[i] != 1:
            return f"a={a:#x}, y={y:#x}: difference {'not constant' if const[i] < 0 else const[i]}"
        return f"a={a:#x}: constant-1 shift but nonzero character sum"

    note = f"sampled {len(case1)} a-values" if sampled else None
    return _row("case1-shift-witness", case1, (ys < 0) | (const != 1) | (sums != 0), note, why)


@_timed
def _check_pp_exhaustive(g: FieldMap) -> CheckResult:
    verdict = is_permutation_exhaustive(g)
    if verdict.verdict != "permutation":
        x1, x2 = verdict.witness
        return CheckResult("pp-exhaustive", "fail", count=verdict.checks,
                           counterexample=f"g({x1:#x}) = g({x2:#x})")
    return CheckResult("pp-exhaustive", "pass", count=verdict.checks)


@_timed
def _check_charsum(g: FieldMap, mode: str, seed: int) -> CheckResult:
    verdict, by_a = _charsum_run(g, mode=mode, n=DEFAULT_SAMPLES, seed=seed)
    name = f"pp-charsum-{mode}"
    sums = {f"{a:x}": s for a, s in by_a.items()} if mode == "sample" else None
    if verdict.verdict == "not-permutation":
        a, s = verdict.witness
        return CheckResult(name, "fail", count=verdict.checks,
                           counterexample=f"char_sum(a={a:#x}) = {s}", sums=sums)
    return CheckResult(name, "pass", count=verdict.checks, sums=sums)


def _eq23_basis(g: FieldMap) -> list[int]:
    """Basis of the span of z(x) = g(x) + S^E(x) * 2^m (2m-bit vectors) over every x.

    One `g.span`, g read by `g.at` and S^E through its image table.  For g
    = L + h(S), z(x + u) = z(x) + (L(u), 0) for u in K = ker S, so it
    reads z at the coset representatives of K and K's basis; a g without
    a linear part reads every x, and so does one whose linear part has
    another S, rewrapped as a table.
    """
    ctx = g.ctx
    if g._linear is not None and g._linear[1] != s2k(ctx):
        g = FieldMap.from_table(g.name, ctx, g.table())
    image = _s_power(ctx)
    return g.span(lambda xs: np.left_shift(image(xs), ctx.m, dtype=np.uint64) | g.at(xs),
                  2 * ctx.m)


@_timed
def _check_eq23_batch(g: FieldMap, case2: list[int], note: str | None) -> CheckResult:
    """check_eq23 for every Case-2 a at once.

    Tr(a g(x)) = Tr(c S^E(x)) at every x iff the mask pair (M_a, M_c)
    annihilates the span of (g(x), S^E(x)) over every x (`_eq23_basis`).
    A failing a gets its least differing x from one parity sweep of that
    a over g's and S^E's blocks, up to the first block that holds one.
    """
    ctx = g.ctx

    a_values = ctx.element_array(case2)
    masks = blocks.trace_masks(ctx)
    mask_c = masks(least_decompositions(ctx, a_values))   # first: it rejects an a outside Case 2
    mask_a = masks(a_values)
    bad = np.zeros(len(case2), dtype=bool)
    for z in _eq23_basis(g):
        bad |= (blocks.parity(mask_a & (z & (ctx.order - 1)))
                != blocks.parity(mask_c & (z >> ctx.m)))

    def why(i):
        s_power, n = _s_power(ctx), min(blocks.BLOCK, ctx.order)
        for start, values in zip(range(0, ctx.order, n), g.value_blocks()):
            diff = (blocks.parity(values & mask_a[i])
                    != blocks.parity(s_power.coset(start, n) & mask_c[i]))
            if diff.any():
                return f"a={case2[i]:#x}, x={start + int(np.argmax(diff)):#x}"

    return _row("case2-eq23", case2, bad, note, why)


@_timed
def _check_factorization_batch(g: FieldMap, case2: list[int], note: str | None) -> CheckResult:
    """check_case2_factorization for every Case-2 a at once, its sums as arrays over a.

    Every sum is a lookup in Walsh bins: full_sum in g's (`char_sum`), the
    trace-zero sum and the two factors in those of the w^E and of F_{q^k}
    (`blocks.span_walsh`), at the masks of c and of beta_i = c * d_i^(q^k).
    An a is reported at its first failing step.
    """
    ctx = g.ctx

    t, k = ctx.require_tower()
    d = t * k
    a_values = ctx.element_array(case2)
    c = least_decompositions(ctx, a_values)
    masks = blocks.trace_masks(ctx)
    tz_sum = blocks.span_walsh(_s_power(ctx).values, masks(c), ctx.m)
    full_sum = char_sum(g, a_values)
    powers = [[gf2linalg.apply(ctx.frobenius_images()[d], di)]   # d_i^(q^k)
              for di in tracezero_basis(ctx)]
    betas = blocks.mul_block(ctx, c, powers)   # one row per d_i
    factors = blocks.span_walsh(ctx.enumerate_subfield(d), masks(betas), ctx.m)
    both_zero = (blocks.linear_table(rel_trace_poly(ctx))(betas) == 0).all(axis=0)
    restriction = full_sum != (1 << d) * tz_sum
    product = tz_sum != factors[0] * factors[1]

    def why(i):
        a = case2[i]
        if restriction[i]:
            return f"a={a:#x}: full sum {full_sum[i]} != q^k * {tz_sum[i]} (eq. restriction step)"
        if product[i]:
            return (f"a={a:#x}: trace-zero sum {tz_sum[i]} != "
                    f"{factors[0][i]} * {factors[1][i]} (product step)")
        if both_zero[i]:
            return f"a={a:#x}: both basis traces vanish"
        return f"a={a:#x}: trace-zero sum {tz_sum[i]} != 0"

    bad = restriction | product | both_zero | (tz_sum != 0)
    return _row("case2-factorization", case2, bad, note, why)


def _row(name: str, a_list: list[int], bad: np.ndarray, note: str | None, why) -> CheckResult:
    """The pass row, or the fail row with why(i) for the first failing a in list order."""
    if not bad.any():
        return CheckResult(name, "pass", count=len(a_list), note=note)
    return CheckResult(name, "fail", count=len(a_list), counterexample=why(int(np.argmax(bad))),
                       note=note)


def verify_thm1(ctx: FieldCtx, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Full battery for the q=4 construction g1 on one tower context.

    Runs eq22, kernel/image, the exhaustive bijection check, the
    character-sum criterion (all a up to m = CHARSUM_ALL_LIMIT_M,
    DEFAULT_SAMPLES seeded a above), the Case-1 shift-witness sweep and
    the Case-2 identity chain.
    Rejects t != 2: the statement is specific to q = 4.
    """
    t, k = ctx.require_tower()
    if t != 2:
        raise ValueError(f"theorem 1 is stated for q = 4 (t = 2); got t={t}. "
                         "Use the generalized verification for other towers")
    report = VerificationReport("thm1", t, k, ctx.m, f"{ctx.modulus:x}", seed)
    report.checks.append(check_eq22(ctx))
    report.checks.append(check_kernel_image(ctx))

    g = build_g_thm1(ctx)
    report.checks.append(_check_pp_exhaustive(g))
    mode = "all" if ctx.m <= CHARSUM_ALL_LIMIT_M else "sample"
    report.checks.append(_check_charsum(g, mode, seed))

    case1, case2, sampled = _case_split(ctx, seed)
    report.checks.append(_check_case1(g, build_L1(ctx), case1, sampled))

    note = f"sampled {len(case2)} a-values" if sampled else None
    report.checks.append(_check_eq23_batch(g, case2, note))
    report.checks.append(_check_factorization_batch(g, case2, note))
    return report.finish()


def verify_thm3(ctx: FieldCtx, L: LinearizedPoly, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Hypotheses and conclusion of the generalized construction g3 = L + S^(q^k+3).

    Condition (i): L permutes F_{q^k}.  Condition (ii): L + L^(q^(2k))
    equals S^4 coefficient-for-coefficient.  Then the exhaustive
    bijection check and the adapted Case-1 shift sweep (y is chosen so
    Tr_{q^k/2}[L(y) rel_trace(a)] = 1).  A failed hypothesis is flagged
    as such and the conclusion checks still run.
    """
    t, k = ctx.require_tower()
    d = t * k
    report = VerificationReport("thm3", t, k, ctx.m, f"{ctx.modulus:x}", seed)

    @_timed
    def condition_i():
        ok, reason = subfield_permutation_check(L, d)
        return CheckResult("condition-i", "pass" if ok else "fail", count=1 << d,
                           counterexample=reason)

    @_timed
    def condition_ii():
        left, right = condition_ii_sides(ctx, L)
        if left != right:
            return CheckResult("condition-ii", "fail", count=ctx.m,
                               counterexample=f"{format_linpoly(left)} != {format_linpoly(right)}")
        return CheckResult("condition-ii", "pass", count=ctx.m)

    report.checks.append(condition_i())
    report.checks.append(condition_ii())
    report.hypothesis_failure = not all(c.passed for c in report.checks)

    g = build_g_thm3(ctx, L)
    report.checks.append(_check_pp_exhaustive(g))

    case1, _, sampled = _case_split(ctx, seed)
    report.checks.append(_check_case1(g, L, case1, sampled))
    return report.finish()

