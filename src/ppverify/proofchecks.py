"""Step-by-step numeric validation of the permutation-map arguments.

Each identity used in the two proofs gets its own check: the telescoping
relation S + S^(q^k) + S^(q^(2k)) = 0, the kernel/image description of
S, the gcd identity behind it, the a = c + c^(q^k) decomposition, the
trace-zero basis claim, and the character-sum factorization that closes
Case 2.  The nine-line trace rewrite chain is checked at its endpoint
only (equality over all x is stronger evidence than replaying each
rewrite).  Pointwise identities are checked at every x, at every m:
eq23 through the maps' cached tables, and eq22, a sum of linear maps, on
the m basis elements, which is exact at every x.  The per-a case checks
cover every a up to PER_A_FULL_LIMIT_M and a seeded sample above it, as
the report records.  The trace-zero set, S^E on it and the decomposition
tables are built once per context (`FieldCtx.cached`).

Each per-a row is decided for its whole a list in one batch, exactly,
by GF(2) linear algebra over the tables: the trace conditions are linear
in the masks M_a, so a row costs one pass per table (the span of the
values a condition must annihilate) plus a few array operations over a.
The first failing a in list order is reported, its message built from
the row's own arrays; eq23 finds its x by one parity sweep of that a.
The one-a checks (`check_eq23`, `check_case2_factorization`) are
one-element calls of the batched rows.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass, field as dc_field

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


@dataclass
class CheckResult:
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

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "status": self.status,
                     "count": self.count, "millis": round(self.millis, 3)}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.note is not None:
            out["note"] = self.note
        if self.sums is not None:
            out["sums"] = self.sums
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CheckResult":
        return cls(name=data["name"], status=data["status"], count=data.get("count", 0),
                   millis=data.get("millis", 0.0), counterexample=data.get("counterexample"),
                   note=data.get("note"), sums=data.get("sums"))


@dataclass
class VerificationReport:
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

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "t": self.t, "k": self.k, "m": self.m,
                "modulus_hex": self.modulus_hex, "seed": self.seed,
                "checks": [c.to_dict() for c in self.checks],
                "overall": self.overall, "millis": self.millis,
                "hypothesis_failure": self.hypothesis_failure}

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(theorem=data["theorem"], t=data["t"], k=data["k"], m=data["m"],
                   modulus_hex=data["modulus_hex"], seed=data["seed"],
                   checks=[CheckResult.from_dict(c) for c in data["checks"]],
                   overall=data["overall"], millis=data["millis"],
                   hypothesis_failure=data.get("hypothesis_failure", False))

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
    if a == 0:
        raise ValueError("a must be nonzero")
    return int(least_decompositions(ctx, [a])[0])


def least_decompositions(ctx: FieldCtx, a_values) -> np.ndarray:
    """decompose_a for an array of Case-2 a at once, as uint32.

    One lookup of the particular solution (it is linear in a), the least
    member of its coset over the q^k-element kernel, and an exact check
    that every c solves c + c^(q^k) = a: a ValueError names the first a
    outside the map's image.  Every a must lie in [0, 2^m): ValueError
    otherwise, before any lookup.
    """
    a_values = np.asarray(a_values, dtype=np.int64)
    ctx.check_element(a_values)
    phi, particular, kernel = _decomposition(ctx)
    c = (particular(a_values)[:, None] ^ kernel).min(axis=1)
    missed = phi(c) != a_values
    if missed.any():
        raise ValueError(
            f"a={int(a_values[np.argmax(missed)]):#x} has nonzero relative trace, so it is "
            f"outside the image of c -> c + c^(q^k); it belongs to Case 1")
    return c


def _decomposition(ctx: FieldCtx):
    """Tables of c -> c + c^(q^k) and of a particular solution, and its kernel F_{q^k}; cached."""
    t, k = ctx.require_tower()
    d = t * k

    def build():
        cols = [c ^ (1 << j) for j, c in enumerate(ctx.frobenius_images()[d])]
        particular = blocks.LinearTable(gf2linalg.particular_solution(cols, ctx.m))
        return blocks.LinearTable(cols), particular, ctx.enumerate_subfield(d)

    return ctx.cached(("decomposition", d), build)


class _Thm1State:
    """Shared tables for the per-a Case-2 checks of one context.

    S^E, E = 1 + 2q^k + q^(2k), is tabled once on S's image
    (`blocks.image_product`, cached on the context): `s_power` reads it
    through S's image coordinates, and `tz_powers` is its value table,
    w^E for every w in the image, which is the trace-zero set (the
    kernel-image row checks that), in image-coordinate order.
    """

    def __init__(self, ctx: FieldCtx, g: FieldMap | None = None):
        t, k = ctx.require_tower()
        self.ctx = ctx
        self.g = g if g is not None else build_g_thm1(ctx)
        self.exponent = 1 + (1 << (t * k + 1)) + (1 << (2 * t * k))
        image = blocks.image_product(s2k(ctx), (t * k + 1, 2 * t * k))
        self.s_power = FieldMap("S^E", ctx, image.coset)
        self.tz_powers = image.values

    @functools.cached_property
    def basis(self) -> tuple[int, int]:
        return tracezero_basis(self.ctx)

    @functools.cached_property
    def eq23_basis(self) -> list[int]:
        """Basis of the span of z(x) = g(x) + S^E(x) * 2^m (2m-bit vectors) over every x."""
        g, se, m = self.g.table(), self.s_power.table(), self.ctx.m
        step = blocks.BLOCK
        packed = (np.left_shift(se[i:i + step], m, dtype=np.uint64) | g[i:i + step]
                  for i in range(0, g.size, step))
        return blocks.span_basis(packed, 2 * m)


def check_eq23(ctx: FieldCtx, a: int, state: _Thm1State | None = None) -> CheckResult:
    """Endpoint of the Case-2 trace rewrite: Tr(a*g(x)) = Tr(c*S(x)^E).

    E = 1 + 2q^k + q^(2k) and c is the least decomposition of a.  The
    rewrite cancels S^q against S^4.  For g = g1 that makes it a q = 4
    identity (the t=2 towers), and it fails pointwise at other q; for g3,
    condition (ii) supplies the cancellation at every q.  Every x is
    checked, through the tables of g and S^E.  The count is 1, the one a.
    """
    return _check_eq23_batch(state if state is not None else _Thm1State(ctx), [a], None)


def tracezero_basis(ctx: FieldCtx) -> tuple[int, int]:
    """A greedy F_{q^k}-basis (d1, d2) of the trace-zero set.

    d1 is the first nonzero trace-zero element in encoding order and d2
    the first one outside d1 * F_{q^k}; their F_{q^k}-span is the whole
    q^{2k}-element trace-zero set.
    """
    t, k = ctx.require_tower()
    d = t * k
    tz = tracezero_set(ctx)
    subfield = ctx.enumerate_subfield(d)
    d1 = int(tz[1])                     # tz is ascending and tz[0] = 0
    line = blocks.mul_block(ctx, np.asarray(d1), subfield)
    on_line = np.zeros(tz.size, dtype=bool)
    on_line[np.searchsorted(tz, line)] = True   # d1 * F_{q^k} lies in the trace-zero set
    d2 = int(tz[np.argmin(on_line)])
    span = line[:, None] ^ blocks.mul_block(ctx, np.asarray(d2), subfield)
    assert tz.size == 1 << (2 * d) and np.array_equal(np.sort(span, axis=None), tz)
    return d1, d2


def check_case2_factorization(ctx: FieldCtx, a: int,
                              state: _Thm1State | None = None) -> CheckResult:
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
    return _check_factorization_batch(state if state is not None else _Thm1State(ctx), [a], None)


# ---------------------------------------------------------------------------
# theorem-level drivers
# ---------------------------------------------------------------------------

def _case_split(ctx: FieldCtx, seed: int) -> tuple[list[int], list[int], bool]:
    """(case1 a's, case2 a's, sampled?): all a up to PER_A_FULL_LIMIT_M, else 128 seeded a each."""
    rel = blocks.linear_table(rel_trace_poly(ctx))
    case2 = [a for a in tracezero_set(ctx).tolist() if a != 0]
    if ctx.m <= PER_A_FULL_LIMIT_M:
        case1 = [int(a) for a in np.nonzero(rel(np.arange(ctx.order)))[0] if a != 0]
        return case1, case2, False
    rng = random.Random(f"{seed}:cases")
    case1: list[int] = []
    seen: set[int] = set()
    while len(case1) < DEFAULT_SAMPLES:
        a = rng.randrange(1, ctx.order)
        if a in seen:
            continue
        seen.add(a)
        if rel(a) != 0:
            case1.append(a)
    case2 = sorted(rng.sample(case2, min(DEFAULT_SAMPLES, len(case2))))
    return case1, case2, True


@_timed
def _check_case1(g: FieldMap, L: LinearizedPoly, case1: list[int], sampled: bool) -> CheckResult:
    """Shift-difference lemma hypothesis for every Case-1 a, decided in one batch.

    The shift y depends on a only through rel_trace(a), so
    `case1_witnesses` finds it once per distinct relative trace, and
    `shift_checks` decides each distinct y for all its a.  The check asserts
    the difference bit is the constant 1 and cross-checks the implied
    vanishing sum; the first failing a in list order is reported.
    """
    ctx = g.ctx

    a_values = np.array(case1, dtype=np.int64)
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
def _check_charsum(g: FieldMap, mode: str, sample_n: int, seed: int) -> CheckResult:
    verdict, by_a = _charsum_run(g, mode=mode, n=sample_n, seed=seed)
    name = f"pp-charsum-{mode}"
    sums = {f"{a:x}": s for a, s in by_a.items()} if mode == "sample" else None
    if verdict.verdict == "not-permutation":
        a, s = verdict.witness
        return CheckResult(name, "fail", count=verdict.checks,
                           counterexample=f"char_sum(a={a:#x}) = {s}", sums=sums)
    return CheckResult(name, "pass", count=verdict.checks, sums=sums)


@_timed
def _check_eq23_batch(state: _Thm1State, case2: list[int], note: str | None) -> CheckResult:
    """check_eq23 for every Case-2 a at once.

    Tr(a g(x)) = Tr(c S^E(x)) at every x iff the mask pair (M_a, M_c)
    annihilates the span of (g(x), S^E(x)) over every x, whose basis
    `eq23_basis` finds in one pass over the two tables.  A failing a gets
    its least differing x from one parity sweep of that a.
    """
    ctx = state.ctx

    a_values = np.array(case2, dtype=np.int64)
    masks = blocks.trace_masks(ctx)
    mask_c = masks(least_decompositions(ctx, a_values))   # first: it checks the a
    mask_a = masks(a_values)
    bad = np.zeros(len(case2), dtype=bool)
    for z in state.eq23_basis:
        bad |= (blocks.parity(mask_a & (z & (ctx.order - 1)))
                != blocks.parity(mask_c & (z >> ctx.m)))

    def why(i):
        diff = (blocks.parity(state.g.table() & mask_a[i])
                != blocks.parity(state.s_power.table() & mask_c[i]))
        return f"a={case2[i]:#x}, x={int(np.argmax(diff)):#x}"

    return _row("case2-eq23", case2, bad, note, why)


@_timed
def _check_factorization_batch(state: _Thm1State, case2: list[int],
                               note: str | None) -> CheckResult:
    """check_case2_factorization for every Case-2 a at once, its sums as arrays over a.

    full_sum is one `char_sum` lookup, the trace-zero sum and the two
    factors are exact signed parity sums, and beta_i = c * d_i^(q^k) is a
    fixed-multiplier linear table.  An a is reported at its first failing step.
    """
    ctx = state.ctx

    t, k = ctx.require_tower()
    d = t * k
    a_values = np.array(case2, dtype=np.int64)
    c = least_decompositions(ctx, a_values)
    masks = blocks.trace_masks(ctx)
    tz_sum = blocks.signed_parity_sums(state.tz_powers, masks(c))
    full_sum = char_sum(state.g, a_values)
    subfield = ctx.enumerate_subfield(d)
    rel = blocks.linear_table(rel_trace_poly(ctx))
    factors, both_zero = [], np.ones(len(case2), dtype=bool)
    for di in state.basis:
        e = ctx.frobenius(di, d)
        beta = blocks.LinearTable([ctx.mul(e, 1 << j) for j in range(ctx.m)])(c)
        factors.append(blocks.signed_parity_sums(subfield, masks(beta)))
        both_zero &= rel(beta) == 0
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


def verify_thm1(ctx: FieldCtx, seed: int = DEFAULT_SEED,
                sample_n: int = DEFAULT_SAMPLES,
                charsum_mode: str | None = None) -> VerificationReport:
    """Full battery for the q=4 construction g1 on one tower context.

    Runs eq22, kernel/image, the exhaustive bijection check, the
    character-sum criterion (the one row charsum_mode and sample_n set; by
    default all a up to m = CHARSUM_ALL_LIMIT_M, a seeded sample above),
    the Case-1 shift-witness sweep and the Case-2 identity chain.
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
    state = _Thm1State(ctx, g)
    report.checks.append(_check_pp_exhaustive(g))
    if charsum_mode is None:
        charsum_mode = "all" if ctx.m <= CHARSUM_ALL_LIMIT_M else "sample"
    report.checks.append(_check_charsum(g, charsum_mode, sample_n, seed))

    case1, case2, sampled = _case_split(ctx, seed)
    report.checks.append(_check_case1(g, build_L1(ctx), case1, sampled))

    note = f"sampled {len(case2)} a-values" if sampled else None
    report.checks.append(_check_eq23_batch(state, case2, note))
    report.checks.append(_check_factorization_batch(state, case2, note))
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

