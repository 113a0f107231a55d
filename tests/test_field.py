"""Field contexts, arithmetic, traces and subfields."""

import random

import numpy as np
import pytest

from ppverify import FieldCtx, LinearizedPoly, binpoly, blocks, load_modulus_file, proofchecks
from ppverify.constructions import rel_trace_poly

from reference import (abs_trace, compose_by_squaring, frobenius_images_by_squaring, inverse,
                       lin_eval, mul_via_polymod, power, rel_trace, subfield_by_filter,
                       subfield_by_squaring, subfield_trace)

ALL_TOWERS_M24 = [(t, k) for t in range(1, 9) for k in range(1, 9) if 3 * t * k <= 24]


def test_tower_context_f64():
    ctx = FieldCtx.from_tower(2, 1)
    assert ctx.m == 6
    assert ctx.q == 4
    assert ctx.order == 64
    assert ctx.modulus == 0x43


def test_tower_context_f8():
    ctx = FieldCtx.from_tower(1, 1)
    assert ctx.m == 3
    assert ctx.q == 2
    assert ctx.order == 8


def test_reducible_modulus_rejected_with_factor_named():
    # x^6+x^2+1 = (x^3+x+1)^2
    with pytest.raises(ValueError, match=r"x\^3 \+ x \+ 1"):
        FieldCtx.from_tower(2, 1, modulus=0b1000101)


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError, match="degree"):
        FieldCtx.from_tower(2, 1, modulus=0b1011)


def test_negative_modulus_rejected():
    with pytest.raises(ValueError, match="negative"):
        FieldCtx(6, -0x43)


def test_tower_dimension_bound():
    with pytest.raises(ValueError):
        FieldCtx.from_tower(3, 3)  # m = 27 > 24
    with pytest.raises(ValueError):
        FieldCtx.from_tower(0, 1)


def test_mul_against_long_division():
    # F_8 with modulus x^3+x+1: x * x^2 = x^3 = x+1
    ctx = FieldCtx(3)
    assert ctx.modulus == 0b1011
    assert binpoly.mod(binpoly.multiply(2, 4), ctx.modulus) == 3
    assert ctx.mul(2, 4) == 3


@pytest.mark.parametrize("ctx", [FieldCtx(3), FieldCtx.from_tower(2, 1), FieldCtx(8)],
                         ids=lambda c: f"m{c.m}")
def test_mul_matches_polymod_oracle(ctx):
    rng = random.Random(101)
    for _ in range(300):
        a = rng.randrange(ctx.order)
        b = rng.randrange(ctx.order)
        assert ctx.mul(a, b) == mul_via_polymod(ctx, a, b)


def test_mul_identity_and_frobenius_order():
    ctx = FieldCtx.from_tower(2, 1)
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randrange(ctx.order)
        assert ctx.mul(a, 1) == a
        assert power(ctx, a, ctx.order) == a  # a^(2^m) = a


@pytest.mark.parametrize("ctx", [FieldCtx.from_tower(2, 1), FieldCtx(4), FieldCtx(11)],
                         ids=lambda c: f"m{c.m}")
def test_field_axioms_random_triples(ctx):
    rng = random.Random(99)
    for _ in range(1000):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
        if a:
            assert ctx.mul(a, inverse(ctx, a)) == 1


def test_inv_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        inverse(FieldCtx(4), 0)


def test_inverse_exhaustive_small():
    ctx = FieldCtx(5)
    for a in range(1, ctx.order):
        assert ctx.mul(a, inverse(ctx, a)) == 1


def test_frobenius_basics():
    ctx = FieldCtx.from_tower(2, 1)
    for a in range(ctx.order):
        assert ctx.frobenius(a, 0) == a
        assert ctx.frobenius(a, ctx.m) == a
        assert ctx.frobenius(a, ctx.m + 2) == ctx.frobenius(a, 2)  # index mod m
        a2 = ctx.mul(a, a)
        assert ctx.frobenius(a, 2) == ctx.mul(a2, a2)  # a^4
        assert ctx.frobenius(a, 2) == power(ctx, a, 4)


def test_pow_conventions():
    ctx = FieldCtx(5)
    assert power(ctx, 0, 0) == 1
    assert power(ctx, 7, 0) == 1
    assert power(ctx, 7, 1) == 7
    with pytest.raises(ValueError):
        power(ctx, 7, -1)


def test_abs_trace_zero_and_omega():
    assert abs_trace(FieldCtx(6), 0) == 0
    # F_4, modulus x^2+x+1: omega + omega^2 = omega + (omega+1) = 1
    f4 = FieldCtx(2)
    omega = 2
    assert f4.sqr(omega) == 3
    assert abs_trace(f4, omega) == 1


@pytest.mark.parametrize("m", [2, 4, 6, 9, 12])
def test_abs_trace_balanced_linear_frobenius_invariant(m):
    ctx = FieldCtx(m)
    zeros = sum(1 for a in range(ctx.order) if abs_trace(ctx, a) == 0)
    assert zeros == ctx.order // 2
    if m <= 6:
        for a in range(ctx.order):
            for b in range(ctx.order):
                assert abs_trace(ctx, a ^ b) == abs_trace(ctx, a) ^ abs_trace(ctx, b)
    else:
        rng = random.Random(m)
        for _ in range(500):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert abs_trace(ctx, a ^ b) == abs_trace(ctx, a) ^ abs_trace(ctx, b)
    for a in range(ctx.order):
        assert abs_trace(ctx, ctx.sqr(a)) == abs_trace(ctx, a)


def test_trace_mask_agrees_with_definitional_trace():
    ctx = FieldCtx.from_tower(2, 1)
    for a in (0, 1, 5, 33, 63):
        mask = ctx.trace_mask(a)
        for y in range(ctx.order):
            assert (mask & y).bit_count() & 1 == abs_trace(ctx, ctx.mul(a, y))


@pytest.mark.parametrize("t,k", ALL_TOWERS_M24, ids=str)
def test_frobenius_image_paths_match_repeated_squaring(t, k):
    # the trace row, the subfield and decomposition columns, compose and the
    # linear tables read the cached Frobenius images; FieldCtx.frobenius squares
    ctx = FieldCtx.from_tower(t, k)
    m, rng = ctx.m, random.Random(t * 10 + k)
    for a in (1, rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)):
        mask = ctx.trace_mask(a)
        assert [(mask >> i) & 1 for i in range(m)] == [abs_trace(ctx, ctx.mul(a, 1 << i))
                                                      for i in range(m)]
    for d in (d for d in range(1, m // 2 + 1) if m % d == 0):
        assert ctx.enumerate_subfield(d).tolist() == subfield_by_squaring(ctx, d)
    phi = proofchecks._decomposition(ctx)[0]
    basis = np.array([1 << j for j in range(m)], dtype=np.int64)
    assert phi(basis).tolist() == [v ^ ctx.frobenius(v, t * k) for v in basis.tolist()]
    A, B = (LinearizedPoly(ctx, [rng.choice([0, 1, rng.randrange(ctx.order)]) for _ in range(m)])
            for _ in range(2))
    for outer, inner in [(A, B), (B, A), (LinearizedPoly.frobenius_power(ctx, t), A)]:
        assert outer.compose(inner) == compose_by_squaring(outer, inner)
    if m <= 12:   # the tables the checks read, on every element, against the scalar oracles
        xs = np.arange(ctx.order)
        masks = blocks.trace_masks(ctx)(xs)
        trace = np.array([abs_trace(ctx, x) for x in range(ctx.order)])
        for i in range(m):   # bit i of M_a is Tr(a * x^i)
            assert np.array_equal((masks >> i) & 1, trace[blocks.mul_block(ctx, xs, 1 << i)])
        assert blocks.linear_table(rel_trace_poly(ctx))(xs).tolist() == [
            rel_trace(ctx, x, t * k) for x in range(ctx.order)]
        assert blocks.linear_table(A)(xs).tolist() == [lin_eval(A, x) for x in range(ctx.order)]


@pytest.mark.parametrize("m", range(1, 25))
def test_trace_mask_columns_match_the_scalar_masks(m):
    # the columns come from one trace sequence; the scalar masks, from m steps each
    ctx = FieldCtx(m)
    masks = blocks.trace_masks(ctx)
    assert masks.images == [ctx.trace_mask(1 << j) for j in range(m)]
    a_values = [0, 1, ctx.order - 1] + [random.Random(m).randrange(ctx.order) for _ in range(50)]
    assert masks(np.array(a_values)).tolist() == [ctx.trace_mask(a) for a in a_values]


@pytest.mark.parametrize("m", range(1, 25))
def test_frobenius_images_match_repeated_squaring(m):
    ctx = FieldCtx(m)
    assert ctx.frobenius_images() == frobenius_images_by_squaring(ctx)


@pytest.mark.parametrize("a,b", [(3, -1), (-1, 3), (64, 1), (1, 64), (-64, -64)])
def test_mul_rejects_an_element_outside_the_field(a, b):
    ctx = FieldCtx(6)
    with pytest.raises(ValueError, match=r"outside the field range \[0, 2\^6\)"):
        ctx.mul(a, b)


def test_rel_trace_formula_and_membership():
    ctx = FieldCtx.from_tower(2, 1)
    for a in range(ctx.order):
        expected = a ^ power(ctx, a, 4) ^ power(ctx, a, 16)
        got = rel_trace(ctx, a, 2)
        assert got == expected
        assert ctx.frobenius(got, 2) == got  # x^4 = x
    assert rel_trace(ctx, 0, 2) == 0


@pytest.mark.parametrize("ctx,d", [(FieldCtx(6), 1), (FieldCtx(6), 2), (FieldCtx(6), 3),
                                   (FieldCtx(12), 4)], ids=str)
def test_trace_transitivity(ctx, d):
    for a in range(ctx.order):
        assert abs_trace(ctx, a) == subfield_trace(ctx, rel_trace(ctx, a, d), d)


@pytest.mark.parametrize("m,d", [(6, 2), (6, 3), (12, 4), (12, 6)])
def test_rel_trace_onto_subfield(m, d):
    ctx = FieldCtx(m)
    image = {rel_trace(ctx, a, d) for a in range(ctx.order)}
    assert len(image) == 1 << d


def test_rel_trace_rejects_bad_degree():
    with pytest.raises(ValueError):
        rel_trace(FieldCtx(6), 1, 4)


def test_enumerate_subfield_trivial_cases():
    ctx = FieldCtx(6)
    assert ctx.enumerate_subfield(6).tolist() == list(range(ctx.order))
    assert ctx.enumerate_subfield(1).tolist() == [0, 1]


def test_enumerate_subfield_matches_filter_and_is_closed():
    ctx = FieldCtx(6)
    for d in (1, 2, 3):
        got = ctx.enumerate_subfield(d).tolist()
        assert got == subfield_by_filter(ctx, d)
        assert len(got) == 1 << d
        elems = set(got)
        for a in got:
            for b in got:
                assert a ^ b in elems
                assert ctx.mul(a, b) in elems


def test_enumerate_subfield_rejects_bad_degree():
    with pytest.raises(ValueError):
        FieldCtx(6).enumerate_subfield(5)


def test_subfield_trace_rejects_outsiders():
    ctx = FieldCtx(6)
    outsider = next(a for a in range(ctx.order) if ctx.frobenius(a, 2) != a)
    with pytest.raises(ValueError):
        subfield_trace(ctx, outsider, 2)


def test_modulus_file_roundtrip(tmp_path):
    path = tmp_path / "moduli.txt"
    path.write_text("# comment\n6:43\n3:b\n\n12:1009\n")
    table = load_modulus_file(str(path))
    assert table == {6: 0x43, 3: 0xB, 12: 0x1009}
    ctx = FieldCtx.from_tower(2, 1, modulus=table[6])
    assert ctx.modulus == 0x43


def test_modulus_file_bad_line(tmp_path):
    path = tmp_path / "moduli.txt"
    path.write_text("6=43\n")
    with pytest.raises(ValueError, match="moduli.txt:1"):
        load_modulus_file(str(path))


@pytest.mark.parametrize("m", range(1, 25))
def test_mul_block_matches_polymod_oracle(m):
    # (top, top) sets every bit of every part: the most terms per bit of an integer product
    ctx = FieldCtx(m)
    rng = random.Random(m)
    top = ctx.order - 1
    a = [0, 1, top, top] + [rng.randrange(ctx.order) for _ in range(300)]
    b = [top, top, 1, top] + [rng.randrange(ctx.order) for _ in range(300)]
    got = blocks.mul_block(ctx, np.array(a), np.array(b))
    assert got.dtype == np.int64
    assert got.tolist() == [mul_via_polymod(ctx, x, y) for x, y in zip(a, b)]
    # a scalar operand broadcasts against the array
    assert blocks.mul_block(ctx, np.array(a), np.int64(top)).tolist() == [
        mul_via_polymod(ctx, x, top) for x in a]
    # the (r, 1) x (r,) and (r, r, 1) x (r,) tensors of the image products
    col, row = np.array(a[:16])[:, None], np.array(b[:16])
    assert blocks.mul_block(ctx, col, row).tolist() == [
        [mul_via_polymod(ctx, x, y) for y in b[:16]] for x in a[:16]]
    cube = blocks.mul_block(ctx, blocks.mul_block(ctx, col, row)[..., None], row)
    assert cube.shape == (16, 16, 16)
    assert cube[3].tolist() == [[mul_via_polymod(ctx, mul_via_polymod(ctx, a[3], y), z)
                                 for z in b[:16]] for y in b[:16]]


def test_cached_builds_once_per_key():
    ctx = FieldCtx(6)
    calls = []

    def build(key):
        return lambda: calls.append(key) or [key]

    first = ctx.cached("a", build("a"))
    assert ctx.cached("a", build("a")) is first
    assert ctx.cached(("b", 1), build("b")) == ["b"]
    assert ctx.cached(("b", 1), build("b")) == ["b"]
    assert calls == ["a", "b"]
    assert FieldCtx(6).cached("a", build("c")) == ["c"]   # one memo per context


def test_scalar_twins_are_gone_from_the_package():
    # one scalar core: traces, powers, inverses and linearized evaluation element by element
    # are oracles in tests/reference.py; add, elements and in_subfield have plain spellings
    for name in ("abs_trace", "rel_trace", "subfield_trace", "in_subfield", "pow", "inv",
                 "add", "elements"):
        assert not hasattr(FieldCtx, name), name
    assert "__call__" not in vars(LinearizedPoly)
    assert not callable(LinearizedPoly.identity(FieldCtx(4)))
