"""GF(2) subspaces as `gf2linalg` stores them, against brute-force closures and filters.

A span is one ascending, read-only uint32 array; the subfields and the
trace-zero set are such arrays, cached on their context and handed out
without a copy.  (m = 18 and 24 are pinned by
`test_frobenius_image_paths_match_repeated_squaring` and
`test_sampled_case_split_matches_scalar_draw`.)
"""

import random

import numpy as np
import pytest

from ppverify import FieldCtx, gf2linalg
from ppverify.proofchecks import tracezero_set

from reference import span_by_closure, subfield_by_filter, tracezero_set_scalar

TOWERS_M12 = [(t, k) for t in range(1, 5) for k in range(1, 5) if 3 * t * k <= 12]


def _vector_lists(width: int, rng: random.Random):
    """Seeded lists of width-bit vectors: empty, zeros and repeats, dependent, not in echelon order."""
    top = (1 << width) - 1
    rank = min(width, 10)
    free = [rng.randrange(1, top + 1) for _ in range(rank)]
    dependent = free + [free[0] ^ free[-1], 0, free[0]]
    rng.shuffle(dependent)
    yield []
    yield [0, 0]
    yield [top, 1, top ^ 1]
    yield dependent
    yield sorted(dependent, reverse=True)


@pytest.mark.parametrize("width", range(1, 25))
def test_span_is_the_xor_closure_ascending_uint32_read_only(width):
    rng = random.Random(f"span:{width}")
    for vectors in _vector_lists(width, rng):
        got = gf2linalg.span(vectors)
        assert got.dtype == np.uint32 and not got.flags.writeable
        assert got.tolist() == span_by_closure(vectors)   # sorted, each element once
        basis = gf2linalg.echelon(vectors)
        pivots = [v.bit_length() - 1 for v in basis]
        assert pivots == sorted(set(pivots)) and len(basis) == len(got).bit_length() - 1
        assert all((v >> p) & 1 == (i == j)   # reduced: a pivot bit is in its vector only
                   for i, p in enumerate(pivots) for j, v in enumerate(basis))


@pytest.mark.parametrize("inputs", range(1, 11))
def test_particular_solution_is_the_least_solution(inputs):
    # the least x with A(x) = v, over every x, for every v in A's image: Case 2's least
    # decomposition is this table's value, with no search of the solution coset
    rng = random.Random(f"particular:{inputs}")
    for width in (inputs - 1, inputs, inputs + 2):
        for cols in ([rng.randrange(1 << width) for _ in range(inputs)] for _ in range(4)):
            images = [gf2linalg.apply(cols, x) for x in range(1 << inputs)]
            least = {v: images.index(v) for v in set(images)}
            P = gf2linalg.particular_solution(cols, width)
            assert {v: gf2linalg.apply(P, v) for v in least} == least, cols


@pytest.mark.parametrize("t,k", TOWERS_M12, ids=str)
def test_subfields_and_tracezero_match_the_filters(t, k):
    ctx = FieldCtx.from_tower(t, k)
    for d in (d for d in range(1, ctx.m + 1) if ctx.m % d == 0):
        sub = ctx.enumerate_subfield(d)
        assert sub.dtype == np.uint32 and sub.tolist() == subfield_by_filter(ctx, d)
    tz = tracezero_set(ctx)
    assert tz.dtype == np.uint32 and tz.tolist() == tracezero_set_scalar(ctx)


def test_cached_subspaces_are_shared_and_read_only():
    ctx = FieldCtx.from_tower(2, 2)
    for get in (lambda: ctx.enumerate_subfield(4), lambda: tracezero_set(ctx)):
        cached = get()
        want = cached.tolist()
        assert get() is cached   # no copy per call
        with pytest.raises(ValueError, match="read-only"):
            cached[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            cached ^= 1
        assert get().tolist() == want
