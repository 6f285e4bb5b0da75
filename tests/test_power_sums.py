"""Property tests: array-backed power sums agree with their dense forms.

Every operation on a power sum (weights (p,), vectors (p, dim)) is checked
against the same operation on `to_dense()`.  Rounding in either route is
relative to the sum of the absolute terms, not to the result, so each
comparison uses rtol 1e-12 with an absolute floor of 1e-12 times that sum.
On an fBm grid with H = 0.7 every Gram entry is positive, so the pairing of
the entrywise absolute values bounds every absolute term.
"""

import math
from functools import cache

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wickgrid import (ChaosVector, FractionalBrownianMotion, ShiftContext, SymmetricTensor,
                      TimeGrid, build_gram, shifted_qce, tensor_inner)
from wickgrid.chaos import GramImage

RTOL = 1e-12
_values = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)

property_test = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@cache
def ctx_for(dim):
    return build_gram(FractionalBrownianMotion(0.7), TimeGrid.uniform(dim))


def row_pool(draw, dim):
    return draw(arrays(float, (3, dim), elements=_values))


def power_sum(draw, order, pool):
    # rows come from a pool of three, so repeated rows are common
    rows = draw(st.lists(st.integers(0, 2), max_size=5))
    weights = draw(st.lists(_values, min_size=len(rows), max_size=len(rows)))
    return SymmetricTensor.from_powers(order, pool.shape[1], weights,
                                       pool[rows].reshape(-1, pool.shape[1]))


@st.composite
def cases(draw):
    dim, order = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return (power_sum(draw, order, row_pool(draw, dim)),
            power_sum(draw, order, row_pool(draw, dim)),
            draw(arrays(float, dim, elements=_values)))


@st.composite
def chains(draw):
    """A chaos vector whose orders 1..K are power sums over one row pool, so
    rows repeat within and across orders, with a shift vector and a node."""
    dim, K = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    pool = row_pool(draw, dim)
    coeffs = [SymmetricTensor.scalar(draw(_values), dim)]
    coeffs += [power_sum(draw, k, pool) for k in range(1, K + 1)]
    return (ChaosVector(coeffs, dim), draw(arrays(float, dim, elements=_values)),
            draw(st.integers(0, dim)))


def absolute(t):
    if not t.is_powers:
        return SymmetricTensor(t.order, t.dim, dense=np.abs(t.dense))
    return SymmetricTensor(t.order, t.dim, weights=np.abs(t.weights), vectors=np.abs(t.vectors))


def dense(t):
    return SymmetricTensor.from_dense(t.to_dense())


def assert_close(got, want, scale):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.max(scale, initial=0.0))


@property_test
@given(cases(), _values)
def test_add_and_scaled_match_dense(case, a):
    A, B, _ = case
    scale = absolute(A).to_dense() + absolute(B).to_dense()
    assert_close(A.add(B).to_dense(), A.to_dense() + B.to_dense(), scale)
    assert_close(A.scaled(a).to_dense(), a * A.to_dense(), abs(a) * scale)


@property_test
@given(cases(), st.integers(0, 5))
def test_project_coords_matches_dense(case, m):
    A = case[0]
    assert_close(A.project_coords(m).to_dense(), dense(A).project_coords(m).dense,
                 absolute(A).to_dense())


@property_test
@given(cases(), st.integers(0, 4))
def test_contract_last_matches_dense(case, times):
    A, _, w = case
    ctx = ctx_for(A.dim)
    times = min(times, A.order)
    image = GramImage(ctx, w)
    scale = absolute(A).contract_last(GramImage(ctx, np.abs(w)), times).to_dense()
    assert_close(A.contract_last(image, times).to_dense(),
                 dense(A).contract_last(image, times).to_dense(), scale)


@property_test
@given(cases())
def test_tensor_inner_and_pair_match_dense(case):
    A, B, w = case
    ctx = ctx_for(A.dim)
    scale = tensor_inner(ctx, absolute(A), absolute(B))
    want = tensor_inner(ctx, dense(A), dense(B))
    assert_close(tensor_inner(ctx, A, B), want, scale)
    assert_close(tensor_inner(ctx, A, dense(B)), want, scale)
    pair_scale = GramImage(ctx, np.abs(w)).pair(absolute(A))
    assert_close(GramImage(ctx, w).pair(A), GramImage(ctx, w).pair(dense(A)), pair_scale)


@property_test
@given(chains())
def test_merge_keeps_value_and_leaves_distinct_rows(chain):
    # shifted_qce collapses the repeated rows of each power order
    xi, c, m = chain
    ctx = ctx_for(xi.dim)
    sc = ShiftContext(ctx, ctx.grid.points[m], c)
    got = shifted_qce(sc, xi)
    want = shifted_qce(sc, ChaosVector([dense(f) if f.order else f for f in xi.coeffs],
                                       xi.dim))
    abs_image = GramImage(ctx, np.abs(sc.c_r))
    for n, (g, w) in enumerate(zip(got.coeffs, want.coeffs)):
        if n:
            assert g.is_powers
            assert len({v.tobytes() for v in g.vectors}) == g.weights.size
        scale = sum(math.comb(k, n) * absolute(f).contract_last(abs_image, k - n)
                    .project_coords(sc.m).to_dense() for k, f in enumerate(xi.coeffs[n:], n))
        assert_close(g.to_dense(), w.to_dense(), scale)
