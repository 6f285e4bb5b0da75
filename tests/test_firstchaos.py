"""Truncation operator, oblique decomposition, operator norm, d_r, Jensen failure."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from wickgrid import (
    BrownianMotion,
    FractionalBrownianMotion,
    SumModel,
    TimeGrid,
    WeightedFbm,
    TruncationOperator,
    build_gram,
    jensen_counterexample,
    max_correlation,
    operator_norm,
)
from wickgrid.errors import DegenerateSplitError, MartingaleCaseError, ParameterError


@pytest.fixture
def fbm_ctx():
    return build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(8))


@pytest.fixture
def bm_ctx():
    return build_gram(BrownianMotion(), TimeGrid.uniform(8))


def test_truncate_basis_vectors(fbm_ctx):
    op = TruncationOperator(fbm_ctx, 0.5)
    for i in range(8):
        e = np.zeros(8)
        e[i] = 1.0
        out = op.forward(e)
        want = e if i < op.m else np.zeros(8)
        assert np.array_equal(out, want)


def test_truncate_indicator(fbm_ctx):
    op = TruncationOperator(fbm_ctx, 0.5)
    got = op.forward(fbm_ctx.grid.indicator(0.875))
    assert np.array_equal(got, fbm_ctx.grid.indicator(0.5))
    # t <= r is untouched
    got2 = op.forward(fbm_ctx.grid.indicator(0.25))
    assert np.array_equal(got2, fbm_ctx.grid.indicator(0.25))


def test_bm_adjoint_equals_forward(bm_ctx):
    op = TruncationOperator(bm_ctx, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(8)
        assert np.allclose(op.adjoint(x), op.forward(x), atol=1e-12)


@pytest.mark.parametrize("mode", ["forward", "adjoint"])
def test_idempotence(fbm_ctx, mode):
    op = TruncationOperator(fbm_ctx, 0.625)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(8)
        once = getattr(op, mode)(x)
        twice = getattr(op, mode)(once)
        assert np.allclose(twice, once, rtol=1e-12, atol=1e-12)


def test_duality(fbm_ctx):
    op = TruncationOperator(fbm_ctx, 0.375)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        lhs = fbm_ctx.inner(op.forward(x), y)
        rhs = fbm_ctx.inner(x, op.adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_decompose(fbm_ctx):
    op = TruncationOperator(fbm_ctx, 0.5)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8)
    past = op.forward(x)
    future = x - past
    assert np.array_equal(past + future, x)
    assert np.all(past[op.m:] == 0)
    assert np.all(future[:op.m] == 0)
    # already supported inputs pass through
    xp = np.zeros(8)
    xp[:op.m] = rng.standard_normal(op.m)
    assert xp - op.forward(xp) == pytest.approx(np.zeros(8), abs=0)


def test_adjoint_orthogonality(fbm_ctx):
    # I(adjoint h) is orthogonal to the future span; the complement to the past
    op = TruncationOperator(fbm_ctx, 0.5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = rng.standard_normal(8)
        hr = op.adjoint(h)
        fut = np.zeros(8)
        fut[op.m:] = rng.standard_normal(8 - op.m)
        pst = np.zeros(8)
        pst[:op.m] = rng.standard_normal(op.m)
        assert fbm_ctx.inner(hr, fut) == pytest.approx(0.0, abs=1e-10)
        assert fbm_ctx.inner(h - hr, pst) == pytest.approx(0.0, abs=1e-10)


def test_bm_opnorm_is_one():
    for n in (8, 16, 32):
        ctx = build_gram(BrownianMotion(), TimeGrid.uniform(n))
        for r in ctx.grid.points[1:-1]:
            assert operator_norm(ctx, r).opnorm == pytest.approx(1.0, abs=1e-10)


def test_opnorm_against_generalized_eigensolve(fbm_ctx):
    # independent oracle: scipy generalized symmetric eigensolve
    m = fbm_ctx.grid.index_of(0.5)
    A = fbm_ctx.G.copy()
    A[m:, :] = 0.0
    A[:, m:] = 0.0
    lam = scipy.linalg.eigh(A, fbm_ctx.G, eigvals_only=True)
    geo = operator_norm(fbm_ctx, 0.5)
    assert geo.opnorm == pytest.approx(np.sqrt(lam[-1]), rel=1e-12)
    assert geo.opnorm > 1.0
    # the extremal direction attains the norm
    v = geo.extremal_direction
    ratio = fbm_ctx.norm(np.where(np.arange(8) < m, v, 0.0)) / fbm_ctx.norm(v)
    assert ratio == pytest.approx(geo.opnorm, rel=1e-10)


def test_opnorm_monotone_under_refinement():
    vals = []
    for n in (4, 8, 16):
        ctx = build_gram(FractionalBrownianMotion(0.25), TimeGrid.uniform(n))
        vals.append(operator_norm(ctx, 0.5).opnorm)
    assert vals[1] >= vals[0] - 1e-9
    assert vals[2] >= vals[1] - 1e-9


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 11), st.sampled_from([2, 3]),
       st.floats(0.05, 0.48) | st.floats(0.52, 0.95), st.booleans(), st.data())
def test_refining_a_grid_never_lowers_the_operator_norm(N, k, H, with_bm, data):
    # the coarse span is a subspace of the fine one, and r is a node of both;
    # at H = 1/2 both norms are 1 up to roundoff, so H keeps 0.02 away
    model = FractionalBrownianMotion(H)
    if with_bm:
        model = SumModel(BrownianMotion(), model, 1.0)
    coarse = TimeGrid.uniform(N)
    r = coarse.points[data.draw(st.integers(1, N - 1))]
    fine = operator_norm(build_gram(model, coarse.refine(k)), r).opnorm
    assert fine >= operator_norm(build_gram(model, coarse), r).opnorm


def test_bm_dr_zero(bm_ctx):
    assert max_correlation(bm_ctx, 0.5).d_r == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("H", [0.2, 0.35, 0.6, 0.75])
def test_dr_hand_value_on_2x2(H):
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid([0.0, 1.0, 2.0]))
    want = abs(2.0 ** (2 * H - 1) - 1.0)
    assert max_correlation(ctx, 1.0).d_r == pytest.approx(want, abs=1e-12)


def test_dr_positive_nonmartingale():
    ctx = build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(16))
    assert max_correlation(ctx, 0.5).d_r > 1e-6


def test_extremal_pair_attains_dr(fbm_ctx):
    geo = max_correlation(fbm_ctx, 0.5)
    ups, psi = geo.extremal_pair
    assert fbm_ctx.norm(ups) == pytest.approx(1.0, rel=1e-10)
    assert fbm_ctx.norm(psi) == pytest.approx(1.0, rel=1e-10)
    assert fbm_ctx.inner(ups, psi) == pytest.approx(geo.d_r, rel=1e-10)
    assert np.all(ups[geo.m:] == 0) and np.all(psi[:geo.m] == 0)


def test_degenerate_split(fbm_ctx):
    with pytest.raises(DegenerateSplitError):
        max_correlation(fbm_ctx, 0.0)
    with pytest.raises(DegenerateSplitError):
        max_correlation(fbm_ctx, 1.0)


@pytest.mark.parametrize("H", [0.25, 0.75])
def test_dichotomy_opnorm_vs_dr(H):
    # oblique-projection geometry ties the two numbers together
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(12))
    for r in (0.25, 0.5, 0.75):
        d = max_correlation(ctx, r).d_r
        nrm = operator_norm(ctx, r).opnorm
        assert nrm == pytest.approx(1.0 / np.sqrt(1.0 - d * d), rel=1e-9)


def test_dichotomy_on_nonuniform_martingale_grid():
    # independent increments with nonconstant variance: still trivial geometry
    grid = TimeGrid([0.0, 0.11, 0.35, 0.4, 0.82, 1.3])
    ctx = build_gram(BrownianMotion(), grid)
    assert np.abs(ctx.G - np.diag(np.diag(ctx.G))).max() <= 1e-15
    for r in grid.points[1:-1]:
        assert operator_norm(ctx, r).opnorm == pytest.approx(1.0, abs=1e-10)
        assert max_correlation(ctx, r).d_r == pytest.approx(0.0, abs=1e-12)


def test_dichotomy_on_derived_models():
    # sigma-weighted and summed persistent models are non-martingales too
    grid = TimeGrid.uniform(12)
    weighted = WeightedFbm(0.75, 1.0 + 0.5 * np.sin(np.arange(12)), grid)
    combined = SumModel(BrownianMotion(), FractionalBrownianMotion(0.8), 1.5)
    for model in (weighted, combined):
        ctx = build_gram(model, grid)
        assert operator_norm(ctx, 0.5).opnorm > 1.0 + 1e-6
        assert max_correlation(ctx, 0.5).d_r > 1e-6


def test_jensen_martingale_refusal(bm_ctx):
    with pytest.raises(MartingaleCaseError):
        jensen_counterexample(bm_ctx, 0.5)


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")])
def test_jensen_eps_must_be_finite_and_positive(eps):
    # NaN passed the old eps <= 0 guard and made the reported bound NaN
    ctx = build_gram(FractionalBrownianMotion(0.75), TimeGrid([0.0, 1.0, 2.0]))
    with pytest.raises(ParameterError, match=f"eps must be finite and positive, got {eps}"):
        jensen_counterexample(ctx, 1.0, eps)


def test_jensen_hand_2x2():
    ctx = build_gram(FractionalBrownianMotion(0.75), TimeGrid([0.0, 1.0, 2.0]))
    eps = 1e-3
    h, d_r = jensen_counterexample(ctx, 1.0, eps)
    op = TruncationOperator(ctx, 1.0)
    d = 2.0**0.5 - 1.0
    assert d_r == pytest.approx(d, rel=1e-12)
    ratio = ctx.norm_sq(op.forward(h)) / ctx.norm_sq(h)
    # exact extremal pair: the ratio is 1/(1-d^2), above the guaranteed bound
    assert ratio == pytest.approx(1.0 / (1.0 - d * d), rel=1e-12)
    assert ratio >= 1.0 / (1.0 - d * d + 2 * d * eps) - 1e-9
    # truncating h returns the past extremal, of unit norm
    assert ctx.norm_sq(op.forward(h)) == pytest.approx(1.0, rel=1e-10)


def test_jensen_low_hurst_ratio_above_one():
    ctx = build_gram(FractionalBrownianMotion(0.25), TimeGrid.uniform(16))
    h, _ = jensen_counterexample(ctx, 0.5, 1e-3)
    op = TruncationOperator(ctx, 0.5)
    assert ctx.norm_sq(op.forward(h)) / ctx.norm_sq(h) > 1.0
    # conditioning h returns exactly the past extremal vector
    ups, _ = max_correlation(ctx, 0.5).extremal_pair
    assert np.allclose(op.forward(h), ups, atol=1e-13)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(0.05, 0.95), st.integers(2, 32))
def test_first_chaos_identities_at_every_interior_node(H, N):
    # opnorm^2 (1 - d_r^2) = 1 ties the two numbers of the dichotomy together;
    # opnorm = 1 exactly at H = 1/2, so it may round to just below 1 there
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(N))
    for r in ctx.grid.points[1:-1]:
        opnorm = operator_norm(ctx, r).opnorm
        d_r = max_correlation(ctx, r).d_r
        assert opnorm >= 1.0 - 1e-12
        assert 0.0 <= d_r < 1.0
        assert opnorm**2 * (1.0 - d_r**2) == pytest.approx(1.0, rel=1e-9)
