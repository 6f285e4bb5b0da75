"""Covariance models, Gram assembly, and path sampling."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickgrid import (
    BrownianMotion,
    FractionalBrownianMotion,
    SumModel,
    TimeGrid,
    WeightedFbm,
    build_gram,
    sample_increments,
)
from wickgrid.covariance import _EIG_FLOOR_REL, _gram_from_cov, _pow
from wickgrid.errors import GridAlignmentError, ModelGridError, ParameterError


class IndefiniteModel:
    """Second differences of -min(s, t) are negative definite."""

    def cov(self, s, t):
        return -np.minimum(s, t)


def test_fbm_half_is_min():
    m = FractionalBrownianMotion(0.5)
    assert m.cov(1.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert m.cov(0.0, 1.7) == 0.0


@pytest.mark.parametrize("H", [0.2, 0.35, 0.5, 0.75, 0.9])
def test_fbm_diagonal_is_t_2h(H):
    m = FractionalBrownianMotion(H)
    for t in [0.3, 1.0, 2.5]:
        assert m.cov(t, t) == pytest.approx(t ** (2 * H), rel=1e-14)
        assert m.cov(0.4, t) == m.cov(t, 0.4)


def test_sum_model_independence():
    m = SumModel(BrownianMotion(), BrownianMotion(), gamma=2.0)
    assert m.cov(1.0, 1.0) == pytest.approx(5.0, abs=1e-15)


@pytest.mark.parametrize("H", [0.0, 1.0, -0.3, 1.7])
def test_hurst_out_of_range(H):
    with pytest.raises(ParameterError):
        FractionalBrownianMotion(H)


def test_sum_model_needs_nonzero_gamma():
    with pytest.raises(ParameterError):
        SumModel(BrownianMotion(), BrownianMotion(), gamma=0.0)


def test_grid_invariants():
    with pytest.raises(ParameterError):
        TimeGrid([0.5, 1.0])            # must start at 0
    with pytest.raises(ParameterError):
        TimeGrid([0.0, 1.0, 1.0])       # strictly increasing
    with pytest.raises(ParameterError):
        TimeGrid([0.0])                 # N >= 1
    for n in (0, -2):
        with pytest.raises(ParameterError, match="n >= 1"):
            TimeGrid.uniform(n)
    grid = TimeGrid.uniform(4)
    with pytest.raises(GridAlignmentError):
        grid.index_of(0.3)


def test_bm_gram_is_diagonal():
    grid = TimeGrid.uniform(8, 2.0)
    ctx = build_gram(BrownianMotion(), grid)
    assert np.allclose(ctx.G, 0.25 * np.eye(8), atol=1e-15)


@pytest.mark.parametrize("H", [0.25, 0.75])
def test_fbm_gram_hand_2x2(H):
    # grid {0, 1, 2}: unit-variance increments, correlation 2^{2H-1} - 1
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid([0.0, 1.0, 2.0]))
    off = 2.0 ** (2 * H - 1) - 1.0
    assert np.allclose(ctx.G, [[1.0, off], [off, 1.0]], atol=1e-14)


def test_fbm_low_h_eigenvalues_nonnegative():
    # dense eigensolve oracle on the raw second differences
    grid = TimeGrid.uniform(32)
    ctx = build_gram(FractionalBrownianMotion(0.2), grid)
    raw = np.linalg.eigvalsh(ctx.G)
    floor = 1e-10 * np.trace(ctx.G) / 32
    assert raw[0] >= -floor
    assert np.all(ctx.eigvals >= 0.0)


@pytest.mark.parametrize("model", [
    BrownianMotion(),
    FractionalBrownianMotion(0.3),
    FractionalBrownianMotion(0.75),
    SumModel(BrownianMotion(), FractionalBrownianMotion(0.7), 1.5),
])
def test_indicator_quadratic_form_reproduces_covariance(model):
    grid = TimeGrid.uniform(10, 1.5)
    ctx = build_gram(model, grid)
    for ti in grid.points[1:]:
        for tj in grid.points[1:]:
            want = model.cov(ti, tj)
            got = ctx.inner(ctx.indicator(ti), ctx.indicator(tj))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_sum_model_gram_adds():
    grid = TimeGrid.uniform(6)
    g1 = build_gram(BrownianMotion(), grid).G
    g2 = build_gram(FractionalBrownianMotion(0.7), grid).G
    gs = build_gram(SumModel(BrownianMotion(), FractionalBrownianMotion(0.7), 2.0), grid).G
    assert np.allclose(gs, g1 + 4.0 * g2, atol=1e-13)


def test_refinement_aggregation():
    coarse = TimeGrid.uniform(4)
    fine = coarse.refine(3)
    model = FractionalBrownianMotion(0.35)
    Gc = build_gram(model, coarse).G
    Gf = build_gram(model, fine).G
    # sum fine-cell blocks back into coarse cells
    agg = Gf.reshape(4, 3, 4, 3).sum(axis=(1, 3))
    assert np.allclose(agg, Gc, atol=1e-13)


def test_weighted_fbm_matches_base_when_sigma_one():
    grid = TimeGrid.uniform(6)
    base = build_gram(FractionalBrownianMotion(0.8), grid).G
    w = build_gram(WeightedFbm(0.8, np.ones(6), grid), grid).G
    assert np.allclose(w, base, atol=1e-14)


def test_weighted_fbm_quadratic_form():
    grid = TimeGrid.uniform(5)
    sigma = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
    model = WeightedFbm(0.75, sigma, grid)
    base = build_gram(FractionalBrownianMotion(0.75), grid).G
    assert np.allclose(model.gram(grid), sigma[:, None] * base * sigma[None, :])
    # covariance at nodes equals the block sum
    ctx = build_gram(model, grid)
    for t in grid.points[1:]:
        assert model.cov(t, t) == pytest.approx(
            ctx.inner(ctx.indicator(t), ctx.indicator(t)), rel=1e-12)


def test_weighted_fbm_guards():
    grid = TimeGrid.uniform(4)
    with pytest.raises(ParameterError):
        WeightedFbm(0.4, np.ones(4), grid)       # low Hurst not admitted
    with pytest.raises(ParameterError):
        WeightedFbm(0.75, np.ones(3), grid)      # one sigma per increment
    with pytest.raises(ParameterError):
        WeightedFbm(0.75, [1.0, -1.0, 1.0, 1.0], grid)
    model = WeightedFbm(0.75, np.ones(4), grid)
    with pytest.raises(GridAlignmentError):
        model.gram(TimeGrid.uniform(5))


def test_indefinite_model_rejected():
    with pytest.raises(ModelGridError):
        build_gram(IndefiniteModel(), TimeGrid.uniform(4))


def test_conditioning_warning_flag():
    # one increment weighted 1e-7 puts the condition estimate near 2e14, past 1e12
    grid = TimeGrid.uniform(4)
    ctx = build_gram(WeightedFbm(0.75, [1e-7, 1.0, 1.0, 1.0], grid), grid)
    assert ctx.cond_estimate > 1e12
    assert ctx.conditioning_warning
    ctx2 = build_gram(BrownianMotion(), TimeGrid.uniform(16))
    assert not ctx2.conditioning_warning


def test_unit_is_the_guarded_division_it_replaces():
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(8))
    rng = np.random.default_rng(11)
    for v in rng.standard_normal((200, 8)) * 10.0 ** rng.integers(-5, 6, size=(200, 1)):
        m = max(ctx.norm(v), 1e-300)
        assert np.array_equal(ctx.unit(v), v / m)
        # the half-norm probes of bsde-verify and domain-diagnostic keep their bits
        assert np.array_equal(0.5 * ctx.unit(v), v / (2.0 * m))
        assert np.array_equal(0.5 * ctx.unit(v), 0.5 * v / m)
    assert np.array_equal(ctx.unit(np.zeros(8)), np.zeros(8))


def test_sampling_deterministic_and_empty():
    ctx = build_gram(FractionalBrownianMotion(0.6), TimeGrid.uniform(8))
    a = sample_increments(ctx, 50, seed=123)
    b = sample_increments(ctx, 50, seed=123)
    assert a.shape == (50, 8)
    assert np.array_equal(a, b)
    assert sample_increments(ctx, 0, seed=1).shape == (0, 8)
    with pytest.raises(ParameterError, match="n_paths"):
        sample_increments(ctx, -3, seed=1)


@pytest.mark.parametrize("N", [7, 32])
def test_sampling_continues_the_stream_of_a_generator(N):
    # blocks as long as mc-crosscheck's; blocks of a few rows take other BLAS
    # kernels and may round the product differently
    ctx = build_gram(FractionalBrownianMotion(0.6), TimeGrid.uniform(N))
    paths = np.random.default_rng(5)
    blocks = [sample_increments(ctx, 4096, paths), sample_increments(ctx, 4097, paths)]
    assert np.array_equal(np.concatenate(blocks), sample_increments(ctx, 8193, seed=5))


def test_sampling_bm_mean_within_3se():
    ctx = build_gram(BrownianMotion(), TimeGrid.uniform(8))
    n = 100_000
    X = sample_increments(ctx, n, seed=7)
    se = X.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(X.mean(axis=0)) <= 3 * se)


def test_sampling_fbm_covariance_within_3se():
    ctx = build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(6))
    n = 100_000
    X = sample_increments(ctx, n, seed=11)
    emp = (X.T @ X) / n
    # standard error of a covariance entry via the Gaussian fourth moment
    se = np.sqrt((np.outer(np.diag(ctx.G), np.diag(ctx.G)) + ctx.G**2) / n)
    assert np.all(np.abs(emp - ctx.G) <= 3 * se)


def test_cameron_martin_pairing():
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(7))
    h = np.random.default_rng(3).standard_normal(7)
    cm = ctx.cameron_martin(h)
    for i, t in enumerate(ctx.grid.points):
        want = ctx.inner(ctx.indicator(t), h) if t > 0 else 0.0
        assert cm[i] == pytest.approx(want, abs=1e-12)


def _scalar_loop_gram(model, grid):
    pts = grid.points.tolist()
    R = np.array([[model.cov(s, t) for t in pts] for s in pts])
    G = R[1:, 1:] - R[1:, :-1] - R[:-1, 1:] + R[:-1, :-1]
    return 0.5 * (G + G.T)


@pytest.mark.parametrize("model", [
    BrownianMotion(),
    *[FractionalBrownianMotion(H) for H in (0.1, 0.25, 0.3, 0.5, 0.75, 0.9)],
    SumModel(BrownianMotion(), FractionalBrownianMotion(0.7), 1.5),
], ids=repr)
def test_vectorized_gram_bit_identical_to_scalar_loop(model):
    irregular = np.concatenate(
        [[0.0], np.cumsum(np.random.default_rng(4).uniform(0.01, 0.2, 40))])
    for grid in (TimeGrid.uniform(256, 1.0), TimeGrid.uniform(256, 1.5),
                 TimeGrid.uniform(5, 1.5), TimeGrid(irregular)):
        assert np.array_equal(_gram_from_cov(model, grid),
                              _scalar_loop_gram(model, grid))


@pytest.mark.parametrize("x", [
    np.abs(np.subtract.outer(np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 33))),
    np.array([0.0, 0.0, 0.5, -0.0, 2.0, 0.5]),
    np.array([[0.7]]),
    np.full((3, 4), 0.3),
    np.zeros((0, 2)),
], ids=["repeats", "zeros", "1x1", "one value", "empty"])
@pytest.mark.parametrize("p", [0.2, 0.6, 1.5])
def test_pow_is_the_scalar_power_per_element(x, p):
    # each distinct value is raised once and gathered back by a sorted search
    want = np.array([v ** p for v in x.ravel().tolist()]).reshape(x.shape)
    got = _pow(x, p)
    assert got.shape == x.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("make", [
    lambda grid: FractionalBrownianMotion(0.75),
    lambda grid: WeightedFbm(0.75, np.ones(grid.n), grid),
    lambda grid: SumModel(BrownianMotion(), FractionalBrownianMotion(0.75), 1.0),
], ids=["fbm", "weighted_fbm", "sum"])
def test_a_power_past_the_double_range_is_a_parameter_error(make):
    # (1e300)^1.5 raised a bare OverflowError from the scalar power
    grid = TimeGrid.uniform(4, 1e300)
    with pytest.raises(ParameterError, match=r"^1e\+300 \*\* 1\.5 overflows a double"):
        build_gram(make(grid), grid)
    with pytest.raises(ParameterError, match=r"^1e\+300 \*\* 1\.5 overflows a double"):
        _pow(1e300, 1.5)


def test_scalar_cov_returns_float_and_arrays_broadcast():
    grid = TimeGrid.uniform(6, 1.5)
    models = [BrownianMotion(), FractionalBrownianMotion(0.3),
              SumModel(BrownianMotion(), FractionalBrownianMotion(0.7), 1.5),
              WeightedFbm(0.75, np.linspace(0.5, 2.0, 6), grid)]
    pts = grid.points
    for model in models:
        assert type(model.cov(0.25, 1.5)) is float
        assert type(model.cov(np.float64(0.25), np.float64(1.5))) is float
        R = model.cov(pts[:, None], pts[None, :])
        assert R.shape == (7, 7)
        assert np.array_equal(R, [[model.cov(s, t) for t in pts] for s in pts])
    assert np.array_equal(grid.index_of(pts[::-1]), np.arange(6, -1, -1))
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(GridAlignmentError):
            grid.index_of(t)
    with pytest.raises(GridAlignmentError):
        models[-1].cov(pts[:, None], np.array([0.0, 0.3]))


def test_lazy_factors_built_once_under_thread_contention():
    # an unguarded check-then-set lets two readers each build and return
    # their own matrix
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(64))
            seen = []
            barrier = threading.Barrier(8)

            def read():
                barrier.wait(timeout=10)
                seen.append(ctx.inv_sqrt_matrix)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 8
            assert all(m is seen[0] for m in seen)
    finally:
        sys.setswitchinterval(old)


_hurst = st.floats(0.05, 0.95)
_models = st.one_of(
    _hurst.map(FractionalBrownianMotion),
    st.just(BrownianMotion()),
    st.builds(SumModel, st.just(BrownianMotion()), _hurst.map(FractionalBrownianMotion),
              st.floats(0.1, 3.0)),
)
# strictly increasing grids: N <= 40 cell widths spanning three decades
_grids = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=40).map(
    lambda widths: TimeGrid(np.concatenate([[0.0], np.cumsum(widths)])))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_models, _grids)
def test_gram_is_psd_on_random_grids(model, grid):
    # build_gram raises ModelGridError below the floor, so it must not raise
    # here, and the unclipped spectrum must clear the same floor
    ctx = build_gram(model, grid)
    floor = _EIG_FLOOR_REL * np.trace(ctx.G) / grid.n
    assert np.linalg.eigvalsh(ctx.G)[0] >= -floor
    assert np.all(ctx.eigvals >= 0.0)
