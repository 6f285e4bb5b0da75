"""Typed refusals of the public entry points, one table row per guard."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickgrid import (
    BrownianMotion,
    BSDEProblem,
    BSDESolution,
    ChaosField,
    ChaosVector,
    FractionalBrownianMotion,
    FuncOnGrid,
    GramContext,
    ShiftContext,
    SimpleIntegrand,
    SymmetricTensor,
    TimeGrid,
    WickCombo,
    appendix_reconstruction_check,
    build_gram,
    calibrate_c_h,
    chaos_inner,
    cm_truncate_fbm_high,
    contract_with_shift,
    cosine_mesh,
    domain_diagnostic,
    example33_residual,
    nonexistence_certificate,
    random_chaos,
    s_transform,
    sample_increments,
    uniform_mesh,
    verify_s_transform_identity,
    verify_solution_weak,
    wick_exponential_chaos,
    wick_exponential_solution,
)
from wickgrid.bsde import WickZ
from wickgrid.chaos import GramImage
from wickgrid.errors import (ConditioningError, GridAlignmentError, ParameterError, RegimeError,
                             ShapeError, UnsupportedOperationError)

N = 4
GRID = TimeGrid.uniform(N)
CTX = build_gram(FractionalBrownianMotion(0.75), GRID)
ONE = ChaosVector.constant(1.0, N)
MESH = FuncOnGrid.constant(1.0, uniform_mesh(10))
CTX8 = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(8))
CUBE8 = SymmetricTensor.from_powers(3, 8, [1.0], [np.ones(8)])


def problem(**kw):
    args = dict(a=np.zeros(N), gamma=GRID.points, xi=ONE)
    args.update(kw)
    return BSDEProblem(CTX, **args)


def negative_weak_check():
    # a Z makes the full equation run, and its log-S form needs S-values > 0
    p = problem(xi=ChaosVector.constant(-1.0, N))
    sol = BSDESolution(Y_nodes=[p.xi] * (N + 1), A=np.ones(N + 1), xi_tilde=p.xi, Z=WickZ([]))
    verify_solution_weak(p, sol, trials=1, seed=0)


REFUSALS = {
    "bsde-a-shape": (lambda: problem(a=np.zeros(N + 1)),
                     ShapeError, "a needs one value per increment"),
    "bsde-gamma-shape": (lambda: problem(gamma=GRID.points[:-1]),
                         ShapeError, "gamma needs one value per grid node"),
    "bsde-c-shape": (lambda: problem(c=np.zeros(N - 1)),
                     ShapeError, "c needs one value per increment"),
    "bsde-gamma-finite": (lambda: problem(gamma=np.append(GRID.points[:-1], np.inf)),
                          ParameterError, "gamma must be finite"),
    "bsde-driver-length": (lambda: problem(G=[None] * N),
                           ShapeError, "G needs one entry per grid node"),
    "bsde-xi-required": (lambda: problem(xi=None),
                         ParameterError, "terminal condition xi is required"),
    "wick-f-shape": (lambda: wick_exponential_solution(problem(), np.zeros(N + 1)),
                     ShapeError, "f must have one entry per increment"),
    "weak-check-nodes": (lambda: verify_solution_weak(
        problem(), BSDESolution(Y_nodes=[ONE] * N, A=np.ones(N + 1), xi_tilde=ONE), 1, 0),
        ShapeError, "solution must supply Y at every grid node"),
    "weak-check-positive-s": (negative_weak_check,
                              UnsupportedOperationError, "needs positive S-values"),
    "example33-one-grid": (lambda: example33_residual(0.5, [16]),
                           ParameterError, "need at least two grid sizes"),
    # np.polyfit fitted a slope through one point and warned RankWarning
    "example33-repeated-grid": (lambda: example33_residual(0.3, [16, 16]),
                                ParameterError, "need at least two grid sizes"),
    "dense-dim-cap": (lambda: SymmetricTensor.from_dense(np.zeros(33)),
                      ShapeError, "dimension 33 exceeds cap 32"),
    "dense-hypercubic": (lambda: SymmetricTensor.from_dense(np.zeros((2, 3))),
                         ShapeError, "dense tensor must be hyper-cubic"),
    "powers-shape": (lambda: SymmetricTensor.from_powers(2, N, [1.0], np.zeros((2, N))),
                     ShapeError, "power sums need weights of shape (p,) and vectors (p, dim)"),
    # math.factorial(171) * ... raised a bare OverflowError
    **{f"chaos-{name}-past-order-170": (
        lambda call=call: call(ChaosVector([SymmetricTensor.scalar(1.0, N)]
                                           + [SymmetricTensor.zero(k, N) for k in range(1, 172)],
                                           N)),
        ParameterError, "K must be <= 170, got 171")
       for name, call in [("inner", lambda xi: chaos_inner(CTX, xi, xi)),
                          ("l2-norm", lambda xi: xi.l2_norm(CTX))]},
    "chaos-graded": (lambda: ChaosVector([SymmetricTensor.scalar(1.0, N)] * 2, N),
                     ShapeError, "coefficient list must be graded by order"),
    "combo-term-length": (lambda: WickCombo([(1.0, None, np.zeros(N - 1))], N),
                          ShapeError, "term vectors must have length dim"),
    "combo-dependent-blocks": (
        lambda: WickCombo.exponential(np.ones(N)).conditional_expectation_independent(CTX, 0.5),
        UnsupportedOperationError, "independent past/future blocks"),
    "singular-gram": (lambda: GramContext(BrownianMotion(), TimeGrid.uniform(2),
                                          np.ones((2, 2))).inv_matrix,
                      ConditioningError, "Gram is singular beyond the eigenvalue floor"),
    "shift-shape": (lambda: ShiftContext(CTX, 0.5, np.zeros(N + 1)),
                    ShapeError, "shift vector must have one entry per increment"),
    "domain-negative-order": (lambda: domain_diagnostic(ShiftContext(CTX, 0.5), np.ones(N), -1),
                              ParameterError, "K_max must be >= 0"),
    "field-slot-shape": (lambda: ChaosField(CTX, [np.zeros(N + 1)]),
                         ShapeError, "slot tensor 0 must have shape (N,)*1"),
    "mesh-values": (lambda: FuncOnGrid([0.0, 0.5, 1.0], [0.0, 1.0]),
                    ParameterError, "values must match the mesh"),
    "mesh-off-node": (lambda: MESH.index_of(0.05),
                      GridAlignmentError, "0.05 is not a mesh node"),
    "high-truncation-at-zero": (lambda: cm_truncate_fbm_high(MESH, 0.0, 0.75),
                                ParameterError, "r must not be 0"),
    # cosine_mesh(0) warned on 0 / 0 and the appendix check then ran the whole
    # 2F1 series budget on a NaN; cosine_mesh(-1) was empty and uniform_mesh(0)
    # the one node [0.]
    **{f"{name}-m-{m}": (lambda build=build, m=m: build(m),
                         ParameterError, f"a mesh needs m >= 1 cells, got m = {m}")
       for name, build in [("uniform-mesh", uniform_mesh), ("cosine-mesh", cosine_mesh),
                           ("appendix", lambda m: appendix_reconstruction_check(0.2, 1.0, m))]
       for m in (0, -1)},
    # a float count ended in a bare TypeError or was truncated
    # (sample_increments drew 2 rows for 2.5), and a bool was read as 0 or 1
    **{f"{name}-m-{m!r}": (lambda build=build, m=m: build(m),
                           ParameterError, f"m must be an int, got {m!r}")
       for name, build in [("uniform-mesh", uniform_mesh), ("cosine-mesh", cosine_mesh)]
       for m in (2.5, True)},
    "uniform-n-2.5": (lambda: TimeGrid.uniform(2.5), ParameterError, "n must be an int, got 2.5"),
    "sample-n-paths-2.5": (lambda: sample_increments(CTX, 2.5, 1),
                           ParameterError, "n_paths must be an int, got 2.5"),
    "wick-exponential-K-2.5": (lambda: wick_exponential_chaos(CTX, np.ones(N), 2.5),
                               ParameterError, "K must be an int, got 2.5"),
    **{f"refine-k-{k!r}": (lambda k=k: GRID.refine(k), ParameterError, fragment)
       for k, fragment in [(2.5, "k must be an int, got 2.5"),
                           (True, "k must be an int, got True"),
                           (0, "refine needs k >= 1, got 0"),
                           (-1, "refine needs k >= 1, got -1")]},
    # a negative order was read as 0
    "random-chaos-negative-order": (lambda: random_chaos(np.random.default_rng(0), N, -1),
                                    ParameterError, "chaos order must be >= 0, got -1"),
    # T = nan blamed t_0, and T = inf warned in linspace before it did
    **{f"uniform-T-{T}": (lambda T=T: TimeGrid.uniform(N, T), ParameterError, f"got T = {T!r}")
       for T in (np.nan, np.inf, 0.0, -1.0)},
    # numpy refused a negative seed with a bare ValueError
    "sample-negative-seed": (lambda: sample_increments(CTX, 2, -1),
                             ParameterError, "seed must be >= 0, got -1"),
    "weak-check-negative-seed": (lambda: verify_solution_weak(
        problem(), BSDESolution(Y_nodes=[ONE] * (N + 1), A=np.ones(N + 1), xi_tilde=ONE), 2, -1),
        ParameterError, "seed must be >= 0, got -1"),
    "s-identity-negative-seed": (lambda: verify_s_transform_identity(
        SimpleIntegrand(CTX, [(0.0, 0.5, WickCombo.exponential(np.ones(N)))]), 2, -1),
        ParameterError, "seed must be >= 0, got -1"),
    # numpy refused a float seed with a bare TypeError and read True as 1
    **{f"{name}-seed-{seed!r}": (lambda call=call, seed=seed: call(seed),
                                 ParameterError, f"seed must be an int, got {seed!r}")
       for name, call in [
           ("sample", lambda seed: sample_increments(CTX, 2, seed)),
           ("weak-check", lambda seed: verify_solution_weak(
               problem(), BSDESolution(Y_nodes=[ONE] * (N + 1), A=np.ones(N + 1),
                                       xi_tilde=ONE), 2, seed)),
           ("s-identity", lambda seed: verify_s_transform_identity(
               SimpleIntegrand(CTX, [(0.0, 0.5, WickCombo.exponential(np.ones(N)))]), 2, seed))]
       for seed in (1.5, 2.0, True, np.True_)},
    # a NaN or infinite entry warned "invalid value encountered in matmul"
    **{f"domain-direction-{x}": (
        lambda x=x: domain_diagnostic(ShiftContext(CTX, 0.5), [0.1, x, 0.2, 0.3], 3),
        ParameterError, "direction f has a non-finite entry") for x in (np.nan, -np.inf)},
    # H above 1/2 and NaN ended in a bare LinAlgError after LAPACK printed to
    # stderr, and H = -50 in a CalibrationError
    **{f"kstar-calibration-H-{H}": (lambda H=H: calibrate_c_h(H, TimeGrid.uniform(48)),
                                    RegimeError, f"H in (0, 1/2), got H = {H!r}")
       for H in (0.55, 0.7, 0.99, np.nan, -50.0, 0.0, 0.5)},
    # math.exp(<g, h>) raised a bare OverflowError, "math range error"
    "combo-s-past-range": (lambda: s_transform(CTX8, WickCombo.exponential(np.ones(8)),
                                               1e200 * np.ones(8)),
                           ParameterError, "pairing <g, h> = 1e+200 overflows a double"),
    "combo-exponential-past-range": (
        lambda: WickCombo.exponential(np.ones(8)).multiply_exponential(CTX8, 1e200 * np.ones(8)),
        ParameterError, "pairing <g, h> = 1e+200 overflows a double"),
    # a float power <v, w>^k past the double range raised a bare OverflowError,
    # "(34, 'Numerical result out of range')"
    "shift-contraction-past-range": (
        lambda: contract_with_shift(ShiftContext(CTX8, 0.5, 1e200 * np.ones(8)), CUBE8, 0),
        ParameterError, "pairing order 3 overflows a double"),
    "contract-last-past-range": (
        lambda: CUBE8.contract_last(GramImage(CTX8, 1e200 * np.ones(8)), 2),
        ParameterError, "pairing order 2 overflows a double"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_bad_input_is_a_typed_error_naming_it(name):
    call, error, fragment = REFUSALS[name]
    with warnings.catch_warnings(), pytest.raises(error) as info:
        warnings.simplefilter("error")
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


def sound_solution():
    return BSDESolution(Y_nodes=[ONE] * (N + 1), A=np.ones(N + 1), xi_tilde=ONE)


def one_piece():
    return SimpleIntegrand(CTX, [(0.0, 0.5, WickCombo.exponential(np.ones(N)))])


# one row per count site, named by its parameter: (call taking the count,
# minimum, maximum or None)
COUNTS = {
    "n": (lambda n: TimeGrid.uniform(n), 1, None),
    "k": (lambda k: GRID.refine(k), 1, None),
    "n_paths": (lambda n_paths: sample_increments(CTX, n_paths, 1), 0, None),
    "seed": (lambda seed: sample_increments(CTX, 2, seed), 0, None),
    "m": (lambda m: uniform_mesh(m), 1, None),
    "m-cosine": (lambda m: cosine_mesh(m), 1, None),
    "K": (lambda K: WickCombo.exponential(np.ones(N)).to_chaos(CTX, K), 0, 170),
    "K-wick-exponential": (lambda K: wick_exponential_chaos(CTX, np.ones(N), K), 0, 170),
    # a float n or order ended in a bare TypeError, n = -1 in a bare
    # ValueError, n = 0 built a vector of dimension 0 and True was read as 1
    "n-random-chaos": (lambda n: random_chaos(np.random.default_rng(0), n, 1), 1, None),
    "order": (lambda order: random_chaos(np.random.default_rng(0), N, order), 0, None),
    # a float K_max ended in a bare TypeError, and True was read as 1
    "K_max": (lambda K_max: domain_diagnostic(ShiftContext(CTX, 0.5), np.ones(N), K_max),
              0, 170),
    "K_max-certificate": (lambda K_max: nonexistence_certificate(ShiftContext(CTX, 0.5),
                                                                 K_max=K_max), 1, 170),
    # trials = 2.5 ran 2 trials and True ran 1
    "trials": (lambda trials: verify_solution_weak(problem(), sound_solution(), trials, 0),
               1, None),
    "trials-s-identity": (lambda trials: verify_s_transform_identity(one_piece(), trials, 0),
                          1, None),
    # np.asarray(..., dtype=int) truncated 16.5 to 16 and read True as 1
    "grid_sizes": (lambda n: example33_residual(0.5, [4, n]), 1, None),
}


def bad_counts(minimum, maximum):
    """A float, an integral float, a bool and the ints just out of range."""
    bad = [2.5, 3.0, np.float64(3.0), True, np.bool_(True), minimum - 1]
    return bad if maximum is None else bad + [maximum + 1]


@pytest.mark.parametrize("site", list(COUNTS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_count_that_is_no_int_in_range_is_a_parameter_error_naming_it(site, data):
    call, minimum, maximum = COUNTS[site]
    value = data.draw(st.sampled_from(bad_counts(minimum, maximum)), label="count")
    with pytest.raises(ParameterError) as info:
        call(value)
    assert type(info.value) is ParameterError
    assert re.search(rf"\b{site.split('-')[0]}\b", str(info.value))


@pytest.mark.parametrize("site", list(COUNTS))
def test_a_numpy_int_at_its_minimum_is_a_count(site):
    call, minimum, _ = COUNTS[site]
    call(np.int64(minimum))
