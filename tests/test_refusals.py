"""Typed refusals of the public entry points, one table row per guard."""

import warnings

import numpy as np
import pytest

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
    build_gram,
    calibrate_c_h,
    chaos_inner,
    cm_truncate_fbm_high,
    contract_with_shift,
    domain_diagnostic,
    example33_residual,
    s_transform,
    sample_increments,
    uniform_mesh,
    verify_s_transform_identity,
    verify_solution_weak,
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
