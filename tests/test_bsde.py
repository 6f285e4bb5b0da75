"""Linear BSDE representation, weak verification, certificate, residual experiment."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickgrid import (
    BrownianMotion,
    BSDEProblem,
    BSDESolution,
    ChaosVector,
    FractionalBrownianMotion,
    ShiftContext,
    SumModel,
    SymmetricTensor,
    TimeGrid,
    WeightedFbm,
    build_gram,
    chaos_inner,
    example33_residual,
    integrating_factor,
    nonexistence_certificate,
    random_chaos,
    represent_Y,
    represent_solution,
    sample_increments,
    shifted_qce,
    symmetrize_full,
    verify_solution_weak,
    wick_exponential_chaos,
    wick_exponential_solution,
)
from wickgrid.bsde import xi_shifted
from wickgrid.errors import MartingaleCaseError, ParameterError, UnsupportedOperationError

import pairing_oracle as oracle


def adapted_driver(rng, n):
    out = []
    for i in range(n + 1):
        v = rng.standard_normal(n)
        v[i:] = 0.0
        const = float(rng.standard_normal())
        out.append(ChaosVector.first_chaos(v, constant=const) if i
                   else ChaosVector.constant(const, n))
    return out


def make_problem(ctx, rng, order=3):
    n = ctx.n
    a = rng.standard_normal(n)
    gamma = ctx.grid.points + 0.3 * np.sin(3.0 * ctx.grid.points)
    c = 0.7 * rng.standard_normal(n)
    return BSDEProblem(ctx, a, gamma, c=c, G=adapted_driver(rng, n),
                       xi=random_chaos(rng, n, order))


@pytest.fixture
def ctx():
    return build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(8))


@pytest.fixture
def rng():
    return np.random.default_rng(23)


# ---------------------------------------------------------------------------
# integrating factor
# ---------------------------------------------------------------------------

def test_integrating_factor_zero_drift(ctx):
    p = BSDEProblem(ctx, np.zeros(8), ctx.grid.points,
                    xi=ChaosVector.constant(1.0, 8))
    assert np.array_equal(integrating_factor(p), np.ones(9))


def test_integrating_factor_constant_drift(ctx):
    alpha = 0.8
    p = BSDEProblem(ctx, np.full(8, alpha), ctx.grid.points,
                    xi=ChaosVector.constant(1.0, 8))
    want = np.exp(alpha * (1.0 - ctx.grid.points))
    assert np.allclose(integrating_factor(p), want, rtol=1e-14)


def test_integrating_factor_step_drift():
    ctx = build_gram(BrownianMotion(), TimeGrid.uniform(4))
    a = np.array([1.0, -2.0, 0.5, 3.0])
    gamma = np.array([0.0, 0.5, 0.6, 1.1, 1.3])
    p = BSDEProblem(ctx, a, gamma, xi=ChaosVector.constant(1.0, 4))
    A = integrating_factor(p)
    # hand product of the per-increment exponential factors
    dg = np.diff(gamma)
    for i in range(5):
        prod = 1.0
        for j in range(i, 4):
            prod *= math.exp(a[j] * dg[j])
        assert A[i] == pytest.approx(prod, rel=1e-14)
    assert A[-1] == 1.0


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------

def test_terminal_consistency(ctx, rng):
    p = make_problem(ctx, rng)
    y = represent_Y(p, 1.0)
    assert y.sub(p.xi).l2_norm(ctx) <= 1e-12


def test_reduction_to_quasi_conditional(ctx, rng):
    xi = random_chaos(rng, 8, 3)
    p = BSDEProblem(ctx, np.zeros(8), ctx.grid.points, xi=xi)
    for t in (0.25, 0.625):
        y = represent_Y(p, t)
        want = shifted_qce(ShiftContext(ctx, t, None), xi)
        assert y.sub(want).l2_norm(ctx) <= 1e-13


def test_adaptedness(ctx, rng):
    p = make_problem(ctx, rng)
    for i, t in enumerate(ctx.grid.points):
        assert represent_Y(p, t).support_bound() <= i


def test_linearity(ctx, rng):
    a = rng.standard_normal(8)
    gamma = ctx.grid.points.copy()
    c = rng.standard_normal(8)
    G1, G2 = adapted_driver(rng, 8), adapted_driver(rng, 8)
    xi1, xi2 = random_chaos(rng, 8, 2), random_chaos(rng, 8, 2)
    lam = 0.37
    p1 = BSDEProblem(ctx, a, gamma, c=c, G=G1, xi=xi1)
    p2 = BSDEProblem(ctx, a, gamma, c=c, G=G2, xi=xi2)
    G12 = [g1.add(g2.scaled(lam)) for g1, g2 in zip(G1, G2)]
    p12 = BSDEProblem(ctx, a, gamma, c=c, G=G12, xi=xi1.add(xi2.scaled(lam)))
    for t in (0.375, 0.75):
        lhs = represent_Y(p12, t)
        rhs = represent_Y(p1, t).add(represent_Y(p2, t).scaled(lam))
        assert lhs.sub(rhs).l2_norm(ctx) <= 1e-10


def test_higher_order_driver_entries(ctx, rng):
    # driver entries may carry any finite chaos order, not just first chaos
    G = []
    for i in range(9):
        c0 = SymmetricTensor.scalar(float(rng.standard_normal()), 8)
        v = rng.standard_normal(8)
        v[i:] = 0.0
        t2 = np.zeros((8, 8))
        if i:
            t2[:i, :i] = symmetrize_full(rng.standard_normal((i, i)))
        G.append(ChaosVector([c0, SymmetricTensor.from_vector(v),
                              SymmetricTensor.from_dense(t2)], 8))
    p = BSDEProblem(ctx, rng.standard_normal(8), ctx.grid.points,
                    c=0.5 * rng.standard_normal(8), G=G,
                    xi=random_chaos(rng, 8, 3))
    sol = represent_solution(p)
    Y = sol.Y_nodes
    assert Y[-1].sub(p.xi).l2_norm(ctx) <= 1e-12
    assert all(Y[i].support_bound() <= i for i in range(9))
    assert verify_solution_weak(p, sol, trials=8, seed=4) <= 1e-8


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("driver", [False, True])
@pytest.mark.parametrize("n", [1, 5, 24])
def test_represent_solution_matches_represent_Y_exactly(n, driver, shifted):
    # the running driver sum must add the same terms in the same order as the
    # per-node sum, so every node agrees to the last bit
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(n))
    rng = np.random.default_rng(500 + n)
    p = BSDEProblem(ctx, rng.standard_normal(n), ctx.grid.points,
                    c=0.7 * rng.standard_normal(n) if shifted else None,
                    G=adapted_driver(rng, n) if driver else None,
                    xi=random_chaos(rng, n, 3))
    sol = represent_solution(p)
    assert np.array_equal(sol.A, integrating_factor(p))
    oracle.assert_same_chaos(sol.xi_tilde, xi_shifted(p))
    assert len(sol.Y_nodes) == n + 1
    for y, t in zip(sol.Y_nodes, ctx.grid.points):
        oracle.assert_same_chaos(y, represent_Y(p, t))


@pytest.mark.parametrize("shifted", [False, True])
def test_represented_nodes_match_the_oracle_formula(shifted):
    # Y_i = (QCE of xi~ at (t_i, c) + run_i) / A_i with run_i the left-point
    # driver sum to t_i and xi~ = xi - run_N, the QCE taken by the oracle
    n = 6
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(n))
    rng = np.random.default_rng(77)
    p = BSDEProblem(ctx, rng.standard_normal(n), ctx.grid.points,
                    c=0.7 * rng.standard_normal(n) if shifted else None,
                    G=adapted_driver(rng, n), xi=random_chaos(rng, n, 3))
    A = integrating_factor(p)
    runs = [None]
    for g, A_j, dg in zip(p.G, A, p.dgamma):
        term = g.scaled(A_j * dg)
        runs.append(term if runs[-1] is None else runs[-1].add(term))
    xt = p.xi.sub(runs[-1])
    sol = represent_solution(p)
    oracle.assert_same_chaos(sol.xi_tilde, xt)
    for i, t in enumerate(ctx.grid.points):
        want = oracle.shifted_qce(ShiftContext(ctx, t, p.c), xt)
        want = (want if runs[i] is None else want.add(runs[i])).scaled(1.0 / A[i])
        oracle.assert_same_chaos(sol.Y_nodes[i], want)
        oracle.assert_same_chaos(represent_Y(p, t), want)


def test_one_driver_sum_pass_per_representation(monkeypatch):
    # xi~ takes its shift from the same running sums as the nodes
    from wickgrid import bsde

    n = 6
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(n))
    rng = np.random.default_rng(78)
    p = BSDEProblem(ctx, rng.standard_normal(n), ctx.grid.points,
                    G=adapted_driver(rng, n), xi=random_chaos(rng, n, 2))
    calls = []
    real = bsde._driver_sums

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bsde, "_driver_sums", counted)
    represent_solution(p)
    assert len(calls) == 1
    represent_Y(p, ctx.grid.points[3])
    assert len(calls) == 2


def test_driver_support_validated(ctx, rng):
    bad = [ChaosVector.first_chaos(rng.standard_normal(8))] * 9
    with pytest.raises(ParameterError):
        BSDEProblem(ctx, np.zeros(8), ctx.grid.points, G=bad,
                    xi=ChaosVector.constant(0.0, 8))


def test_power_sum_driver_support_validated(ctx):
    # a power-sum coefficient at node 2 whose row has mass on coordinate 2;
    # the same row at node 3, or with weight zero, is adapted
    def entry(weight, j):
        v = np.zeros(8)
        v[:j + 1] = 1.0
        return ChaosVector([SymmetricTensor.scalar(0.0, 8), SymmetricTensor.zero(1, 8),
                            SymmetricTensor.from_powers(2, 8, [weight], [v])], 8)

    def problem(i, driver):
        G = [None] * 9
        G[i] = driver
        return BSDEProblem(ctx, np.zeros(8), ctx.grid.points, G=G,
                           xi=ChaosVector.constant(0.0, 8))

    with pytest.raises(ParameterError, match="node 2"):
        problem(2, entry(0.5, 2))
    problem(3, entry(0.5, 2))
    problem(2, entry(0.0, 2))


# ---------------------------------------------------------------------------
# weak verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("H,seed", [(0.3, 1), (0.75, 2), (0.3, 3)])
def test_weak_residual_of_representation(H, seed):
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(8))
    rng = np.random.default_rng(seed)
    p = make_problem(ctx, rng)
    sol = represent_solution(p)
    assert verify_solution_weak(p, sol, trials=10, seed=seed) <= 1e-8


def test_weak_residual_flags_perturbation(ctx, rng):
    p = make_problem(ctx, rng)
    sol = represent_solution(p)
    sol.Y_nodes[4] = sol.Y_nodes[4].add(ChaosVector.constant(0.1, 8))
    assert verify_solution_weak(p, sol, trials=5, seed=0) >= 0.099


def test_weak_residual_of_a_nan_node_is_nan(ctx, rng):
    # max(worst, nan) is worst, so a residual folded with max passes on NaN
    p = make_problem(ctx, rng)
    sol = represent_solution(p)
    sol.Y_nodes[4] = ChaosVector.constant(math.nan, 8)
    assert math.isnan(verify_solution_weak(p, sol, trials=2, seed=0))


def test_full_equation_residual_of_a_nan_z_is_nan(rng):
    # the Y nodes meet the equation; only the Z check sees the NaN
    from wickgrid import ChaosField

    n = 6
    ctx = build_gram(FractionalBrownianMotion(0.7), TimeGrid.uniform(n))
    p = BSDEProblem(ctx, 0.3 * rng.standard_normal(n), ctx.grid.points,
                    xi=ChaosVector.constant(1.0, n))
    f = 0.25 * ctx.unit(rng.standard_normal(n))
    sol = wick_exponential_solution(p, f, K=5)
    p.xi = sol.Y_nodes[-1]
    nan_z = BSDESolution(Y_nodes=sol.Y_nodes, A=sol.A, xi_tilde=sol.xi_tilde,
                         Z=ChaosField(ctx, [np.full(n, math.nan)]))
    assert math.isnan(verify_solution_weak(p, nan_z, trials=2, seed=2))


@pytest.mark.parametrize("trials", [0, -3])
def test_weak_check_needs_a_trial(ctx, rng, trials):
    p = make_problem(ctx, rng, order=1)
    sol = represent_solution(p)
    with pytest.raises(ParameterError, match="trials"):
        verify_solution_weak(p, sol, trials, seed=0)


def test_backward_recursion_equals_representation(ctx, rng):
    # independent route: one-step quasi-conditional recursion
    p = make_problem(ctx, rng, order=2)
    dg = p.dgamma
    y = p.xi
    nodes = [y]
    for i in range(8, 0, -1):
        cond = shifted_qce(ShiftContext(ctx, ctx.grid.points[i - 1], p.c),
                           y.scaled(math.exp(-p.a[i - 1] * dg[i - 1])))
        prev = cond.sub(p.G[i - 1].scaled(dg[i - 1]))
        nodes.append(prev)
        y = prev
    nodes.reverse()
    for i, t in enumerate(ctx.grid.points):
        direct = represent_Y(p, t)
        assert direct.sub(nodes[i]).l2_norm(ctx) <= 1e-8


@pytest.mark.parametrize("model", [BrownianMotion(), FractionalBrownianMotion(0.3)])
def test_wick_solution_full_verification(model, rng):
    ctx = build_gram(model, TimeGrid.uniform(8))
    a = rng.standard_normal(8)
    c = 0.5 * rng.standard_normal(8)
    p = BSDEProblem(ctx, a, ctx.grid.points, c=c, xi=ChaosVector.constant(1.0, 8))
    f = 0.5 * ctx.unit(rng.standard_normal(8))
    sol = wick_exponential_solution(p, f, K=12)
    p.xi = sol.Y_nodes[-1]
    assert verify_solution_weak(p, sol, trials=10, seed=5) <= 1e-9
    assert sol.A[-1] == 1.0
    assert sol.Y_nodes[-1].expectation() == pytest.approx(1.0, rel=1e-12)


def test_wick_solution_reductions(ctx, rng):
    # a = 0, c = 0: plain truncated exponentials with unit front factor
    p = BSDEProblem(ctx, np.zeros(8), ctx.grid.points,
                    xi=ChaosVector.constant(1.0, 8))
    f = 0.5 * ctx.unit(rng.standard_normal(8))
    sol = wick_exponential_solution(p, f, K=10)
    for i, t in enumerate(ctx.grid.points):
        fp = f.copy()
        fp[i:] = 0.0
        want = wick_exponential_chaos(ctx, fp, 10)
        assert sol.Y_nodes[i].sub(want).l2_norm(ctx) <= 1e-12
        fj, combo = (sol.Z.cells[i] if i < 8 else (None, None))
        if fj is not None:
            assert fj == f[i]
    # f = 0: deterministic solution, zero Z slots
    sol0 = wick_exponential_solution(p, np.zeros(8), K=4)
    assert all(fj == 0.0 for fj, _ in sol0.Z.cells)


def test_full_verification_chaos_field_route(ctx, rng):
    # the Z check also accepts slot-tensor integrands; rebuild the closed-form
    # Z as a ChaosField and confirm the residual stays at truncation level
    from wickgrid import ChaosField

    n = 6
    small = build_gram(ctx.model, TimeGrid.uniform(n))
    p = BSDEProblem(small, 0.3 * rng.standard_normal(n), small.grid.points,
                    c=0.3 * rng.standard_normal(n),
                    xi=ChaosVector.constant(1.0, n))
    f = rng.standard_normal(n)
    f /= 4 * small.norm(f)
    K = 5
    sol = wick_exponential_solution(p, f, K=K)
    p.xi = sol.Y_nodes[-1]
    slots = [np.zeros((n,) * (k + 1)) for k in range(K + 1)]
    for j in range(n):
        yj = sol.Y_nodes[j]
        for k in range(K + 1):
            slots[k][..., j] = f[j] * oracle.get(yj, k).to_dense()
    sol_field = BSDESolution(Y_nodes=sol.Y_nodes, A=sol.A,
                             xi_tilde=sol.xi_tilde, Z=ChaosField(small, slots))
    assert verify_solution_weak(p, sol_field, trials=5, seed=2) <= 1e-6


@pytest.mark.parametrize("a,c,message", [
    (-1e3, 0.0, "integrating factor A = 0.0 at node 0"),
    (1e300, 0.0, "integrating factor A = inf at node 0"),
    # e^-710 is subnormal, and 1/A overflows
    (-710.0, 0.0, r"integrating factor A = 4\.47628622567\d*e-309 at node 0"),
    (0.5, 1e300, "solution factor beta = 0.0 at node 0"),
    (0.5, -1e300, "solution factor beta = inf at node 0"),
])
def test_wick_solution_outside_the_double_range_is_a_parameter_error(ctx, a, c, message):
    # A underflowing to 0 divided by zero, A = inf warned in exp, and
    # exp(-<f - f_t, c>) raised a bare OverflowError; none may warn.  At node
    # 0, <f, c> = 1e300 <f, 1> and <f, 1> > 0.  The represented solution
    # divided by the same A without a check
    p = BSDEProblem(ctx, np.full(8, a), ctx.grid.points, c=np.full(8, c),
                    xi=ChaosVector.constant(1.0, 8))
    f = 0.5 * ctx.unit(np.ones(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=message):
            wick_exponential_solution(p, f, K=3)
        if message.startswith("integrating factor"):
            for route in (represent_solution, xi_shifted, lambda p: represent_Y(p, 0.5)):
                with pytest.raises(ParameterError, match=message):
                    route(p)



def test_the_bsde_routes_read_inf_or_nan_past_the_double_range_without_a_warning(ctx, rng):
    # the dense contractions of a shift of 1e300 warned "overflow encountered
    # in dot" on every library call, and <f - f_t, c> of f = c = 1e155 warned
    # in matmul before beta was refused; only the CLI silenced them
    p = BSDEProblem(ctx, np.zeros(8), ctx.grid.points, c=np.full(8, 1e300),
                    xi=random_chaos(rng, 8, 2))
    q = BSDEProblem(ctx, np.zeros(8), ctx.grid.points, c=np.full(8, 1e155),
                    xi=ChaosVector.constant(1.0, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = represent_solution(p)
        norms = [chaos_inner(ctx, y, y) for y in sol.Y_nodes]
        res = verify_solution_weak(p, sol, trials=1, seed=0)
        with pytest.raises(ParameterError, match="solution factor beta = 0.0 at node 0"):
            wick_exponential_solution(q, 1e155 * ctx.unit(np.ones(8)), K=3)
    assert not any(map(math.isfinite, norms)) and math.isnan(res)

def test_wick_solution_with_a_nan_shift_is_left_to_the_weak_check(ctx, rng):
    p = BSDEProblem(ctx, np.zeros(8), ctx.grid.points, c=np.full(8, math.nan),
                    xi=ChaosVector.constant(1.0, 8))
    sol = wick_exponential_solution(p, 0.5 * ctx.unit(rng.standard_normal(8)), K=3)
    p.xi = sol.Y_nodes[-1]
    assert math.isnan(verify_solution_weak(p, sol, trials=1, seed=0))


def test_wick_solution_needs_zero_driver(ctx, rng):
    p = BSDEProblem(ctx, np.zeros(8), ctx.grid.points,
                    G=adapted_driver(rng, 8), xi=ChaosVector.constant(1.0, 8))
    with pytest.raises(UnsupportedOperationError):
        wick_exponential_solution(p, np.zeros(8))


def test_representation_matches_wick_on_martingale_grid(rng):
    # cross-oracle: exponential terminal data through both routes
    ctx = build_gram(BrownianMotion(), TimeGrid.uniform(8))
    p = BSDEProblem(ctx, np.zeros(8), ctx.grid.points,
                    xi=ChaosVector.constant(1.0, 8))
    f = 0.5 * ctx.unit(rng.standard_normal(8))
    K = 12
    sol = wick_exponential_solution(p, f, K=K)
    p.xi = wick_exponential_chaos(ctx, f, K)
    for i, t in enumerate(ctx.grid.points):
        y = represent_Y(p, t)
        assert y.sub(sol.Y_nodes[i]).l2_norm(ctx) <= 1e-10


# ---------------------------------------------------------------------------
# non-existence certificate
# ---------------------------------------------------------------------------

def test_certificate_refused_on_martingale_grid():
    bm = build_gram(BrownianMotion(), TimeGrid.uniform(16))
    with pytest.raises(MartingaleCaseError):
        nonexistence_certificate(ShiftContext(bm, 0.5))


@pytest.mark.parametrize("H", [0.75, 0.25])
def test_certificate_geometric_bound(H):
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(16))
    cert = nonexistence_certificate(ShiftContext(ctx, 0.5), K_max=12)
    assert cert.rho > 1.0
    assert cert.bound_ok
    want = np.cumsum(cert.rho ** np.arange(13))
    assert np.all(cert.partial_sums >= want * (1 - 1e-12))
    assert cert.tail_ratio >= cert.rho * (1 - 1e-6)


@pytest.mark.parametrize("K_max", [0, -1])
def test_certificate_rejects_k_max_below_one_before_any_work(K_max, monkeypatch):
    import wickgrid.bsde as bsde

    def no_eigenproblem(*args, **kwargs):
        raise AssertionError("operator norm computed before K_max was checked")

    monkeypatch.setattr(bsde, "operator_norm", no_eigenproblem)
    sc = ShiftContext(build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(16)), 0.5)
    with pytest.raises(ParameterError, match="K_max must be"):
        nonexistence_certificate(sc, K_max=K_max)


def test_certificate_order_limit_is_a_parameter_error():
    # 1/sqrt(171!) used to end in a bare OverflowError
    sc = ShiftContext(build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(8)), 0.5)
    assert nonexistence_certificate(sc, K_max=170).bound_ok
    with pytest.raises(ParameterError, match="170"):
        nonexistence_certificate(sc, K_max=171)


def test_certificate_partial_sums_match_the_closed_form():
    # the chain f^(x k) / sqrt(k!) shifts to f~_n = alpha_n (Gamma_r f)^(x n) with
    # alpha_n = sum_{k=n..K} C(k, n) x^(k-n) / sqrt(k!), x = <f, c_r>, so
    # S_K = sum_{n<=K} n! alpha_n^2 rho^n; x >= 0 gives alpha_n >= 1/sqrt(n!)
    grid = TimeGrid.uniform(64)
    K = 150
    sc = ShiftContext(build_gram(FractionalBrownianMotion(0.75), grid), 0.5,
                      0.5 * grid.indicator(grid.T))
    cert = nonexistence_certificate(sc, a=np.zeros(64), K_max=K)
    with mpmath.workdps(50):
        x = mpmath.mpf(cert.coefficients["escape_shift_pairing"])
        rho = mpmath.mpf(cert.rho)
        alpha = [mpmath.fsum(mpmath.binomial(k, n) * x ** (k - n)
                             / mpmath.sqrt(mpmath.factorial(k)) for k in range(n, K + 1))
                 for n in range(K + 1)]
        assert all(a >= 1 / mpmath.sqrt(mpmath.factorial(n)) for n, a in enumerate(alpha))
        total = mpmath.mpf(0)
        for n, a in enumerate(alpha):
            total += mpmath.factorial(n) * a**2 * rho**n
            assert abs(cert.partial_sums[n] - total) <= 1e-12 * total


def test_certificate_with_coefficients(rng):
    grid = TimeGrid.uniform(16)
    n = grid.n
    ctx = build_gram(FractionalBrownianMotion(0.25), grid)
    c = rng.standard_normal(n)
    a = np.where(np.arange(n) < 8, 0.5, -0.25)
    G = adapted_driver(rng, n)
    cert = nonexistence_certificate(ShiftContext(ctx, 0.5, c), a=a, G=G, K_max=10)
    assert cert.rho > 1.0 and cert.bound_ok
    assert cert.coefficients["escape_shift_pairing"] >= -1e-12
    assert not cert.coefficients["driver_zero"]
    assert cert.coefficients["driver_shift_l2"] > 0
    payload = cert.to_json_dict()
    assert set(payload) >= {"rho", "S_K", "geometric_lower_bound", "coefficients"}


@st.composite
def certificate_cases(draw):
    """(kind, ShiftContext, a, G, K_max) on a uniform grid of 2-16 increments:
    fBm with |H - 1/2| >= 0.02, weighted fBm, BM + fBm, or BM; r any interior
    node, shift entries and a in a box, an adapted first-chaos driver or none."""
    kind = draw(st.sampled_from(["fbm", "weighted_fbm", "sum", "bm"]))
    n = draw(st.integers(2, 16))
    grid = TimeGrid.uniform(n)
    off_half = st.one_of(st.floats(0.05, 0.48), st.floats(0.52, 0.95))
    if kind == "fbm":
        model = FractionalBrownianMotion(draw(off_half))
    elif kind == "weighted_fbm":
        sigma = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
        model = WeightedFbm(draw(st.floats(0.55, 0.95)), sigma, grid)
    elif kind == "sum":
        model = SumModel(BrownianMotion(), FractionalBrownianMotion(draw(off_half)),
                         draw(st.floats(0.5, 2.0)))
    else:
        model = BrownianMotion()
    box = st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)
    r = grid.points[draw(st.integers(1, n - 1))]
    sc = ShiftContext(build_gram(model, grid), r, np.array(draw(box)))
    a = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    G = None if seed is None else adapted_driver(np.random.default_rng(seed), n)
    return kind, sc, a, G, draw(st.integers(1, 170))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(certificate_cases())
def test_every_coefficient_draw_defeats_the_equation_off_the_martingale_grid(case):
    # the theorem on the grid: for every c, a and adapted G some terminal value
    # has no solution, and on BM the construction refuses
    kind, sc, a, G, K_max = case
    if kind == "bm":
        with pytest.raises(MartingaleCaseError):
            nonexistence_certificate(sc, a=a, G=G, K_max=K_max)
        return
    cert = nonexistence_certificate(sc, a=a, G=G, K_max=K_max)
    assert cert.rho > 1.0
    assert cert.bound_ok


# ---------------------------------------------------------------------------
# quadratic terminal-data residual experiment
# ---------------------------------------------------------------------------

def test_example33_slopes():
    ns = [16, 32, 64, 128, 256, 512]
    assert example33_residual(0.5, ns).slope <= -0.4
    assert example33_residual(0.35, ns).slope < -0.05
    assert example33_residual(0.2, ns).slope >= -0.02


def test_example33_monotone_regimes():
    ns = [16, 32, 64, 128, 256, 512]
    res_h05 = example33_residual(0.5, ns).residuals
    assert np.all(np.diff(res_h05) < 0)
    res_h02 = example33_residual(0.2, ns).residuals
    assert np.all(np.diff(res_h02) >= 0)


@pytest.mark.parametrize("H", [0.5, 0.35, 0.2])
def test_example33_residual_equals_the_factorized_gram_route(H):
    # the residual reads the assembled Gram without build_gram's eigh; its
    # numbers are those of the factorized context's G bit for bit
    ns = [16, 32, 64, 128, 256, 512]

    def via_build_gram(n):
        grid = TimeGrid.uniform(n, 1.0)
        G = build_gram(FractionalBrownianMotion(H), grid).G
        dV = np.diff(grid.points ** (2.0 * H))
        return math.sqrt(float(2.0 * np.sum(G * G) + 4.0 * dV @ G @ dV + np.sum(dV**2) ** 2))

    assert example33_residual(H, ns).residuals.tolist() == [via_build_gram(n) for n in ns]


def test_example33_against_monte_carlo():
    # raw-definition residual sampled pathwise vs the closed-form moment
    H, n = 0.3, 8
    grid = TimeGrid.uniform(n)
    ctx = build_gram(FractionalBrownianMotion(H), grid)
    pts = grid.points
    V = pts ** (2 * H)
    n_paths = 200_000
    dX = sample_increments(ctx, n_paths, seed=31)
    X = np.cumsum(dX, axis=1)
    Xfull = np.concatenate([np.zeros((n_paths, 1)), X], axis=1)
    Y = (Xfull + V[None, :]) ** 2
    R = Y[:, -1] - Y[:, 0]
    for j in range(1, n + 1):
        z = 2.0 * (Xfull[:, j - 1] + V[j - 1])
        trace = 2.0 * ctx.inner(ctx.grid.indicator(pts[j - 1]),
                                ctx.grid.indicator_interval(pts[j - 1], pts[j]))
        R -= (V[j] - V[j - 1]) + z * (V[j] - V[j - 1]) + z * dX[:, j - 1] - trace
    from wickgrid.bsde import _example33_residual_sq
    want = _example33_residual_sq(H, n, 1.0)
    vals = R**2
    se = vals.std(ddof=1) / math.sqrt(n_paths)
    assert abs(vals.mean() - want) <= 3 * se


# ---------------------------------------------------------------------------
# weak verification: bit-identical to the per-trial, all-node route
# ---------------------------------------------------------------------------

def _wick_solved(ctx, rng, K):
    n = ctx.n
    p = BSDEProblem(ctx, 0.5 * rng.standard_normal(n), ctx.grid.points,
                    c=0.3 * rng.standard_normal(n), xi=ChaosVector.constant(1.0, n))
    f = 0.5 * ctx.unit(rng.standard_normal(n))
    sol = wick_exponential_solution(p, f, K=K)
    p.xi = sol.Y_nodes[-1]
    return p, sol


@pytest.mark.parametrize("n", [1, 5, 24])
def test_weak_residual_matches_reference_route_exactly(n):
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(n))
    rng = np.random.default_rng(400 + n)
    p = make_problem(ctx, rng, order=3)
    sol = represent_solution(p)
    assert verify_solution_weak(p, sol, 2, 9) == oracle.verify_solution_weak(p, sol, 2, 9)
    pw, wick = _wick_solved(ctx, rng, K=8)
    assert verify_solution_weak(pw, wick, 2, 4) == oracle.verify_solution_weak(pw, wick, 2, 4)
    wick.Z = None
    assert verify_solution_weak(pw, wick, 2, 4) == oracle.verify_solution_weak(pw, wick, 2, 4)


def test_weak_residual_matches_reference_route_on_chaos_field_z(rng):
    from wickgrid import ChaosField

    n, K = 5, 4
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(n))
    p, sol = _wick_solved(ctx, rng, K=K)
    slots = [np.zeros((n,) * (k + 1)) for k in range(K + 1)]
    for j in range(n):
        for k in range(K + 1):
            slots[k][..., j] = sol.Z.cells[j][0] * oracle.get(sol.Y_nodes[j], k).to_dense()
    sol.Z = ChaosField(ctx, slots)
    assert verify_solution_weak(p, sol, 3, 1) == oracle.verify_solution_weak(p, sol, 3, 1)
