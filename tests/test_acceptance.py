"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single `[criterion NN] PASS <name>` line (visible with
pytest -s / on failure) after its assertions went through.
"""

import math

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
    ShiftContext,
    SimpleIntegrand,
    SymmetricTensor,
    TimeGrid,
    TruncationOperator,
    WickCombo,
    build_gram,
    calibrate_c_h,
    chaos_inner,
    cm_pathwise_integral,
    cm_truncate_fbm,
    cm_truncate_fbm_high,
    evaluate_chaos_on_sample,
    example33_residual,
    gauss_2f1,
    integrating_factor,
    jensen_counterexample,
    max_correlation,
    nonexistence_certificate,
    operator_norm,
    random_chaos,
    represent_Y,
    appendix_reconstruction_check,
    s_transform,
    sample_increments,
    shifted_qce,
    skorokhod_chaos,
    symmetrize_full,
    uniform_mesh,
    verify_s_transform_identity,
    verify_solution_weak,
    wick_exponential_chaos,
    wick_exponential_solution,
)
from wickgrid.bsde import xi_shifted
from wickgrid.errors import MartingaleCaseError


def report(num, name):
    print(f"[criterion {num:02d}] PASS {name}")


def test_criterion_01_martingale_dichotomy():
    for n in (8, 16, 32):
        ctx = build_gram(BrownianMotion(), TimeGrid.uniform(n))
        for r in ctx.grid.points[1:-1]:
            assert abs(operator_norm(ctx, r).opnorm - 1.0) <= 1e-9
            assert abs(max_correlation(ctx, r).d_r) <= 1e-12
    for H in (0.2, 0.25, 0.35, 0.75):
        ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(16))
        assert operator_norm(ctx, 0.5).opnorm > 1.0 + 1e-6
        assert max_correlation(ctx, 0.5).d_r > 1e-6
    report(1, "martingale dichotomy (opnorm / d_r)")


def test_criterion_02_hand_gram_dr():
    for H in (0.2, 0.25, 0.35, 0.5, 0.75):
        ctx = build_gram(FractionalBrownianMotion(H), TimeGrid([0.0, 1.0, 2.0]))
        want = abs(2.0 ** (2 * H - 1) - 1.0)
        assert abs(max_correlation(ctx, 1.0).d_r - want) <= 1e-12
    report(2, "hand-computed d_r on the {0,1,2} grid")


def test_criterion_03_jensen_failure():
    ctx = build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(16))
    eps = 1e-3
    r = 0.5
    h, d = jensen_counterexample(ctx, r, eps)
    op = TruncationOperator(ctx, r)
    ratio = ctx.norm_sq(op.forward(h)) / ctx.norm_sq(h)
    assert ratio >= 1.0 / (1.0 - d * d + 2 * d * eps) - 1e-9
    assert ratio > 1.0
    report(3, "Jensen failure ratio bound")


def test_criterion_04_oblique_projection_laws():
    rng = np.random.default_rng(101)
    contexts = [build_gram(BrownianMotion(), TimeGrid.uniform(8)),
                build_gram(FractionalBrownianMotion(0.25), TimeGrid.uniform(8)),
                build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(8))]
    for ctx in contexts:
        op = TruncationOperator(ctx, 0.5)
        m = op.m
        for _ in range(100):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            scale = max(ctx.norm(x) * ctx.norm(y), 1e-300)
            # idempotence
            assert np.allclose(op.forward(op.forward(x)), op.forward(x),
                               rtol=1e-10, atol=1e-12)
            adj = op.adjoint(x)
            assert np.allclose(op.adjoint(adj), adj, rtol=1e-10, atol=1e-10)
            # duality
            assert abs(ctx.inner(op.forward(x), y)
                       - ctx.inner(x, op.adjoint(y))) <= 1e-10 * scale
            # orthogonality of the adjoint splitting
            fut = np.zeros(8)
            fut[m:] = rng.standard_normal(8 - m)
            pst = np.zeros(8)
            pst[:m] = rng.standard_normal(m)
            assert abs(ctx.inner(adj, fut)) <= 1e-10 * max(ctx.norm(adj) * ctx.norm(fut), 1e-300)
            assert abs(ctx.inner(x - adj, pst)) <= 1e-10 * max(ctx.norm(x - adj) * ctx.norm(pst), 1e-300)
            # unique decomposition
            past, future = op.forward(x), x - op.forward(x)
            assert np.array_equal(past + future, x)
            assert np.all(past[m:] == 0) and np.all(future[:m] == 0)
    report(4, "oblique-projection laws on 100 random vectors per context")


def test_criterion_05_shifted_qce_closed_forms():
    rng = np.random.default_rng(202)
    ctx = build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(16))
    c = rng.standard_normal(16)
    c *= 0.25 / ctx.norm(c)
    sc = ShiftContext(ctx, 0.5, c)
    # first chaos: exact coefficients
    for t in ctx.grid.points[1:]:
        ind = ctx.indicator(t)
        got = shifted_qce(sc, ChaosVector.first_chaos(ind))
        trunc = sc.op.forward(ind)
        want = ChaosVector.first_chaos(trunc, constant=-ctx.inner(ind - trunc, c))
        assert got.sub(want).l2_norm(ctx) <= 1e-12
    # Wick exponentials at K = 12, |h| <= 1, compared through the S-transform
    K = 12
    for _ in range(10):
        h = ctx.unit(rng.standard_normal(16))
        got = shifted_qce(sc, wick_exponential_chaos(ctx, h, K))
        factor = math.exp(ctx.inner(h, sc.c_r))
        want = wick_exponential_chaos(ctx, sc.op.forward(h), K).scaled(factor)
        for _ in range(5):
            p = ctx.unit(rng.standard_normal(16))
            assert abs(s_transform(ctx, got, p) - s_transform(ctx, want, p)) <= 1e-8
    report(5, "shifted-QCE closed forms (first chaos exact, Wick exp at K=12)")


def test_criterion_06_towering_and_measurability():
    rng = np.random.default_rng(303)
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(8))
    c = rng.standard_normal(8)
    sc1 = ShiftContext(ctx, 0.25, c)
    sc2 = ShiftContext(ctx, 0.625, c)
    for _ in range(10):
        xi = random_chaos(rng, 8, 3)
        once = shifted_qce(sc1, xi)
        twice = shifted_qce(sc1, shifted_qce(sc2, xi))
        assert once.sub(twice).l2_norm(ctx) <= 1e-10
        # fixed points are exactly the measurable vectors
        out = shifted_qce(sc2, xi)
        assert out.support_bound() <= sc2.m
        assert shifted_qce(sc2, out).sub(out).l2_norm(ctx) <= 1e-10
    m = sc2.m
    for _ in range(10):
        coeffs = [SymmetricTensor.scalar(float(rng.standard_normal()), 8)]
        for k in range(1, 4):
            t = np.zeros((8,) * k)
            t[(slice(0, m),) * k] = rng.standard_normal((m,) * k)
            coeffs.append(SymmetricTensor.from_dense(symmetrize_full(t)))
        xi = ChaosVector(coeffs, 8)
        assert shifted_qce(sc2, xi).sub(xi).l2_norm(ctx) <= 1e-10
    report(6, "towering composition and measurability fixed points")


def test_criterion_07_martingale_measure_change():
    rng = np.random.default_rng(404)
    ctx = build_gram(BrownianMotion(), TimeGrid.uniform(8))
    r = 0.5
    K = 12
    for _ in range(8):
        c = rng.standard_normal(8)
        c *= 0.6 / ctx.norm(c)
        sc = ShiftContext(ctx, r, c)
        f = ctx.unit(rng.standard_normal(8))
        got = shifted_qce(sc, wick_exponential_chaos(ctx, f, K))
        c_fut = c.copy()
        c_fut[:sc.m] = 0.0
        bayes = (WickCombo.exponential(f)
                 .multiply_exponential(ctx, -c_fut)
                 .conditional_expectation_independent(ctx, r))
        for _ in range(5):
            p = ctx.unit(rng.standard_normal(8))
            assert abs(s_transform(ctx, got, p) - bayes.s(ctx, p)) <= 1e-8
    report(7, "martingale measure-change Bayes formula")


def test_criterion_08_skorokhod_identities():
    rng = np.random.default_rng(505)
    for model in (FractionalBrownianMotion(0.25), BrownianMotion()):
        ctx = build_gram(model, TimeGrid.uniform(8))
        pieces = [(0.125, 0.5, WickCombo.exponential(rng.standard_normal(8))),
                  (0.375, 0.875, WickCombo.exponential(rng.standard_normal(8), alpha=-0.6))]
        err = verify_s_transform_identity(SimpleIntegrand(ctx, pieces), 20, seed=1)
        assert err <= 1e-10
    ctx = build_gram(FractionalBrownianMotion(0.25), TimeGrid.uniform(8))
    # zero quasi-conditional expectation of future integrals
    c = rng.standard_normal(8)
    slots = [rng.standard_normal(8), rng.standard_normal((8, 8))]
    slots.append(np.stack([symmetrize_full(rng.standard_normal((8, 8)))
                           for _ in range(8)], axis=-1))
    Z = ChaosField(ctx, slots)
    t, a = 0.5, 1.0
    xi = skorokhod_chaos(Z, t, a).add(cm_pathwise_integral(Z, c, t, a))
    for v in (0.125, 0.375, 0.5):
        out = shifted_qce(ShiftContext(ctx, v, c), xi)
        assert out.l2_norm(ctx) <= 1e-9
    # quasi-adapted integrands are fixed by conditioning at the endpoint
    slots_a = [np.zeros((8,) * (k + 1)) for k in range(2)]
    slots_a[0] = rng.standard_normal(8)
    for i in range(8):
        v = np.zeros(8)
        v[:i] = rng.standard_normal(i)
        slots_a[1][:, i] = v
    Za = ChaosField(ctx, slots_a)
    for s in (0.25, 0.625):
        xi_a = skorokhod_chaos(Za, 0.0, s).add(
            cm_pathwise_integral(Za, c, 0.0, s))
        diff = shifted_qce(ShiftContext(ctx, s, c), xi_a).sub(xi_a)
        assert diff.l2_norm(ctx) <= 1e-9
    report(8, "Skorokhod S-identity, vanishing QCE, quasi-adapted fixity")


def test_criterion_09_domain_divergence_certificate():
    for H in (0.75, 0.25):
        ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(16))
        cert = nonexistence_certificate(ShiftContext(ctx, 0.5), K_max=12)
        assert cert.rho > 1.0
        bounds = np.cumsum(cert.rho ** np.arange(13))
        assert np.all(cert.partial_sums >= bounds * (1 - 1e-12))
        assert cert.partial_sums[12] / cert.partial_sums[11] >= cert.rho * (1 - 1e-6)
    bm = build_gram(BrownianMotion(), TimeGrid.uniform(16))
    with pytest.raises(MartingaleCaseError):
        nonexistence_certificate(ShiftContext(bm, 0.5))
    report(9, "domain-divergence certificate and martingale refusal")


def test_criterion_10_bsde_representation():
    for H, seed in ((0.3, 1), (0.75, 2)):
        ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(8))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(8)
        gamma = ctx.grid.points + 0.2 * np.sin(2 * ctx.grid.points)
        c = 0.6 * rng.standard_normal(8)
        G = []
        for i in range(9):
            v = rng.standard_normal(8)
            v[i:] = 0.0
            const = float(rng.standard_normal())
            G.append(ChaosVector.first_chaos(v, constant=const) if i
                     else ChaosVector.constant(const, 8))
        xi = random_chaos(rng, 8, 3)
        p = BSDEProblem(ctx, a, gamma, c=c, G=G, xi=xi)
        assert represent_Y(p, 1.0).sub(xi).l2_norm(ctx) <= 1e-12
        Y = [represent_Y(p, t) for t in ctx.grid.points]
        sol = BSDESolution(Y_nodes=Y, A=integrating_factor(p), xi_tilde=xi_shifted(p))
        assert verify_solution_weak(p, sol, trials=20, seed=seed) <= 1e-8
    for model in (BrownianMotion(), FractionalBrownianMotion(0.3)):
        ctx = build_gram(model, TimeGrid.uniform(8))
        rng = np.random.default_rng(7)
        p = BSDEProblem(ctx, rng.standard_normal(8), ctx.grid.points,
                        c=0.4 * rng.standard_normal(8),
                        xi=ChaosVector.constant(1.0, 8))
        f = 0.5 * ctx.unit(rng.standard_normal(8))
        sol = wick_exponential_solution(p, f, K=12)
        p.xi = sol.Y_nodes[-1]
        assert verify_solution_weak(p, sol, trials=20, seed=11) <= 1e-9
    report(10, "BSDE representation: terminal, weak residual, closed form")


def test_criterion_11_quadratic_data_threshold():
    ns = [16, 32, 64, 128, 256, 512]
    assert example33_residual(0.5, ns).slope <= -0.4
    assert example33_residual(0.35, ns).slope < -0.05
    assert example33_residual(0.2, ns).slope >= -0.02
    report(11, "quadratic-terminal-data residual slopes across H = 1/4")


def test_criterion_12_appendix_reconstruction():
    rep = appendix_reconstruction_check(0.2, 1.0, 2000)
    assert rep.max_abs_error <= 1e-3
    rng = np.random.default_rng(606)
    for _ in range(60):
        a, b = rng.uniform(-1.5, 2.5, 2)
        cc = rng.uniform(0.3, 3.0)
        z = rng.uniform(-0.9, 0.9)
        lhs = gauss_2f1(a, b, cc, z)
        rhs = (1 - z) ** (cc - a - b) * gauss_2f1(cc - a, cc - b, cc, z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    assert gauss_2f1(1.7, -0.4, 2.3, 0.0) == 1.0
    report(12, "appendix reconstruction, Euler transform, 2F1 normalization")


def test_criterion_13_truncation_identities():
    phi = FuncOnGrid.constant(1.0, uniform_mesh(2000, 1.0))
    _, err_low = cm_truncate_fbm(phi, 0.5, 0.3)
    assert err_low <= 1e-3
    psi = FuncOnGrid.constant(1.0, uniform_mesh(4000, 1.0))
    _, err_high = cm_truncate_fbm_high(psi, 0.5, 0.75)
    assert err_high <= 1e-2
    H = 0.3
    _, spread = calibrate_c_h(H, TimeGrid.uniform(64), m=900)
    assert spread <= 0.02
    report(13, "Cameron-Martin truncation identities and K* calibration")


def test_criterion_14_monte_carlo_crosschecks():
    ctx = build_gram(FractionalBrownianMotion(0.7), TimeGrid.uniform(8))
    n = 100_000
    X = sample_increments(ctx, n, seed=99)
    X2 = sample_increments(ctx, n, seed=99)
    assert np.array_equal(X, X2)
    rng = np.random.default_rng(99)
    h = rng.standard_normal(8)
    vals = np.exp(X @ h - 0.5 * ctx.norm_sq(h))
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 1.0) <= 3 * se
    xi = random_chaos(rng, 8, 2)
    eta = random_chaos(rng, 8, 2)
    prod = (evaluate_chaos_on_sample(ctx, xi, X)
            * evaluate_chaos_on_sample(ctx, eta, X))
    se = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - chaos_inner(ctx, xi, eta)) <= 3 * se
    report(14, "Monte Carlo cross-checks, seed-reproducible")
