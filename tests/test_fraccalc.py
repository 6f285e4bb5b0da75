"""Fractional integrals, 2F1, the reconstruction identity, truncations, K*."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import betainc, gamma as gamma_fn, hyp2f1

from wickgrid import (
    FractionalBrownianMotion,
    FuncOnGrid,
    TimeGrid,
    appendix_reconstruction_check,
    build_gram,
    calibrate_c_h,
    cm_truncate_fbm,
    cm_truncate_fbm_high,
    cosine_mesh,
    gauss_2f1,
    hh_step_norm,
    kstar,
    rl_integral,
    uniform_mesh,
)
from wickgrid.errors import CalibrationError, GridAlignmentError, ParameterError, RegimeError
from wickgrid.fraccalc import (
    _2f1_array_near_one,
    _appendix_profile,
    _beta_cell_weights,
    _cell_weights,
    _kstar_matrix,
)


# ---------------------------------------------------------------------------
# Riemann-Liouville integrals
# ---------------------------------------------------------------------------

def test_rl_constant_exact():
    x = uniform_mesh(300, 1.0)
    out = rl_integral(FuncOnGrid.constant(1.0, x), 0.7, "left")
    assert np.max(np.abs(out.values - x**0.7 / gamma_fn(1.7))) <= 1e-13


def test_rl_right_constant_exact():
    x = uniform_mesh(300, 1.0)
    out = rl_integral(FuncOnGrid.constant(1.0, x), 0.7, "right")
    assert np.max(np.abs(out.values - (1 - x) ** 0.7 / gamma_fn(1.7))) <= 1e-13


def test_rl_power_law():
    # symbolic oracle: I^alpha s^mu = Gamma(mu+1)/Gamma(mu+alpha+1) t^{mu+alpha}
    x = uniform_mesh(2000, 1.0)
    mu, alpha = 1.5, 0.6
    out = rl_integral(FuncOnGrid.from_callable(lambda s: s**mu, x), alpha, "left")
    want = gamma_fn(mu + 1) / gamma_fn(mu + alpha + 1) * x ** (mu + alpha)
    assert np.max(np.abs(out.values - want)) <= 1e-4


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5])
@pytest.mark.parametrize("mesh", [uniform_mesh, cosine_mesh])
def test_rl_of_the_identity_is_exact(mesh, alpha):
    # f(s) = s is linear, so product integration is exact up to roundoff:
    # I^alpha s = t^(1+alpha) / Gamma(2+alpha) from the left, and from the right
    # t (T-t)^alpha / Gamma(1+alpha) + (T-t)^(1+alpha) / ((1+alpha) Gamma(alpha))
    x = mesh(300, 1.0)
    f = FuncOnGrid(x, x.copy())
    left = x ** (1 + alpha) / gamma_fn(2 + alpha)
    right = (x * (1 - x) ** alpha / gamma_fn(1 + alpha)
             + (1 - x) ** (1 + alpha) / ((1 + alpha) * gamma_fn(alpha)))
    assert np.max(np.abs(rl_integral(f, alpha, "left").values - left)) <= 1e-13
    assert np.max(np.abs(rl_integral(f, alpha, "right").values - right)) <= 1e-13


def _incomplete_beta_moments(lo, hi, p, q, L):
    """int u^(p-1) (L-u)^(q-1) du and int u^p (L-u)^(q-1) du over [lo, hi], as
    non-regularized incomplete beta functions at mpmath's working precision."""
    y0, y1 = lo / L, hi / L
    return (L ** (p + q - 1) * mpmath.betainc(p, q, y0, y1, regularized=False),
            L ** (p + q) * mpmath.betainc(p + 1, q, y0, y1, regularized=False))


# rows of a 16-cell mesh with t at a node: the c1 weights are differences
# that cancel on cells far from t (relative error ~ eps distance / width), so
# a finer mesh would test that cancellation rather than the formula
_MESH16 = uniform_mesh(16, 1.0)


@pytest.mark.parametrize("a", [0.8, 0.25])
def test_cell_weights_against_mpmath(a):
    # the power-kernel exponents of frac-verify's defaults: H_low + 1/2 and
    # H_high - 1/2; 30-digit moments of u^(a-1) from mpmath's incomplete beta
    # (mpmath.quad loses ~1e-10 at the singular endpoint cell)
    x = _MESH16
    rows = [x[i] - x[:i + 1] for i in (1, 5, 16)] + [x[i:] - x[i] for i in (0, 7, 15)]
    with mpmath.workdps(30):
        for e in rows:
            L, ap = mpmath.mpf(e.max()), mpmath.mpf(a)
            want0, want1 = [], []
            for e0, e1 in zip(map(mpmath.mpf, e[:-1]), map(mpmath.mpf, e[1:])):
                # e decreasing: t right of the cell, u runs over [e1, e0]
                sign = 1 if e0 > e1 else -1
                m0, m1 = _incomplete_beta_moments(min(e0, e1), max(e0, e1), ap, 1, L)
                want0.append(float(sign * m0))
                want1.append(float(sign * (e0 * m0 - m1)))
            c0, c1 = _cell_weights(e, a)
            np.testing.assert_allclose(c0, want0, rtol=1e-12, atol=0)
            np.testing.assert_allclose(c1, want1, rtol=1e-12, atol=0)


@pytest.mark.parametrize("b,nu", [(0.3, -0.3), (0.2, 0.0)])
def test_beta_cell_weights_against_mpmath(b, nu):
    # the (s-t)^(b-1) (T-s)^nu kernels of frac-verify's appendix check
    # (H_app = 0.2) and K* calibration (H_kstar = 0.3)
    x = _MESH16
    with mpmath.workdps(30):
        for i in (0, 5, 14):
            t = x[i]
            e, L = x[i:] - t, x[-1] - t
            want0, want1 = [], []
            for e0, e1 in zip(map(mpmath.mpf, e[:-1]), map(mpmath.mpf, e[1:])):
                m0, m1 = _incomplete_beta_moments(e0, e1, mpmath.mpf(b), mpmath.mpf(nu) + 1,
                                                  mpmath.mpf(L))
                want0.append(float(m0))
                want1.append(float(m1 - e0 * m0))
            c0, c1 = _beta_cell_weights(e, L, b, nu)
            np.testing.assert_allclose(c0, want0, rtol=1e-12, atol=0)
            np.testing.assert_allclose(c1, want1, rtol=1e-12, atol=0)


def test_rl_semigroup():
    x = uniform_mesh(2000, 1.0)
    f = FuncOnGrid.from_callable(lambda s: s, x)
    lhs = rl_integral(rl_integral(f, 0.4, "left"), 0.5, "left")
    rhs = rl_integral(f, 0.9, "left")
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-6


def test_rl_linearity_positivity():
    x = uniform_mesh(200, 1.0)
    f = FuncOnGrid.from_callable(lambda s: np.sin(3 * s) + 2.0, x)
    g = FuncOnGrid.from_callable(lambda s: s**2, x)
    both = FuncOnGrid(x, 2.0 * f.values - 0.5 * g.values)
    out = rl_integral(both, 0.55, "left")
    want = 2.0 * rl_integral(f, 0.55, "left").values \
        - 0.5 * rl_integral(g, 0.55, "left").values
    assert np.allclose(out.values, want, atol=1e-13)
    assert np.all(rl_integral(f, 0.55, "left").values >= 0.0)


def test_rl_parameter_guards():
    x = uniform_mesh(10, 1.0)
    f = FuncOnGrid.constant(1.0, x)
    with pytest.raises(ParameterError):
        rl_integral(f, 0.0, "left")
    with pytest.raises(ParameterError):
        rl_integral(f, 0.5, "middle")


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_rl_rejects_nonfinite_alpha(alpha):
    # unguarded, nan gives an all-NaN integral and inf an all-zero one
    f = FuncOnGrid.constant(1.0, uniform_mesh(10, 1.0))
    for side in ("left", "right"):
        with pytest.raises(ParameterError):
            rl_integral(f, alpha, side)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_funcongrid_rejects_nonfinite_mesh(bad):
    for x in ([0.0, 0.5, bad], [bad, 0.0, 0.5], [0.0, 0.5, 1.0, bad]):
        with pytest.raises(ParameterError):
            FuncOnGrid(x, np.zeros(len(x)))
    # values may be non-finite: kstar zeroes them on purpose
    f = FuncOnGrid([0.0, 0.5, 1.0], [0.0, 1.0, bad])
    assert not np.isfinite(f.values[-1])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_index_of_rejects_nonfinite_time(t):
    phi = FuncOnGrid.constant(1.0, uniform_mesh(10, 1.0))
    with pytest.raises(GridAlignmentError):
        phi.index_of(t)
    # unguarded, r = nan resolves to node 0 and reports "r must not be 0"
    with pytest.raises(GridAlignmentError):
        cm_truncate_fbm(phi, t, 0.3)
    with pytest.raises(GridAlignmentError):
        cm_truncate_fbm_high(phi, t, 0.75)


def test_index_of_is_the_grid_nearest_node_rule():
    # two nodes 2^-30 apart, both within the alignment tolerance of their midpoint
    x = [0.0, 1.0, 1.0 + 2.0**-30, 2.0]
    phi, grid = FuncOnGrid.constant(1.0, x), TimeGrid(x)
    for t, want in [(0.0, 0), (1.0 + 2.0**-31, 1), (1.0 + 2.0**-30, 2), (2.0 + 1e-10, 3),
                    (-1e-10, 0)]:
        assert phi.index_of(t) == grid.index_of(t) == want      # the lower node on a tie
    for t in (0.5, 2.5, -0.5, 1.0 + 2.0**-31 + 2e-9):
        with pytest.raises(GridAlignmentError, match=f"{t!r} is not a mesh node"):
            phi.index_of(t)
        with pytest.raises(GridAlignmentError, match="is not a grid node"):
            grid.index_of(t)


def test_rl_converges_under_doubling():
    mu, alpha = 0.8, 0.4
    errs = []
    for m in (250, 500, 1000):
        x = uniform_mesh(m, 1.0)
        out = rl_integral(FuncOnGrid.from_callable(lambda s: s**mu, x), alpha, "left")
        want = gamma_fn(mu + 1) / gamma_fn(mu + alpha + 1) * x ** (mu + alpha)
        errs.append(np.max(np.abs(out.values - want)))
    assert errs[1] <= errs[0] + 1e-12 and errs[2] <= errs[1] + 1e-12


# ---------------------------------------------------------------------------
# Gauss hypergeometric function
# ---------------------------------------------------------------------------

def test_2f1_at_zero():
    assert gauss_2f1(1.3, -2.2, 0.7, 0.0) == 1.0


def test_2f1_euler_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rng.uniform(-1.5, 2.5, 2)
        c = rng.uniform(0.3, 3.0)
        z = rng.uniform(-0.9, 0.9)
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_2f1_binomial_series():
    for z in (-0.7, 0.2, 0.85):
        got = gauss_2f1(0.8, 1.7, 1.7, z)
        assert got == pytest.approx((1 - z) ** -0.8, rel=1e-12)


def test_2f1_against_scipy():
    rng = np.random.default_rng(6)
    for _ in range(150):
        a, b = rng.uniform(-2, 3, 2)
        c = rng.uniform(0.2, 4.0)
        z = rng.uniform(-1.0, 0.97)
        assert gauss_2f1(a, b, c, z) == pytest.approx(
            float(hyp2f1(a, b, c, z)), rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_2f1_rejects_non_finite_arguments(slot, bad):
    # a NaN argument used to run the full series budget before giving up
    args = [0.5, 0.5, 1.5, 0.3]
    args[slot] = bad
    with pytest.raises(ParameterError, match="finite"):
        gauss_2f1(*args)


@pytest.mark.parametrize("z", [-1.0, -0.75, -0.5])
def test_2f1_pfaff_branch_on_negative_z(z):
    assert gauss_2f1(0.5, 0.5, 1.5, z) == pytest.approx(
        float(hyp2f1(0.5, 0.5, 1.5, z)), rel=1e-14)


def test_2f1_at_one_gauss_sum():
    a, b, c = 0.3, 0.2, 1.4
    want = gamma_fn(c) * gamma_fn(c - a - b) / (gamma_fn(c - a) * gamma_fn(c - b))
    assert gauss_2f1(a, b, c, 1.0) == pytest.approx(want, rel=1e-13)


# (a, b, c): Gamma(c - a) < 0 in the first three (the second and third are
# the appendix profile at H = 0.2 and 0.24), then Gamma(c) < 0, Gamma(c - b)
# < 0, all signs positive, a pole of Gamma(c - a) (2F1 = 0 at z = 1) and a
# terminating series
_MP_2F1_PARAMS = [(1.3, -2.2, 0.7), (0.8, -0.3, 0.7), (0.96, -0.26, 0.74),
                  (0.3, -1.2, -0.5), (-2.2, 1.3, 0.7), (0.5, 0.25, 1.5),
                  (2.0, -1.5, 1.0), (-2.0, 0.5, 1.5)]


@pytest.mark.parametrize("a,b,c", _MP_2F1_PARAMS)
def test_2f1_against_mpmath(a, b, c):
    # at z = 1 the gamma ratio must keep the signs of Gamma:
    # 2F1(1.3, -2.2; 0.7; 1) = -0.17168
    with mpmath.workdps(50):
        for z in (-1.0, -0.75, -0.5, -0.2, 0.0, 0.3, 0.6, 0.9, 0.95, 0.99, 1.0):
            want = float(mpmath.hyp2f1(a, b, c, z))
            assert gauss_2f1(a, b, c, z) == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("H", [0.15, 0.2, 0.24])
def test_appendix_profile_against_mpmath(H):
    # z = 1 - s > 0.95 takes the z -> 1 - z connection, whose first
    # coefficient is negative for H > 1/6
    s = np.array([0.0, 1e-6, 1e-3, 0.01, 0.04, 0.049, 0.3])
    with mpmath.workdps(50):
        want = [float(mpmath.hyp2f1(4 * H, H - 0.5, H + 0.5, 1 - x)) for x in s]
    np.testing.assert_allclose(_appendix_profile(H, 1.0, s), want, rtol=1e-12)


# both sides of the switch at z = 0.95 between the series and the z -> 1 - z
# connection, endpoints included
_NEAR_ONE_Z = np.concatenate([np.linspace(0.0, 1.0, 21),
                              [0.9, 0.95, np.nextafter(0.95, 1.0), 0.951, 0.99,
                               1.0 - 1e-6]])


@pytest.mark.parametrize("H", [0.05, 0.1, 0.2, 0.24])
def test_2f1_array_near_one_against_mpmath(H):
    # the appendix parameters (4H, H - 1/2; H + 1/2); an absolute bound, since
    # at H = 0.24 2F1 has a zero in (0, 1) near which the relative error grows
    a, b, c = 4.0 * H, H - 0.5, H + 0.5
    with mpmath.workdps(50):
        want = np.array([float(mpmath.hyp2f1(a, b, c, z)) for z in _NEAR_ONE_Z])
    got = _2f1_array_near_one(a, b, c, _NEAR_ONE_Z)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_2f1_domain_errors():
    with pytest.raises(ParameterError):
        gauss_2f1(0.5, 0.5, 1.0, 1.2)
    with pytest.raises(ParameterError):
        gauss_2f1(1.0, 1.0, 1.0, 1.0)       # c - a - b < 0 at z = 1
    with pytest.raises(ParameterError):
        gauss_2f1(0.5, 0.5, -1.0, 0.3)      # c nonpositive integer


# ---------------------------------------------------------------------------
# appendix reconstruction of t^{2H}
# ---------------------------------------------------------------------------

def test_appendix_reconstruction():
    rep = appendix_reconstruction_check(0.2, 1.0, 2000)
    assert rep.max_abs_error <= 1e-3
    assert rep.t_eval[0] >= 0.05 and rep.t_eval[-1] <= 0.95


def test_appendix_regime_guard():
    with pytest.raises(RegimeError):
        appendix_reconstruction_check(0.3, 1.0, 200)


def test_appendix_empty_window_is_a_parameter_error():
    # no mesh node inside the window used to end in numpy's bare ValueError
    with pytest.raises(ParameterError, match="window"):
        appendix_reconstruction_check(0.2, 1.0, 1)


@pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
def test_appendix_horizon_must_be_finite_and_positive(T):
    # 0 and inf warned on 0/0 and inf * 0, -1 on a power of a negative base,
    # and nan blamed the 2F1 series; none named T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"horizon T must be finite and > 0, got T = "):
            appendix_reconstruction_check(0.2, T, 200)


def test_appendix_profile_finite_at_origin():
    # z -> 1 limit of the 2F1 factor exists because c - a - b = 1 - 4H > 0
    H = 0.2
    val = gauss_2f1(4 * H, H - 0.5, H + 0.5, 1.0)
    assert np.isfinite(val)


def test_appendix_g_square_integrable():
    r1 = appendix_reconstruction_check(0.2, 1.0, 1000)
    r2 = appendix_reconstruction_check(0.2, 1.0, 2000)
    assert np.isfinite(r1.g_l2) and r1.g_l2 > 0
    assert abs(r2.g_l2 - r1.g_l2) / r1.g_l2 <= 0.01


@pytest.mark.parametrize("H", [0.15, 0.2, 0.24])
def test_appendix_g_l2_against_mpmath(H):
    # |g|_L2^2 = int_0^1 s^(6H-1) (1-s)^(2H-1) 2F1(4H, H-1/2; H+1/2; 1-s)^2 ds
    # / Gamma(H+1/2)^2 at T = 1
    with mpmath.workdps(50):
        h = mpmath.mpf(H)

        def integrand(s):
            F = mpmath.hyp2f1(4 * h, h - 0.5, h + 0.5, 1 - s)
            return s ** (6 * h - 1) * (1 - s) ** (2 * h - 1) * F**2

        want = float(mpmath.sqrt(mpmath.quad(integrand, [0, 0.5, 1])) / mpmath.gamma(h + 0.5))
    rep = appendix_reconstruction_check(H, 1.0, 2000)
    assert rep.g_l2 == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# truncation identities
# ---------------------------------------------------------------------------

def test_truncate_low_identity():
    phi = FuncOnGrid.constant(1.0, uniform_mesh(2000, 1.0))
    phi_r, err = cm_truncate_fbm(phi, 0.5, 0.3)
    assert err <= 1e-3
    assert np.array_equal(phi_r.values[:1001], phi.values[:1001])


def test_truncate_low_at_horizon_is_identity():
    phi = FuncOnGrid.from_callable(lambda s: 1 + s, uniform_mesh(200, 1.0))
    phi_r, err = cm_truncate_fbm(phi, 1.0, 0.3)
    assert np.array_equal(phi_r.values, phi.values)
    assert err == 0.0


def test_truncate_low_regime_guard():
    phi = FuncOnGrid.constant(1.0, uniform_mesh(100, 1.0))
    with pytest.raises(RegimeError):
        cm_truncate_fbm(phi, 0.5, 0.75)
    with pytest.raises(ParameterError):
        cm_truncate_fbm(phi, 0.0, 0.3)


def test_truncate_high_identity():
    psi = FuncOnGrid.constant(1.0, uniform_mesh(4000, 1.0))
    psi_r, err = cm_truncate_fbm_high(psi, 0.5, 0.75)
    assert err <= 1e-2
    assert np.array_equal(psi_r.values[:2001], psi.values[:2001])
    # zero holds in the fractional image, not pointwise in psi_r
    assert np.any(np.abs(psi_r.values[2001:]) > 0.1)


def test_truncate_high_at_horizon_is_identity():
    psi = FuncOnGrid.constant(1.0, uniform_mesh(100, 1.0))
    psi_r, err = cm_truncate_fbm_high(psi, 1.0, 0.75)
    assert np.array_equal(psi_r.values, psi.values)
    assert err == 0.0


def test_truncate_high_regime_guard():
    psi = FuncOnGrid.constant(1.0, uniform_mesh(100, 1.0))
    with pytest.raises(RegimeError):
        cm_truncate_fbm_high(psi, 0.5, 0.3)


def test_truncation_errors_shrink_under_doubling():
    errs_low = [cm_truncate_fbm(FuncOnGrid.constant(1.0, uniform_mesh(m, 1.0)),
                                0.5, 0.3)[1] for m in (500, 1000, 2000)]
    assert errs_low[1] <= errs_low[0] + 1e-12
    assert errs_low[2] <= errs_low[1] + 1e-12
    errs_high = [cm_truncate_fbm_high(FuncOnGrid.constant(1.0, uniform_mesh(m, 1.0)),
                                      0.5, 0.75)[1] for m in (1000, 2000)]
    assert errs_high[1] <= errs_high[0] + 1e-12


# ---------------------------------------------------------------------------
# K* operator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kstar_setup():
    H = 0.3
    grid = TimeGrid.uniform(64, 1.0)
    ctx = build_gram(FractionalBrownianMotion(H), grid)
    c_h, spread = calibrate_c_h(H, grid, m=900)
    return H, ctx, c_h, spread


def test_kstar_calibration_spread(kstar_setup):
    _, _, _, spread = kstar_setup
    assert spread <= 0.02


def test_kstar_calibration_needs_two_distinct_targets():
    # on one interval all four targets round to t* = 1, and one target
    # compared with itself has spread 0; two intervals give two targets
    with pytest.raises(ParameterError, match="two distinct target times"):
        calibrate_c_h(0.3, TimeGrid.uniform(1, 1.0), m=100)
    assert calibrate_c_h(0.3, TimeGrid.uniform(2, 1.0), m=100)[1] > 0.0


def test_kstar_calibration_on_a_coarse_mesh_is_a_calibration_error():
    # four cells recover the indicators so unevenly that the per-target
    # constants spread by 8.5%, past the 5% the fit admits
    with pytest.raises(CalibrationError, match="indicator-recovery constants disagree by"):
        calibrate_c_h(0.3, TimeGrid.uniform(8, 1.0), m=4)


def test_calibrate_c_h_holds_one_copy_of_its_least_squares_matrix():
    # [W; lam I] is 2 (m+1)^2 doubles and the K* rows are written into its
    # top half; W formed on its own and copied in peaked at 1.5 times that
    grid, m = TimeGrid.uniform(48), 600
    calibrate_c_h(0.3, grid, m)     # a warm call, so only the call's own arrays count
    tracemalloc.start()
    try:
        calibrate_c_h(0.3, grid, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 2 * (m + 1) ** 2 * 8


def test_kstar_isometry_random_smooth(kstar_setup):
    H, ctx, c_h, _ = kstar_setup
    rng = np.random.default_rng(9)
    x = cosine_mesh(1500, 1.0)
    for _ in range(5):
        coef = rng.standard_normal(4)
        g = FuncOnGrid(x, coef[0] + coef[1] * np.sin(2 * x)
                       + coef[2] * x + coef[3] * np.cos(5 * x))
        f = kstar(g, H, c_h)
        ratio = hh_step_norm(ctx, f) / math.sqrt(np.trapezoid(g.values**2, x))
        assert ratio == pytest.approx(1.0, abs=0.02)


def test_kstar_zero(kstar_setup):
    H, _, c_h, _ = kstar_setup
    g = FuncOnGrid.constant(0.0, cosine_mesh(200, 1.0))
    assert np.allclose(kstar(g, H, c_h).values, 0.0)


def test_kstar_of_appendix_generator():
    # the reconstruction generator maps to (a multiple of) t^{2H}
    H = 0.2
    rep = appendix_reconstruction_check(H, 1.0, 1500)
    f = kstar(rep.g, H, 1.0, end_exponent=H - 0.5)
    sel = (f.x >= 0.05) & (f.x <= 0.95)
    ratio = f.values[sel] / f.x[sel] ** (2 * H)
    assert (ratio.max() - ratio.min()) / abs(ratio.mean()) <= 0.01


def test_kstar_regime_guard():
    g = FuncOnGrid.constant(1.0, uniform_mesh(50, 1.0))
    with pytest.raises(RegimeError):
        kstar(g, 0.75, 1.0)


@pytest.mark.parametrize("nu", [-1.0, -1.5, math.nan, math.inf, -math.inf])
def test_kstar_rejects_inadmissible_end_exponent(nu):
    # unguarded, these give an all-NaN function; the documented range is nu > -1
    g = FuncOnGrid.constant(1.0, uniform_mesh(50, 1.0))
    with pytest.raises(ParameterError):
        kstar(g, 0.3, 1.0, end_exponent=nu)


# ---------------------------------------------------------------------------
# oracle: the shared cell-moment kernels reproduce the per-cell formulas
# bit for bit
# ---------------------------------------------------------------------------
# The reference functions below evaluate every cell from both of its edges,
# one row at a time, exactly as the product-integration formulas read.  The
# library evaluates each edge once and hoists row-invariant moments; IEEE
# arithmetic makes that reordering exact, so np.array_equal must hold.

def _ref_rl(x, v, alpha, side):
    m = x.size - 1
    out = np.zeros(m + 1)
    inv_gamma = 1.0 / gamma_fn(alpha)
    slopes = np.diff(v) / np.diff(x)
    if side == "left":
        for i in range(1, m + 1):
            t = x[i]
            u2 = t - x[:i]
            u1 = t - x[1:i + 1]
            m0 = (u2**alpha - u1**alpha) / alpha
            m1 = (u2 ** (alpha + 1) - u1 ** (alpha + 1)) / (alpha + 1)
            cells = v[:i] * m0 + slopes[:i] * (u2 * m0 - m1)
            out[i] = inv_gamma * cells.sum()
    else:
        for i in range(m):
            t = x[i]
            u1 = x[i:-1] - t
            u2 = x[i + 1:] - t
            m0 = (u2**alpha - u1**alpha) / alpha
            m1 = (u2 ** (alpha + 1) - u1 ** (alpha + 1)) / (alpha + 1)
            cells = v[i:-1] * m0 + slopes[i:] * (m1 - u1 * m0)
            out[i] = inv_gamma * cells.sum()
    return out


def _ref_truncate_low(x, v, r, H):
    alpha = H + 0.5
    i_r = int(np.argmin(np.abs(x - r)))
    out = v.copy()
    pref = 1.0 / (gamma_fn(alpha) * gamma_fn(1.0 - alpha))
    slopes = np.diff(v[: i_r + 1]) / np.diff(x[: i_r + 1])
    u2 = r - x[:i_r]
    u1 = r - x[1:i_r + 1]
    for i in range(i_r + 1, x.size):
        d = x[i] - r
        tau2 = u2 / (d + u2)
        tau1 = u1 / (d + u1)
        bdiff = beta_fn(alpha, 1.0 - alpha) * (
            betainc(alpha, 1.0 - alpha, tau2) - betainc(alpha, 1.0 - alpha, tau1))
        m0 = d ** (alpha - 1.0) * bdiff
        m1u = (u2**alpha - u1**alpha) / alpha - d * m0
        cells = v[:i_r] * m0 + slopes * (u2 * m0 - m1u)
        out[i] = pref * d ** (1.0 - alpha) * cells.sum()
    y = _ref_rl(x, v, alpha, "left")
    y_r = np.where(x <= r, y, y[i_r])
    lhs = _ref_rl(x, out, alpha, "left")
    return out, float(np.max(np.abs(lhs - y_r)))


def _ref_left_rl_at(x, v, alpha, i):
    t = x[i]
    u2 = t - x[:i]
    u1 = t - x[1:i + 1]
    m0 = (u2**alpha - u1**alpha) / alpha
    m1 = (u2 ** (alpha + 1) - u1 ** (alpha + 1)) / (alpha + 1)
    slopes = np.diff(v[: i + 1]) / np.diff(x[: i + 1])
    return float((v[:i] * m0 + slopes * (u2 * m0 - m1)).sum() / gamma_fn(alpha))


def _ref_left_rl_tail(x, v, alpha, t):
    u2 = t - x[:-1]
    u1 = t - x[1:]
    m0 = (u2**alpha - u1**alpha) / alpha
    m1 = (u2 ** (alpha + 1) - u1 ** (alpha + 1)) / (alpha + 1)
    slopes = np.diff(v) / np.diff(x)
    return float((v[:-1] * m0 + slopes * (u2 * m0 - m1)).sum())


def _ref_truncate_high(x, v, r, H):
    beta = H - 0.5
    i_r = int(np.argmin(np.abs(x - r)))
    gv = _ref_rl(x, v, beta, "left")
    out = v.copy()
    slopes = np.diff(gv[: i_r + 1]) / np.diff(x[: i_r + 1])
    pref = -beta / gamma_fn(1.0 - beta)
    for i in range(i_r + 1, x.size):
        s = x[i]
        u2 = s - x[:i_r]
        u1 = s - x[1:i_r + 1]
        m0 = (u1 ** (-beta) - u2 ** (-beta)) / beta
        m1u = (u2 ** (1.0 - beta) - u1 ** (1.0 - beta)) / (1.0 - beta)
        cells = gv[:i_r] * m0 + slopes * (u2 * m0 - m1u)
        out[i] = pref * cells.sum()
    target = np.where(x <= r, gv, 0.0)
    forward = np.zeros(x.size)
    hx, hv = x[: i_r + 1], v[: i_r + 1]
    inv_gb = 1.0 / gamma_fn(beta)
    ap = 1.0 - beta
    pref_b = -1.0 / (gamma_fn(beta) * gamma_fn(1.0 - beta))
    gslopes = np.diff(gv[: i_r + 1]) / np.diff(x[: i_r + 1])
    w2 = r - x[:i_r]
    w1 = r - x[1:i_r + 1]
    for i in range(1, x.size):
        t = x[i]
        if i <= i_r:
            forward[i] = _ref_left_rl_at(hx, hv, beta, i)
            continue
        part_a = inv_gb * _ref_left_rl_tail(hx, hv, beta, t)
        d = t - r
        tau2 = w2 / (d + w2)
        tau1 = w1 / (d + w1)
        bdiff = beta_fn(ap, 1.0 - ap) * (
            betainc(ap, 1.0 - ap, tau2) - betainc(ap, 1.0 - ap, tau1))
        m0 = d ** (ap - 1.0) * bdiff
        m1w = (w2**ap - w1**ap) / ap - d * m0
        cells = gv[:i_r] * m0 + gslopes * (w2 * m0 - m1w)
        forward[i] = part_a + pref_b * d**beta * cells.sum()
    return out, float(np.max(np.abs(forward - target)))


def _ref_right_singular_integral(x, q, t, i_t, beta, nu):
    L = x[-1] - t
    if L <= 0:
        return 0.0
    tau = (x[i_t:] - t) / L
    b0 = beta_fn(beta, nu + 1.0) * betainc(beta, nu + 1.0, tau)
    b1 = beta_fn(beta + 1.0, nu + 1.0) * betainc(beta + 1.0, nu + 1.0, tau)
    m0 = L ** (beta + nu) * np.diff(b0)
    m1 = L ** (beta + nu + 1.0) * np.diff(b1)
    qs = q[i_t:]
    slopes = np.diff(qs) / np.diff(x[i_t:])
    off = x[i_t:-1] - t
    return float((qs[:-1] * m0 + slopes * (m1 - off * m0)).sum())


def _ref_l2_sq(x, w, nu):
    T = x[-1]
    w2 = w * w
    r2 = T - x[:-1]
    r1 = T - x[1:]
    m0 = (r2 ** (nu + 1.0) - r1 ** (nu + 1.0)) / (nu + 1.0)
    m1 = (r2 ** (nu + 2.0) - r1 ** (nu + 2.0)) / (nu + 2.0)
    slopes = np.diff(w2) / np.diff(x)
    return float((w2[:-1] * m0 + slopes * (r2 * m0 - m1)).sum())


def _ref_appendix(H, T, m, window=(0.05, 0.95)):
    x = cosine_mesh(m, T)
    const = T ** (0.5 - H) / gamma_fn(H + 0.5)
    F = _appendix_profile(H, T, x)
    with np.errstate(divide="ignore"):
        u = np.where(x > 0, x ** (4.0 * H - 1.0), 0.0) * const * F
    beta, nu = 0.5 - H, H - 0.5
    lo, hi = window[0] * T, window[1] * T
    idx = [i for i in range(x.size) if lo <= x[i] <= hi]
    recon = np.empty(len(idx))
    for k, i in enumerate(idx):
        t = x[i]
        val = _ref_right_singular_integral(x, u, t, i, beta, nu)
        recon[k] = t ** (0.5 - H) * val / gamma_fn(beta)
    err = float(np.max(np.abs(recon - x[idx] ** (2.0 * H))))
    with np.errstate(divide="ignore"):
        w = np.where(x > 0, x ** (3.0 * H - 0.5), 0.0) * const * F
    return recon, err, math.sqrt(_ref_l2_sq(x, w, 2.0 * H - 1.0))


def _ref_kstar_matrix(x, H, nu):
    m1 = x.size
    beta = 0.5 - H
    W = np.zeros((m1, m1))
    for i in range(m1 - 1):
        t = x[i]
        if t <= 0.0:
            continue
        L = x[-1] - t
        tau = (x[i:] - t) / L
        b0 = beta_fn(beta, nu + 1.0) * betainc(beta, nu + 1.0, tau)
        b1 = beta_fn(beta + 1.0, nu + 1.0) * betainc(beta + 1.0, nu + 1.0, tau)
        m0 = L ** (beta + nu) * np.diff(b0)
        mm1 = L ** (beta + nu + 1.0) * np.diff(b1)
        off = x[i:-1] - t
        h = np.diff(x[i:])
        w_right = (mm1 - off * m0) / h
        w_left = m0 - w_right
        pref = t**beta / gamma_fn(beta)
        W[i, i:-1] += pref * w_left
        W[i, i + 1:] += pref * w_right
    with np.errstate(divide="ignore"):
        scale = np.where(x > 0, x ** (H - 0.5), 0.0)
        if nu != 0.0:
            scale = scale * np.where(x < x[-1], (x[-1] - x) ** (-nu), 0.0)
    return W * scale[None, :]


_ORACLE_MESHES = {
    "uniform": lambda m: uniform_mesh(m, 1.0),
    "cosine": lambda m: cosine_mesh(m, 1.0),
    "uniform-T2": lambda m: uniform_mesh(m, 2.0),
}


def _oracle_payload(x):
    return np.sin(3.0 * x) + 1.5 + 0.3 * x**2


@pytest.mark.parametrize("mesh", sorted(_ORACLE_MESHES))
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.4])
def test_oracle_rl_integral_bit_identical(mesh, side, alpha):
    for m in (1, 2, 37, 300):
        x = _ORACLE_MESHES[mesh](m)
        v = _oracle_payload(x)
        got = rl_integral(FuncOnGrid(x, v), alpha, side).values
        assert np.array_equal(got, _ref_rl(x, v, alpha, side))


@pytest.mark.parametrize("mesh", sorted(_ORACLE_MESHES))
@pytest.mark.parametrize("H", [0.1, 0.3, 0.45])
def test_oracle_truncate_low_bit_identical(mesh, H):
    for m, q in ((40, 0.5), (241, 0.3), (300, 0.8)):
        x = _ORACLE_MESHES[mesh](m)
        v = _oracle_payload(x)
        r = float(x[int(round(q * m))])
        phi_r, err = cm_truncate_fbm(FuncOnGrid(x, v), r, H)
        ref_vals, ref_err = _ref_truncate_low(x, v, r, H)
        assert np.array_equal(phi_r.values, ref_vals)
        assert err == ref_err


@pytest.mark.parametrize("mesh", sorted(_ORACLE_MESHES))
@pytest.mark.parametrize("H", [0.55, 0.75, 0.9])
def test_oracle_truncate_high_bit_identical(mesh, H):
    for m, q in ((40, 0.5), (241, 0.3), (300, 0.8)):
        x = _ORACLE_MESHES[mesh](m)
        v = _oracle_payload(x)
        r = float(x[int(round(q * m))])
        psi_r, err = cm_truncate_fbm_high(FuncOnGrid(x, v), r, H)
        ref_vals, ref_err = _ref_truncate_high(x, v, r, H)
        assert np.array_equal(psi_r.values, ref_vals)
        assert err == ref_err


@pytest.mark.parametrize("H", [0.05, 0.2, 0.24])
def test_oracle_appendix_bit_identical(H):
    for T, m in ((1.0, 120), (1.5, 300)):
        rep = appendix_reconstruction_check(H, T, m)
        recon, err, g_l2 = _ref_appendix(H, T, m)
        assert np.array_equal(rep.reconstruction, recon)
        assert rep.max_abs_error == err
        assert rep.g_l2 == g_l2


@pytest.mark.parametrize("nu", [0.0, 0.2])
@pytest.mark.parametrize("H", [0.1, 0.3])
def test_oracle_kstar_matrix_bit_identical(H, nu):
    for x in (cosine_mesh(150, 1.0), uniform_mesh(97, 2.0)):
        assert np.array_equal(_kstar_matrix(x, H, nu), _ref_kstar_matrix(x, H, nu))


def _ref_calibrate_c_h(H, grid, m):
    """calibrate_c_h with W formed on its own and copied into [W; lam I]."""
    targets = [grid.points[max(1, int(round(q * grid.n)))] for q in (0.3, 0.45, 0.6, 0.75)]
    x = cosine_mesh(m, grid.T)
    W = _ref_kstar_matrix(x, H, 0.0)
    lam = 1e-6 * np.linalg.norm(W, ord="fro") / math.sqrt(W.shape[0])
    A = np.zeros((2 * x.size, x.size))
    A[:x.size] = W
    np.fill_diagonal(A[x.size:], lam)
    estimates = []
    for t_star in targets:
        y = (x <= t_star + 1e-12).astype(float)
        y[0] = 0.0
        sol, *_ = np.linalg.lstsq(A, np.concatenate([y, np.zeros(x.size)]), rcond=None)
        estimates.append(math.sqrt(float(np.trapezoid(sol**2, x))) / t_star**H)
    estimates = np.asarray(estimates)
    c_h = float(np.exp(np.mean(np.log(estimates))))
    return c_h, float(np.max(np.abs(estimates - c_h)) / c_h)


@pytest.mark.parametrize("H", [0.1, 0.3, 0.45])
def test_oracle_calibrate_c_h_bit_identical(H):
    for n, m in ((16, 200), (48, 300)):
        grid = TimeGrid.uniform(n)
        assert calibrate_c_h(H, grid, m) == _ref_calibrate_c_h(H, grid, m)
