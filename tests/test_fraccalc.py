"""Fractional integrals, 2F1, the reconstruction identity, truncations, K*."""

import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn, hyp2f1

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
from wickgrid.errors import ParameterError, RegimeError


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


@pytest.mark.parametrize("z", [-1.0, -0.75, -0.5])
def test_2f1_pfaff_branch_on_negative_z(z):
    assert gauss_2f1(0.5, 0.5, 1.5, z) == pytest.approx(
        float(hyp2f1(0.5, 0.5, 1.5, z)), rel=1e-14)


def test_2f1_at_one_gauss_sum():
    a, b, c = 0.3, 0.2, 1.4
    want = gamma_fn(c) * gamma_fn(c - a - b) / (gamma_fn(c - a) * gamma_fn(c - b))
    assert gauss_2f1(a, b, c, 1.0) == pytest.approx(want, rel=1e-13)


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
    c_h, spread = calibrate_c_h(H, ctx, m=900)
    return H, ctx, c_h, spread


def test_kstar_calibration_spread(kstar_setup):
    _, _, _, spread = kstar_setup
    assert spread <= 0.02


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
