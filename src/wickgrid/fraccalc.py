"""Riemann-Liouville calculus, Gauss hypergeometric series, and the
Cameron-Martin truncation identities.

All integral operators use product integration: the integrand is split into
a piecewise-linear payload and a singular kernel whose cell moments are
integrated analytically (power moments for one-sided kernels, incomplete
beta functions when both interval endpoints carry a power singularity).
Sampling a singular node never happens.

The truncation constructions here are the function-space counterpart of the
bounded truncation operator in `firstchaos`: their numerical success for the
fractional models is the computational witness that truncation in time stays
inside the space of admissible integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc, gamma as gamma_fn, gammaln

from .covariance import GramContext
from .errors import CalibrationError, GridAlignmentError, ParameterError, RegimeError

__all__ = [
    "FuncOnGrid",
    "uniform_mesh",
    "cosine_mesh",
    "rl_integral",
    "gauss_2f1",
    "AppendixReport",
    "appendix_reconstruction_check",
    "cm_truncate_fbm",
    "cm_truncate_fbm_high",
    "kstar",
    "calibrate_c_h",
    "hh_step_norm",
]


def uniform_mesh(m: int, T: float = 1.0) -> np.ndarray:
    return np.linspace(0.0, T, m + 1)


def cosine_mesh(m: int, T: float = 1.0) -> np.ndarray:
    """Quadratic clustering at both endpoints (Chebyshev extrema)."""
    return 0.5 * T * (1.0 - np.cos(np.pi * np.arange(m + 1) / m))


class FuncOnGrid:
    """Function sampled on a dense quadrature mesh, interpolated linearly."""

    def __init__(self, x, values):
        x = np.asarray(x, dtype=float)
        v = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
            raise ParameterError("mesh must be 1-d and strictly increasing")
        if v.shape != x.shape:
            raise ParameterError("values must match the mesh")
        self.x = x
        self.values = v

    @classmethod
    def from_callable(cls, fn: Callable, x) -> "FuncOnGrid":
        x = np.asarray(x, dtype=float)
        return cls(x, np.asarray(fn(x), dtype=float))

    @classmethod
    def constant(cls, value: float, x) -> "FuncOnGrid":
        x = np.asarray(x, dtype=float)
        return cls(x, np.full(x.shape, float(value)))

    def interp(self, t):
        return np.interp(t, self.x, self.values)

    def index_of(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.x - t)))
        if abs(self.x[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise GridAlignmentError(f"{t!r} is not a mesh node")
        return i

    def __repr__(self) -> str:
        return f"FuncOnGrid(m={self.x.size - 1}, [{self.x[0]}, {self.x[-1]}])"


# ---------------------------------------------------------------------------
# Riemann-Liouville integrals (product integration, exact on pwl payloads)
# ---------------------------------------------------------------------------

def rl_integral(f: FuncOnGrid, alpha: float, side: str = "left") -> FuncOnGrid:
    """Fractional integral of order alpha > 0 of a piecewise-linear function.

    Kernel moments int (t-s)^(alpha-1) {1, s} ds are integrated analytically
    per cell, so the result is exact for piecewise-linear f up to roundoff.
    """
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if side not in ("left", "right"):
        raise ParameterError("side must be 'left' or 'right'")
    x = f.x
    v = f.values
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
    return FuncOnGrid(x, out)


def _right_singular_integral(x: np.ndarray, q: np.ndarray, t: float,
                             i_t: int, beta: float, nu: float) -> float:
    """int_t^T q(s) (s-t)^(beta-1) (T-s)^nu ds with piecewise-linear q.

    Both endpoint singularities live in the kernel; cell moments come from
    regularized incomplete beta functions.  Requires beta > 0, nu > -1.
    """
    T = x[-1]
    L = T - t
    if L <= 0:
        return 0.0
    tau = (x[i_t:] - t) / L
    b0 = beta_fn(beta, nu + 1.0) * betainc(beta, nu + 1.0, tau)
    b1 = beta_fn(beta + 1.0, nu + 1.0) * betainc(beta + 1.0, nu + 1.0, tau)
    m0 = L ** (beta + nu) * np.diff(b0)
    m1 = L ** (beta + nu + 1.0) * np.diff(b1)         # int (s-t) * kernel
    qs = q[i_t:]
    slopes = np.diff(qs) / np.diff(x[i_t:])
    off = x[i_t:-1] - t
    cells = qs[:-1] * m0 + slopes * (m1 - off * m0)
    return float(cells.sum())


# ---------------------------------------------------------------------------
# Gauss hypergeometric function
# ---------------------------------------------------------------------------

def _is_nonpositive_int(v: float, tol: float = 1e-12) -> bool:
    return v <= tol and abs(v - round(v)) < tol


def _series_2f1(a: float, b: float, c: float, z, tol: float = 1e-16,
                max_terms: int = 200_000):
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    for n in range(max_terms):
        term = term * ((a + n) * (b + n)) / ((c + n) * (1.0 + n)) * z
        total = total + term
        if np.all(np.abs(term) <= tol * np.maximum(np.abs(total), 1.0)):
            return total
    raise ParameterError("hypergeometric series did not converge")


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z) on |z| <= 1 by power series.

    Near z = 1 with c - a - b > 0 the Euler transformation is applied first;
    at z = 1 the closed gamma-ratio form is used.  On [-1, -1/2) the Pfaff
    transformation (DLMF 15.8.1) maps z to z / (z - 1) in (1/3, 1/2], where
    the series converges.  Terminating series (a or b a nonpositive integer)
    work for any of these paths.
    """
    if _is_nonpositive_int(c):
        raise ParameterError("c must not be a nonpositive integer")
    if abs(z) > 1.0:
        raise ParameterError("series domain is |z| <= 1")
    s = c - a - b
    if z == 1.0:
        if _is_nonpositive_int(a) or _is_nonpositive_int(b):
            pass  # terminating series below handles z = 1
        elif s <= 0:
            raise ParameterError("divergent at z = 1 unless c - a - b > 0")
        else:
            return float(np.exp(gammaln(c) + gammaln(s)
                                - gammaln(c - a) - gammaln(c - b)))
    if z == 0.0:
        return 1.0
    if z < -0.5:
        return float((1.0 - z) ** (-a) * _series_2f1(a, c - b, c, z / (z - 1.0)))
    if z > 0.9 and s > 0 and not (_is_nonpositive_int(a) or _is_nonpositive_int(b)):
        return float((1.0 - z) ** s * _series_2f1(c - a, c - b, c, z))
    return float(_series_2f1(a, b, c, z))


def _2f1_array_near_one(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Vectorized 2F1 on [0, 1] with the z -> 1-z connection where needed.

    Used for mesh evaluation close to z = 1; requires c - a - b and a + b - c
    nonintegral (true in the Hurst regimes handled here).
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    s = c - a - b
    far = z <= 0.95
    if np.any(far):
        out[far] = _series_2f1(a, b, c, z[far])
    near = ~far
    if np.any(near):
        zn = z[near]
        w = 1.0 - zn
        g1 = math.exp(gammaln(c) + gammaln(s) - gammaln(c - a) - gammaln(c - b))
        g2 = math.exp(gammaln(c) + gammaln(-s) - gammaln(a) - gammaln(b))
        t1 = g1 * _series_2f1(a, b, 1.0 - s, w)
        t2 = g2 * w**s * _series_2f1(c - a, c - b, 1.0 + s, w)
        out[near] = t1 + t2
    return out


# ---------------------------------------------------------------------------
# appendix reconstruction of t^{2H}
# ---------------------------------------------------------------------------

@dataclass
class AppendixReport:
    H: float
    T: float
    t_eval: np.ndarray
    reconstruction: np.ndarray
    target: np.ndarray
    max_abs_error: float
    g: FuncOnGrid
    g_l2: float


def _appendix_profile(H: float, T: float, s: np.ndarray) -> np.ndarray:
    """2F1 factor of the reconstruction payload at mesh points s."""
    z = (T - s) / T
    return _2f1_array_near_one(4.0 * H, H - 0.5, H + 0.5, z)


def appendix_reconstruction_check(H: float, T: float = 1.0, m: int = 2000,
                                  window: tuple = (0.05, 0.95)) -> AppendixReport:
    """Reconstruct t^{2H} as a weighted right-sided fractional integral.

    Builds the generating function g in its Euler-transformed form (the 2F1
    factor stays finite at t = 0 because 1 - 4H > 0), applies the operator
    with endpoint-singularity-aware cells, and reports the sup error over the
    interior window.  Valid for H in (0, 1/4).
    """
    if not 0.0 < H < 0.25:
        raise RegimeError("reconstruction regime is H in (0, 1/4)")
    x = cosine_mesh(m, T)
    const = T ** (0.5 - H) / gamma_fn(H + 0.5)
    F = _appendix_profile(H, T, x)
    # payload of the integral: s^{H-1/2} g(s) = u(s) (T-s)^{H-1/2}
    with np.errstate(divide="ignore"):
        u = np.where(x > 0, x ** (4.0 * H - 1.0), 0.0) * const * F
    beta = 0.5 - H
    nu = H - 0.5
    lo, hi = window[0] * T, window[1] * T
    idx = [i for i in range(x.size) if lo <= x[i] <= hi]
    recon = np.empty(len(idx))
    for k, i in enumerate(idx):
        t = x[i]
        val = _right_singular_integral(x, u, t, i, beta, nu)
        recon[k] = t ** (0.5 - H) * val / gamma_fn(beta)
    t_eval = x[idx]
    target = t_eval ** (2.0 * H)
    err = float(np.max(np.abs(recon - target)))
    # g itself: g = (T-s)^{H-1/2} w(s), w = s^{3H-1/2} const F  (finite at T)
    with np.errstate(divide="ignore"):
        w = np.where(x > 0, x ** (3.0 * H - 0.5), 0.0) * const * F
        g_vals = np.where(x < T, (T - x) ** (H - 0.5), np.inf) * w
    g = FuncOnGrid(x, np.where(np.isfinite(g_vals), g_vals, 0.0))
    g_l2 = math.sqrt(_l2_sq_with_right_singularity(x, w, 2.0 * H - 1.0))
    return AppendixReport(H=H, T=T, t_eval=t_eval, reconstruction=recon,
                          target=target, max_abs_error=err, g=g, g_l2=g_l2)


def _l2_sq_with_right_singularity(x: np.ndarray, w: np.ndarray, nu: float) -> float:
    """int w(s)^2 (T-s)^nu ds with pwl w^2 and exact (T-s)^nu moments."""
    T = x[-1]
    w2 = w * w
    r2 = T - x[:-1]
    r1 = T - x[1:]
    m0 = (r2 ** (nu + 1.0) - r1 ** (nu + 1.0)) / (nu + 1.0)
    m1 = (r2 ** (nu + 2.0) - r1 ** (nu + 2.0)) / (nu + 2.0)   # int (T-s)^(nu+1)
    slopes = np.diff(w2) / np.diff(x)
    # s - x_j = (T - x_j) - (T - s)
    cells = w2[:-1] * m0 + slopes * (r2 * m0 - m1)
    return float(cells.sum())


# ---------------------------------------------------------------------------
# truncation identities of the Cameron-Martin spaces
# ---------------------------------------------------------------------------

def cm_truncate_fbm(phi: FuncOnGrid, r: float, H: float):
    """Low-Hurst truncation: phi_r with I^alpha phi_r = (I^alpha phi)(. and r).

    phi_r equals phi on [0, r] and, beyond r, the singular-kernel integral
    (1/(Gamma(1-alpha) Gamma(alpha))) int_0^r phi(s)
    ((r-s)/(x-r))^(alpha-1) / (x-s) ds,
    whose cell moments reduce to incomplete beta functions.  Returns the pair
    (phi_r, sup-norm error of the truncation identity on the mesh).
    Requires H < 1/2; r must be an interior mesh node.
    """
    if not 0.0 < H < 0.5:
        raise RegimeError("this construction needs H in (0, 1/2)")
    alpha = H + 0.5
    x = phi.x
    i_r = phi.index_of(r)
    if i_r == 0:
        raise ParameterError("r must not be 0")
    if i_r == x.size - 1:
        # truncation at the horizon is the identity
        return FuncOnGrid(x, phi.values.copy()), 0.0
    v = phi.values
    out = v.copy()
    pref = 1.0 / (gamma_fn(alpha) * gamma_fn(1.0 - alpha))
    slopes = np.diff(v[: i_r + 1]) / np.diff(x[: i_r + 1])
    u2 = r - x[:i_r]                      # left cell edges in u = r - s
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
    phi_r = FuncOnGrid(x, out)
    y = rl_integral(phi, alpha, "left")
    y_r = np.where(x <= r, y.values, y.values[i_r])
    lhs = rl_integral(phi_r, alpha, "left")
    err = float(np.max(np.abs(lhs.values - y_r)))
    return phi_r, err


def cm_truncate_fbm_high(psi: FuncOnGrid, r: float, H: float):
    """High-Hurst truncation: psi_r with I^beta psi_r = 1_[0,r] I^beta psi.

    beta = H - 1/2.  The truncated image has a jump at r, so psi_r picks up
    an (s - r)^(-beta) singularity; it is obtained from the Marchaud-type
    difference integral, and the forward identity is verified with the
    singular factor handled analytically.  Fractional differentiation is
    ill-posed, hence the intentionally looser verification target.
    Requires H in (1/2, 1); r must be an interior mesh node.
    """
    if not 0.5 < H < 1.0:
        raise RegimeError("this construction needs H in (1/2, 1)")
    beta = H - 0.5
    x = psi.x
    i_r = psi.index_of(r)
    if i_r == 0:
        raise ParameterError("r must not be 0")
    if i_r == x.size - 1:
        return FuncOnGrid(x, psi.values.copy()), 0.0
    g = rl_integral(psi, beta, "left")
    gv = g.values
    out = psi.values.copy()
    slopes = np.diff(gv[: i_r + 1]) / np.diff(x[: i_r + 1])
    pref = -beta / gamma_fn(1.0 - beta)
    for i in range(i_r + 1, x.size):
        s = x[i]
        u2 = s - x[:i_r]
        u1 = s - x[1:i_r + 1]
        m0 = (u1 ** (-beta) - u2 ** (-beta)) / beta
        m1u = (u2 ** (1.0 - beta) - u1 ** (1.0 - beta)) / (1.0 - beta)
        # s - x_j = u2 - u
        cells = gv[:i_r] * m0 + slopes * (u2 * m0 - m1u)
        out[i] = pref * cells.sum()
    psi_r = FuncOnGrid(x, out)

    # forward map: on (r, T] exchange the order of integration, which turns
    # I^beta of the singular tail into the same bounded-kernel integral as in
    # the low-Hurst construction:
    # (I^beta psi_r 1_(r,.))(t) =
    #   -(t-r)^beta / (Gamma(beta) Gamma(1-beta))
    #       int_0^r g(u) (r-u)^(-beta) (t-u)^(-1) du.
    # Only the smooth g is interpolated; the boundary layer of psi_r never
    # enters through its sampled values.
    target = np.where(x <= r, gv, 0.0)
    forward = np.zeros(x.size)
    head = FuncOnGrid(x[: i_r + 1], psi.values[: i_r + 1])
    inv_gb = 1.0 / gamma_fn(beta)
    ap = 1.0 - beta                       # kernel exponent (r-u)^(ap-1)
    pref_b = -1.0 / (gamma_fn(beta) * gamma_fn(1.0 - beta))
    gslopes = np.diff(gv[: i_r + 1]) / np.diff(x[: i_r + 1])
    w2 = r - x[:i_r]                      # cell edges in w = r - u
    w1 = r - x[1:i_r + 1]
    for i in range(1, x.size):
        t = x[i]
        if i <= i_r:
            forward[i] = _left_rl_at(head, beta, t)
            continue
        part_a = inv_gb * _left_rl_tail(head, beta, t)
        d = t - r
        tau2 = w2 / (d + w2)
        tau1 = w1 / (d + w1)
        bdiff = beta_fn(ap, 1.0 - ap) * (
            betainc(ap, 1.0 - ap, tau2) - betainc(ap, 1.0 - ap, tau1))
        m0 = d ** (ap - 1.0) * bdiff
        m1w = (w2**ap - w1**ap) / ap - d * m0
        cells = gv[:i_r] * m0 + gslopes * (w2 * m0 - m1w)
        forward[i] = part_a + pref_b * d**beta * cells.sum()
    err = float(np.max(np.abs(forward - target)))
    return psi_r, err


def _left_rl_at(f: FuncOnGrid, alpha: float, t: float) -> float:
    """(I^alpha f)(t) for t a node of f's mesh."""
    i = f.index_of(t)
    x, v = f.x, f.values
    if i == 0:
        return 0.0
    u2 = t - x[:i]
    u1 = t - x[1:i + 1]
    m0 = (u2**alpha - u1**alpha) / alpha
    m1 = (u2 ** (alpha + 1) - u1 ** (alpha + 1)) / (alpha + 1)
    slopes = np.diff(v[: i + 1]) / np.diff(x[: i + 1])
    return float((v[:i] * m0 + slopes * (u2 * m0 - m1)).sum() / gamma_fn(alpha))


def _left_rl_tail(f: FuncOnGrid, alpha: float, t: float) -> float:
    """int over f's whole mesh of f(s) (t-s)^(alpha-1) ds for t beyond it."""
    x, v = f.x, f.values
    u2 = t - x[:-1]
    u1 = t - x[1:]
    m0 = (u2**alpha - u1**alpha) / alpha
    m1 = (u2 ** (alpha + 1) - u1 ** (alpha + 1)) / (alpha + 1)
    slopes = np.diff(v) / np.diff(x)
    return float((v[:-1] * m0 + slopes * (u2 * m0 - m1)).sum())


# ---------------------------------------------------------------------------
# the K* operator and its isometry calibration
# ---------------------------------------------------------------------------

def _kstar_matrix(x: np.ndarray, H: float, nu: float = 0.0) -> np.ndarray:
    """Weights W with (K0 g)(x_i) = (W g)_i for piecewise-linear g.

    K0 g(t) = t^{1/2-H} (I_{T-}^{1/2-H} s^{H-1/2} g(s))(t); the optional nu
    factors an extra (T-s)^nu singularity out of g analytically.
    """
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
    # payload is s^{H-1/2} (T-s)^{-nu} g(s): fold the pointwise factors in
    with np.errstate(divide="ignore"):
        scale = np.where(x > 0, x ** (H - 0.5), 0.0)
        if nu != 0.0:
            scale = scale * np.where(x < x[-1], (x[-1] - x) ** (-nu), 0.0)
    return W * scale[None, :]


def kstar(g: FuncOnGrid, H: float, c_h: float, end_exponent: float = 0.0) -> FuncOnGrid:
    """Apply the weighted fractional operator K* with the given constant.

    end_exponent declares a (T-s)^end_exponent factor inside g that should be
    integrated analytically (used when g itself blows up at T).
    """
    if not 0.0 < H < 0.5:
        raise RegimeError("K* is the low-Hurst transfer operator, H in (0, 1/2)")
    W = _kstar_matrix(g.x, H, nu=end_exponent)
    vals = W @ np.where(np.isfinite(g.values), g.values, 0.0)
    vals[-1] = 0.0
    if g.x[0] == 0.0:
        vals[0] = vals[1]                 # t = 0 is outside the formula
    return FuncOnGrid(g.x, c_h * vals)


def hh_step_norm(ctx: GramContext, f: FuncOnGrid) -> float:
    """Gram norm of the step-function restriction of f to the context grid.

    Step values are cell midpoints of f; this is the computable stand-in for
    the deterministic-integrand norm of a continuous function.
    """
    pts = ctx.grid.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    step = f.interp(mids)
    return math.sqrt(max(ctx.inner(step, step), 0.0))


def calibrate_c_h(H: float, ctx: GramContext, m: int = 600,
                  targets: Optional[Sequence[float]] = None,
                  ridge: float = 1e-6, fail_above: float = 0.05):
    """Calibrate the constant in K* from indicator recovery.

    For several grid times t*, solve the regularized least-squares problem
    K0 g = 1_(0, t*] on a dense mesh; the isometry forces
    c_H = ||g||_L2 / ||1_(0,t*]|| = ||g||_L2 / t*^H.  The spread of the
    per-target constants is the calibration residual.
    """
    T = ctx.grid.T
    x = cosine_mesh(m, T)
    W = _kstar_matrix(x, H)
    if targets is None:
        qs = [0.3, 0.45, 0.6, 0.75]
        targets = [ctx.grid.points[max(1, int(round(q * ctx.grid.n)))] for q in qs]
    lam = ridge * np.linalg.norm(W, ord="fro") / math.sqrt(W.shape[0])
    A = np.vstack([W, lam * np.eye(x.size)])
    estimates = []
    for t_star in targets:
        y = (x <= t_star + 1e-12).astype(float)
        y[0] = 0.0
        rhs = np.concatenate([y, np.zeros(x.size)])
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        norm_l2 = math.sqrt(float(np.trapezoid(sol**2, x)))
        estimates.append(norm_l2 / t_star**H)
    estimates = np.asarray(estimates)
    c_h = float(np.exp(np.mean(np.log(estimates))))
    spread = float(np.max(np.abs(estimates - c_h)) / c_h)
    if spread > fail_above:
        raise CalibrationError(
            f"indicator-recovery constants disagree by {spread:.1%}"
        )
    return c_h, spread
