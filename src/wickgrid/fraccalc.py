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
from typing import Callable

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc, gamma as gamma_fn, gammaln, gammasgn

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
        if (x.ndim != 1 or x.size < 2 or not np.all(np.isfinite(x))
                or np.any(np.diff(x) <= 0)):
            raise ParameterError("mesh must be 1-d, finite and strictly increasing")
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
        if not math.isfinite(t):
            raise GridAlignmentError(f"{t!r} is not a mesh node")
        i = int(np.argmin(np.abs(self.x - t)))
        if abs(self.x[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise GridAlignmentError(f"{t!r} is not a mesh node")
        return i

    def __repr__(self) -> str:
        return f"FuncOnGrid(m={self.x.size - 1}, [{self.x[0]}, {self.x[-1]}])"


# ---------------------------------------------------------------------------
# product-integration cell weights
# ---------------------------------------------------------------------------
# One row of a product-integration rule integrates the piecewise-linear
# payload v_j + slope_j (s - x_j) against a singular kernel over the cells
# [x_j, x_{j+1}].  The cell integral is v_j c0_j + slope_j c1_j; the weights
# are differences of kernel primitives at the n + 1 edges of the row, so each
# edge is evaluated once and every interior edge serves both of its cells.

def _cell_weights(e: np.ndarray, a: float):
    """Weights (c0, c1) of the power kernel u^(a-1), u = |t - s|, on one row.

    e holds the distances |t - x_j| of the row's edges in mesh order; a must
    not be 0 or -1.  When t lies right of the cells (e decreasing) the cell
    integral is v c0 + slope c1; when it lies left of them (e increasing)
    the same weights give slope c1 - v c0.
    """
    p = e**a
    q = e ** (a + 1.0)
    c0 = (p[:-1] - p[1:]) / a
    return c0, e[:-1] * c0 - (q[:-1] - q[1:]) / (a + 1.0)


def _beta_cell_weights(e: np.ndarray, L: float, b: float, nu: float):
    """Weights (c0, c1) of the kernel (s-t)^(b-1) (T-s)^nu right of t.

    e = x_j - t are the row's edges as distances from t and L = T - t; the
    cell integral is v c0 + slope c1.  The moments are regularized incomplete
    beta functions at e / L.  Requires b > 0, nu > -1.
    """
    tau = e / L
    b0 = beta_fn(b, nu + 1.0) * betainc(b, nu + 1.0, tau)
    b1 = beta_fn(b + 1.0, nu + 1.0) * betainc(b + 1.0, nu + 1.0, tau)
    m0 = L ** (b + nu) * np.diff(b0)
    m1 = L ** (b + nu + 1.0) * np.diff(b1)          # int (s-t) * kernel
    return m0, m1 - e[:-1] * m0


def _resolvent_rows(x: np.ndarray, v: np.ndarray, r: float, i_r: int, a: float):
    """Yield (d, S) for every node x_i beyond r, with d = x_i - r and
    S = int_0^r f(s) (r-s)^(a-1) / (x_i - s) ds, f piecewise linear on
    x[:i_r + 1] and 0 < a < 1.

    With u = r - s the cell moments of u^(a-1) / (d + u) are incomplete beta
    functions at u / (d + u); the power moments of u^(a-1) do not depend on
    the row and are formed once.
    """
    e = r - x[: i_r + 1]                  # cell edges in u = r - s
    pw0, _ = _cell_weights(e, a)
    slopes = np.diff(v[: i_r + 1]) / np.diff(x[: i_r + 1])
    bnorm = beta_fn(a, 1.0 - a)
    for d in x[i_r + 1:] - r:
        b = betainc(a, 1.0 - a, e / (d + e))
        m0 = d ** (a - 1.0) * (bnorm * (b[:-1] - b[1:]))
        # s - x_j = e_j - u
        yield d, (v[:i_r] * m0 + slopes * (e[:-1] * m0 - (pw0 - d * m0))).sum()


# ---------------------------------------------------------------------------
# Riemann-Liouville integrals (product integration, exact on pwl payloads)
# ---------------------------------------------------------------------------

def _rl_cells(x: np.ndarray, v: np.ndarray, alpha: float, side: str):
    """Yield (i, cells) whose sum is Gamma(alpha) (I^alpha f)(x_i), per node."""
    slopes = np.diff(v) / np.diff(x)
    if side == "left":
        for i in range(1, x.size):
            c0, c1 = _cell_weights(x[i] - x[:i + 1], alpha)
            yield i, v[:i] * c0 + slopes[:i] * c1
    else:
        for i in range(x.size - 1):
            c0, c1 = _cell_weights(x[i:] - x[i], alpha)
            yield i, slopes[i:] * c1 - v[i:-1] * c0


def rl_integral(f: FuncOnGrid, alpha: float, side: str = "left") -> FuncOnGrid:
    """Fractional integral of order alpha > 0 of a piecewise-linear function.

    Kernel moments int (t-s)^(alpha-1) {1, s} ds are integrated analytically
    per cell, so the result is exact for piecewise-linear f up to roundoff.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ParameterError("alpha must be positive and finite")
    if side not in ("left", "right"):
        raise ParameterError("side must be 'left' or 'right'")
    sums = np.zeros(f.x.size)
    for i, cells in _rl_cells(f.x, f.values, alpha, side):
        sums[i] = cells.sum()
    return FuncOnGrid(f.x, 1.0 / gamma_fn(alpha) * sums)


# ---------------------------------------------------------------------------
# Gauss hypergeometric function
# ---------------------------------------------------------------------------

def _is_nonpositive_int(v: float) -> bool:
    return v <= 1e-12 and abs(v - round(v)) < 1e-12


def _gamma_sign(*xs: float) -> float:
    """Exact sign, +1 or -1, of prod Gamma(x): exp of a gammaln sum drops it.

    A pole counts as +1, since the gamma ratio it divides is exp(-inf) = 0.
    """
    return float(np.prod(np.nan_to_num(gammasgn(xs), nan=1.0)))


def _series_2f1(a: float, b: float, c: float, z):
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    for n in range(200_000):
        term = term * ((a + n) * (b + n)) / ((c + n) * (1.0 + n)) * z
        total = total + term
        if np.all(np.abs(term) <= 1e-16 * np.maximum(np.abs(total), 1.0)):
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
    if not all(math.isfinite(v) for v in (a, b, c, z)):
        raise ParameterError("2F1 arguments a, b, c and z must be finite")
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
            return _gamma_sign(c, s, c - a, c - b) * float(
                np.exp(gammaln(c) + gammaln(s) - gammaln(c - a) - gammaln(c - b)))
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
        g1 = _gamma_sign(c, s, c - a, c - b) * math.exp(
            gammaln(c) + gammaln(s) - gammaln(c - a) - gammaln(c - b))
        g2 = _gamma_sign(c, -s, a, b) * math.exp(
            gammaln(c) + gammaln(-s) - gammaln(a) - gammaln(b))
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
    if not idx:
        raise ParameterError(
            f"no mesh node of m={m} lies in the window [{lo}, {hi}]; refine the mesh")
    slopes = np.diff(u) / np.diff(x)
    recon = np.zeros(len(idx))
    for k, i in enumerate(idx):
        if i == m:
            continue                      # t = T: the integral is empty
        t = x[i]
        c0, c1 = _beta_cell_weights(x[i:] - t, x[-1] - t, beta, nu)
        val = float((u[i:-1] * c0 + slopes[i:] * c1).sum())
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
    w2 = w * w
    c0, c1 = _cell_weights(x[-1] - x, nu + 1.0)
    return float((w2[:-1] * c0 + np.diff(w2) / np.diff(x) * c1).sum())


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
    out = phi.values.copy()
    pref = 1.0 / (gamma_fn(alpha) * gamma_fn(1.0 - alpha))
    rows = _resolvent_rows(x, phi.values, r, i_r, alpha)
    for i, (d, integral) in enumerate(rows, i_r + 1):
        out[i] = pref * d ** (1.0 - alpha) * integral
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
    # I^beta psi row by row; the rows beyond r also give their head over [0, r]
    sums = np.zeros(x.size)
    heads = np.zeros(x.size)
    for i, cells in _rl_cells(x, psi.values, beta, "left"):
        sums[i] = cells.sum()
        heads[i] = cells[:i_r].sum()
    inv_gb = 1.0 / gamma_fn(beta)
    gv = inv_gb * sums
    out = psi.values.copy()
    slopes = np.diff(gv[: i_r + 1]) / np.diff(x[: i_r + 1])
    pref = -beta / gamma_fn(1.0 - beta)
    for i in range(i_r + 1, x.size):
        c0, c1 = _cell_weights(x[i] - x[: i_r + 1], -beta)
        out[i] = pref * (gv[:i_r] * c0 + slopes * c1).sum()
    psi_r = FuncOnGrid(x, out)

    # forward map: on (r, T] exchange the order of integration, which turns
    # I^beta of the singular tail into the same bounded-kernel integral as in
    # the low-Hurst construction:
    # (I^beta psi_r 1_(r,.))(t) =
    #   -(t-r)^beta / (Gamma(beta) Gamma(1-beta))
    #       int_0^r g(u) (r-u)^(-beta) (t-u)^(-1) du.
    # Only the smooth g is interpolated; the boundary layer of psi_r never
    # enters through its sampled values.  On [0, r] psi_r = psi.
    target = np.where(x <= r, gv, 0.0)
    forward = sums / gamma_fn(beta)
    pref_b = -1.0 / (gamma_fn(beta) * gamma_fn(1.0 - beta))
    rows = _resolvent_rows(x, gv, r, i_r, 1.0 - beta)
    for i, (d, integral) in enumerate(rows, i_r + 1):
        forward[i] = inv_gb * heads[i] + pref_b * d**beta * integral
    err = float(np.max(np.abs(forward - target)))
    return psi_r, err


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
    gb = gamma_fn(beta)
    h = np.diff(x)
    W = np.zeros((m1, m1))
    for i in range(m1 - 1):
        t = x[i]
        if t <= 0.0:
            continue
        c0, c1 = _beta_cell_weights(x[i:] - t, x[-1] - t, beta, nu)
        w_right = c1 / h[i:]
        pref = t**beta / gb
        W[i, i:-1] += pref * (c0 - w_right)
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
    if not (math.isfinite(end_exponent) and end_exponent > -1.0):
        raise ParameterError("end_exponent must be finite and > -1")
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
    return ctx.norm(f.interp(mids))


def calibrate_c_h(H: float, ctx: GramContext, m: int = 600):
    """Calibrate the constant in K* from indicator recovery.

    For several grid times t*, solve the regularized least-squares problem
    K0 g = 1_(0, t*] on a dense mesh; the isometry forces
    c_H = ||g||_L2 / ||1_(0,t*]|| = ||g||_L2 / t*^H.  The spread of the
    per-target constants is the calibration residual; a grid too coarse for
    two distinct targets, whose spread would be 0 by construction, is a
    ParameterError, as is a mesh with no node below some target.
    """
    targets = [ctx.grid.points[max(1, int(round(q * ctx.grid.n)))]
               for q in (0.3, 0.45, 0.6, 0.75)]
    if len(set(targets)) < 2:
        raise ParameterError(f"calibrate_c_h needs two distinct target times t*, and a grid "
                             f"of {ctx.grid.n} interval(s) rounds all four to {targets[0]}")
    T = ctx.grid.T
    t_low = min(targets)
    x = cosine_mesh(max(m, 1), T)
    # a target below the first positive node has a zero indicator and a zero
    # recovery, whose log would make the spread NaN or infinite
    if m < 1 or x[1] > t_low + 1e-12:
        raise ParameterError(f"calibrate_c_h mesh of m = {m} cell(s) has no node in "
                             f"(0, {t_low:g}], so that target recovers zero; refine the mesh")
    W = _kstar_matrix(x, H)
    lam = 1e-6 * np.linalg.norm(W, ord="fro") / math.sqrt(W.shape[0])
    # [W; lam I] built in place: W is dropped before the solves
    A = np.zeros((2 * x.size, x.size))
    A[:x.size] = W
    del W
    np.fill_diagonal(A[x.size:], lam)
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
    if spread > 0.05:
        raise CalibrationError(
            f"indicator-recovery constants disagree by {spread:.1%}"
        )
    return c_h, spread
