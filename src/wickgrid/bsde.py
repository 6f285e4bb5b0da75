"""Linear BSDE representation and the non-existence certificate.

The grid problem is dY = (a Y + G) d(gamma) + Z d(c underline) + Z d(wick X)
with terminal value xi.  Deterministic BV integrals use the left-point rule;
the integrating factor keeps the exponential form A(t) = exp(int_t^T a dgamma),
and the weak verification therefore integrates the a Y term with the matching
product weight (1 - e^{-a dgamma}) at the right endpoint, which makes the
represented solution satisfy the S-transform equation exactly instead of up
to O(dgamma^2).

Y is produced at chaos level through the shifted quasi-conditional
expectation; Z only where a closed form exists (Wick-exponential terminal
data), since an exact predictable representation does not exist on a grid.

The represented and closed-form solutions and the weak check compute under
np.errstate(over="ignore", invalid="ignore"): a value past the double range
reads inf or nan without a warning, and a check fails it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

# build_gram is unused here; perfbench/test_tracer.py checks the tracer rebinds bsde.build_gram
from .covariance import (FractionalBrownianMotion, GramContext, TimeGrid, _check_seed,
                         _check_trials, _gram_from_cov, build_gram)
from .chaos import ChaosVector, GramImage, WickCombo
from .errors import ParameterError, ShapeError, UnsupportedOperationError, _worst
from .firstchaos import operator_norm
from .qce import (
    ShiftContext,
    _escape_from,
    domain_diagnostic,
    shifted_qce,
)

__all__ = [
    "BSDEProblem",
    "BSDESolution",
    "WickZ",
    "integrating_factor",
    "represent_Y",
    "represent_solution",
    "xi_shifted",
    "wick_exponential_solution",
    "verify_solution_weak",
    "NonexistenceCertificate",
    "nonexistence_certificate",
    "Example33Report",
    "example33_residual",
]


class BSDEProblem:
    """Coefficients (a, gamma, c, G, xi) over a Gram context.

    a: one value per increment (step function, left-point convention);
    gamma: values at the N+1 grid nodes; c: shift vector in increment
    coordinates; G: adapted driver, one ChaosVector (or None) per node with
    node-i entries supported on coordinates <= i; xi: terminal condition.
    """

    def __init__(self, ctx: GramContext, a, gamma, c=None, G=None,
                 xi: Optional[ChaosVector] = None):
        n = ctx.n
        self.ctx = ctx
        self.a = np.zeros(n) if a is None else np.asarray(a, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
        if self.a.shape != (n,):
            raise ShapeError("a needs one value per increment")
        if self.gamma.shape != (n + 1,):
            raise ShapeError("gamma needs one value per grid node")
        if self.c.shape != (n,):
            raise ShapeError("c needs one value per increment")
        if not np.all(np.isfinite(self.gamma)):
            raise ParameterError("gamma must be finite on the grid")
        self.G = [None] * (n + 1) if G is None else list(G)
        if len(self.G) != n + 1:
            raise ShapeError("G needs one entry per grid node")
        for i, gi in enumerate(self.G):
            if gi is not None and gi.support_bound() > i:
                raise ParameterError(
                    f"driver entry at node {i} has chaos mass beyond coordinate {i}"
                )
        if xi is None:
            raise ParameterError("terminal condition xi is required")
        self.xi = xi

    @property
    def dgamma(self) -> np.ndarray:
        return np.diff(self.gamma)

    def has_driver(self) -> bool:
        return any(g is not None for g in self.G)


class WickZ:
    """Closed-form Z: slot value on cell j is f_j times a Wick-combo factor."""

    def __init__(self, cells: Sequence[tuple]):
        self.cells = list(cells)        # (f_j, WickCombo), one per increment

    def cell_s(self, ctx: GramContext, j: int, h) -> float:
        fj, combo = self.cells[j]
        return fj * combo.s(ctx, h)


@dataclass
class BSDESolution:
    Y_nodes: List[ChaosVector]
    A: np.ndarray
    xi_tilde: ChaosVector
    Z: Optional[object] = None          # WickZ or ChaosField


def integrating_factor(problem: BSDEProblem) -> np.ndarray:
    """A(t_i) = exp(sum_{j>i} a_j dgamma_j); A(T) = 1.  An A or 1/A past the double
    range is a ParameterError naming its first node; a NaN a is left to the checks."""
    with np.errstate(all="ignore"):
        A = np.exp(np.concatenate([np.cumsum((problem.a * problem.dgamma)[::-1])[::-1], [0.0]]))
        bad = np.flatnonzero(np.isinf(A) | np.isinf(1.0 / A))
    if bad.size:
        raise ParameterError(f"integrating factor A = {float(A[bad[0]])!r} at node {bad[0]}: "
                             "exp(int a dgamma) leaves the double range; use a smaller |a|")
    return A


def _driver_sums(problem: BSDEProblem, A: np.ndarray) -> List[Optional[ChaosVector]]:
    """Left-point integrals sum_{j<=i} A_{j-1} G_{j-1} dgamma_j at nodes i = 0..N.

    One running sum; None while it is zero.
    """
    run = None
    sums = [run]
    for g, A_j, dg in zip(problem.G, A, problem.dgamma):
        if g is not None:
            term = g.scaled(A_j * dg)
            run = term if run is None else run.add(term)
        sums.append(run)
    return sums


@np.errstate(over="ignore", invalid="ignore")
def _represented(problem: BSDEProblem, nodes) -> tuple:
    """(A, xi~, [Y_i for i in nodes]) of the represented solution, each Y_i as
    represent_Y gives it; A, the driver integrals and xi~ are formed once."""
    ctx = problem.ctx
    A = integrating_factor(problem)
    sums = _driver_sums(problem, A)
    xt = problem.xi if sums[-1] is None else problem.xi.sub(sums[-1])
    Y = []
    for i in nodes:
        y = shifted_qce(ShiftContext(ctx, ctx.grid.points[i], problem.c), xt)
        if sums[i] is not None:
            y = y.add(sums[i])
        Y.append(y.scaled(1.0 / A[i]))
    return A, xt, Y


def xi_shifted(problem: BSDEProblem) -> ChaosVector:
    """xi~ = xi - int_0^T A G dgamma (left-point rule)."""
    return _represented(problem, [])[1]


def represent_Y(problem: BSDEProblem, t: float) -> ChaosVector:
    """Node value of the represented solution.

    Y_t = A(t)^{-1} [ shifted-QCE of xi~ at (t, c) + int_0^t A G dgamma ].
    Exact for finite-order xi and G; at t = T it telescopes back to xi.
    """
    i = problem.ctx.grid.index_of(t)
    return _represented(problem, [i])[2][0]


def represent_solution(problem: BSDEProblem) -> BSDESolution:
    """The represented solution at every grid node, each as represent_Y gives
    it; the N+1 nodes cost O(N) chaos additions, not O(N^2)."""
    A, xt, Y = _represented(problem, range(problem.ctx.n + 1))
    return BSDESolution(Y_nodes=Y, A=A, xi_tilde=xt)


@np.errstate(over="ignore", invalid="ignore")
def wick_exponential_solution(problem: BSDEProblem, f, K: int = 12) -> BSDESolution:
    """Closed-form solution for terminal data e^(wick I(f)) and zero driver.

    Y_t = beta(t) e^(wick I(Gamma_t f)) with
    beta(t) = exp(-int_t^T a dgamma - <(Id - Gamma_t) f, c>), and the Z slot
    on cell j is f_j Y_{t_{j-1}}.  beta(T) = 1.  A beta that is 0 or inf (or
    whose exponential overflows) at some node is a ParameterError naming the
    node, as integrating_factor refuses A; a NaN coefficient is left to fail
    the weak check.
    """
    if problem.has_driver():
        raise UnsupportedOperationError(
            "closed form needs zero driver; use represent_solution"
        )
    ctx = problem.ctx
    f = np.asarray(f, dtype=float)
    if f.shape != (ctx.n,):
        raise ShapeError("f must have one entry per increment")
    A = integrating_factor(problem)
    combos, chaos_nodes = [], []
    for i in range(ctx.n + 1):
        fp = f.copy()
        fp[i:] = 0.0
        try:
            beta = math.exp(-ctx.inner(f - fp, problem.c)) / float(A[i])
        except OverflowError:
            beta = math.inf
        if beta == 0.0 or beta == math.inf:
            raise ParameterError(f"solution factor beta = {beta!r} at node {i}: "
                                 "exp(-<f - f_t, c>) / A leaves the double range; use a "
                                 "smaller shift c or |a|")
        combos.append(WickCombo.exponential(fp, alpha=beta))
        chaos_nodes.append(combos[-1].to_chaos(ctx, K))
    return BSDESolution(Y_nodes=chaos_nodes, A=A, xi_tilde=problem.xi,
                        Z=WickZ(zip(f.tolist(), combos)))


@np.errstate(over="ignore", invalid="ignore")
def verify_solution_weak(problem: BSDEProblem, solution: BSDESolution,
                         trials: int, seed: int) -> float:
    """Max residual of the S-transform equation over all grid pairs v <= t.

    For `trials` random directions h and every grid v, the equation is probed at
    h^c_v = Gamma_v^*(h + c) - c (`ShiftContext.shifted_direction`), where the Z
    integrals vanish identically; the a Y term carries the product weight
    (1 - e^{-a dgamma}) at the right node so the exponential integrating factor
    closes the identity exactly. When Z is supplied, the full equation is
    additionally checked per cell in multiplicative (log-S) form against the Z
    slot values at unshifted directions.  Each probe direction pairs the nodes
    its equations read in one `GramImage.s_values` call.  A negative, bool or
    float seed is a ParameterError.
    """
    _check_trials(trials)
    _check_seed(seed)
    ctx = problem.ctx
    n = ctx.n
    dg = problem.dgamma
    a_w = (1.0 - np.exp(-problem.a * dg)).tolist()      # product-rule weights
    dg = dg.tolist()
    rng = np.random.default_rng(seed)
    worst = 0.0
    Y = solution.Y_nodes
    if len(Y) != n + 1:
        raise ShapeError("solution must supply Y at every grid node")
    # the S-values the equations read, in the order they read them: Y_n, xi
    # (unless it is Y_n), then Y_i and a given G_i for i = n-1 ... 0; the
    # equation probed at node v reads the first ends[v] of them
    nodes = [Y[n]] if problem.xi is Y[n] else [Y[n], problem.xi]
    ends = [len(nodes)] * (n + 1)
    for i in range(n - 1, -1, -1):
        nodes += [Y[i]] if problem.G[i] is None else [Y[i], problem.G[i]]
        ends[i] = len(nodes)
    splits = [ShiftContext(ctx, t, problem.c) for t in ctx.grid.points]
    for _ in range(int(trials)):
        h = ctx.unit(rng.standard_normal(n))
        for iv, sc in enumerate(splits):
            # only nodes iv..n enter the equation probed at h^c_v = Gamma_v^*(h + c) - c
            image = GramImage(ctx, sc.shifted_direction(h))
            s = iter(image.s_values(nodes[:ends[iv]]))
            s_next = next(s)
            x = s_next if problem.xi is Y[n] else next(s)
            worst = _worst(worst, abs(s_next - x))
            tail = 0.0
            for i in range(n - 1, iv - 1, -1):
                s_i = next(s)
                g = 0.0 if problem.G[i] is None else next(s)
                tail += a_w[i] * s_next + g * dg[i]
                worst = _worst(worst, abs(s_i - x + tail))
                s_next = s_i
    if solution.Z is not None:
        worst = _worst(worst, _verify_full_equation(problem, solution, trials, seed + 1))
    return worst


def _verify_full_equation(problem: BSDEProblem, solution: BSDESolution,
                          trials: int, seed: int) -> float:
    """Per-cell log-S residual of the full equation including the Z terms.

    ln S Y_{t_j} - ln S Y_{t_{j-1}} = a_j dgamma_j + (S Z_cell)(h) <e_j, h+c> / S Y_{t_{j-1}}
    holds exactly for the multiplicative closed-form solutions; candidates
    with a wrong Z break it at first order.
    """
    ctx = problem.ctx
    n = ctx.n
    dg = problem.dgamma
    rng = np.random.default_rng(seed)
    worst = 0.0
    Z = solution.Z
    for _ in range(int(trials)):
        h = ctx.unit(rng.standard_normal(n))
        hc = h + problem.c
        image = GramImage(ctx, h)
        s = np.array(image.s_values(solution.Y_nodes))
        if np.any(s <= 0.0):
            raise UnsupportedOperationError(
                "full-equation check needs positive S-values "
                "(multiplicative solutions)"
            )
        for j in range(1, n + 1):
            q = float(ctx.G[j - 1] @ hc)        # <e_j, h + c>
            u = Z.cell_s(ctx, j - 1, h)
            res = abs(math.log(s[j]) - math.log(s[j - 1])
                      - problem.a[j - 1] * dg[j - 1] - u * q / s[j - 1])
            worst = _worst(worst, res)
    return worst


# ---------------------------------------------------------------------------
# non-existence certificate
# ---------------------------------------------------------------------------

@dataclass
class NonexistenceCertificate:
    rho: float
    r: float
    opnorm: float
    escape: np.ndarray
    partial_sums: np.ndarray
    lower_bounds: np.ndarray
    bound_ok: bool
    tail_ratio: float
    coefficients: dict

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "r": self.r,
            "opnorm": self.opnorm,
            "escape_direction": list(map(float, self.escape)),
            "S_K": [float(s) for s in self.partial_sums],
            "geometric_lower_bound": [float(b) for b in self.lower_bounds],
            "bound_ok": bool(self.bound_ok),
            "tail_ratio_S": float(self.tail_ratio),
            "coefficients": self.coefficients,
        }


def nonexistence_certificate(sc: ShiftContext, a=None, G=None,
                             K_max: int = 12) -> NonexistenceCertificate:
    """Certificate that some square-integrable terminal value defeats (a, gamma, c, G)
    at the time r and shift c of sc.

    Construction: take the escape direction f (norm < 1 < truncated norm,
    <f, c_r> >= 0), generate xi~ with coefficients f^(x k) / sqrt(k!), and
    report rho = |Gamma_r f|^2 > 1 together with the partial sums S_K, each
    verified against the geometric lower bound sum_{k<=K} rho^k.  The actual
    terminal value is xi = xi~ + int_0^T A G dgamma (gamma = t), echoed in coefficients;
    without a driver A is not formed, and every a gives the same certificate.
    On a martingale grid the construction refuses: the equation is well-posed
    there (time-changed Brownian representation), so no certificate exists.
    """
    if K_max < 1:
        raise ParameterError("K_max must be >= 1")
    ctx = sc.ctx
    problem = BSDEProblem(ctx, a, ctx.grid.points, c=sc.c, G=G,
                          xi=ChaosVector.constant(0.0, ctx.n))
    geo = operator_norm(ctx, sc.r)
    f = _escape_from(sc, geo)
    rho = ctx.norm_sq(sc.op.forward(f))
    diag = domain_diagnostic(sc, f, K_max)
    bounds = np.cumsum(rho ** np.arange(K_max + 1))
    ok = bool(np.all(diag.partial_sums >= bounds * (1.0 - 1e-12)))
    with np.errstate(invalid="ignore"):     # inf / inf past the double range reads nan
        tail_ratio = float(diag.partial_sums[-1] / diag.partial_sums[-2])
    shift = _driver_sums(problem, integrating_factor(problem))[-1] if problem.has_driver() else None
    coeffs_echo = {
        "a": list(map(float, problem.a)),
        "gamma": list(map(float, problem.gamma)),
        "c": list(map(float, problem.c)),
        "driver_zero": shift is None,
        "driver_shift_l2": 0.0 if shift is None else shift.l2_norm(ctx),
        "escape_shift_pairing": ctx.inner(f, sc.c_r),
        "K_max": int(K_max),
    }
    return NonexistenceCertificate(
        rho=float(rho), r=sc.r, opnorm=float(geo.opnorm), escape=f,
        partial_sums=diag.partial_sums, lower_bounds=bounds, bound_ok=ok,
        tail_ratio=tail_ratio, coefficients=coeffs_echo,
    )


# ---------------------------------------------------------------------------
# quadratic terminal-data residual experiment
# ---------------------------------------------------------------------------

def _example33_residual_sq(H: float, n: int, T: float) -> float:
    """Exact second moment of the grid residual for Y = (X + V)^2 data.

    With left-point Z = 2(X + V) the residual telescopes to
    sum_j [(dX_j + dV_j)^2 - G_jj]; its second moment follows from the
    Gaussian fourth-moment factorization:
    2 sum G_jk^2 + 4 dV' G dV + (sum dV_j^2)^2.  No sampling involved, and no
    factorization: the moment reads G alone.
    """
    grid = TimeGrid.uniform(n, T)
    G = _gram_from_cov(FractionalBrownianMotion(H), grid)
    dV = np.diff(grid.points ** (2.0 * H))
    with np.errstate(all="ignore"):
        m2 = float(2.0 * np.sum(G * G) + 4.0 * dV @ G @ dV + np.sum(dV**2) ** 2)
    if not 0.0 < m2 < math.inf:
        raise ParameterError(f"residual moment {m2!r} at T = {T!r} leaves the double range")
    return m2


@dataclass
class Example33Report:
    H: float
    T: float
    grid_sizes: np.ndarray
    residuals: np.ndarray
    slope: float


def example33_residual(H: float, grid_sizes: Sequence[int], T: float = 1.0) -> Example33Report:
    """L2 residual of the quadratic-data identity across dyadic grids.

    The fitted log-log slope is ~ -1/2 at H = 1/2, negative while the
    quadratic-variation obstruction is absent, and levels off (>= 0) once
    H <= 1/4, where the integrand leaves the deterministic-integrand space.
    """
    ns = np.asarray(list(grid_sizes), dtype=int)
    distinct = np.unique(ns).size
    if distinct < 2:
        raise ParameterError(f"need at least two grid sizes to fit a slope, got {distinct} "
                             "distinct")
    res = np.array([math.sqrt(_example33_residual_sq(H, int(n), T)) for n in ns])
    slope = float(np.polyfit(np.log(ns.astype(float)), np.log(res), 1)[0])
    return Example33Report(H=float(H), T=float(T), grid_sizes=ns,
                           residuals=res, slope=slope)
