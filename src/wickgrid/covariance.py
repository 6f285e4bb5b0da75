"""Covariance models for centered Gaussian processes and their grid Gram matrices.

All downstream linear algebra runs in the *increment basis*: for a grid
0 = t_0 < t_1 < ... < t_N the canonical coordinates of a first-chaos element
are the coefficients of Delta X_i = X_{t_i} - X_{t_{i-1}}.  The Gram matrix

    G[i, j] = E[Delta X_{i+1} Delta X_{j+1}]

is therefore the second difference of the covariance function R(s, t).
Indicator functions 1_(0, t_m] have coefficient vector (1, ..., 1, 0, ..., 0)
with m ones, so the quadratic form of G on indicator vectors reproduces R at
the grid nodes exactly.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import (
    ConditioningError,
    GridAlignmentError,
    ModelGridError,
    ParameterError,
)

__all__ = [
    "TimeGrid",
    "BrownianMotion",
    "FractionalBrownianMotion",
    "WeightedFbm",
    "SumModel",
    "build_gram",
    "GramContext",
    "sample_increments",
]

_ALIGN_TOL = 1e-9
# most negative Gram eigenvalue, relative to trace(G)/N, that is still roundoff
_EIG_FLOOR_REL = 1e-10
# condition estimate above which a Gram context sets conditioning_warning
_COND_CAP = 1e12


def _nearest_node(pts: np.ndarray, ta: np.ndarray):
    """Nearest node of the increasing pts to each time in ta, and whether it is aligned."""
    # upper neighbour in 1..N, then step down when the lower one is at least as near
    m = np.searchsorted(pts[1:-1], ta) + 1
    m = m - (ta - pts[m - 1] <= pts[m] - ta)
    ok = np.abs(pts[m] - ta) <= _ALIGN_TOL * np.maximum(1.0, np.abs(ta))
    return m, ok & np.isfinite(ta)


class TimeGrid:
    """Strictly increasing time nodes t_0 = 0 < t_1 < ... < t_N."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ParameterError("grid needs at least two nodes")
        if pts[0] != 0.0:
            raise ParameterError("grid must start at t_0 = 0")
        if np.any(np.diff(pts) <= 0):
            raise ParameterError("grid nodes must be strictly increasing")
        self.points = pts
        self.n = pts.size - 1          # number of increments
        self.T = float(pts[-1])

    @classmethod
    def uniform(cls, n: int, T: float = 1.0) -> "TimeGrid":
        _check_count("n", n, 1, below="a uniform grid needs n >= 1 increments, got {value}")
        if not (math.isfinite(T) and T > 0.0):
            raise ParameterError(f"a uniform grid needs a finite T > 0, got T = {T!r}")
        return cls(np.linspace(0.0, T, n + 1))

    def refine(self, k: int = 2) -> "TimeGrid":
        """Insert k-1 equally spaced nodes into every cell; k must be an int >= 1."""
        _check_count("k", k, 1, below="refine needs k >= 1, got {value}")
        pts = self.points
        fine = np.concatenate(
            [np.linspace(pts[i], pts[i + 1], k, endpoint=False) for i in range(self.n)]
            + [pts[-1:]]
        )
        return TimeGrid(fine)

    def index_of(self, t):
        """Node index m with t_m = t, up to a tight absolute/relative tolerance.

        Broadcasts over an array of times; a scalar time gives an int.
        """
        ta = np.asarray(t, dtype=float)
        m, ok = _nearest_node(self.points, ta)
        if not np.all(ok):
            bad = t if ta.ndim == 0 else float(ta[~ok].flat[0])
            raise GridAlignmentError(f"time {bad!r} is not a grid node")
        return int(m) if ta.ndim == 0 else m

    def indicator(self, t: float) -> np.ndarray:
        """Increment-basis coefficients of 1_(0, t]."""
        m = self.index_of(t)
        v = np.zeros(self.n)
        v[:m] = 1.0
        return v

    def indicator_interval(self, a: float, b: float) -> np.ndarray:
        """Increment-basis coefficients of 1_(a, b]."""
        return self.indicator(b) - self.indicator(a)

    def __repr__(self) -> str:
        return f"TimeGrid(n={self.n}, T={self.T})"


# ---------------------------------------------------------------------------
# models
#
# Every model's cov(s, t) broadcasts over numpy arrays and returns a Python
# float for scalar arguments.
# ---------------------------------------------------------------------------

def _float_if_scalar(x):
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _pow(x, p: float):
    """x ** p with the scalar float power, also for arrays.

    numpy's vectorized power may differ from libm pow in the last bit, so the
    scalar power is applied once per distinct value and gathered back; Grams
    stay bit-identical to the scalar formula at O(#distinct) pow calls.  A
    power past the double range is a ParameterError naming the largest value.
    """
    try:
        if not isinstance(x, np.ndarray):
            return float(x) ** p
        uniq = np.unique(x)
        return np.array([v ** p for v in uniq.tolist()])[np.searchsorted(uniq, x)]
    except OverflowError:
        raise ParameterError(f"{float(np.max(x))!r} ** {p!r} overflows a double: use a "
                             "smaller horizon T") from None


class BrownianMotion:
    """Standard Brownian motion, R(s, t) = min(s, t)."""

    def cov(self, s, t):
        return _float_if_scalar(np.minimum(s, t))

    def __repr__(self) -> str:
        return "BrownianMotion()"


class FractionalBrownianMotion:
    """Fractional Brownian motion with Hurst index H in (0, 1).

    R(s, t) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2; H = 1/2 reduces to
    Brownian motion.  The process is a martingale iff H = 1/2.
    """

    def __init__(self, H: float):
        if not 0.0 < H < 1.0:
            raise ParameterError(f"Hurst index must lie in (0, 1), got {H}")
        self.H = float(H)

    def cov(self, s, t):
        h2 = 2.0 * self.H
        return _float_if_scalar(
            0.5 * (_pow(abs(t), h2) + _pow(abs(s), h2) - _pow(abs(t - s), h2)))

    def __repr__(self) -> str:
        return f"FractionalBrownianMotion(H={self.H})"


class WeightedFbm:
    """X with increments Delta X_i = sigma_i * Delta B^H_i on a fixed grid.

    Only H > 1/2 is admitted, and the covariance is *defined* through the
    grid quadratic form on the base-fBm Gram (there is no analytic kernel
    here); evaluation is restricted to nodes of the defining grid.
    """

    def __init__(self, H: float, sigma, grid: TimeGrid):
        if not 0.5 < H < 1.0:
            raise ParameterError("weighted model requires H in (1/2, 1)")
        sig = np.asarray(sigma, dtype=float)
        if sig.shape != (grid.n,):
            raise ParameterError("need one sigma value per grid increment")
        if not np.all(np.isfinite(sig)) or np.any(sig <= 0):
            raise ParameterError("sigma must be positive and finite")
        self.H = float(H)
        self.grid = grid
        base = _gram_from_cov(FractionalBrownianMotion(H), grid)
        self._gram = sig[:, None] * base * sig[None, :]
        # prefix sums give R(t_i, t_j) as a block sum of the increment Gram
        self._prefix = np.zeros((grid.n + 1, grid.n + 1))
        self._prefix[1:, 1:] = np.cumsum(np.cumsum(self._gram, axis=0), axis=1)

    def gram(self, grid: TimeGrid) -> np.ndarray:
        if (grid.points.shape != self.grid.points.shape
                or not np.allclose(grid.points, self.grid.points, atol=_ALIGN_TOL)):
            raise GridAlignmentError("weighted model is tied to its defining grid")
        return self._gram.copy()

    def cov(self, s, t):
        return _float_if_scalar(
            self._prefix[self.grid.index_of(s), self.grid.index_of(t)])

    def __repr__(self) -> str:
        return f"WeightedFbm(H={self.H}, n={self.grid.n})"


class SumModel:
    """X = X1 + gamma * X2 for independent models, R = R1 + gamma^2 R2."""

    def __init__(self, model1, model2, gamma: float):
        if gamma == 0.0:
            raise ParameterError("gamma must be nonzero")
        self.model1 = model1
        self.model2 = model2
        self.gamma = float(gamma)

    def cov(self, s, t):
        return self.model1.cov(s, t) + self.gamma**2 * self.model2.cov(s, t)

    def __repr__(self) -> str:
        return f"SumModel({self.model1!r}, {self.model2!r}, gamma={self.gamma})"


def _gram_from_cov(model, grid: TimeGrid) -> np.ndarray:
    pts = grid.points
    R = model.cov(pts[:, None], pts[None, :])
    # in place, in the order of R[1:, 1:] - R[1:, :-1] - R[:-1, 1:] + R[:-1, :-1],
    # so that no full-size temporary outlives its step
    G = R[1:, 1:] - R[1:, :-1]
    G -= R[:-1, 1:]
    G += R[:-1, :-1]
    del R
    S = G + G.T
    S *= 0.5
    return S


# ---------------------------------------------------------------------------
# Gram context
# ---------------------------------------------------------------------------

class GramContext:
    """Increment Gram matrix of a model on a grid, with its eigenfactorization.

    Eigenvalues are floored at zero; construction fails if the most negative
    eigenvalue falls below -_EIG_FLOOR_REL * trace(G)/N, which signals a
    model/grid inconsistency rather than roundoff.
    """

    def __init__(self, model, grid: TimeGrid, gram: np.ndarray):
        self.model = model
        self.grid = grid
        self.n = grid.n
        self.G = gram
        lam, U = np.linalg.eigh(gram)
        floor = _EIG_FLOOR_REL * np.trace(gram) / grid.n
        if lam[0] < -floor:
            raise ModelGridError(
                f"Gram has eigenvalue {lam[0]:.3e} below -{floor:.3e}; "
                "model and grid are inconsistent"
            )
        self.eigvals = np.clip(lam, 0.0, None)
        self.eigvecs = U
        lam_max = float(self.eigvals[-1]) if self.eigvals[-1] > 0 else 0.0
        lam_min = float(self.eigvals[0])
        self.cond_estimate = np.inf if lam_min <= 0 else lam_max / lam_min
        self.conditioning_warning = bool(self.cond_estimate > _COND_CAP)
        # guards the lazily built matrices below; sweeps share one context
        # across worker threads
        self._lock = threading.Lock()
        self._inv_sqrt = None
        self._inv = None

    # -- basic geometry ----------------------------------------------------
    def inner(self, u, v) -> float:
        # u @ G @ v, left to right, by ndarray.dot (see _dot); + 0.0 is the
        # +0.0 that @ adds a one-element product to
        return float(np.asarray(u).dot(self.G).dot(np.asarray(v))) + 0.0

    def norm_sq(self, u) -> float:
        return max(self.inner(u, u), 0.0)

    def norm(self, u) -> float:
        return float(np.sqrt(self.norm_sq(u)))

    def unit(self, v) -> np.ndarray:
        """v scaled to unit Gram norm; a zero vector stays zero."""
        return v / max(self.norm(v), 1e-300)

    # -- factorizations ----------------------------------------------------
    @property
    def sample_factor(self) -> np.ndarray:
        """L with L L^T = G (semidefinite factor; flooring already applied)."""
        return self.eigvecs * np.sqrt(self.eigvals)

    @property
    def inv_sqrt_matrix(self) -> np.ndarray:
        with self._lock:
            if self._inv_sqrt is None:
                self._inv_sqrt = _inv_sqrt(self.eigvals, self.eigvecs)
            return self._inv_sqrt

    @property
    def inv_matrix(self) -> np.ndarray:
        with self._lock:
            if self._inv is None:
                _require_pd(self.eigvals)
                self._inv = (self.eigvecs / self.eigvals) @ self.eigvecs.T
            return self._inv

    def __repr__(self) -> str:
        return (f"GramContext({self.model!r}, n={self.n}, "
                f"cond={self.cond_estimate:.2e})")


def _dot(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x of a float64 matrix and vector by ndarray.dot: the BLAS call
    (dgemv) that @ makes, without the ~1 us dispatch of the matmul gufunc, so
    every entry keeps its bits.  On one-element operands np.dot multiplies the
    two entries, where @ adds their product to +0.0; that sum is formed here
    too, so a -0.0 product reads +0.0 as it does through @.
    """
    y = M.dot(x)
    if y.size == 1:
        y += 0.0
    return y


def _require_pd(lam: np.ndarray) -> None:
    """Refuse ascending eigenvalues, floored at zero, that leave G singular."""
    if lam[-1] <= 0 or lam[0] <= 1e-13 * lam[-1]:
        cond = np.inf if lam[0] <= 0 else lam[-1] / lam[0]
        raise ConditioningError(
            f"Gram is singular beyond the eigenvalue floor; cond estimate {cond:.3e}")


def _inv_sqrt(lam: np.ndarray, U: np.ndarray) -> np.ndarray:
    """B^{-1/2} = U diag(lam)^{-1/2} U^T from the eigenpairs of a symmetric B.

    The eigenvalues are floored at zero first, as GramContext floors its own.
    """
    lam = np.clip(lam, 0.0, None)
    _require_pd(lam)
    return (U / np.sqrt(lam)) @ U.T


def build_gram(model, grid: TimeGrid) -> GramContext:
    """Assemble the increment Gram of `model` on `grid` and factorize it."""
    if isinstance(model, WeightedFbm):
        gram = model.gram(grid)
    else:
        gram = _gram_from_cov(model, grid)
    return GramContext(model, grid, gram)


def _check_count(name: str, value, minimum: int, maximum=None, *,
                 below: str = "{name} must be >= {minimum}, got {value}") -> None:
    """A ParameterError naming `name` unless value is an int (a numpy integer
    is, a bool is not) in [minimum, maximum].  `below` is the message for a
    value under minimum, formatted with name, minimum and value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ParameterError(below.format(name=name, minimum=minimum, value=value))
    if maximum is not None and value > maximum:
        raise ParameterError(f"{name} must be <= {maximum}, got {value}")


def _check_seed(seed) -> None:
    """An int >= 0 or a np.random.Generator; else a ParameterError naming it."""
    if not isinstance(seed, np.random.Generator):
        _check_count("seed", seed, 0)


def sample_increments(ctx: GramContext, n_paths: int, seed: int) -> np.ndarray:
    """Independent draws of the increment vector, one per row.

    `seed` is an int or a `np.random.Generator`.  The same int gives
    bit-identical output.  A Generator is used as it is and continues its
    stream, so consecutive calls on one Generator draw the normals that one
    call for all their rows would.  The rows match that call bit for bit when
    every call is long enough for the same BLAS kernels (4096 rows are); calls
    of a few rows round the product differently.  n_paths = 0 yields an
    empty (0, N) array.  A negative, bool or float seed is a ParameterError.
    """
    _check_count("n_paths", n_paths, 0)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(n_paths), ctx.n))
    return z @ ctx.sample_factor.T
