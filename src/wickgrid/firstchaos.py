"""First-chaos geometry of the truncation operator.

First-chaos elements are plain length-N coefficient vectors in the increment
basis; the truncation at a grid time r = t_m is the coordinate projection
onto the first m coordinates, because 1_(0,t] maps to 1_(0, t and r].  Its
adjoint with respect to the Gram inner product is G^{-1} P G.  The operator
norm of the truncation and the maximal past/future correlation d_r carry the
martingale dichotomy: both are trivial (1 and 0) exactly when the off-diagonal
Gram block vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .covariance import GramContext, _dot, _inv_sqrt
from .errors import DegenerateSplitError, MartingaleCaseError, ParameterError

__all__ = [
    "TruncationOperator",
    "SubspaceGeometry",
    "operator_norm",
    "max_correlation",
    "jensen_counterexample",
]


class TruncationOperator:
    """Coordinate projection Gamma_r at a grid node r = t_m, plus its G-adjoint."""

    def __init__(self, ctx: GramContext, r: float):
        self.ctx = ctx
        self.r = float(r)
        self.m = ctx.grid.index_of(r)
        self._adjoint = None

    @property
    def adjoint_matrix(self) -> np.ndarray:
        """G^{-1} P G, computed through the floored eigenfactorization."""
        if self._adjoint is None:
            P_G = self.ctx.G.copy()
            P_G[self.m:, :] = 0.0
            self._adjoint = self.ctx.inv_matrix @ P_G
        return self._adjoint

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.array(x, dtype=float)
        out[self.m:] = 0.0
        return out

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        return _dot(self.adjoint_matrix, np.asarray(x, dtype=float))


@dataclass
class SubspaceGeometry:
    """Numbers and extremals attached to the past/future split at r."""

    r: float
    m: int
    opnorm: Optional[float] = None
    extremal_direction: Optional[np.ndarray] = None
    d_r: Optional[float] = None
    extremal_pair: Optional[tuple] = None


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Deterministic representative: first nonzero coordinate positive."""
    nz = np.flatnonzero(np.abs(v) > 1e-14 * max(1.0, np.abs(v).max()))
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def operator_norm(ctx: GramContext, r: float) -> SubspaceGeometry:
    """Operator norm of Gamma_r on the grid span, as a whitened eigenproblem.

    opnorm^2 = max_x  (x^T P G P x) / (x^T G x), solved through the symmetric
    matrix G^{-1/2} (P G P) G^{-1/2}.  The reported extremal direction is the
    eigenvector pulled back to increment coordinates, sign-fixed.
    """
    m = ctx.grid.index_of(r)
    A = ctx.G.copy()
    A[m:, :] = 0.0
    A[:, m:] = 0.0
    W = ctx.inv_sqrt_matrix
    M = W @ A @ W
    M = 0.5 * (M + M.T)
    lam, vecs = np.linalg.eigh(M)
    opnorm = float(np.sqrt(max(lam[-1], 0.0)))
    direction = _fix_sign(W @ vecs[:, -1])
    return SubspaceGeometry(r=float(r), m=m, opnorm=opnorm,
                            extremal_direction=direction)


def max_correlation(ctx: GramContext, r: float) -> SubspaceGeometry:
    """Maximal correlation d_r between the past and future increment spans.

    With G = [[G11, G12], [G21, G22]] split at m, d_r is the top singular
    value of G11^{-1/2} G12 G22^{-1/2}; the extremal pair (Upsilon, Psi) are
    the corresponding canonical vectors, unit in the G-norm.
    """
    m = ctx.grid.index_of(r)
    n = ctx.n
    if m == 0 or m == n:
        raise DegenerateSplitError("past/future split needs 0 < r < T")
    G11 = ctx.G[:m, :m]
    G22 = ctx.G[m:, m:]
    G12 = ctx.G[:m, m:]
    W1, W2 = (_inv_sqrt(*np.linalg.eigh(0.5 * (B + B.T))) for B in (G11, G22))
    u_mat, svals, vt_mat = np.linalg.svd(W1 @ G12 @ W2)
    d_r = float(svals[0])
    upsilon = np.zeros(n)
    psi = np.zeros(n)
    upsilon[:m] = W1 @ u_mat[:, 0]
    psi[m:] = W2 @ vt_mat[0, :]
    upsilon = _fix_sign(upsilon)
    # orient Psi so the pair correlation is +d_r
    if ctx.inner(upsilon, psi) < 0:
        psi = -psi
    return SubspaceGeometry(r=float(r), m=m, d_r=d_r,
                            extremal_pair=(upsilon, psi))


def jensen_counterexample(ctx: GramContext, r: float,
                          eps: float = 1e-3) -> Tuple[np.ndarray, float]:
    """(h, d_r): a first-chaos h whose truncation has strictly larger second
    moment, and the maximal correlation d_r it is built from.

    Uses the exact extremal pair, h = Upsilon - d_r Psi, so E[Upsilon Psi]
    equals d_r (>= d_r - eps for any eps >= 0) and the second-moment ratio is
    1 / (1 - d_r^2), which dominates the guaranteed 1 / (1 - d_r^2 + 2 d_r eps)
    bound.  eps therefore only enters the reported bound, not the vector.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ParameterError(f"eps must be finite and positive, got {eps}")
    geo = max_correlation(ctx, r)
    if geo.d_r <= 1e-12:
        raise MartingaleCaseError(
            "past and future are uncorrelated at this r; "
            "truncation is an orthogonal projection and no counterexample exists"
        )
    upsilon, psi = geo.extremal_pair
    return upsilon - geo.d_r * psi, geo.d_r
