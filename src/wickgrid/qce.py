"""Shifted quasi-conditional expectation at chaos level.

The shift pair (r, c) acts through the kernel c_r = Gamma_r^* c - c; the
operator maps chaos coefficients by

    f~_n = sum_{k>=n} C(k, n) Gamma_r^(x n) < f_k, c_r^(x (k-n)) >,

which for finite-order input is a finite sum and exact on the grid.  Domain
membership of infinite expansions can only be probed through partial sums of
k! |f~_k|^2, so the diagnostic reports the sequence and its growth, never a
boolean verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.special import gammaln, logsumexp

from .covariance import GramContext
from .chaos import ChaosVector, GramImage, SymmetricTensor, _check_series_order, tensor_inner
from .errors import MartingaleCaseError, ParameterError, ShapeError
from .firstchaos import SubspaceGeometry, TruncationOperator, _fix_sign, operator_norm

__all__ = [
    "ShiftContext",
    "contract_with_shift",
    "shifted_qce",
    "DomainDiagnostic",
    "domain_diagnostic",
    "escape_direction",
]

_LOG_OVERFLOW = math.log(1e300)


class ShiftContext:
    """Grid time r together with a shift c and the derived kernel c_r."""

    def __init__(self, ctx: GramContext, r: float, c=None):
        self.ctx = ctx
        self.r = float(r)
        self.op = TruncationOperator(ctx, r)
        self.m = self.op.m
        self.c = np.zeros(ctx.n) if c is None else np.asarray(c, dtype=float)
        if self.c.shape != (ctx.n,):
            raise ShapeError("shift vector must have one entry per increment")
        if np.any(self.c != 0.0):
            self.c_r = self.op.adjoint(self.c) - self.c
        else:
            self.c_r = np.zeros(ctx.n)

    def shifted_direction(self, h: np.ndarray) -> np.ndarray:
        """h^c_r = Gamma_r^*(h + c) - c, the direction probed by the operator."""
        return self.op.adjoint(np.asarray(h, dtype=float) + self.c) - self.c


def contract_with_shift(sc: ShiftContext, f: SymmetricTensor, i: int) -> SymmetricTensor:
    """Contract the last order-i axes of f with c_r through the Gram pairing."""
    if i > f.order:
        raise ShapeError("target order exceeds tensor order")
    return f.contract_last(sc.ctx, sc.c_r, f.order - i)


def shifted_qce(sc: ShiftContext, xi: ChaosVector) -> ChaosVector:
    """Apply the shifted operator to a finite-order chaos vector (exact).

    G c_r is formed once and every coefficient is contracted against it.
    Orders above the highest dense coefficient are fed by power sums only.
    Their rows are stacked by order k, each paired with c_r and cut to
    coordinates < m once; order n takes the rows of every k >= n, a suffix
    of the stack, with weights C(k, n) w <v, c_r>^(k-n); rows with equal bytes
    collapse into their first occurrence in the suffix, np.add.at adding the
    weights in row order.  Lower orders add contracted tensors and are dense.
    A power of a pairing past the double range is a ParameterError naming
    the order.
    """
    K = xi.max_order
    image = GramImage(sc.ctx, sc.c_r)
    top_dense = max(k for k, f in enumerate(xi.coeffs) if not f.is_powers)
    sums = xi.coeffs[top_dense + 1:]
    terms = [(k, wt, x) for k, f in enumerate(sums, top_dense + 1)
             for wt, x in zip(f.weights.tolist(), image.pairings(f.vectors))]
    cut = np.concatenate([np.zeros((0, xi.dim))] + [f.vectors for f in sums])
    cut[:, sc.m:] = 0.0
    keys = np.unique(cut.view(np.dtype((np.void, cut.itemsize * xi.dim))).ravel(),
                     return_inverse=True)[1]
    s = 0                       # first row of order n in the stack
    out: List[SymmetricTensor] = []
    try:
        for n in range(K + 1):
            if n > top_dense:
                weights = [math.comb(k, n) * (wt * x ** (k - n)) for k, wt, x in terms[s:]]
                acc = SymmetricTensor(n, xi.dim, weights=np.array(weights), vectors=cut[s:])
                if len(weights) > 1:
                    head = np.full(len(cut), len(cut))      # first suffix row of each key
                    np.minimum.at(head, keys[s:], np.arange(s, len(cut)))
                    rows = np.sort(head[head < len(cut)])
                    merged = np.zeros(rows.size)
                    np.add.at(merged, np.searchsorted(rows, head[keys[s:]]), weights)
                    acc = SymmetricTensor.from_powers(n, xi.dim, merged, cut[rows])
                s += xi.coeffs[n].weights.size
            else:
                acc = SymmetricTensor.zero(n, xi.dim)
                for k in range(n, K + 1):
                    term = xi.coeffs[k].contract_last(sc.ctx, sc.c_r, k - n, image)
                    acc = acc.add(term.scaled(math.comb(k, n)).project_coords(sc.m))
            out.append(acc)
    except OverflowError:
        raise ParameterError(f"shifted QCE order {n} overflows a double: a power of a pairing "
                             "<v, c_r> leaves the double range; use a smaller shift c or a "
                             "lower chaos order") from None
    return ChaosVector(out, xi.dim)


@dataclass
class DomainDiagnostic:
    """Partial sums S_K of k! |f~_k|^2 with growth-ratio estimates."""

    partial_sums: np.ndarray          # S_0 <= S_1 <= ...
    log_terms: np.ndarray             # log of k! |f~_k|^2 (-inf for zero)
    term_ratios: np.ndarray           # term_k / term_{k-1}
    overflowed: bool


def domain_diagnostic(sc: ShiftContext, f, K_max: int) -> DomainDiagnostic:
    """Partial sums of the domain series for the chain f_k = f^(x k) / sqrt(k!),
    for which k! |f_k|^2 = |f|^(2k).

    Coefficients beyond order K_max are not supplied, so every reported f~_n
    misses its tail terms k > K_max; K_max above 170 is a ParameterError.
    Accumulation switches to log space once sums pass 1e300.
    """
    if K_max < 0:
        raise ParameterError("K_max must be >= 0")
    _check_series_order(K_max)
    n = sc.ctx.n
    xi = ChaosVector([SymmetricTensor.scalar(1.0, n)] + [SymmetricTensor.from_powers(
        k, n, [1.0 / math.sqrt(math.factorial(k))], [f]) for k in range(1, K_max + 1)], n)
    tilde = shifted_qce(sc, xi)
    log_terms = np.full(K_max + 1, -np.inf)
    for k in range(K_max + 1):
        nrm_sq = _norm_sq_stable(sc.ctx, tilde.get(k))
        if nrm_sq > 0:
            log_terms[k] = gammaln(k + 1) + math.log(nrm_sq)
    log_sums = np.array([logsumexp(log_terms[: k + 1]) for k in range(K_max + 1)])
    overflow = bool(np.any(log_sums > _LOG_OVERFLOW))
    sums = np.where(log_sums > _LOG_OVERFLOW, np.inf, np.exp(log_sums))
    ratios = np.exp(np.diff(log_terms))
    return DomainDiagnostic(partial_sums=sums, log_terms=log_terms,
                            term_ratios=ratios, overflowed=overflow)


def _norm_sq_stable(ctx: GramContext, t: SymmetricTensor) -> float:
    # factor out the largest vector norm to keep <v_i, v_j>^k finite
    smax = np.max([ctx.norm(v) for v in t.vectors]) if t.is_powers and t.weights.size else 0.0
    if smax == 0.0:
        return max(tensor_inner(ctx, t, t), 0.0)
    scaled = SymmetricTensor.from_powers(t.order, t.dim, t.weights, t.vectors / smax)
    base = max(tensor_inner(ctx, scaled, scaled), 0.0)
    if base == 0.0:
        return 0.0
    log_val = math.log(base) + 2 * t.order * math.log(smax)
    return math.exp(log_val) if log_val < _LOG_OVERFLOW else math.inf


def escape_direction(sc: ShiftContext) -> np.ndarray:
    """Direction f with |Gamma_r f| > 1 > |f|, oriented so <f, c_r> >= 0;
    at <f, c_r> = 0 its first nonzero coordinate is positive (`_fix_sign`).

    Scaling uses the geometric mean: with lam = opnorm^2 the extremal unit
    direction v is scaled to lam^{-1/4}, so |f| = lam^{-1/4} < 1 and
    |Gamma_r f| = lam^{+1/4} > 1 with equal log-margins.
    """
    return _escape_from(sc, operator_norm(sc.ctx, sc.r))


def _escape_from(sc: ShiftContext, geo: SubspaceGeometry) -> np.ndarray:
    """escape_direction(sc) from geo, the operator_norm of (sc.ctx, sc.r)."""
    lam = geo.opnorm**2
    if geo.opnorm <= 1.0 + 1e-9:
        raise MartingaleCaseError(
            "operator norm is 1 at this r: martingale grid, the linear "
            "equation admits solutions for every square-integrable terminal "
            "value; no non-existence certificate"
        )
    v = geo.extremal_direction
    v = v / sc.ctx.norm(v)
    f = lam**-0.25 * v
    pairing = sc.ctx.inner(f, sc.c_r)
    if pairing == 0.0:
        return _fix_sign(f)
    return -f if pairing < 0 else f
