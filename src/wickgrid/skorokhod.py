"""Skorokhod integration on the grid.

Simple integrands (step functions with Wick-exponential coefficients) have an
exact integral inside the closed Wick-term algebra, including the trace term
that carries the memory of the process.  General integrands live in the
chaos-with-slot representation: the coefficient of order k is an order-(k+1)
tensor whose last axis is the integrand slot.  The divergence then symmetrizes
the slot into the chaos order above, which is exactly the S-transform relation
(S integral)(h) = <(S Z)(h), h>.  Pathwise integrals against a Cameron-Martin
direction contract the slot with the shift vector instead.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .covariance import GramContext, _check_count, _check_seed
from .chaos import (ChaosVector, GramImage, SymmetricTensor, WickCombo, _exp_pairing,
                    sym_insert_last)
from .errors import IntervalError, ParameterError, ShapeError, _worst

__all__ = [
    "SimpleIntegrand",
    "ChaosField",
    "skorokhod_simple",
    "verify_s_transform_identity",
    "skorokhod_chaos",
    "cm_pathwise_integral",
]


class SimpleIntegrand:
    """Step-in-time integrand: pieces (a, b, combo) with pure-exponential combos."""

    def __init__(self, ctx: GramContext, pieces: Sequence[Tuple[float, float, WickCombo]]):
        self.ctx = ctx
        self.pieces = []
        for a, b, combo in pieces:
            if not a < b:
                raise IntervalError("each piece needs a < b")
            ctx.grid.index_of(a)
            ctx.grid.index_of(b)
            for _, f, _ in combo.terms:
                if f is not None:
                    raise ParameterError(
                        "simple-integrand coefficients must be pure Wick exponentials"
                    )
            self.pieces.append((float(a), float(b), combo))


def skorokhod_simple(Z: SimpleIntegrand) -> WickCombo:
    """Exact integral of a simple integrand.

    Each piece alpha e^(wick g) on (a, b] contributes
    (-alpha E[I(g) DX] + I(alpha 1_(a,b])) e^(wick g); the subtracted trace
    term forces zero expectation and vanishes for adapted integrands over a
    martingale grid.
    """
    ctx = Z.ctx
    terms = []
    for a, b, combo in Z.pieces:
        u = ctx.grid.indicator_interval(a, b)
        for alpha, _f, g in combo.terms:
            trace = ctx.inner(g, u)
            terms.append((-alpha * trace, alpha * u, g))
    return WickCombo(terms, ctx.n)


def verify_s_transform_identity(Z: SimpleIntegrand, trials: int, seed: int) -> float:
    """Max deviation between S of the integral and the direct pairing formula.

    The right-hand side integrates the S-transformed integrand against the
    Cameron-Martin image of the probe direction; both sides are exact algebra,
    so the deviation is pure roundoff.  A seed that is not an int >= 0 or a trials count
    that is not an int >= 1 is a ParameterError.
    """
    _check_count("trials", trials, 1)
    _check_seed(seed)
    ctx = Z.ctx
    integral = skorokhod_simple(Z)
    pieces = [(ctx.grid.indicator_interval(a, b), combo) for a, b, combo in Z.pieces]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(trials)):
        h = rng.standard_normal(ctx.n)
        lhs = integral.s(ctx, h)
        rhs = 0.0
        for u, combo in pieces:
            du = ctx.inner(u, h)
            for alpha, _f, g in combo.terms:
                rhs += alpha * _exp_pairing(ctx.inner(g, h)) * du
        worst = _worst(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst


class ChaosField:
    """Integrand in L2(Omega, H): slot tensors of order k+1, last axis = slot."""

    def __init__(self, ctx: GramContext, slots: List[np.ndarray]):
        self.ctx = ctx
        self.dim = ctx.n
        self.slots = []
        for k, t in enumerate(slots):
            t = np.asarray(t, dtype=float)
            if t.ndim != k + 1 or any(s != self.dim for s in t.shape):
                raise ShapeError(f"slot tensor {k} must have shape (N,)*{k + 1}")
            self.slots.append(t)

    def restricted(self, a: float, b: float) -> "ChaosField":
        """Slot axis masked to the increments of (a, b]."""
        ia = self.ctx.grid.index_of(a)
        ib = self.ctx.grid.index_of(b)
        if ia > ib:
            raise IntervalError("need a <= b")
        mask = np.zeros(self.dim)
        mask[ia:ib] = 1.0
        return ChaosField(self.ctx, [t * mask for t in self.slots])

    def cell_s(self, ctx: GramContext, j: int, h) -> float:
        """S-transform at direction h of the slot coefficient on cell j, as WickZ.cell_s."""
        image = GramImage(ctx, h)
        total = 0.0
        for k, t in enumerate(self.slots):
            comp = np.take(t, j, axis=-1)
            total += image.pair(SymmetricTensor.scalar(float(comp), ctx.n) if k == 0
                                else SymmetricTensor.from_dense(comp))
        return total


def skorokhod_chaos(Z: ChaosField, a: float, b: float) -> ChaosVector:
    """Divergence of Z over (a, b]: slot restricted, then symmetrized upward.

    The result xi satisfies (S xi)(h) = <(S Z)(h), h> for every grid h, which
    is the defining relation of the integral.
    """
    Zr = Z.restricted(a, b)
    return ChaosVector([SymmetricTensor.scalar(0.0, Z.dim)]
                       + [SymmetricTensor.from_dense(sym_insert_last(t)) for t in Zr.slots], Z.dim)


def cm_pathwise_integral(Z: ChaosField, c, a: float, b: float) -> ChaosVector:
    """Integral of Z against the Cameron-Martin function of c over (a, b]."""
    c = np.asarray(c, dtype=float)
    Zr = Z.restricted(a, b)
    gc = Z.ctx.G @ c
    coeffs = []
    for k, t in enumerate(Zr.slots):
        v = np.tensordot(t, gc, axes=([-1], [0]))
        coeffs.append(SymmetricTensor.from_dense(v) if k > 0
                      else SymmetricTensor.scalar(float(v), Z.dim))
    return ChaosVector(coeffs, Z.dim)
