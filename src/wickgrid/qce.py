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
from functools import cache
from operator import add
from typing import List

import numpy as np
from scipy.special import gammaln

from .covariance import GramContext, _check_count
from .chaos import (MAX_SERIES_ORDER, ChaosVector, GramImage, SymmetricTensor, _fold,
                    _require_grid, _zero_beyond, tensor_inner)
from .errors import DegenerateSplitError, MartingaleCaseError, ParameterError, ShapeError
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
            with np.errstate(over="ignore", invalid="ignore"):     # a shift past range reads nan
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
    return f.contract_last(GramImage(sc.ctx, sc.c_r), f.order - i)


@np.errstate(over="ignore", invalid="ignore")
def shifted_qce(sc: ShiftContext, xi: ChaosVector) -> ChaosVector:
    """Apply the shifted operator to a finite-order chaos vector (exact).

    G c_r is formed once; each row of xi's `pairing_plan` is paired with it
    once and every other coefficient contracted against it.  Order 0 is the
    left fold from 0.0 of every coefficient contracted to a scalar, which is
    what adding each contraction, scaled by C(k, 0) = 1, to a zero scalar
    forms; a one-row sum w v^(x k) gives w <v, c_r>^k, the one term
    contract_last would fsum.  The other orders up to the highest dense
    coefficient add contracted tensors into one array each (`_dense_order`);
    the orders above it are fed by power sums only (`_power_orders`).  A
    shift or an entry past the double range reads inf or nan without a
    warning; a power of a pairing past it is a ParameterError naming the
    order.
    """
    _require_grid(sc.ctx, (xi.dim,), "chaos vector")
    K = xi.max_order
    image = GramImage(sc.ctx, sc.c_r)
    rest, rows = xi.pairing_plan()
    top_dense = max(k for k, f in enumerate(xi.coeffs) if not f.is_powers)
    scalars = [0.0] * (K + 1)       # each coefficient contracted to a scalar
    xs = [None] * (K + 1)           # the pairings of each power sum's rows
    n = 0
    try:
        for f in rest:
            scalars[f.order] = float(f.contract_last(image, f.order).dense)
            xs[f.order] = image.pairings(f.vectors) if f.is_powers else []
        for v, weights, orders in rows:
            x = float(v.dot(image.gw)) + 0.0
            for w, k in zip(weights, orders):
                scalars[k] = w * x ** k
                xs[k] = [x]
        out = [SymmetricTensor.scalar(_fold(scalars), xi.dim)]
        for n in range(1, top_dense + 1):
            out.append(SymmetricTensor(n, xi.dim, dense=_dense_order(xi, image, n, sc.m)))
        # order 0 raised first if any power of a pairing overflows, as n = 0
        # takes every row's highest power
        out += _power_orders(xi.coeffs[top_dense + 1:], xs[top_dense + 1:], top_dense, sc.m)
    except (OverflowError, ParameterError):
        # a power past the double range: raw from the rows' own powers, named
        # by contract_last (GramImage.terms); the shapes were checked above,
        # so no other ParameterError arises here
        raise ParameterError(f"shifted QCE order {n} overflows a double: a power of a pairing "
                             "<v, c_r> leaves the double range; use a smaller shift c or a "
                             "lower chaos order") from None
    return ChaosVector(out, xi.dim)


def _dense_order(xi: ChaosVector, image: GramImage, n: int, m: int) -> np.ndarray:
    """Order n <= top_dense of the shifted operator, in one array: each f_k,
    k >= n, contracted k - n times with c_r, scaled by C(k, n), cut to
    coordinates < m and added in the order in which SymmetricTensor.add adds
    these terms to a zero power sum.

    add concatenates the power sums before the first dense term and
    densifies their rows onto zeros, so those rows go straight into the
    array, which starts as zeros; the first dense term is then zeros + term,
    as in add (a -0.0 reads +0.0), and every later term is a whole array
    added to it, a power sum densified on its own first.  numpy adds into a
    one-element array in place as a reduction, which can keep the other of
    two nans, so that array adds out of place.
    """
    acc = np.zeros((xi.dim,) * n)
    lead = True                 # no dense term added yet
    for k in range(n, xi.max_order + 1):
        f, comb = xi.coeffs[k], math.comb(k, n)
        if f.is_powers:
            part = f.contract_last(image, k - n).scaled(comb).project_coords(m)
            if lead:
                part.add_rows_to(acc)
                continue
            t = part.to_dense()
        else:
            lead = False
            t = _zero_beyond(comb * image.contract(f.dense, k - n), m)
        if acc.size > 1:
            acc += t
        else:
            acc[...] = acc + t
    return acc


def _power_orders(sums, xs, top_dense: int, m: int) -> List[SymmetricTensor]:
    """Orders top_dense + 1 ... K of the shifted operator, fed by the power
    sums `sums` of those orders; xs holds each sum's list of row pairings
    <v, c_r>.

    Their rows are stacked by order k and cut to coordinates < m once; order
    n takes the rows of every k >= n, a suffix of the stack, with weights
    C(k, n) w <v, c_r>^(k-n), formed for all orders at once
    (`_suffix_weights`).  Rows with equal bytes collapse into their first
    occurrence in the suffix, with the weights of the group added in row
    order from 0.0: one np.add.at does this for every order, the rows below
    a suffix adding an exact 0.0.  A suffix of one row (or none) is kept as
    it is, a zero weight too; otherwise zero weights are dropped.
    """
    if not sums:
        return []
    K, dim = top_dense + len(sums), sums[0].dim
    orders = np.repeat(np.arange(top_dense + 1, K + 1), [f.weights.size for f in sums])
    cut = np.concatenate([np.zeros((0, dim))] + [f.vectors for f in sums])
    cut[:, m:] = 0.0
    keys = np.unique(cut.view(np.dtype((np.void, cut.itemsize * dim))).ravel(),
                     return_inverse=True)[1]
    # prev[r]: the last row before r with the bytes of row r, or -1; row r
    # heads its group in the suffix from s exactly when r >= s > prev[r]
    by_key = np.argsort(keys, kind="stable")
    same = np.flatnonzero(keys[by_key[1:]] == keys[by_key[:-1]])
    prev = np.full(len(cut), -1)
    prev[by_key[same + 1]] = by_key[same]
    weights = _suffix_weights(sums, xs, orders, top_dense, K)
    merged = np.zeros((keys.max(initial=-1) + 1, K + 1))
    with np.errstate(invalid="ignore"):         # inf + -inf merges to nan, silent as in Python
        np.add.at(merged, keys, weights)
    # the heads of every order's groups at once, sorted by order and then
    # row, with their merged weights; zero weights are dropped, as
    # from_powers drops them
    ns = np.arange(top_dense + 1, K + 1)
    starts = np.searchsorted(orders, ns)            # first row of each order in the stack
    r = np.arange(len(cut))[:, None]
    at, head = np.nonzero(((r >= starts) & (prev[:, None] < starts)).T)
    w = merged[keys[head], ns[at]]
    keep = w != 0.0
    at, head, w = at[keep], head[keep], w[keep]
    bounds = np.searchsorted(at, np.arange(ns.size + 1)).tolist()
    out = []
    for j, (n, s) in enumerate(zip(ns.tolist(), starts.tolist())):
        if len(cut) - s > 1:
            part = slice(bounds[j], bounds[j + 1])
            out.append(SymmetricTensor(n, dim, weights=w[part], vectors=cut[head[part]]))
        else:
            out.append(SymmetricTensor(n, dim, weights=weights[s:, n].copy(), vectors=cut[s:]))
    return out


def _suffix_weights(sums, xs, orders: np.ndarray, top_dense: int, K: int) -> np.ndarray:
    """(rows, K + 1) array: C(k, n) (w <v, c_r>^(k-n)) at row (k, w, v) of the
    stack and order top_dense < n <= k, an exact 0.0 elsewhere; xs holds each
    sum's list of row pairings <v, c_r>.

    Each power is Python's float pow, taken once per distinct pairing bits
    and exponent (numpy's power can differ in the last bit); each binomial is
    the double that int * float rounds it to; numpy's products are the IEEE
    products Python forms.
    """
    wt = np.concatenate([f.weights for f in sums])
    bits, ids = np.unique(np.array([x for p in xs for x in p]).view(np.uint64),
                          return_inverse=True)
    top = np.zeros(bits.size, dtype=int)
    np.maximum.at(top, ids, orders - top_dense - 1)
    powers = np.zeros((bits.size, K - top_dense))
    for i, (x, j) in enumerate(zip(bits.view(float).tolist(), top.tolist())):
        powers[i, : j + 1] = [x ** e for e in range(j + 1)]
    exps = orders[:, None] - np.arange(K + 1)
    dead = (exps < 0) | (np.arange(K + 1) <= top_dense)
    np.clip(exps, 0, K - top_dense - 1, out=exps)
    out = powers[ids[:, None], exps]
    with np.errstate(over="ignore", invalid="ignore"):     # Python's float * is silent too
        out *= wt[:, None]
        out *= _binomials(K)[orders]
    out[dead] = 0.0
    return out


@cache
def _binomials(K: int) -> np.ndarray:
    """C(k, n) for 0 <= n <= k <= K as doubles, 0 above the diagonal: exact
    integers from Pascal's rule, each rounded once by float(), as int * float
    rounds it.  Read-only, since it is shared between calls."""
    out = np.zeros((K + 1, K + 1))
    row = [1]
    for k in range(K + 1):
        out[k, : k + 1] = [float(c) for c in row]
        row = [1, *map(add, row, row[1:]), 1]
    out.flags.writeable = False
    return out


@dataclass
class DomainDiagnostic:
    """Partial sums S_K of k! |f~_k|^2 with growth-ratio estimates."""

    partial_sums: np.ndarray          # S_0 <= S_1 <= ...
    log_terms: np.ndarray             # log of k! |f~_k|^2 (-inf for zero)
    term_ratios: np.ndarray           # term_k / term_{k-1}; nan where both are 0
    overflowed: bool


def domain_diagnostic(sc: ShiftContext, f, K_max: int) -> DomainDiagnostic:
    """Partial sums of the domain series for the chain f_k = f^(x k) / sqrt(k!),
    for which k! |f_k|^2 = |f|^(2k).

    Coefficients beyond order K_max are not supplied, so every reported f~_n
    misses its tail terms k > K_max; K_max above 170 is a ParameterError.
    Sums are accumulated in log space; a partial sum past 1e300 reads inf and
    sets `overflowed`; a term past the double range reads inf, without a
    warning.  A term ratio is nan where both of its terms are 0.  A direction
    f with a non-finite entry is a ParameterError.
    """
    _check_count("K_max", K_max, 0, MAX_SERIES_ORDER)
    if not np.isfinite(f).all():
        raise ParameterError("direction f has a non-finite entry")
    n = sc.ctx.n
    # every order holds the one row f, checked once here; no weight
    # 1/sqrt(k!) with k <= 170 is zero, so each order is built on row itself
    row = SymmetricTensor.from_powers(1, n, [1.0], [f]).vectors
    xi = ChaosVector([SymmetricTensor.scalar(1.0, n)] + [SymmetricTensor(
        k, n, weights=np.array([1.0 / math.sqrt(math.factorial(k))]), vectors=row)
        for k in range(1, K_max + 1)], n)
    # |f~_k|^2 per order: a one-row order w v^(x k) has smax = |v| factored
    # out, so that C^k stays finite, as w (C^k) w with C = (v / smax) G (v /
    # smax)^T formed once per plan row, and smax^(2k) put back in log space
    # (inf past 1e300).  A zero row (whose tensor_inner is 0 or nan) gives no
    # term; order 0 and empty sums are tensor_inner's
    rest, rows = shifted_qce(sc, xi).pairing_plan()
    nrm_sq = [0.0] * (K_max + 1)
    with np.errstate(over="ignore"):            # a term past the double range reads inf
        for t in rest:
            nrm_sq[t.order] = tensor_inner(sc.ctx, t, t)
        for v, weights, orders in rows:
            smax = sc.ctx.norm(v)
            if not smax:
                continue
            u = v[None] / smax
            C = u @ sc.ctx.G @ u.T
            for w, k in zip(np.array(weights)[:, None], orders):     # w of shape (1,)
                # np.dot multiplies one-element operands where @ adds the
                # product to +0.0; for this square with C^k >= +0 both give
                # the same double
                base = max(float(w.dot(C**k).dot(w)), 0.0)
                if base:
                    log_val = math.log(base) + 2 * k * math.log(smax)
                    nrm_sq[k] = math.exp(log_val) if log_val < _LOG_OVERFLOW else math.inf
    log_factorials = gammaln(np.arange(1.0, K_max + 2.0)).tolist()
    log_terms = np.array([lf + math.log(x) if x > 0 else -np.inf
                          for lf, x in zip(log_factorials, nrm_sq)])
    log_sums = _prefix_logsumexp(log_terms)
    overflow = bool(np.any(log_sums > _LOG_OVERFLOW))
    # exp past the double range is inf; -inf - -inf where two terms vanish
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.where(log_sums > _LOG_OVERFLOW, np.inf, np.exp(log_sums))
        ratios = np.exp(np.diff(log_terms))
    return DomainDiagnostic(partial_sums=sums, log_terms=log_terms,
                            term_ratios=ratios, overflowed=overflow)


def _prefix_logsumexp(a: np.ndarray) -> np.ndarray:
    """[scipy.special.logsumexp(a[:k + 1]) for every k], bit for bit, in one pass.

    Row k repeats scipy's steps on the prefix a[:k + 1]: shift by its max,
    drop the m entries equal to it, sum the exponentials with one contiguous
    .sum() over exactly k + 1 entries (numpy's pairwise grouping depends on
    the length, so rows are not padded), form log1p(s / m) + log(m) + max,
    and where that is not finite take log(sum(exp(prefix))).  The triangle is
    len(a)^2 doubles, at most 171^2 under the series-order cap.
    """
    n = a.size
    top = np.maximum.accumulate(a)
    lower = np.tri(n, dtype=bool)
    ties = lower & (a == top[:, None])
    m = ties.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(np.where(ties | ~lower, -np.inf, a) - top[:, None])
        s = np.array([row[: k + 1].sum() for k, row in enumerate(e)])
        out = np.log1p(s / m) + np.log(m) + top
        for k in np.flatnonzero(~np.isfinite(out)):
            out[k] = np.log(np.exp(a[: k + 1]).sum())
    return out


def escape_direction(sc: ShiftContext) -> np.ndarray:
    """Direction f with |Gamma_r f| > 1 > |f|, oriented so <f, c_r> >= 0;
    at <f, c_r> = 0 its first nonzero coordinate is positive (`_fix_sign`).

    Scaling uses the geometric mean: with lam = opnorm^2 the extremal unit
    direction v is scaled to lam^{-1/4}, so |f| = lam^{-1/4} < 1 and
    |Gamma_r f| = lam^{+1/4} > 1 with equal log-margins.  At r = 0 or r = T
    one side of the split is empty: a DegenerateSplitError, on every model.
    """
    return _escape_from(sc, operator_norm(sc.ctx, sc.r))


def _escape_from(sc: ShiftContext, geo: SubspaceGeometry) -> np.ndarray:
    """escape_direction(sc) from geo, the operator_norm of (sc.ctx, sc.r)."""
    if sc.m in (0, sc.ctx.n):
        raise DegenerateSplitError("past/future split needs 0 < r < T")
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
