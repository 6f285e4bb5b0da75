"""Finite Wiener-chaos representations over a grid Gram context.

A square-integrable variable is held as a list of symmetric tensors
f_0, ..., f_K (chaos coefficients); its squared norm is sum_k k! |f_k|^2
with the Gram pairing applied on every axis.  Two tensor storages coexist:

* dense ndarrays of shape (N,)*k, for generic low-order coefficients
  (guarded by a size cap, since the data grows like N^k);
* power sums sum_i w_i v_i^(x k), held as a weight array (p,) and a row
  array of vectors (p, N) (a symmetric CP, or Waring, decomposition).  They
  stay exact at high order and are what Wick exponentials and the
  escape-direction chain produce.

WickCombo is a deliberately small closed algebra of terms
(alpha + I(f)) e^(wick g) used for exact closed-form cross-checks; requests
that would leave the algebra raise instead of silently densifying.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import List

import numpy as np

from .covariance import GramContext
from .errors import ParameterError, ShapeError, UnsupportedOperationError

__all__ = [
    "SymmetricTensor",
    "GramImage",
    "ChaosVector",
    "WickCombo",
    "tensor_inner",
    "wick_exponential_chaos",
    "wick_truncation_tail_sq",
    "s_transform",
    "evaluate_chaos_on_sample",
    "symmetrize_full",
    "sym_insert_last",
    "chaos_inner",
    "random_chaos",
]

MAX_DIM = 32
MAX_DENSE_ORDER = 6
_MAX_DENSE_SIZE = 4_000_000
# 171! no longer converts to a double, so 1/k! and 1/sqrt(k!) have no value
# beyond this order
MAX_SERIES_ORDER = 170


def _check_series_order(K: int) -> None:
    if K > MAX_SERIES_ORDER:
        raise ParameterError(f"K must be <= {MAX_SERIES_ORDER}, got {K}: k! overflows a "
                             f"double beyond order {MAX_SERIES_ORDER}")


def _check_dense_size(order: int, dim: int) -> None:
    if dim > MAX_DIM:
        raise ShapeError(f"dimension {dim} exceeds cap {MAX_DIM}")
    if order > MAX_DENSE_ORDER or dim**max(order, 1) > _MAX_DENSE_SIZE:
        raise ShapeError(
            f"dense storage for order {order}, dim {dim} exceeds the size guard; "
            "use symmetric-power form"
        )


def _fold(values) -> float:
    """Left-to-right double sum from 0.0, stopped at the first nan: where two
    nans meet, CPython's float add keeps the second until the loop is
    specialised and the first after, as numpy's add does.  Not sum(), which
    compensates from Python 3.12; not reduce(operator.add), which keeps the
    second nan; not np.sum, which warns on inf - inf."""
    total = 0.0
    for value in values:
        total += value
        if total != total:
            break
    return total


def _sum(terms) -> float:
    """math.fsum of a list of doubles, or their left fold (_fold) where fsum
    cannot add them: on an intermediate overflow (inf) or on inf - inf (nan)."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return _fold(terms)


def _power_overflow(k: int) -> ParameterError:
    return ParameterError(f"pairing order {k} overflows a double: a power <v, w>^{k} leaves "
                          "the double range; use a smaller direction or shift, or a lower "
                          "chaos order")


def _exp_pairing(x: float) -> float:
    """e^x of a pairing x = <g, h>; past the double range a ParameterError
    naming x."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ParameterError(f"pairing <g, h> = {x!r} overflows a double in e^<g, h>; use a "
                             "smaller direction or horizon") from None


def _require_grid(ctx: GramContext, shape, what: str) -> None:
    if tuple(shape) != (ctx.n,):
        raise ShapeError(f"{what} of shape {tuple(shape)} on a grid of {ctx.n} increments")


def _zero_beyond(t: np.ndarray, m: int) -> np.ndarray:
    """t with every entry that has an index >= m on some axis set to 0.0, in
    place; returns t."""
    for ax in range(t.ndim):
        idx = [slice(None)] * t.ndim
        idx[ax] = slice(m, None)
        t[tuple(idx)] = 0.0
    return t


class SymmetricTensor:
    """Symmetric element of the k-fold tensor power: an ndarray `dense`, or a
    power sum sum_i w_i v_i^(x k) as `weights` (p,) and `vectors` (p, dim)."""

    __slots__ = ("order", "dim", "dense", "weights", "vectors")

    def __init__(self, order: int, dim: int, dense=None, weights=None, vectors=None):
        self.order = int(order)
        self.dim = int(dim)
        self.dense = dense
        self.weights = weights
        self.vectors = vectors

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, order: int, dim: int) -> "SymmetricTensor":
        if order == 0:
            return cls(0, dim, dense=np.float64(0.0))
        return cls(order, dim, weights=np.zeros(0), vectors=np.zeros((0, dim)))

    @classmethod
    def scalar(cls, value: float, dim: int) -> "SymmetricTensor":
        return cls(0, dim, dense=np.float64(value))

    @classmethod
    def from_dense(cls, arr) -> "SymmetricTensor":
        a = np.asarray(arr, dtype=float)
        if a.ndim == 0:
            raise ShapeError("a 0-d array has no dimension; use SymmetricTensor.scalar(value, dim)")
        if any(s != a.shape[0] for s in a.shape):
            raise ShapeError("dense tensor must be hyper-cubic")
        _check_dense_size(a.ndim, a.shape[0])
        return cls(a.ndim, a.shape[0], dense=a)

    @classmethod
    def from_powers(cls, order: int, dim: int, weights, vectors) -> "SymmetricTensor":
        """sum_i weights[i] vectors[i]^(x order); terms of weight zero are dropped.

        With no weight zero, the tensor holds `weights` and `vectors`
        themselves when they are float arrays (np.asarray copies neither), so
        the orders of a chain built from one row array share it.
        """
        w = np.asarray(weights, dtype=float)
        if order == 0:
            return cls.scalar(math.fsum(w.tolist()), dim)
        V = np.asarray(vectors, dtype=float)
        if w.ndim != 1 or V.shape != (w.size, dim):
            raise ShapeError("power sums need weights of shape (p,) and vectors (p, dim)")
        if np.count_nonzero(w) < w.size:
            keep = w != 0.0
            w, V = w[keep], V[keep]
        return cls(order, dim, weights=w, vectors=V)

    @classmethod
    def from_vector(cls, v) -> "SymmetricTensor":
        v = np.asarray(v, dtype=float)
        return cls(1, v.size, dense=v)

    # -- structure ----------------------------------------------------------
    @property
    def is_powers(self) -> bool:
        return self.weights is not None

    def to_dense(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        _check_dense_size(self.order, self.dim)
        return self.add_rows_to(np.zeros((self.dim,) * self.order))

    def add_rows_to(self, out: np.ndarray) -> np.ndarray:
        """out += w_i v_i^(x k) for the terms of a power sum, one at a time in
        order, as to_dense adds them to zeros; returns out."""
        # inf * 0 gives nan and a product past the double range inf, silent
        # as Python's float * is
        with np.errstate(over="ignore", invalid="ignore"):
            for t, v in zip(self.weights.tolist(), self.vectors):
                for _ in range(self.order):
                    t = np.multiply.outer(t, v)
                out += t
        return out

    def copy(self) -> "SymmetricTensor":
        if self.is_powers:
            return SymmetricTensor(self.order, self.dim, weights=self.weights.copy(),
                                   vectors=self.vectors.copy())
        return SymmetricTensor(self.order, self.dim, dense=np.array(self.dense))

    def scaled(self, a: float) -> "SymmetricTensor":
        if a == 0.0:
            return SymmetricTensor.zero(self.order, self.dim)
        if self.is_powers:
            return SymmetricTensor(self.order, self.dim, weights=a * self.weights,
                                   vectors=self.vectors)
        return SymmetricTensor(self.order, self.dim, dense=a * self.dense)

    def add(self, other: "SymmetricTensor") -> "SymmetricTensor":
        self._check_same(other)
        if self.is_powers and other.is_powers:
            return SymmetricTensor(self.order, self.dim,
                                   weights=np.concatenate([self.weights, other.weights]),
                                   vectors=np.concatenate([self.vectors, other.vectors]))
        return SymmetricTensor(self.order, self.dim,
                               dense=self.to_dense() + other.to_dense())

    def _check_same(self, other: "SymmetricTensor") -> None:
        if self.order != other.order or self.dim != other.dim:
            raise ShapeError(
                f"tensor mismatch: ({self.order},{self.dim}) vs "
                f"({other.order},{other.dim})"
            )

    def project_coords(self, m: int) -> "SymmetricTensor":
        """Zero all entries touching coordinates >= m (axis-wise projection)."""
        if self.order == 0:
            return self.copy()
        if self.is_powers:
            V = self.vectors.copy()
            V[:, m:] = 0.0
            return SymmetricTensor(self.order, self.dim, weights=self.weights, vectors=V)
        return SymmetricTensor(self.order, self.dim, dense=_zero_beyond(np.array(self.dense), m))

    def contract_last(self, image: "GramImage", times: int) -> "SymmetricTensor":
        """Contract the last `times` axes with w through the Gram matrix.

        `image` is GramImage(ctx, w); a caller that contracts many tensors
        against the same w forms it once.
        """
        if times < 0 or times > self.order:
            raise ShapeError(f"cannot contract {times} axes of an order-{self.order} tensor")
        if times == 0:
            return self.copy()
        if image.gw.size != self.dim:
            raise ShapeError(f"tensor of shape {(self.dim,)} on a grid of "
                             f"{image.gw.size} increments")
        new_order = self.order - times
        if new_order == 0:
            return SymmetricTensor.scalar(image.pair(self), self.dim)
        if self.is_powers:
            return SymmetricTensor(new_order, self.dim, vectors=self.vectors,
                                   weights=np.array(image.terms(self, times)))
        with np.errstate(over="ignore", invalid="ignore"):
            return SymmetricTensor(new_order, self.dim, dense=image.contract(self.dense, times))

    def support_bound(self) -> int:
        """Smallest m such that all mass sits on coordinates < m."""
        if self.order == 0:
            return 0
        if self.is_powers:
            mass = (np.abs(self.vectors[self.weights != 0.0]) > 0).any(axis=0)
        else:
            mass = np.abs(self.dense)
            for _ in range(self.order - 1):
                mass = mass.sum(axis=0)
        nz = np.flatnonzero(mass > 0)
        return int(nz[-1]) + 1 if nz.size else 0


class GramImage:
    """Gram image G w of one direction w, formed once and paired many times.

    Each pairing is a per-row dot v @ G w and each power a Python float power
    (a matrix product over all rows, or a numpy power, rounds differently), so
    every value is bit-identical to a per-tensor contraction.  Rows that
    several orders share are paired once through the chain's pairing plan
    (`ChaosVector.pairing_plan`), not here.
    """

    __slots__ = ("gw", "col")

    def __init__(self, ctx: GramContext, w):
        w = np.asarray(w, dtype=float)
        _require_grid(ctx, w.shape, "direction")
        self.gw = ctx.G @ w
        self.col = self.gw.reshape(-1, 1)

    def pairings(self, vectors: np.ndarray) -> List[float]:
        """<v, w> through the Gram matrix for each row v of `vectors`."""
        return [float(v @ self.gw) for v in vectors]

    def terms(self, f: SymmetricTensor, times: int) -> List[float]:
        """w_i <v_i, w>^times for the terms w_i v_i^(x k) of f; a power past the
        double range is a ParameterError naming `times`."""
        try:
            return list(map(mul, f.weights.tolist(),
                            map(pow, self.pairings(f.vectors), repeat(times))))
        except OverflowError:
            raise _power_overflow(times) from None

    def contract(self, t: np.ndarray, times: int) -> np.ndarray:
        """Contract the last `times` axes of a dense tensor with w.

        Each step is the one dot product np.tensordot(t, gw, ([-1], [0]))
        makes, without its axis bookkeeping: a (-1, N) view of t times the
        (N, 1) column G w, by ndarray.dot, which is np.dot without the
        dispatch of the function form.  Under its caller's np.errstate a
        contraction past the double range reads inf or nan silently.
        """
        col = self.col
        shape = t.shape[:t.ndim - times]
        for _ in range(times):
            t = t.reshape(-1, col.size).dot(col)
        return t.reshape(shape)

    def pair(self, f: SymmetricTensor) -> float:
        """Full pairing <f, w^(x k)>: a power sum's terms added by _sum.  A
        power <v, w>^k past the double range is a ParameterError naming k."""
        if f.order == 0:
            return float(f.dense)
        if not f.is_powers:
            with np.errstate(over="ignore", invalid="ignore"):
                return float(self.contract(f.dense, f.order))
        return _sum(self.terms(f, f.order))

    def s(self, xi: "ChaosVector") -> float:
        """(S xi)(w) of one chaos vector: s_values of (xi,)."""
        return self.s_values((xi,))[0]

    @np.errstate(over="ignore", invalid="ignore")
    def s_values(self, xis) -> List[float]:
        """(S xi)(w) = sum_k <f_k, w^(x k)> of each chaos vector in `xis`, in
        order, read from its pairing plan (`ChaosVector.pairing_plan`).

        Each distinct row of its one-row power sums is paired once, as the
        float(v @ gw) that pairings forms, and raised per order by Python's
        float pow; every other coefficient is paired as pair pairs it, a dense
        one by the dot products of contract on the same operand shapes,
        under this call's one errstate.  Each summand is the double pair(f)
        gives, up to the sign of a zero, which fsum drops, and is written at
        its order.  Whether fsum overflows on an intermediate sum depends on
        the order of its inputs, so one _sum in coefficient order gives the
        bits of the _sum of pair(f) over the coefficients.  A power past the
        double range is a ParameterError naming its order, raised at the
        first vector that holds one.
        """
        gw, col = self.gw, self.col
        n = gw.size
        values = []
        for xi in xis:
            if xi.dim != n:
                raise ShapeError(f"chaos vector of dim {xi.dim} paired with a direction "
                                 f"of {n} increments")
            rest, rows = xi.pairing_plan()
            terms = [0.0] * len(xi.coeffs)
            for f in rest:
                k, t = f.order, f.dense
                if k and t is not None:         # the steps of contract, no reshape between
                    for _ in range(k):
                        t = t.reshape(-1, n).dot(col)
                    terms[k] = t.item()
                else:
                    terms[k] = self.pair(f)
            try:
                for v, weights, orders in rows:
                    x = float(v @ gw)
                    for w, k in zip(weights, orders):
                        terms[k] = w * x ** k
            except OverflowError:
                raise _power_overflow(k) from None
            values.append(_sum(terms))
        return values


def sym_insert_last(t: np.ndarray) -> np.ndarray:
    """Full symmetrization of a tensor whose first k axes are already symmetric.

    Averages over inserting the last axis into each of the k+1 positions.
    """
    k1 = t.ndim
    return sum(np.moveaxis(t, -1, p) for p in range(k1)) / k1


def symmetrize_full(t: np.ndarray) -> np.ndarray:
    """Average over all axis permutations (use on genuinely raw tensors)."""
    from itertools import permutations

    k = t.ndim
    if k <= 1:
        return np.asarray(t, dtype=float)
    return sum(np.transpose(t, p) for p in permutations(range(k))) / math.factorial(k)


def tensor_inner(ctx: GramContext, A: SymmetricTensor, B: SymmetricTensor) -> float:
    """Full contraction <A, B> pairing each axis through the Gram matrix."""
    A._check_same(B)
    _require_grid(ctx, (A.dim,), "tensors")
    k = A.order
    if k == 0:
        return float(A.dense) * float(B.dense)
    if A.is_powers and B.is_powers:
        if not A.weights.size or not B.weights.size:
            return 0.0
        C = A.vectors @ ctx.G @ B.vectors.T
        return float(A.weights @ (C**k) @ B.weights)
    if A.is_powers:
        A, B = B, A
    if B.is_powers:
        return _sum([w * GramImage(ctx, v).pair(A)
                     for w, v in zip(B.weights.tolist(), B.vectors)])
    t = B.dense
    for _ in range(k):
        t = np.tensordot(t, ctx.G, axes=([0], [0]))
    return float(np.tensordot(A.dense, t, axes=k))


# ---------------------------------------------------------------------------
# chaos vectors
# ---------------------------------------------------------------------------

class ChaosVector:
    """Finite chaos decomposition: coefficients f_0 ... f_K."""

    def __init__(self, coeffs: List[SymmetricTensor], dim: int):
        if not coeffs:
            raise ShapeError("a chaos vector needs at least its order-0 coefficient")
        for k, f in enumerate(coeffs):
            if f.order != k or f.dim != dim:
                raise ShapeError("coefficient list must be graded by order")
        self.coeffs = tuple(coeffs)
        self.dim = dim
        self._plan = None

    @property
    def max_order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: float, dim: int) -> "ChaosVector":
        return cls([SymmetricTensor.scalar(value, dim)], dim)

    @classmethod
    def first_chaos(cls, v, constant: float = 0.0) -> "ChaosVector":
        v = np.asarray(v, dtype=float)
        return cls([SymmetricTensor.scalar(constant, v.size),
                    SymmetricTensor.from_vector(v)], v.size)

    def pairing_plan(self):
        """(rest, rows), built on first use and kept.

        rows holds (v, weights, orders) for each distinct row v of the one-row
        power sums, in order of first occurrence: v is that coefficient's own
        row, and the lists collect the weight and order of every one-row sum
        whose row has v's bytes.  rest holds the other coefficients (order 0,
        dense, several rows, empty).  The coefficients are a tuple, so the
        plan cannot go stale.  It is the one index of shared rows, which
        `GramImage.s`, `shifted_qce` and the domain terms read.
        """
        if self._plan is None:
            rest, rows = [], {}
            for f in self.coeffs:
                if f.is_powers and f.weights.size == 1:
                    _, weights, orders = rows.setdefault(f.vectors.tobytes(),
                                                         (f.vectors[0], [], []))
                    weights.append(f.weights.item())
                    orders.append(f.order)
                else:
                    rest.append(f)
            self._plan = (rest, list(rows.values()))
        return self._plan

    def get(self, k: int) -> SymmetricTensor:
        if k < len(self.coeffs):
            return self.coeffs[k]
        return SymmetricTensor.zero(k, self.dim)

    def add(self, other: "ChaosVector") -> "ChaosVector":
        """Orders both hold added; the longer vector's others kept as they are."""
        both = [f.add(g) for f, g in zip(self.coeffs, other.coeffs)]
        longer = max(self.coeffs, other.coeffs, key=len)
        return ChaosVector(both + list(longer[len(both):]), self.dim)

    def scaled(self, a: float) -> "ChaosVector":
        return ChaosVector([f.scaled(a) for f in self.coeffs], self.dim)

    def sub(self, other: "ChaosVector") -> "ChaosVector":
        return self.add(other.scaled(-1.0))

    def expectation(self) -> float:
        return float(self.coeffs[0].dense)

    def support_bound(self) -> int:
        return max((f.support_bound() for f in self.coeffs), default=0)

    def l2_norm_sq(self, ctx: GramContext) -> float:
        return chaos_inner(ctx, self, self)

    def l2_norm(self, ctx: GramContext) -> float:
        """sqrt(E[xi^2]), with a roundoff-negative square floored at zero."""
        return math.sqrt(max(self.l2_norm_sq(ctx), 0.0))

    def __repr__(self) -> str:
        return f"ChaosVector(K={self.max_order}, dim={self.dim})"


def random_chaos(rng: np.random.Generator, n: int, order: int) -> ChaosVector:
    """Dense chaos vector: a normal f_0, then each f_k symmetrized from an (n,)*k normal draw."""
    coeffs = [SymmetricTensor.scalar(float(rng.standard_normal()), n)]
    for k in range(1, order + 1):
        coeffs.append(SymmetricTensor.from_dense(symmetrize_full(rng.standard_normal((n,) * k))))
    return ChaosVector(coeffs, n)


@np.errstate(over="ignore", invalid="ignore")
def chaos_inner(ctx: GramContext, xi: ChaosVector, eta: ChaosVector) -> float:
    """E[xi eta] = sum_k k! <f_k, h_k> over the orders both vectors hold, the
    terms added by _sum; a contraction past the double range reads inf or nan
    without a warning, and a shared order past MAX_SERIES_ORDER is refused."""
    _check_series_order(min(xi.max_order, eta.max_order))
    return _sum([math.factorial(k) * tensor_inner(ctx, f, g)
                 for k, (f, g) in enumerate(zip(xi.coeffs, eta.coeffs))])


def wick_exponential_chaos(ctx: GramContext, h: np.ndarray, K: int) -> ChaosVector:
    """Truncated Wick exponential: f_k = h^(x k) / k! for k <= K."""
    return WickCombo.exponential(h).to_chaos(ctx, K)


def wick_truncation_tail_sq(ctx: GramContext, h: np.ndarray, K: int) -> float:
    """Squared L2 error of the order-K truncation: sum_{k>K} |h|^{2k} / k!."""
    _check_series_order(K)
    x = ctx.norm_sq(h)
    try:
        partial = math.fsum(x**k / math.factorial(k) for k in range(K + 1))
        return max(math.exp(x) - partial, 0.0)
    except OverflowError:
        raise ParameterError(f"the order-K tail at |h|^2 = {x:.6g}, K = {K} "
                             "overflows a double") from None


# ---------------------------------------------------------------------------
# Wick-term algebra
# ---------------------------------------------------------------------------

class WickCombo:
    """Exact algebra of terms (alpha + I(f)) e^(wick I(g)).

    f may be None (pure exponential term).  The empty term list is zero.
    """

    def __init__(self, terms, dim: int):
        self.terms = []
        for alpha, f, g in terms:
            g = np.asarray(g, dtype=float)
            f = None if f is None else np.asarray(f, dtype=float)
            if g.shape != (dim,) or (f is not None and f.shape != (dim,)):
                raise ShapeError("term vectors must have length dim")
            self.terms.append((float(alpha), f, g))
        self.dim = dim

    @classmethod
    def exponential(cls, g, alpha: float = 1.0) -> "WickCombo":
        g = np.asarray(g, dtype=float)
        return cls([(alpha, None, g)], g.size)

    def expectation(self, ctx: GramContext) -> float:
        out = 0.0
        for alpha, f, g in self.terms:
            out += alpha
            if f is not None:
                out += ctx.inner(f, g)
        return out

    def s(self, ctx: GramContext, h) -> float:
        """Exact S-transform: sum (alpha + <f,h> + <f,g>) e^{<g,h>}."""
        h = np.asarray(h, dtype=float)
        out = 0.0
        for alpha, f, g in self.terms:
            lin = alpha
            if f is not None:
                lin += ctx.inner(f, h) + ctx.inner(f, g)
            out += lin * _exp_pairing(ctx.inner(g, h))
        return out

    def multiply_first_chaos(self, ctx: GramContext, x) -> "WickCombo":
        """Multiply by I(x); only pure-exponential terms stay in the algebra."""
        x = np.asarray(x, dtype=float)
        new = []
        for alpha, f, g in self.terms:
            if f is not None and np.any(x != 0.0):
                raise UnsupportedOperationError(
                    "product of two first-chaos factors leaves the algebra"
                )
            new.append((0.0, alpha * x, g))
        return WickCombo(new, self.dim)

    def multiply_exponential(self, ctx: GramContext, w) -> "WickCombo":
        """Multiply by e^(wick I(w)) using the product identity."""
        w = np.asarray(w, dtype=float)
        new = []
        for alpha, f, g in self.terms:
            c = _exp_pairing(ctx.inner(g, w))
            new.append((c * alpha, None if f is None else c * f, g + w))
        return WickCombo(new, self.dim)

    def conditional_expectation_independent(self, ctx: GramContext, r: float) -> "WickCombo":
        """Classical E[. | F_r] when past/future increments are independent.

        Valid only when the off-diagonal Gram block vanishes (martingale
        grid); otherwise the result would leave the algebra.
        """
        m = ctx.grid.index_of(r)
        off = ctx.G[:m, m:]
        scale = max(np.abs(ctx.G).max(), 1e-300)
        if off.size and np.abs(off).max() > 1e-12 * scale:
            raise UnsupportedOperationError(
                "conditional expectation in the combo algebra needs "
                "independent past/future blocks"
            )
        new = []
        for alpha, f, g in self.terms:
            g_p = g.copy()
            g_p[m:] = 0.0
            g_f = g - g_p
            a_new = alpha
            f_p = None
            if f is not None:
                f_p = f.copy()
                f_p[m:] = 0.0
                a_new = alpha + ctx.inner(f - f_p, g_f)
                if not np.any(f_p != 0.0):
                    f_p = None
            new.append((a_new, f_p, g_p))
        return WickCombo(new, self.dim)

    def to_chaos(self, ctx: GramContext, K: int) -> ChaosVector:
        """Truncated chaos decomposition of the combo.

        Pure-exponential terms expand in symmetric-power form at any K;
        terms with a first-chaos factor need dense storage (size-guarded).
        """
        if K < 0:
            raise ParameterError(f"K must be >= 0, got {K}")
        _check_series_order(K)
        bases = [alpha if f is None else alpha + ctx.inner(f, g)
                 for alpha, f, g in self.terms]
        # order k holds one row base_i / k! times g_i per term, in term order,
        # plus the dense cross term sym(f x g^(k-1)) / (k-1)! of each term with an f
        V = np.array([g for _, _, g in self.terms]).reshape(len(bases), self.dim)
        coeffs = [SymmetricTensor.scalar(_fold(bases), self.dim)]
        for k in range(1, K + 1):
            part = SymmetricTensor.from_powers(
                k, self.dim, [base / math.factorial(k) for base in bases], V)
            for _, f, g in self.terms:
                if f is not None:
                    gt = np.float64(1.0)
                    for _ in range(k - 1):
                        gt = np.multiply.outer(gt, g)
                    cross = sym_insert_last(np.multiply.outer(gt, f))
                    part = part.add(SymmetricTensor.from_dense(cross / math.factorial(k - 1)))
            coeffs.append(part)
        return ChaosVector(coeffs, self.dim)

    def evaluate(self, ctx: GramContext, increments: np.ndarray) -> np.ndarray:
        """Pathwise value on sampled increments (exact, no truncation)."""
        X = np.atleast_2d(np.asarray(increments, dtype=float))
        out = np.zeros(X.shape[0])
        for alpha, f, g in self.terms:
            expo = np.exp(X @ g - 0.5 * ctx.norm_sq(g))
            lin = alpha if f is None else alpha + X @ f
            out += lin * expo
        return out if np.asarray(increments).ndim > 1 else out[0]

    def __repr__(self) -> str:
        return f"WickCombo(terms={len(self.terms)}, dim={self.dim})"


# ---------------------------------------------------------------------------
# S-transform and pathwise evaluation
# ---------------------------------------------------------------------------

def s_transform(ctx: GramContext, xi, h) -> float:
    """(S xi)(h) = E[xi e^(wick I(h))].

    Exact for both representations: sum_k <f_k, h^(x k)> for a ChaosVector,
    the closed combo formula for a WickCombo.  G h is formed once and every
    coefficient is paired against it.
    """
    h = np.asarray(h, dtype=float)
    _require_grid(ctx, (xi.dim,), "chaos vector")
    if isinstance(xi, WickCombo):
        _require_grid(ctx, h.shape, "direction")
        return xi.s(ctx, h)
    return GramImage(ctx, h).s(xi)


def _hermite(k: int, y: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k, vectorized, for k >= 1."""
    h_prev = np.ones_like(y)
    h = y.copy()
    for j in range(1, k):
        h, h_prev = y * h - j * h_prev, h
    return h


def _contract_pairs(t: np.ndarray, G: np.ndarray, j: int) -> np.ndarray:
    for _ in range(j):
        t = np.tensordot(t, G, axes=([0, 1], [0, 1]))
    return t


def _monomial(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_I t_I x_{i_1} ... x_{i_q} per sample row of X."""
    if t.ndim == 0:
        return np.full(X.shape[0], float(t))
    y = np.tensordot(X, t, axes=([1], [0]))          # sample axis first
    for _ in range(t.ndim - 1):
        y = np.einsum("n...i,ni->n...", y, X)
    return y


def _eval_tensor(ctx: GramContext, f: SymmetricTensor, X: np.ndarray) -> np.ndarray:
    k = f.order
    if k == 0:
        return np.full(X.shape[0], float(f.dense))
    if f.is_powers:
        out = np.zeros(X.shape[0])
        for w, v in zip(f.weights.tolist(), f.vectors):
            nrm = ctx.norm(v)
            if nrm == 0.0:
                continue
            y = (X @ v) / nrm
            out += w * nrm**k * _hermite(k, y)
        return out
    # dense: Hermite expansion of the Wick monomials,
    # I_k(f) = sum_j (-1)^j k!/(j! 2^j (k-2j)!) m_{k-2j}(f : G^j)
    out = np.zeros(X.shape[0])
    t = f.dense
    for j in range(k // 2 + 1):
        c = math.factorial(k) / (math.factorial(j) * 2**j * math.factorial(k - 2 * j))
        out += (-1) ** j * c * _monomial(_contract_pairs(t, ctx.G, j), X)
    return out


def evaluate_chaos_on_sample(ctx: GramContext, xi: ChaosVector, increments):
    """Realize the multiple Wiener integrals of xi on sampled increments.

    increments may be a single length-N vector or an (n_paths, N) matrix.
    """
    X = np.asarray(increments, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != xi.dim:
        raise ShapeError("increment vector length does not match dim")
    out = np.zeros(X.shape[0])
    for f in xi.coeffs:
        out += _eval_tensor(ctx, f, X)
    return out[0] if single else out

