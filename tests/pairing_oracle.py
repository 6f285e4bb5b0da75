"""Per-coefficient pairing routes, kept as bit-identity oracles.

These are the formulas that `s_transform`, `shifted_qce` and
`verify_solution_weak` used before the Gram image of the probe or shift
direction was hoisted out of the per-coefficient contractions.  Here every
coefficient forms G w itself, `shifted_qce` contracts once per (n, k) pair,
and the weak check rebuilds its shift contexts in every trial and pairs every
node, folding residuals with the NaN-keeping `_worst`.  `shifted_qce_by_order`
is the stacked power-sum route as it was before its weights and row groups
were formed for all orders at once.
`s_by_coefficient` is `GramImage.s` before its per-vector plan, one
`pair` per coefficient, and `from_powers_by_mask` is `from_powers` as it
was before it kept the arrays it was given, masking and copying them at
every call.  `add_padded` is `ChaosVector.add` as it was before it passed
the longer vector's extra orders through: the shorter vector padded with
empty power sums, each added onto fresh zeros.  `chaos_inner_padded` is
`chaos_inner` as it was before it paired only the orders both vectors hold:
each order the shorter vector lacks an empty power sum (`get`).
`domain_diagnostic` is the domain series as it was formed order by order:
order 0 of the shifted chain folded from one contraction per coefficient
(`shifted_qce_by_coefficient`), and each term from a rescaled power sum and
`tensor_inner` (`norm_sq_stable`).  The tests compare the package against
them with ==, not a tolerance, and `assert_same_bits` also tells 0.0 from
-0.0.

The module also builds the chaos vectors those tests feed to both routes,
and holds two independent routes that tests check the package against with a
tolerance: `evaluate_combo`, the pathwise value of a Wick combo, and
`simple_to_chaos_field`, a simple integrand truncated into slot tensors.
"""

import math

import numpy as np
from scipy.special import gammaln

from wickgrid import (
    ChaosField,
    ChaosVector,
    DomainDiagnostic,
    ShiftContext,
    SymmetricTensor,
    WickCombo,
    symmetrize_full,
    tensor_inner,
    wick_exponential_chaos,
)
from wickgrid.bsde import WickZ
from wickgrid.chaos import MAX_SERIES_ORDER, GramImage, _sum
from wickgrid.covariance import _check_count
from wickgrid.errors import ParameterError, ShapeError, UnsupportedOperationError, _worst
from wickgrid.qce import _LOG_OVERFLOW, _power_orders, _prefix_logsumexp


# ---------------------------------------------------------------------------
# reference routes
# ---------------------------------------------------------------------------

def contract_last(f, ctx, w, times):
    if times == 0:
        return f.copy()
    if times > f.order:
        raise ShapeError("cannot contract more axes than the order")
    gw = ctx.G @ np.asarray(w, dtype=float)
    new_order = f.order - times
    if f.is_powers:
        weights = [wt * float(v @ gw) ** times for wt, v in zip(f.weights.tolist(), f.vectors)]
        if new_order == 0:
            return SymmetricTensor.scalar(math.fsum(weights), f.dim)
        return SymmetricTensor(new_order, f.dim, weights=np.array(weights), vectors=f.vectors)
    t = f.dense
    for _ in range(times):
        t = np.tensordot(t, gw, axes=([-1], [0]))
    if new_order == 0:
        return SymmetricTensor.scalar(float(t), f.dim)
    return SymmetricTensor(new_order, f.dim, dense=t)


def pair_with_power(f, ctx, h):
    if f.order == 0:
        return float(f.dense)
    return float(contract_last(f, ctx, h, f.order).dense)


def s_transform(ctx, xi, h):
    h = np.asarray(h, dtype=float)
    if isinstance(xi, WickCombo):
        return xi.s(ctx, h)
    return math.fsum(pair_with_power(f, ctx, h) for f in xi.coeffs)


def s_by_coefficient(image, xi):
    """GramImage.s as one _sum of image.pair(f) over the coefficients: each
    dense one through contract, each power sum through terms."""
    return _sum([image.pair(f) for f in xi.coeffs])


def from_powers_by_mask(order, dim, weights, vectors):
    """SymmetricTensor.from_powers for order >= 1, with the zero-weight mask
    applied, and so the arrays copied, even where it keeps every term."""
    w = np.asarray(weights, dtype=float)
    V = np.asarray(vectors, dtype=float)
    if w.ndim != 1 or V.shape != (w.size, dim):
        raise ShapeError("power sums need weights of shape (p,) and vectors (p, dim)")
    keep = w != 0.0
    return SymmetricTensor(order, dim, weights=w[keep], vectors=V[keep])


def get(xi, k):
    """Coefficient k of xi, an empty power sum past its last order."""
    if k < len(xi.coeffs):
        return xi.coeffs[k]
    return SymmetricTensor.zero(k, xi.dim)


def add_padded(xi, eta):
    K = max(xi.max_order, eta.max_order)
    return ChaosVector([get(xi, k).add(get(eta, k)) for k in range(K + 1)], xi.dim)


@np.errstate(over="ignore", invalid="ignore")
def chaos_inner_padded(ctx, xi, eta):
    K = max(xi.max_order, eta.max_order)
    return _sum([math.factorial(k) * tensor_inner(ctx, get(xi, k), get(eta, k))
                 for k in range(K + 1)])


def merge_powers(t):
    if not t.is_powers or t.weights.size < 2:
        return t
    merged = {}
    order = []
    for w, v in zip(t.weights.tolist(), t.vectors):
        key = v.tobytes()
        if key in merged:
            merged[key] = (merged[key][0] + w, v)
        else:
            merged[key] = (w, v)
            order.append(key)
    return SymmetricTensor.from_powers(t.order, t.dim, [merged[k][0] for k in order],
                                       [merged[k][1] for k in order])


def shifted_qce(sc, xi):
    K = xi.max_order
    out = []
    for n in range(K + 1):
        acc = SymmetricTensor.zero(n, xi.dim)
        for k in range(n, K + 1):
            fk = get(xi, k)
            term = contract_last(fk, sc.ctx, sc.c_r, fk.order - n).scaled(math.comb(k, n))
            acc = acc.add(term.project_coords(sc.m))
        out.append(merge_powers(acc))
    return ChaosVector(out, xi.dim)


def shifted_qce_by_order(sc, xi):
    """The stacked route with its weights formed order by order: a Python
    comprehension of C(k, n) * (w * x ** (k - n)) per order n, and per order a
    grouping of equal rows by np.minimum.at / sort / np.add.at / searchsorted."""
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
    s = 0
    out = []
    for n in range(K + 1):
        if n > top_dense:
            weights = [math.comb(k, n) * (wt * x ** (k - n)) for k, wt, x in terms[s:]]
            acc = SymmetricTensor(n, xi.dim, weights=np.array(weights), vectors=cut[s:])
            if len(weights) > 1:
                head = np.full(len(cut), len(cut))
                np.minimum.at(head, keys[s:], np.arange(s, len(cut)))
                rows = np.sort(head[head < len(cut)])
                merged = np.zeros(rows.size)
                np.add.at(merged, np.searchsorted(rows, head[keys[s:]]), weights)
                acc = SymmetricTensor.from_powers(n, xi.dim, merged, cut[rows])
            s += xi.coeffs[n].weights.size
        else:
            acc = SymmetricTensor.zero(n, xi.dim)
            for k in range(n, K + 1):
                term = xi.coeffs[k].contract_last(image, k - n)
                acc = acc.add(term.scaled(math.comb(k, n)).project_coords(sc.m))
        out.append(acc)
    return ChaosVector(out, xi.dim)


def shifted_qce_by_coefficient(sc, xi):
    """shifted_qce with every dense order, order 0 included, added up from one
    contract_last / scaled / project_coords per coefficient; the power orders
    above them are the package's `_power_orders`."""
    K = xi.max_order
    image = GramImage(sc.ctx, sc.c_r)
    top_dense = max(k for k, f in enumerate(xi.coeffs) if not f.is_powers)
    out = []
    n = 0
    try:
        for n in range(top_dense + 1):
            acc = SymmetricTensor.zero(n, xi.dim)
            for k in range(n, K + 1):
                term = xi.coeffs[k].contract_last(image, k - n)
                acc = acc.add(term.scaled(math.comb(k, n)).project_coords(sc.m))
            out.append(acc)
        sums = xi.coeffs[top_dense + 1:]
        out += _power_orders(sums, [image.pairings(f.vectors) for f in sums], top_dense, sc.m)
    except (OverflowError, ParameterError):     # contract_last names a power past range
        raise ParameterError(f"shifted QCE order {n} overflows a double: a power of a pairing "
                             "<v, c_r> leaves the double range; use a smaller shift c or a "
                             "lower chaos order") from None
    return ChaosVector(out, xi.dim)


def norm_sq_stable(ctx, t):
    """max(|t|^2, 0) with the largest row norm factored out: a rescaled
    from_powers and tensor_inner at every order, each row normed afresh."""
    smax = 0.0
    if t.is_powers and t.weights.size:
        smax = np.max([ctx.norm(v) for v in t.vectors])
    if smax == 0.0:
        return max(tensor_inner(ctx, t, t), 0.0)
    scaled = SymmetricTensor.from_powers(t.order, t.dim, t.weights, t.vectors / smax)
    base = max(tensor_inner(ctx, scaled, scaled), 0.0)
    if base == 0.0:
        return 0.0
    log_val = math.log(base) + 2 * t.order * math.log(smax)
    return math.exp(log_val) if log_val < _LOG_OVERFLOW else math.inf


def domain_diagnostic(sc, f, K_max):
    """The domain series of the chain f^(x k) / sqrt(k!), its coefficients built
    by from_powers, its order 0 folded per coefficient and each term formed
    by norm_sq_stable; the prefix sums are the package's."""
    _check_count("K_max", K_max, 0, MAX_SERIES_ORDER)
    n = sc.ctx.n
    xi = ChaosVector([SymmetricTensor.scalar(1.0, n)] + [SymmetricTensor.from_powers(
        k, n, [1.0 / math.sqrt(math.factorial(k))], [f]) for k in range(1, K_max + 1)], n)
    tilde = shifted_qce_by_coefficient(sc, xi)
    log_terms = np.full(K_max + 1, -np.inf)
    for k in range(K_max + 1):
        nrm_sq = norm_sq_stable(sc.ctx, get(tilde, k))
        if nrm_sq > 0:
            log_terms[k] = gammaln(k + 1) + math.log(nrm_sq)
    log_sums = _prefix_logsumexp(log_terms)
    overflow = bool(np.any(log_sums > _LOG_OVERFLOW))
    sums = np.where(log_sums > _LOG_OVERFLOW, np.inf, np.exp(log_sums))
    with np.errstate(invalid="ignore"):
        ratios = np.exp(np.diff(log_terms))
    return DomainDiagnostic(partial_sums=sums, log_terms=log_terms,
                            term_ratios=ratios, overflowed=overflow)


def verify_solution_weak(problem, solution, trials, seed):
    ctx = problem.ctx
    n = ctx.n
    dg = problem.dgamma
    a_w = 1.0 - np.exp(-problem.a * dg)
    rng = np.random.default_rng(seed)
    worst = 0.0
    Y = solution.Y_nodes
    for _ in range(int(trials)):
        h = rng.standard_normal(n)
        h /= max(ctx.norm(h), 1e-300)
        for iv in range(n + 1):
            sc = ShiftContext(ctx, ctx.grid.points[iv], problem.c)
            w = sc.shifted_direction(h)
            s = np.array([s_transform(ctx, Y[i], w) for i in range(n + 1)])
            x = s_transform(ctx, problem.xi, w)
            g = np.array([0.0 if problem.G[i] is None
                          else s_transform(ctx, problem.G[i], w)
                          for i in range(n + 1)])
            tail = 0.0
            residual_here = abs(s[n] - x)
            for i in range(n - 1, iv - 1, -1):
                tail += a_w[i] * s[i + 1] + g[i] * dg[i]
                residual_here = _worst(residual_here, abs(s[i] - x + tail))
            worst = _worst(worst, residual_here)
    if solution.Z is not None:
        worst = _worst(worst, _verify_full_equation(problem, solution, trials, seed + 1))
    return worst


def _verify_full_equation(problem, solution, trials, seed):
    ctx = problem.ctx
    n = ctx.n
    dg = problem.dgamma
    rng = np.random.default_rng(seed)
    worst = 0.0
    Z = solution.Z
    for _ in range(int(trials)):
        h = rng.standard_normal(n)
        h /= max(ctx.norm(h), 1e-300)
        s = np.array([s_transform(ctx, y, h) for y in solution.Y_nodes])
        if np.any(s <= 0.0):
            raise UnsupportedOperationError("needs positive S-values")
        for j in range(1, n + 1):
            e = np.zeros(n)
            e[j - 1] = 1.0
            q = ctx.inner(e, h + problem.c)
            if isinstance(Z, WickZ):
                u = Z.cell_s(ctx, j - 1, h)
            else:
                u = _field_cell_s(ctx, Z, j - 1, h)
            res = abs(math.log(s[j]) - math.log(s[j - 1])
                      - problem.a[j - 1] * dg[j - 1] - u * q / s[j - 1])
            worst = _worst(worst, res)
    return worst


def _field_cell_s(ctx, Z, cell, h):
    total = 0.0
    for k, t in enumerate(Z.slots):
        comp = np.take(t, cell, axis=-1)
        tensor = (SymmetricTensor.scalar(float(comp), ctx.n) if k == 0
                  else SymmetricTensor.from_dense(comp))
        total += pair_with_power(tensor, ctx, np.asarray(h, dtype=float))
    return total


def evaluate_combo(ctx, combo, X):
    """Pathwise value of a WickCombo on sampled increments X (one path a row),
    exact, with no truncation."""
    out = np.zeros(X.shape[0])
    for alpha, f, g in combo.terms:
        expo = np.exp(X @ g - 0.5 * ctx.norm_sq(g))
        out += (alpha if f is None else alpha + X @ f) * expo
    return out


def simple_to_chaos_field(Z, K):
    """A simple integrand truncated at order K into slot-tensor form."""
    ctx = Z.ctx
    slots = [np.zeros((ctx.n,) * (k + 1)) for k in range(K + 1)]
    for a, b, combo in Z.pieces:
        u = ctx.grid.indicator_interval(a, b)
        for alpha, _f, g in combo.terms:
            gt = np.float64(alpha)
            for k in range(K + 1):
                slots[k] += np.multiply.outer(gt, u)
                gt = np.multiply.outer(gt, g) / (k + 1)
    return ChaosField(ctx, slots)


# ---------------------------------------------------------------------------
# inputs and comparison
# ---------------------------------------------------------------------------

def sample_chaos_vectors(rng, ctx):
    """Dense, power-sum and mixed chaos vectors of order <= 3, by name.

    The power sums repeat one vector within and across orders, and also hold
    an equal-valued copy of it (a distinct array with the same bytes), so the
    pairing plan's grouping by bytes and the merge by value are both
    exercised.  In "powers-reordered" u comes first among the rows that feed
    order n = 1 and v among those that feed n = 2, so a merge must keep the
    first-occurrence order of each output order, not a global one.
    """
    n = ctx.n

    def vec():
        return rng.standard_normal(n)

    def dense(k):
        return SymmetricTensor.from_dense(symmetrize_full(rng.standard_normal((n,) * k)))

    def scalar():
        return SymmetricTensor.scalar(float(rng.standard_normal()), n)

    def powers(k, vectors):
        return SymmetricTensor.from_powers(
            k, n, [float(rng.standard_normal()) for _ in vectors], vectors)

    u, v = vec(), vec()
    u_copy = u.copy()
    return {
        "dense": ChaosVector([scalar(), dense(1), dense(2), dense(3)], n),
        "powers-distinct": ChaosVector(
            [scalar()] + [powers(k, [vec(), vec(), vec()]) for k in (1, 2, 3)], n),
        "powers-repeated": ChaosVector(
            [scalar()] + [powers(k, [u, v, u, u_copy]) for k in (1, 2, 3)], n),
        "mixed": ChaosVector(
            [scalar(), powers(1, [u, v]), dense(2), powers(3, [v, u, v])], n),
        "dense-top": ChaosVector(
            [scalar(), powers(1, [u]), powers(2, [u, v]), dense(3)], n),
        "wick": wick_exponential_chaos(ctx, 0.4 * u, 3),
        "wick-long": wick_exponential_chaos(ctx, 0.4 * v, 12),
        "constant": ChaosVector.constant(float(rng.standard_normal()), n),
        "powers-reordered": ChaosVector(
            [scalar(), powers(1, [u]), powers(2, [v]), powers(3, [u, v])], n),
    }


def assert_same_tensor(a, b):
    assert (a.order, a.dim, a.is_powers) == (b.order, b.dim, b.is_powers)
    if a.is_powers:
        assert a.weights.shape == b.weights.shape
        assert np.all(a.weights == b.weights)
        assert np.array_equal(a.vectors, b.vectors)
    else:
        assert np.array_equal(np.asarray(a.dense), np.asarray(b.dense))


def assert_same_chaos(a, b):
    assert a.max_order == b.max_order and a.dim == b.dim
    for fa, fb in zip(a.coeffs, b.coeffs):
        assert_same_tensor(fa, fb)


def assert_same_bits(a, b):
    """Chaos vectors or floats equal byte for byte: storage, shapes, and the
    sign of every zero."""
    if not isinstance(a, ChaosVector):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (a, b)
        return
    assert a.max_order == b.max_order and a.dim == b.dim
    for fa, fb in zip(a.coeffs, b.coeffs):
        assert (fa.order, fa.is_powers) == (fb.order, fb.is_powers)
        for x, y in ([(fa.weights, fb.weights), (fa.vectors, fb.vectors)] if fa.is_powers
                     else [(fa.dense, fb.dense)]):
            x, y = np.asarray(x), np.asarray(y)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
