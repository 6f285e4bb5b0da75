"""Oracle tests: the whole-vector pairing plan, the whole-order weights of
`shifted_qce`, its order 0 folded from the plan's row pairings, the domain
terms formed once per plan row and the hoisted plans of the weak check give
the per-coefficient and per-order routes byte for byte.

The chaos vectors mix dense coefficients, one-row power sums, power sums of
several rows drawn from a pool of three (so rows repeat within and across
orders) and empty power sums; weights, constants and row entries include 0.0
and -0.0.  Every comparison is of bytes, so the sign of a zero counts.
"""

import math
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln

from wickgrid import (BSDEProblem, ChaosVector, FractionalBrownianMotion, ShiftContext,
                      SymmetricTensor, TimeGrid, WickCombo, build_gram, domain_diagnostic,
                      escape_direction, random_chaos, represent_solution, s_transform, shifted_qce,
                      symmetrize_full, verify_solution_weak, wick_exponential_solution)
from wickgrid.chaos import GramImage, _fold
from wickgrid.errors import ParameterError

import pairing_oracle as oracle

_values = st.sampled_from([0.0, -0.0]) | st.floats(
    -2.0, 2.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)

oracle_test = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@cache
def ctx_for(dim):
    return build_gram(FractionalBrownianMotion(0.7), TimeGrid.uniform(dim))


@st.composite
def mixed_chaos(draw):
    dim, K = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    pool = draw(arrays(float, (3, dim), elements=_values))
    coeffs = [SymmetricTensor.scalar(draw(_values), dim)]
    for k in range(1, K + 1):
        kind = draw(st.sampled_from(["dense", "single", "multi", "empty"]))
        if kind == "dense" and k <= 3:
            t = draw(arrays(float, (dim,) * k, elements=_values))
            coeffs.append(SymmetricTensor.from_dense(symmetrize_full(t)))
        elif kind == "empty":
            coeffs.append(SymmetricTensor.zero(k, dim))
        else:
            rows = draw(st.lists(st.integers(0, 2), min_size=1 if kind == "single" else 2,
                                 max_size=1 if kind == "single" else 4))
            weights = draw(st.lists(_values, min_size=len(rows), max_size=len(rows)))
            # the constructor keeps zero weights, as shifted_qce's one-row orders do
            coeffs.append(SymmetricTensor(k, dim, weights=np.array(weights), vectors=pool[rows]))
    return ChaosVector(coeffs, dim)


@oracle_test
@given(st.data())
def test_gram_image_s_matches_the_per_coefficient_route(data):
    xi = data.draw(mixed_chaos())
    ctx = ctx_for(xi.dim)
    for _ in range(2):          # the second direction reuses the cached plan
        h = data.draw(arrays(float, xi.dim, elements=_values))
        image = GramImage(ctx, h)
        want = oracle.s_transform(ctx, xi, h)
        oracle.assert_same_bits(image.s(xi), want)
        oracle.assert_same_bits(image.s(xi), want)      # a second call, the same bits


@st.composite
def planned_chaos(draw):
    """A chaos vector on N in {1, 2, 7, 24, 31}: per order a dense tensor (orders
    1-3, sometimes a transposed, non-contiguous one), a one-row power sum over
    the rows u, v and an equal-bytes copy of u, a power sum of several of them,
    or an empty one.  Entries come from a seeded generator; weights and the
    constant are 0.0 or -0.0 in about a third of the draws."""
    dim, K = draw(st.sampled_from([1, 2, 7, 24, 31])), draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = rng.standard_normal((2, dim))
    pool = np.array([u, v, u])

    def value():
        pick = draw(st.integers(0, 5))
        return (0.0, -0.0)[pick] if pick < 2 else float(rng.standard_normal())

    coeffs = [SymmetricTensor.scalar(value(), dim)]
    for k in range(1, K + 1):
        kind = draw(st.sampled_from(["dense", "transposed", "single", "multi", "empty"]))
        if kind in ("dense", "transposed") and k <= 3:
            t = symmetrize_full(rng.standard_normal((dim,) * k))
            coeffs.append(SymmetricTensor.from_dense(t.T if kind == "transposed" else t))
        elif kind == "empty":
            coeffs.append(SymmetricTensor.zero(k, dim))
        else:
            rows = draw(st.lists(st.integers(0, 2), min_size=1 if kind == "single" else 2,
                                 max_size=1 if kind == "single" else 3))
            # indexing copies the rows, so equal bytes never mean the same array
            coeffs.append(SymmetricTensor(k, dim, weights=np.array([value() for _ in rows]),
                                          vectors=pool[rows]))
    h = rng.standard_normal((2, dim))
    h[:, rng.random(dim) < 0.2] = 0.0
    return ChaosVector(coeffs, dim), h


@oracle_test
@given(planned_chaos())
def test_s_from_the_plan_matches_one_pairing_per_coefficient(case):
    xi, directions = case
    ctx = ctx_for(xi.dim)
    event(f"N = {xi.dim}")
    for h in directions:        # the second direction reuses the cached plan
        want = oracle.s_by_coefficient(GramImage(ctx, h), xi)
        assert repr(GramImage(ctx, h).s(xi)) == repr(want)


def _big(kind, k, value):
    if kind == "dense":
        return SymmetricTensor.from_dense(np.full((1,) * k, value))
    rows = 1 if kind == "single" else 2
    return SymmetricTensor.from_powers(k, 1, [value / rows] * rows, np.ones((rows, 1)))


@pytest.mark.parametrize("kinds, signs, want", [
    (("dense", "single"), (-1, 1), "1e+308"),
    (("single", "dense"), (-1, 1), "1e+308"),
    (("single", "dense"), (1, -1), "inf"),
    (("dense", "multi"), (-1, 1), "1e+308"),
])
def test_s_overflows_where_one_pairing_per_coefficient_does(kinds, signs, want):
    # summands 1e308, +-1e308, +-1e308 at orders 0, 1, 2 on a grid of one
    # increment with G h = 1: whether fsum overflows on an intermediate sum
    # depends on the order of its inputs, and where it does the left fold
    # reads inf, so S must take them in coefficient order, as one pairing per
    # coefficient does
    ctx = ctx_for(1)
    h = np.array([1.0 / ctx.G[0, 0]])
    xi = ChaosVector([SymmetricTensor.scalar(1e308, 1)] + [
        _big(kind, k, sign * 1e308) for k, (kind, sign) in enumerate(zip(kinds, signs), 1)], 1)
    got = [repr(route(xi)) for route in
           (GramImage(ctx, h).s, lambda xi: oracle.s_by_coefficient(GramImage(ctx, h), xi))]
    assert got == [want, want]



def _s_values_batch(ctx):
    """The sample vectors of pairing_oracle, then dense, one-row and several-row
    coefficients holding inf, -inf, nan, -nan and -0.0, then dense tensors
    and power sums whose pairings with a direction of order 1e10 pass the
    double range (while no power <v, w>^k does, which would raise)."""
    n = ctx.n
    rng = np.random.default_rng(31)
    batch = list(oracle.sample_chaos_vectors(rng, ctx).values())
    for entries in ([math.inf, -0.0], [math.nan, -math.inf], [-math.nan, math.nan]):
        t = rng.standard_normal((n, n))
        t.flat[: len(entries)] = entries
        rows = rng.standard_normal((2, n))
        rows[0, 0] = entries[0]
        batch.append(ChaosVector([
            SymmetricTensor.scalar(entries[-1], n), SymmetricTensor.from_dense(t[0]),
            SymmetricTensor.from_dense(t),
            SymmetricTensor(3, n, weights=np.array([entries[0]]), vectors=rows[:1]),
            SymmetricTensor(4, n, weights=np.array([1.0, entries[1]]), vectors=rows)], n))
    batch.append(ChaosVector([SymmetricTensor.scalar(1.0, n),
                              SymmetricTensor.from_dense(1e308 * np.ones(n)),
                              SymmetricTensor.from_dense(1e308 * np.ones((n, n)))], n))
    batch.append(ChaosVector([SymmetricTensor.scalar(1e308, n)] + [SymmetricTensor.from_powers(
        k, n, [1e300] * rows, rng.standard_normal((rows, n))) for k, rows in ((1, 1), (2, 2))], n))
    return batch


@pytest.mark.parametrize("dim", [1, 2, 7, 24])
@pytest.mark.parametrize("scale", [1.0, 1e10])
def test_batched_s_values_match_one_pairing_per_coefficient(dim, scale):
    # one s_values call per batch, under one errstate, gives each vector the
    # bits of the _sum of pair(f) over its coefficients, without a warning
    ctx = ctx_for(dim)
    image = GramImage(ctx, scale * np.linspace(0.5, 1.0, dim))
    batch = _s_values_batch(ctx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = image.s_values(batch)
        assert image.s_values([]) == []
    with np.errstate(over="ignore", invalid="ignore"):      # the oracle's pairings warn
        want = [oracle.s_by_coefficient(image, xi) for xi in batch]
    assert len(got) == len(want) == len(batch)
    for x, y in zip(got, want):
        oracle.assert_same_bits(x, y)
    assert any(math.isnan(x) for x in got)
    assert any(math.isinf(x) for x in got) or scale == 1.0


@pytest.mark.parametrize("order", [2, 3])
def test_a_batch_raises_the_power_overflow_of_its_first_vector_that_holds_one(order):
    # vectors before and after the first overflowing one change nothing: the
    # error is the one that pairing the batch one vector at a time raises
    ctx = ctx_for(2)
    image = GramImage(ctx, [1.0, 0.0])
    zero = [SymmetricTensor.scalar(0.0, 2)] + [SymmetricTensor.zero(k, 2) for k in (1, 2, 3)]

    def past_range(k, rows):
        coeffs = list(zero)
        coeffs[k] = SymmetricTensor.from_powers(k, 2, [1.0] * rows,
                                                [[1e200, 1.0], [1.0, 1.0]][:rows])
        return ChaosVector(coeffs, 2)

    batch = [random_chaos(np.random.default_rng(0), 2, 3), past_range(order, 1),
             past_range(5 - order, 2), ChaosVector(zero, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(image.s_values, batch)
        want = outcome(lambda: [image.s(xi) for xi in batch])
    assert got == want
    assert got[0] == "error" and got[2].startswith(f"pairing order {order} overflows a double")


@pytest.mark.parametrize("rows", [1, 2])
def test_a_power_past_the_double_range_is_a_parameter_error_naming_its_order(rows):
    # <v, w>^3 = 1e360 as a Python float power raised a bare OverflowError
    # from pair, s and s_transform.  A one-row sum is paired through the plan
    # and a two-row one through pair.  shifted_qce contracts the same rows
    # raw, and still names the order it was forming
    ctx = ctx_for(2)
    f = SymmetricTensor.from_powers(3, 2, [1.0] * rows, [[1e120, 1.0], [1.0, 1.0]][:rows])
    xi = ChaosVector([SymmetricTensor.scalar(0.0, 2), SymmetricTensor.zero(1, 2),
                      SymmetricTensor.zero(2, 2), f], 2)
    image = GramImage(ctx, [1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route, arg in ((image.pair, f), (image.s, xi),
                           (lambda xi: s_transform(ctx, xi, [1.0, 0.0]), xi)):
            with pytest.raises(ParameterError, match=r"^pairing order 3 overflows a double"):
                route(arg)
        with pytest.raises(ParameterError, match=r"^shifted QCE order 0 overflows a double"):
            shifted_qce(ShiftContext(ctx, 0.5, [1e120, 1e120]), xi)

@pytest.mark.parametrize("weights, kept", [
    ([0.5, -2.0, 5e-324], True),          # a subnormal weight is not zero
    ([math.nan, 1.0], True),
    ([], True),
    ([0.5, 0.0, -1.0], False),
    ([-0.0, 0.0, 1e-300], False),
])
def test_from_powers_keeps_its_arrays_where_no_weight_is_zero(weights, kept):
    # the masked route copies at every call; from_powers gives the same bytes
    # and holds the caller's float arrays themselves when it drops no term
    w = np.array(weights, dtype=float)
    V = np.linspace(-1.0, 1.0, 3 * w.size).reshape(w.size, 3)
    got, want = SymmetricTensor.from_powers(4, 3, w, V), oracle.from_powers_by_mask(4, 3, w, V)
    for x, y in [(got.weights, want.weights), (got.vectors, want.vectors)]:
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert (got.weights is w, got.vectors is V) == (kept, kept)


@pytest.mark.parametrize("alpha, K", [(0.7, 12), (1e-300, 170), (-0.0, 3), (0.0, 5)])
def test_wick_chain_rows_match_the_masked_route(alpha, K):
    # alpha / k! underflows to 0 from k = 24 at alpha = 1e-300, and a zero alpha
    # gives zero weights at every order: those orders drop the row; the other
    # orders share one row array, which from_powers keeps
    g = 0.3 * np.linspace(-1.0, 1.0, 7)
    got = WickCombo([(alpha, None, g), (1.5, None, -g)], 7).to_chaos(ctx_for(7), K)
    for k, f in enumerate(got.coeffs[1:], 1):
        want = oracle.from_powers_by_mask(k, 7, [alpha / math.factorial(k),
                                                 1.5 / math.factorial(k)], np.array([g, -g]))
        for x, y in [(f.weights, want.weights), (f.vectors, want.vectors)]:
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    full = [f for f in got.coeffs[1:] if f.weights.size == 2]
    assert all(f.vectors is full[0].vectors for f in full)
    assert len(full) == {0.7: K, 1e-300: 23}.get(alpha, 0)


@oracle_test
@given(st.data())
def test_shifted_qce_matches_the_by_order_route(data):
    xi = data.draw(mixed_chaos())
    ctx = ctx_for(xi.dim)
    c = data.draw(arrays(float, xi.dim, elements=_values))
    sc = ShiftContext(ctx, ctx.grid.points[data.draw(st.integers(0, xi.dim))], c)
    got = shifted_qce(sc, xi)
    oracle.assert_same_bits(got, oracle.shifted_qce_by_order(sc, xi))
    oracle.assert_same_chaos(got, oracle.shifted_qce(sc, xi))


_edges = st.sampled_from([math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0]) | _values


@st.composite
def nonfinite_cases(draw):
    """(xi, c, i): order 0 and, at each order 1..K, a one-row power sum over a
    pool of three rows or an empty sum, the constant and every weight +-inf,
    +-nan, +-0 or in [-2, 2]; a shift c, and the node i of r."""
    dim, K = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    pool = draw(arrays(float, (3, dim), elements=_values))
    coeffs = [SymmetricTensor.scalar(draw(_edges), dim)]
    for k in range(1, K + 1):
        rows = pool[draw(st.lists(st.integers(0, 2), max_size=1))]
        coeffs.append(SymmetricTensor(k, dim, weights=np.array([draw(_edges) for _ in rows]),
                                      vectors=rows))
    c = draw(arrays(float, dim, elements=_values))
    return ChaosVector(coeffs, dim), c, draw(st.integers(0, dim))


# at r = 0 every cut row merges, and c_r = -c: the rows of orders 1 and 2 meet
# at order 1 with weights inf and -2 inf <v, c_r> < 0, whose sum is nan
_INF_MEETS_MINUS_INF = (ChaosVector([SymmetricTensor.scalar(1.0, 2)] + [
    SymmetricTensor(k, 2, weights=np.array([w]), vectors=np.ones((1, 2)))
    for k, w in ((1, math.inf), (2, -math.inf))], 2), -np.ones(2), 0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(nonfinite_cases())
@example(_INF_MEETS_MINUS_INF)
def test_shifted_qce_on_nonfinite_weights_matches_the_per_coefficient_route(case):
    # order 0 is a float fold whose NaN sign depends on the order of its adds
    xi, c, i = case
    ctx = ctx_for(xi.dim)
    sc = ShiftContext(ctx, ctx.grid.points[i], c)
    got = shifted_qce(sc, xi)
    with np.errstate(invalid="ignore"):     # the oracle's numpy adds warn
        want = oracle.shifted_qce_by_coefficient(sc, xi)
    oracle.assert_same_bits(got, want)


def _two_node_shift():
    ctx = ctx_for(2)
    return ShiftContext(ctx, ctx.grid.points[1], np.array([0.3, -0.2]))


def test_a_power_sum_pairing_of_inf_minus_inf_is_nan():
    # fsum raised a bare ValueError (-inf + inf) from GramImage.pair, which
    # shifted_qce reaches through contract_last; the terms fold left to right
    sc = _two_node_shift()
    f = SymmetricTensor.from_powers(1, 2, [math.inf, -math.inf], [[1.0, 0.5], [0.2, 1.0]])
    xi = ChaosVector([SymmetricTensor.scalar(0.0, 2), f], 2)
    image = GramImage(sc.ctx, sc.c_r)
    assert math.isnan(image.pair(f))
    assert np.float64(image.pair(f)).tobytes() == np.float64(_fold(image.terms(f, 1))).tobytes()
    got = shifted_qce(sc, xi)
    assert math.isnan(got.coeffs[0].dense)
    with np.errstate(invalid="ignore"):     # the oracle's numpy adds warn
        want = oracle.shifted_qce_by_coefficient(sc, xi)
    oracle.assert_same_bits(got, want)


def test_a_power_sum_pairing_past_the_double_range_is_inf():
    # fsum raises OverflowError on 1e308 + 1e308; the left fold gives inf
    ctx = ctx_for(1)
    f = SymmetricTensor.from_powers(2, 1, [1e308, 1e308], np.ones((2, 1)))
    assert GramImage(ctx, np.array([1.0 / ctx.G[0, 0]])).pair(f) == math.inf


def test_a_dense_contraction_past_the_double_range_is_silent():
    # np.dot in contract_dense warned "overflow encountered in dot" (and
    # "invalid value") where a power sum past the range reads inf or nan
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(8))
    rng = np.random.default_rng(0)
    xi, eta = random_chaos(rng, 8, 3), random_chaos(rng, 8, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = GramImage(ctx, 1e120 * np.ones(8)).s(xi)
        order0 = shifted_qce(ShiftContext(ctx, 0.5, 1e200 * np.ones(8)), eta).coeffs[0].dense
    assert s == math.inf
    assert math.isnan(order0)


@pytest.mark.parametrize("w, v", [(math.inf, [1.0, 0.0]), (1e300, [1e10, 1.0])])
def test_densifying_a_power_sum_is_silent_where_python_floats_are(w, v):
    # inf * 0 and a product past the double range warned in the outer
    # products under an order-1 dense coefficient
    sc = _two_node_shift()
    f = SymmetricTensor.from_powers(2, 2, [w], [v])
    assert f.to_dense().tobytes() == np.array([[w * a * b for b in v] for a in v]).tobytes()
    xi = ChaosVector([SymmetricTensor.scalar(0.0, 2), SymmetricTensor.from_dense([0.1, 0.2]), f], 2)
    got = shifted_qce(sc, xi)
    with np.errstate(invalid="ignore"):
        want = oracle.shifted_qce_by_coefficient(sc, xi)
    oracle.assert_same_bits(got, want)


def long_chains(ctx, sc, K):
    """The escape chain f^(x k) / sqrt(k!), a Wick combo whose orders hold
    three rows, two of them equal once cut at m, and a chain of K distinct
    random rows with weights of order one; their pairings with c_r and the
    probe are of order one, so the last bit of every pairing and every
    C(k, n) reaches the result."""
    f = escape_direction(sc)
    n = ctx.n
    g = np.where(np.arange(n) < sc.m, f, -f)
    chain = ChaosVector([SymmetricTensor.scalar(1.0, n)] + [SymmetricTensor.from_powers(
        k, n, [1.0 / math.sqrt(math.factorial(k))], [f]) for k in range(1, K + 1)], n)
    combo = WickCombo([(0.7, None, 0.3 * f), (-0.4, None, 0.3 * g), (1.1, None, 0.2 * f)], n)
    rng = np.random.default_rng(K)
    distinct = ChaosVector([SymmetricTensor.scalar(0.5, n)] + [SymmetricTensor.from_powers(
        k, n, [rng.standard_normal()], [0.2 * rng.standard_normal(n)])
        for k in range(1, K + 1)], n)
    return {"chain": chain, "combo": combo.to_chaos(ctx, K), "distinct": distinct}


def long_chain_shift(c_scale=10.0):
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(16))
    return ctx, ShiftContext(ctx, 0.5, c_scale * np.ones(16))


@pytest.mark.parametrize("K", [150, 170])
def test_long_chains_match_the_by_order_and_per_coefficient_routes(K):
    ctx, sc = long_chain_shift()
    w = sc.shifted_direction(np.linspace(-1.0, 1.0, 16))
    chains = long_chains(ctx, sc, K)
    assert 1.0 < GramImage(ctx, sc.c_r).pairings(chains["chain"].coeffs[1].vectors)[0] < 3.0
    for xi in chains.values():
        oracle.assert_same_bits(shifted_qce(sc, xi), oracle.shifted_qce_by_order(sc, xi))
        oracle.assert_same_bits(GramImage(ctx, w).s(xi), oracle.s_transform(ctx, xi, w))


def test_weights_past_the_double_range_are_inf_as_in_python():
    # w <v, c_r>^j overflows in the product, not in the power: Python's float
    # * gives inf without a warning, and so must the whole-order weights
    ctx, sc = long_chain_shift()
    f = long_chains(ctx, sc, 1)["chain"].coeffs[1].vectors
    xi = ChaosVector([SymmetricTensor.scalar(1.0, 16)]
                     + [SymmetricTensor.zero(k, 16) for k in range(1, 100)]
                     + [SymmetricTensor.from_powers(100, 16, [1e300], f)], 16)
    got = shifted_qce(sc, xi)
    assert np.isinf(got.coeffs[1].weights).all() and np.isfinite(got.coeffs[99].weights).all()
    oracle.assert_same_bits(got, oracle.shifted_qce_by_order(sc, xi))


def test_an_infinite_weight_reaches_no_order_above_its_own():
    # order n takes a row's weight only from orders k >= n, so the inf at
    # order 1 must stay out of the group its row forms at orders 2 and 3
    ctx, sc = long_chain_shift()
    u = np.linspace(0.1, 0.4, 16)
    xi = ChaosVector([SymmetricTensor.scalar(1.0, 16)] + [SymmetricTensor.from_powers(
        k, 16, [w], [u]) for k, w in ((1, np.inf), (2, 0.5), (3, 0.25))], 16)
    got = shifted_qce(sc, xi)
    assert np.isinf(got.coeffs[1].weights).all() and np.isfinite(got.coeffs[2].weights).all()
    oracle.assert_same_bits(got, oracle.shifted_qce_by_order(sc, xi))


def test_domain_terms_match_a_fresh_row_norm_per_order():
    ctx, sc = long_chain_shift(0.5)
    tilde = shifted_qce(sc, long_chains(ctx, sc, 150)["chain"])
    got = domain_diagnostic(sc, escape_direction(sc), 150).log_terms
    for k in range(151):
        nrm_sq = oracle.norm_sq_stable(ctx, tilde.get(k))
        assert nrm_sq > 0 and got[k] == gammaln(k + 1) + math.log(nrm_sq)


def test_a_zero_row_gives_no_domain_term():
    # f is zero before the split: every order k >= 1 of the shifted chain
    # holds the zero cut row, whose tensor_inner is 0, so only order 0 has a
    # term; factoring out its norm 0 would divide by 0
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(8))
    sc = ShiftContext(ctx, 0.5, np.ones(8))
    f = np.where(np.arange(8) < sc.m, 0.0, 0.7)
    got = domain_diagnostic(sc, f, 5)
    want = oracle.domain_diagnostic(sc, f, 5)
    assert np.isfinite(got.log_terms[0]) and np.isneginf(got.log_terms[1:]).all()
    for name in ("log_terms", "partial_sums", "term_ratios"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_a_power_table_overflow_names_order_0():
    # <1, c_r>^169 leaves the double range while the table is built, before
    # any order is formed; the error still names order 0, as the per-order
    # route, which overflows first at order 0, does
    ctx = build_gram(FractionalBrownianMotion(0.3), TimeGrid.uniform(8))
    sc = ShiftContext(ctx, 0.5, 500.0 * np.ones(8))
    xi = ChaosVector([SymmetricTensor.scalar(1.0, 8)] + [SymmetricTensor.from_powers(
        k, 8, [1.0], [np.ones(8)]) for k in range(1, 171)], 8)
    with pytest.raises(ParameterError, match="order 0 overflows a double"):
        shifted_qce(sc, xi)


def outcome(route, *args):
    """("value", the result) or ("error", type, message) of route(*args)."""
    try:
        return "value", route(*args)
    except ParameterError as exc:
        return "error", type(exc), str(exc)


_entries = arrays(float, 16, elements=st.floats(-1.0, 1.0), fill=st.nothing())


@oracle_test
@given(H=st.floats(0.05, 0.95), N=st.integers(2, 16), K_max=st.integers(1, 170),
       r=st.integers(1, 15), f=_entries, f_scale=st.sampled_from([0.0, 0.1, 1.0, 3.0, 10.0, 30.0]),
       c=_entries, c_scale=st.sampled_from([0.0, 1.0, 10.0, 100.0]))
# partial sums past 1e300, with exp overflowing past 709; order-0 powers past
# the double range; zero rows; terms past the double range
@example(H=0.3, N=8, K_max=170, r=4, f=np.linspace(-0.5, 1.0, 16), f_scale=30.0,
         c=np.zeros(16), c_scale=0.0)
@example(H=0.3, N=8, K_max=170, r=4, f=np.linspace(-0.5, 1.0, 16), f_scale=3.0,
         c=np.ones(16), c_scale=100.0)
@example(H=0.3, N=8, K_max=170, r=4, f=np.ones(16), f_scale=0.0, c=np.ones(16), c_scale=100.0)
@example(H=0.5, N=2, K_max=63, r=1, f=np.ones(16), f_scale=30.0,
         c=np.eye(16)[1], c_scale=100.0)
@example(H=0.0625, N=2, K_max=95, r=1, f=np.ones(16), f_scale=30.0,
         c=np.eye(16)[0], c_scale=10.0)
def test_domain_series_matches_the_per_order_route(H, N, K_max, r, f, f_scale, c, c_scale):
    # entries in [-1, 1] scaled: |c| up to 100 takes <f, c_r>^k past the
    # double range (a ParameterError naming order 0), a long f takes the
    # partial sums past 1e300 (inf, overflowed), and a zero f gives zero rows
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(N))
    f = f_scale * f[:N]
    sc = ShiftContext(ctx, ctx.grid.points[min(r, N - 1)], c_scale * c[:N])
    got = outcome(domain_diagnostic, sc, f, K_max)
    with np.errstate(over="ignore", invalid="ignore"):     # the oracle warns on inf terms
        want = outcome(oracle.domain_diagnostic, sc, f, K_max)
    event("zero f" if not f.any() else "nonzero f")
    if want[0] == "error":
        event(want[2].split(":")[0])
        assert got == want
        return
    event(f"overflowed {want[1].overflowed}")
    assert got[0] == "value"
    for name in ("log_terms", "partial_sums", "term_ratios"):
        assert getattr(got[1], name).tobytes() == getattr(want[1], name).tobytes(), name
    assert got[1].overflowed is want[1].overflowed


@st.composite
def weak_problems(draw):
    """A problem and its solution: dense data represented with a driver at
    every node, at some nodes only, or at none, or the closed-form Wick
    solution at K in {0, 1, 10, 30} with xi the last node itself or an equal
    copy of it; sometimes one node is NaN."""
    n = draw(st.integers(1, 5))
    ctx = ctx_for(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    a = 0.5 * rng.standard_normal(n)
    c = 0.5 * rng.standard_normal(n)
    # the seeded generator picks the kind and K: hypothesis would draw the
    # first entries of a short list far more often than the others
    kind = rng.choice(["dense", "dense, with a driver", "dense, with a driver at some nodes",
                       "wick, xi the last node", "wick, xi a copy of it"])
    event(kind)
    if kind.startswith("dense"):
        G = None
        if "driver" in kind:
            G = [ChaosVector.constant(float(rng.standard_normal()), n)] + [
                ChaosVector.first_chaos(np.where(np.arange(n) < i, rng.standard_normal(n), 0.0),
                                        constant=float(rng.standard_normal()))
                for i in range(1, n + 1)]
        if kind.endswith("some nodes"):
            # between 1 and n of the n + 1 nodes keep their entry
            keep = rng.permutation(n + 1) < rng.integers(1, n + 1)
            G = [g if kept else None for g, kept in zip(G, keep)]
        problem = BSDEProblem(ctx, a, ctx.grid.points, c=c, G=G,
                              xi=random_chaos(rng, n, draw(st.integers(0, 3))))
        solution = represent_solution(problem)
    else:
        problem = BSDEProblem(ctx, a, ctx.grid.points, c=c, xi=ChaosVector.constant(1.0, n))
        f = 0.5 * ctx.unit(rng.standard_normal(n))
        K = int(rng.choice([0, 1, 10, 30]))
        event(f"wick K = {K}")
        solution = wick_exponential_solution(problem, f, K=K)
        last = solution.Y_nodes[-1]
        problem.xi = last if kind.endswith("node") else ChaosVector(list(last.coeffs), n)
    if draw(st.booleans()):
        solution.Y_nodes[draw(st.integers(0, n))] = ChaosVector.constant(math.nan, n)
        event("a NaN node")
    return problem, solution


@oracle_test
@given(weak_problems(), st.integers(1, 2), st.integers(0, 99))
def test_weak_check_matches_the_per_node_route(case, trials, seed):
    problem, solution = case
    got = verify_solution_weak(problem, solution, trials, seed)
    want = oracle.verify_solution_weak(problem, solution, trials, seed)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_the_weak_check_pairs_each_probe_in_one_batch(monkeypatch):
    # one s_values call per probe: the equation at node v reads Y_n, xi, then
    # Y_i and the G_i given, for i = n-1 ... v; the full equation (a Z is
    # given) adds one call per trial for the nodes
    n, trials = 4, 2
    ctx = ctx_for(n)
    rng = np.random.default_rng(5)
    G = [None, None, ChaosVector.first_chaos([0.3, -0.2, 0.0, 0.0], constant=0.4), None,
         ChaosVector.constant(-0.7, n)]
    problem = BSDEProblem(ctx, 0.5 * rng.standard_normal(n), ctx.grid.points,
                          c=0.5 * rng.standard_normal(n), G=G, xi=random_chaos(rng, n, 2))
    solution = represent_solution(problem)
    calls = []
    s_values = GramImage.s_values
    monkeypatch.setattr(GramImage, "s_values",
                        lambda image, xis: calls.append(list(xis)) or s_values(image, xis))
    got = verify_solution_weak(problem, solution, trials, 3)
    Y = solution.Y_nodes
    want = []
    for v in range(n + 1):
        nodes = [Y[n], problem.xi]
        for i in range(n - 1, v - 1, -1):
            nodes += [Y[i]] + ([G[i]] if G[i] is not None else [])
        want.append(nodes)
    assert len(calls) == trials * (n + 1)
    assert all(list(map(id, got_nodes)) == list(map(id, nodes))
               for got_nodes, nodes in zip(calls, want * trials))
    assert got == oracle.verify_solution_weak(problem, solution, trials, 3)
