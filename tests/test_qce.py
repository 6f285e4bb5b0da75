"""Shifted quasi-conditional expectation: closed forms, towering, domain, escape."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import logsumexp

from wickgrid import (
    BrownianMotion,
    ChaosVector,
    FractionalBrownianMotion,
    ShiftContext,
    SymmetricTensor,
    TimeGrid,
    TruncationOperator,
    WickCombo,
    build_gram,
    contract_with_shift,
    domain_diagnostic,
    escape_direction,
    operator_norm,
    random_chaos,
    s_transform,
    shifted_qce,
    symmetrize_full,
    wick_exponential_chaos,
)
from wickgrid.errors import DegenerateSplitError, MartingaleCaseError, ParameterError, ShapeError
from wickgrid.qce import _LOG_OVERFLOW, _prefix_logsumexp

import pairing_oracle as oracle


@pytest.fixture
def ctx():
    return build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(8))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------------
# shift context and contraction
# ---------------------------------------------------------------------------

def test_zero_shift_kernel(ctx):
    sc = ShiftContext(ctx, 0.5, None)
    assert np.array_equal(sc.c_r, np.zeros(8))


def test_shift_kernel_orthogonal_to_past(ctx, rng):
    c = rng.standard_normal(8)
    sc = ShiftContext(ctx, 0.5, c)
    for _ in range(10):
        past = np.zeros(8)
        past[:sc.m] = rng.standard_normal(sc.m)
        assert ctx.inner(sc.c_r, past) == pytest.approx(0.0, abs=1e-10)


def test_contract_identity_and_zero(ctx, rng):
    f = SymmetricTensor.from_dense(symmetrize_full(rng.standard_normal((8, 8))))
    sc0 = ShiftContext(ctx, 0.5, None)
    assert np.allclose(contract_with_shift(sc0, f, 2).dense, f.dense)
    z = contract_with_shift(sc0, f, 1)
    assert np.allclose(z.dense, 0.0)
    with pytest.raises(ShapeError):
        contract_with_shift(sc0, f, 3)


def test_contract_rank_one(ctx, rng):
    a = rng.standard_normal(8)
    c = rng.standard_normal(8)
    sc = ShiftContext(ctx, 0.5, c)
    k, i = 4, 1
    f = SymmetricTensor.from_powers(k, 8, [1.0], [a])
    got = contract_with_shift(sc, f, i)
    scal = ctx.inner(a, sc.c_r) ** (k - i)
    assert got.is_powers
    assert got.weights[0] == pytest.approx(scal, rel=1e-12)
    assert np.array_equal(got.vectors, [a])
    # dense route agrees
    f3 = SymmetricTensor.from_powers(3, 8, [1.0], [a])
    dense = contract_with_shift(sc, SymmetricTensor.from_dense(f3.to_dense()), 1)
    pows = contract_with_shift(sc, f3, 1)
    assert np.allclose(dense.dense, pows.to_dense(), rtol=1e-11, atol=1e-12)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_unshifted_first_chaos_is_truncation(ctx, rng):
    sc = ShiftContext(ctx, 0.5, None)
    v = rng.standard_normal(8)
    got = shifted_qce(sc, ChaosVector.first_chaos(v))
    want = ChaosVector.first_chaos(sc.op.forward(v))
    assert got.sub(want).l2_norm(ctx) <= 1e-14


def test_shifted_process_value_closed_form(ctx, rng):
    c = rng.standard_normal(8)
    sc = ShiftContext(ctx, 0.5, c)
    for t in ctx.grid.points[1:]:
        ind = ctx.grid.indicator(t)
        got = shifted_qce(sc, ChaosVector.first_chaos(ind))
        # X_{t and r} - E[(X_t - X_{t and r}) I(c)]
        trunc = sc.op.forward(ind)
        want = ChaosVector.first_chaos(trunc, constant=-ctx.inner(ind - trunc, c))
        assert got.sub(want).l2_norm(ctx) <= 1e-12


def test_shifted_wick_exponential_closed_form(ctx, rng):
    c = 0.6 * rng.standard_normal(8)
    sc = ShiftContext(ctx, 0.5, c)
    K = 12
    for _ in range(6):
        h = ctx.unit(rng.standard_normal(8))
        got = shifted_qce(sc, wick_exponential_chaos(ctx, h, K))
        factor = math.exp(ctx.inner(h, sc.c_r))
        want = wick_exponential_chaos(ctx, sc.op.forward(h), K).scaled(factor)
        for _ in range(4):
            p = ctx.unit(rng.standard_normal(8))
            assert abs(s_transform(ctx, got, p)
                       - s_transform(ctx, want, p)) <= 1e-8


def test_s_composition_property(ctx, rng):
    # the defining relation (S out)(h) = (S in)((h+c)^r - c) holds exactly
    c = rng.standard_normal(8)
    sc = ShiftContext(ctx, 0.75, c)
    xi = random_chaos(rng, 8, 3)
    out = shifted_qce(sc, xi)
    for _ in range(10):
        h = rng.standard_normal(8)
        assert s_transform(ctx, out, h) == pytest.approx(
            s_transform(ctx, xi, sc.shifted_direction(h)), rel=1e-11, abs=1e-11)


# ---------------------------------------------------------------------------
# towering and measurability
# ---------------------------------------------------------------------------

def test_towering(ctx, rng):
    c = rng.standard_normal(8)
    for r1, r2 in [(0.25, 0.5), (0.375, 0.875), (0.125, 1.0)]:
        sc1 = ShiftContext(ctx, r1, c)
        sc2 = ShiftContext(ctx, r2, c)
        for _ in range(5):
            xi = random_chaos(rng, 8, 3)
            once = shifted_qce(sc1, xi)
            twice = shifted_qce(sc1, shifted_qce(sc2, xi))
            assert once.sub(twice).l2_norm(ctx) <= 1e-10


@st.composite
def _towering_cases(draw):
    N = draw(st.integers(1, 8))
    i1 = draw(st.integers(0, N))
    return (draw(st.floats(0.1, 0.9)), N, i1, draw(st.integers(i1, N)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_towering_cases())
def test_towering_property(case):
    # Q_{r1} Q_{r2} = Q_{r1} for grid nodes r1 <= r2 under one nonzero shift c,
    # at the tolerance of the qce-check experiment
    H, N, i1, i2, seed = case
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(N))
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(N)
    assume(np.any(c != 0.0))
    sc1 = ShiftContext(ctx, ctx.grid.points[i1], c)
    sc2 = ShiftContext(ctx, ctx.grid.points[i2], c)
    xi = random_chaos(rng, N, 3)
    once = shifted_qce(sc1, xi)
    assert once.sub(shifted_qce(sc1, shifted_qce(sc2, xi))).l2_norm(ctx) <= 1e-10


def test_measurable_fixed_point(ctx, rng):
    c = rng.standard_normal(8)
    sc = ShiftContext(ctx, 0.5, c)
    m = sc.m
    coeffs = [SymmetricTensor.scalar(0.3, 8)]
    for k in range(1, 4):
        t = np.zeros((8,) * k)
        t[(slice(0, m),) * k] = rng.standard_normal((m,) * k)
        coeffs.append(SymmetricTensor.from_dense(symmetrize_full(t)))
    xi = ChaosVector(coeffs, 8)
    assert shifted_qce(sc, xi).sub(xi).l2_norm(ctx) <= 1e-10


def test_fixed_points_are_measurable(ctx, rng):
    c = rng.standard_normal(8)
    sc = ShiftContext(ctx, 0.5, c)
    xi = random_chaos(rng, 8, 3)
    out = shifted_qce(sc, xi)
    # the output is measurable, i.e. itself a fixed point with support <= m
    assert out.support_bound() <= sc.m
    assert shifted_qce(sc, out).sub(out).l2_norm(ctx) <= 1e-10


def test_martingale_bayes_formula(rng):
    # on an independent-increment grid the operator is conditional
    # expectation under the Wick-exponential change of measure
    ctx = build_gram(BrownianMotion(), TimeGrid.uniform(8))
    c = 0.8 * rng.standard_normal(8)
    r = 0.5
    sc = ShiftContext(ctx, r, c)
    K = 12
    for _ in range(5):
        f = ctx.unit(rng.standard_normal(8))
        got = shifted_qce(sc, wick_exponential_chaos(ctx, f, K))
        c_fut = c.copy()
        c_fut[:sc.m] = 0.0
        bayes = (WickCombo.exponential(f)
                 .multiply_exponential(ctx, -c_fut)
                 .conditional_expectation_independent(ctx, r))
        for _ in range(4):
            p = ctx.unit(rng.standard_normal(8))
            assert abs(s_transform(ctx, got, p) - bayes.s(ctx, p)) <= 1e-8


# ---------------------------------------------------------------------------
# domain diagnostics
# ---------------------------------------------------------------------------

def test_domain_lower_bound_divergent(ctx):
    sc = ShiftContext(ctx, 0.5, None)
    f = escape_direction(sc)
    rho = ctx.norm_sq(TruncationOperator(ctx, 0.5).forward(f))
    assert rho > 1.0
    diag = domain_diagnostic(sc, f, 12)
    bounds = np.cumsum(rho ** np.arange(13))
    assert np.all(diag.partial_sums >= bounds * (1 - 1e-12))
    assert np.all(np.diff(diag.partial_sums) >= 0)


def test_domain_geometric_convergent(ctx):
    sc = ShiftContext(ctx, 0.5, None)
    f = 0.5 * ctx.grid.indicator(0.25) / ctx.norm(ctx.grid.indicator(0.25))
    rho = ctx.norm_sq(TruncationOperator(ctx, 0.5).forward(f))
    assert rho < 1.0
    diag = domain_diagnostic(sc, f, 20)
    geo = np.cumsum(rho ** np.arange(21))
    assert np.all(diag.partial_sums <= geo + 1e-12)
    # bm: partial sums equal the squared norm of the truncated image
    bm = build_gram(BrownianMotion(), TimeGrid.uniform(8))
    sc_bm = ShiftContext(bm, 0.5, None)
    g = 0.7 * bm.grid.indicator(0.25) / bm.norm(bm.grid.indicator(0.25))
    diag_bm = domain_diagnostic(sc_bm, g, 15)
    rho_bm = bm.norm_sq(TruncationOperator(bm, 0.5).forward(g))
    assert diag_bm.partial_sums[-1] == pytest.approx(np.sum(rho_bm ** np.arange(16)), rel=1e-11)


def test_domain_overflow_guard(ctx):
    sc = ShiftContext(ctx, 0.5, None)
    f = escape_direction(sc)
    diag = domain_diagnostic(sc, 4.0 * f, 60)
    assert np.all(np.isfinite(diag.log_terms[1:]))


def test_domain_diagnostic_with_vanishing_terms_warns_nothing(ctx):
    # f supported after r has Gamma_r f = 0, so every term past order 0 is 0
    # and each ratio of two of them is nan; -inf - -inf used to warn
    sc = ShiftContext(ctx, 0.5, None)
    f = np.zeros(8)
    f[sc.m:] = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = domain_diagnostic(sc, f, 6)
    assert diag.log_terms[0] == 0.0 and np.all(diag.log_terms[1:] == -np.inf)
    assert np.array_equal(diag.partial_sums, np.ones(7))
    assert diag.term_ratios[0] == 0.0 and np.all(np.isnan(diag.term_ratios[1:]))


def _scipy_prefix_logsumexp(a):
    return np.array([logsumexp(a[: k + 1]) for k in range(a.size)])


@st.composite
def _log_term_arrays(draw):
    # lengths 1-171 cross numpy's 8- and 128-element pairwise-sum blocks;
    # rounding makes ties at the running max, and the knobs add -inf entries,
    # an all -inf prefix and a +inf entry
    n = draw(st.integers(1, 171))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw(st.sampled_from([1.0, 30.0, 700.0])) * rng.standard_normal(n)
    if draw(st.booleans()):
        a = np.cumsum(np.abs(a))            # growing, like the domain series' terms
    if draw(st.booleans()):
        a = np.round(a)
    a[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = -np.inf
    a[: draw(st.integers(0, n))] = -np.inf
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = np.inf
    return a


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_log_term_arrays())
@example(np.array([0.0, 0.0, -np.inf, 1.0, 1.0, np.inf, 1.0]))
@example(np.full(171, -np.inf))
def test_prefix_logsumexp_is_scipy_per_prefix_bit_for_bit(a):
    got, want = _prefix_logsumexp(a), _scipy_prefix_logsumexp(a)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("H", [0.75, 0.3])
def test_domain_partial_sums_are_the_scipy_formula_bit_for_bit(H):
    # the two K_max = 150 series of the chaos-powers benchmark (nonexist-cert
    # at H = 0.75, domain-diagnostic at H = 0.3: N = 64, c_scale = 0.5, r = T/2)
    ctx = build_gram(FractionalBrownianMotion(H), TimeGrid.uniform(64))
    sc = ShiftContext(ctx, 0.5, 0.5 * ctx.grid.indicator(ctx.grid.T))
    diag = domain_diagnostic(sc, escape_direction(sc), 150)
    log_sums = _scipy_prefix_logsumexp(diag.log_terms)
    want = np.where(log_sums > _LOG_OVERFLOW, np.inf, np.exp(log_sums))
    assert np.array_equal(diag.partial_sums.view(np.uint64), want.view(np.uint64))


def test_shifted_qce_overflow_is_a_parameter_error_naming_the_order(ctx):
    # <h, c_r>^2 at a shift of 1e200 leaves the double range; the float power
    # raised a bare OverflowError
    sc = ShiftContext(ctx, 0.5, 1e200 * np.ones(8))
    xi = wick_exponential_chaos(ctx, np.ones(8), 2)
    with pytest.raises(ParameterError, match="order 0 overflows a double"):
        shifted_qce(sc, xi)
    shifted_qce(ShiftContext(ctx, 0.5, 1e100 * np.ones(8)), xi)


# ---------------------------------------------------------------------------
# escape direction
# ---------------------------------------------------------------------------

def test_escape_martingale_refusal():
    ctx = build_gram(BrownianMotion(), TimeGrid.uniform(8))
    with pytest.raises(MartingaleCaseError):
        escape_direction(ShiftContext(ctx, 0.5, None))


@pytest.mark.parametrize("model", [FractionalBrownianMotion(0.75), BrownianMotion()])
@pytest.mark.parametrize("r", [0.0, 1.0])
def test_escape_at_a_degenerate_split_is_a_degenerate_split_error(model, r):
    # at r = 0 or r = T one side of the split is empty; the operator norm test
    # used to call this a martingale grid, also on fBm
    ctx = build_gram(model, TimeGrid.uniform(8))
    with pytest.raises(DegenerateSplitError, match=r"past/future split needs 0 < r < T"):
        escape_direction(ShiftContext(ctx, r, None))


def test_escape_strict_inequalities(ctx):
    sc = ShiftContext(ctx, 0.5, None)
    f = escape_direction(sc)
    op = TruncationOperator(ctx, 0.5)
    lam = operator_norm(ctx, 0.5).opnorm ** 2
    assert ctx.norm(f) == pytest.approx(lam**-0.25, rel=1e-10)
    assert ctx.norm(f) < 1.0 < ctx.norm(op.forward(f))
    assert ctx.norm(op.forward(f)) == pytest.approx(lam**0.25, rel=1e-9)


def test_escape_sign_conventions(ctx, rng):
    # zero shift: deterministic tie-break, first nonzero coordinate positive
    f0 = escape_direction(ShiftContext(ctx, 0.5, None))
    nz = np.flatnonzero(np.abs(f0) > 1e-13)
    assert f0[nz[0]] > 0
    # nonzero shift: pairing with the kernel is nonnegative
    for _ in range(5):
        c = rng.standard_normal(8)
        sc = ShiftContext(ctx, 0.5, c)
        f = escape_direction(sc)
        assert ctx.inner(f, sc.c_r) >= -1e-12


# ---------------------------------------------------------------------------
# hoisted Gram image of c_r: bit-identical to per-(n, k) contraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 5, 24])
@pytest.mark.parametrize("c_scale", [0.0, 0.6])
def test_shifted_qce_matches_per_coefficient_route_exactly(n, c_scale):
    ctx = build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(n))
    rng = np.random.default_rng(300 + n)
    cases = oracle.sample_chaos_vectors(rng, ctx)
    c = c_scale * rng.standard_normal(n)
    for r in sorted({ctx.grid.points[0], ctx.grid.points[n // 2],
                     ctx.grid.points[-1]}):
        sc = ShiftContext(ctx, r, c)
        if c_scale == 0.0:
            assert not np.any(sc.c_r)
        elif r == 0.0:
            assert np.array_equal(sc.c_r, -c)
        for name, xi in cases.items():
            oracle.assert_same_chaos(shifted_qce(sc, xi), oracle.shifted_qce(sc, xi))


def _dense_edge_case(name):
    """(sc, xi) of an all-dense chaos vector whose orders are accumulated in
    place: -0.0 entries with no shift (the top order is zeros + f_3, so each
    -0.0 there reads +0.0), inf and nan entries of both signs, a grid of one
    increment (where numpy adds into a one-element array in place as a
    reduction, which keeps the other of two nans), and a shift past the
    double range."""
    rng = np.random.default_rng(11)
    if name == "one increment":
        ctx1 = build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(1))
        xi = ChaosVector([SymmetricTensor.scalar(1.0, 1)] + [
            SymmetricTensor.from_dense(np.full((1,) * k, x))
            for k, x in ((1, math.nan), (2, -math.nan), (3, 2.0))], 1)
        return ShiftContext(ctx1, 1.0, [0.5]), xi
    ctx8 = build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(8))
    xi = random_chaos(rng, 8, 3)
    c = rng.standard_normal(8)
    if name == "negative zeros":
        for f in xi.coeffs[1:]:
            f.dense[rng.random(f.dense.shape) < 0.3] = -0.0
        xi.coeffs[3].dense[:2] = -0.0
        c = None
    elif name == "inf and nan":
        for f in xi.coeffs[1:]:
            f.dense.flat[rng.integers(0, f.dense.size, 4)] = [math.inf, -math.inf,
                                                               math.nan, -math.nan]
    else:
        c = 1e200 * np.ones(8)
    return ShiftContext(ctx8, 0.5, c), xi


@pytest.mark.parametrize("name", ["negative zeros", "inf and nan", "one increment",
                                  "shift past the double range"])
def test_dense_orders_added_in_place_keep_the_bits_of_the_per_coefficient_route(name):
    sc, xi = _dense_edge_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shifted_qce(sc, xi)
    with np.errstate(over="ignore", invalid="ignore"):     # the oracles' numpy adds warn
        want, by_order = oracle.shifted_qce(sc, xi), oracle.shifted_qce_by_order(sc, xi)
    oracle.assert_same_bits(got, want)
    oracle.assert_same_bits(got, by_order)
    if name == "negative zeros":
        top = got.coeffs[3].dense[:2]
        assert np.signbit(xi.coeffs[3].dense[:2]).all()
        assert not top.any() and not np.signbit(top).any()
    elif name == "shift past the double range":
        assert math.isnan(got.coeffs[0].dense)


def test_shifted_qce_matches_per_coefficient_route_on_escape_chain(ctx):
    # the certificate's chain f^(x k) / sqrt(k!) at high order, pure power sums
    sc = ShiftContext(ctx, 0.5, 0.5 * np.ones(8))
    f = escape_direction(sc)
    xi = ChaosVector([SymmetricTensor.scalar(1.0, 8)] + [SymmetricTensor.from_powers(
        k, 8, [1.0 / math.sqrt(math.factorial(k))], [f]) for k in range(1, 41)], 8)
    oracle.assert_same_chaos(shifted_qce(sc, xi), oracle.shifted_qce(sc, xi))


def test_shifted_qce_leaves_a_single_row_unmerged_like_the_per_coefficient_route(ctx):
    # with c = 0 the order-2 row reaches order 1 with weight 0; a suffix of one
    # row is not merged, so that row stays as it does in the reference route
    u = np.linspace(0.1, 0.8, 8)
    xi = ChaosVector([SymmetricTensor.scalar(1.0, 8), SymmetricTensor.zero(1, 8),
                      SymmetricTensor.from_powers(2, 8, [0.5], [u])], 8)
    sc = ShiftContext(ctx, 0.5, None)
    got = shifted_qce(sc, xi)
    oracle.assert_same_chaos(got, oracle.shifted_qce(sc, xi))
    assert got.coeffs[1].weights.tolist() == [0.0]
