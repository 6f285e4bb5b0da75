"""Symmetric tensors, chaos vectors, Wick algebra, S-transform, evaluation."""

import math
import warnings

import numpy as np
import pytest

from wickgrid import (
    BrownianMotion,
    ChaosVector,
    FractionalBrownianMotion,
    SymmetricTensor,
    TimeGrid,
    TruncationOperator,
    WickCombo,
    build_gram,
    chaos_inner,
    evaluate_chaos_on_sample,
    random_chaos,
    s_transform,
    sample_increments,
    symmetrize_full,
    tensor_inner,
    wick_exponential_chaos,
)
from wickgrid.chaos import GramImage
from wickgrid.errors import ParameterError, ShapeError

import pairing_oracle as oracle


@pytest.fixture
def ctx():
    return build_gram(FractionalBrownianMotion(0.7), TimeGrid.uniform(6))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_random_chaos_is_the_dense_draw_it_replaces(ctx):
    # f_0 from one normal, then each order from one (n,)*k block, symmetrized
    got = random_chaos(np.random.default_rng(3), 6, 3)
    rng = np.random.default_rng(3)
    want = [SymmetricTensor.scalar(float(rng.standard_normal()), 6)]
    for k in (1, 2, 3):
        want.append(SymmetricTensor.from_dense(symmetrize_full(rng.standard_normal((6,) * k))))
    oracle.assert_same_chaos(got, ChaosVector(want, 6))


def test_l2_norm_is_the_floored_root_of_l2_norm_sq(ctx):
    for xi in (random_chaos(np.random.default_rng(5), 6, 2), ChaosVector.constant(0.0, 6),
               wick_exponential_chaos(ctx, np.full(6, 0.3), 8)):
        sq = xi.l2_norm_sq(ctx)
        assert xi.l2_norm(ctx) == math.sqrt(max(sq, 0.0))


def test_norm_whose_order_terms_fsum_cannot_add_is_their_double_sum():
    # two finite order terms 1.44e308 and 1.5e308: fsum raises OverflowError
    # on the intermediate sum, and the norm is their double sum, inf
    ctx = build_gram(FractionalBrownianMotion(0.7), TimeGrid.uniform(2))
    u = ctx.unit(np.array([1.0, 2.0]))
    xi = ChaosVector.first_chaos(1.2e154 * u, constant=1.2e154)
    assert xi.l2_norm_sq(ctx) == math.inf and xi.l2_norm(ctx) == math.inf

    # order terms -inf, 0.0 and inf: fsum raises ValueError on inf - inf, and
    # the inner product is their left-to-right double sum, nan
    def chain(c):
        return ChaosVector([SymmetricTensor.scalar(c, 2), SymmetricTensor.zero(1, 2),
                            SymmetricTensor.from_powers(2, 2, [1e154], [u])], 2)

    assert math.isnan(chaos_inner(ctx, chain(1e200), chain(-1e200)))


def random_symmetric(rng, n, k):
    return SymmetricTensor.from_dense(symmetrize_full(rng.standard_normal((n,) * k)))


# ---------------------------------------------------------------------------
# tensor pairing
# ---------------------------------------------------------------------------

def test_order_one_inner_reduces_to_gram(ctx, rng):
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    got = tensor_inner(ctx, SymmetricTensor.from_vector(a), SymmetricTensor.from_vector(b))
    assert got == pytest.approx(ctx.inner(a, b), rel=1e-13)


def test_rank_one_multiplicativity(ctx, rng):
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    A = SymmetricTensor.from_powers(2, 6, [1.0], [a])
    B = SymmetricTensor.from_powers(2, 6, [1.0], [b])
    assert tensor_inner(ctx, A, B) == pytest.approx(ctx.inner(a, b) ** 2, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_powers_vs_dense_agree(ctx, rng, k):
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    P = SymmetricTensor.from_powers(k, 6, [0.7, -0.2], [a, b])
    D = SymmetricTensor.from_dense(P.to_dense())
    Q = random_symmetric(rng, 6, k)
    assert tensor_inner(ctx, P, Q) == pytest.approx(tensor_inner(ctx, D, Q), rel=1e-11)
    assert tensor_inner(ctx, P, P) == pytest.approx(tensor_inner(ctx, D, D), rel=1e-11)


def test_inner_shape_guard(ctx, rng):
    with pytest.raises(ShapeError):
        tensor_inner(ctx, random_symmetric(rng, 6, 2), random_symmetric(rng, 6, 3))


def test_wick_norm_series(ctx, rng):
    # sum_k k! |h^k / k!|^2 telescopes to e^{|h|^2}
    h = ctx.unit(rng.standard_normal(6))
    cv = wick_exponential_chaos(ctx, 1.3 * h, 25)
    assert cv.l2_norm_sq(ctx) == pytest.approx(math.exp(1.3**2), rel=1e-12)


# ---------------------------------------------------------------------------
# Wick exponentials and the S-transform
# ---------------------------------------------------------------------------

def test_wick_exponential_of_zero(ctx):
    cv = wick_exponential_chaos(ctx, np.zeros(6), 5)
    assert cv.expectation() == 1.0
    assert cv.l2_norm_sq(ctx) == pytest.approx(1.0, abs=1e-15)


def test_wick_expectation_is_one(ctx, rng):
    cv = wick_exponential_chaos(ctx, rng.standard_normal(6), 8)
    assert cv.expectation() == 1.0


def test_s_transform_of_process_values(ctx, rng):
    # first-chaos values map to their Cameron-Martin pairing
    h = rng.standard_normal(6)
    for t in ctx.grid.points[1:]:
        xt = ChaosVector.first_chaos(ctx.grid.indicator(t))
        want = ctx.inner(ctx.grid.indicator(t), h)
        assert s_transform(ctx, xt, h) == pytest.approx(want, rel=1e-12)


def test_s_transform_of_wick_exponential(ctx, rng):
    g = rng.standard_normal(6)
    h = rng.standard_normal(6)
    combo = WickCombo.exponential(g)
    assert s_transform(ctx, combo, h) == pytest.approx(
        math.exp(ctx.inner(g, h)), rel=1e-13)
    # truncated chaos version converges to the same value
    cv = wick_exponential_chaos(ctx, g, 30)
    assert s_transform(ctx, cv, h) == pytest.approx(
        math.exp(ctx.inner(g, h)), rel=1e-10)


def test_s_transform_at_zero_is_expectation(ctx, rng):
    cv = ChaosVector([SymmetricTensor.scalar(0.37, 6),
                      random_symmetric(rng, 6, 1),
                      random_symmetric(rng, 6, 2)], 6)
    assert s_transform(ctx, cv, np.zeros(6)) == pytest.approx(0.37, abs=1e-15)


def test_s_transform_totality_order_two(ctx, rng):
    # sampling S along lines recovers every pairing, so equal transforms on
    # the probe family force equal coefficients (grid totality)
    f2 = random_symmetric(rng, 6, 2)
    f1 = random_symmetric(rng, 6, 1)
    xi = ChaosVector([SymmetricTensor.scalar(0.5, 6), f1, f2], 6)
    probes = []
    for i in range(6):
        for j in range(i, 6):
            e = np.zeros(6)
            e[i] += 1.0
            e[j] += 1.0
            probes.append(e)
    alphas = np.array([0.5, 1.0, 2.0])
    rec1, rec2 = {}, {}
    for p, h in enumerate(probes):
        vals = np.array([s_transform(ctx, xi, a * h) for a in alphas])
        coef = np.linalg.solve(np.vander(alphas, 3, increasing=True), vals)
        rec1[p] = coef[1]
        rec2[p] = coef[2]
    for p, h in enumerate(probes):
        assert rec1[p] == pytest.approx(
            tensor_inner(ctx, f1, SymmetricTensor.from_vector(h)), rel=1e-9, abs=1e-9)
        assert rec2[p] == pytest.approx(
            tensor_inner(ctx, f2, SymmetricTensor.from_powers(2, 6, [1.0], [h])),
            rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# closed Wick-term algebra
# ---------------------------------------------------------------------------

def test_expectation_of_wick_exponential(ctx, rng):
    combo = WickCombo.exponential(rng.standard_normal(6))
    assert combo.s(ctx, np.zeros(6)) == pytest.approx(1.0)


def test_expectation_first_chaos_term(ctx, rng):
    f = rng.standard_normal(6)
    g = rng.standard_normal(6)
    combo = WickCombo([(0.0, f, g)], 6)
    want = ctx.inner(f, g)
    assert combo.s(ctx, np.zeros(6)) == pytest.approx(want, rel=1e-12)
    # Monte Carlo corroboration of the integration-by-parts value
    n = 100_000
    X = sample_increments(ctx, n, seed=5)
    vals = oracle.evaluate_combo(ctx, combo, X)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - want) <= 3 * se


def test_exponential_product_identity(ctx, rng):
    # e^g e^w = e^{<g,w>} e^{g+w}, exact in the algebra
    g = rng.standard_normal(6)
    w = rng.standard_normal(6)
    prod = WickCombo.exponential(g).multiply_exponential(ctx, w)
    h = rng.standard_normal(6)
    want = math.exp(ctx.inner(g, w)) * math.exp(ctx.inner(g + w, h))
    assert prod.s(ctx, h) == pytest.approx(want, rel=1e-12)
    # pathwise identity as well
    X = sample_increments(ctx, 100, seed=9)
    lhs = (oracle.evaluate_combo(ctx, WickCombo.exponential(g), X)
           * oracle.evaluate_combo(ctx, WickCombo.exponential(w), X))
    assert np.allclose(oracle.evaluate_combo(ctx, prod, X), lhs, rtol=1e-10)


def test_combo_to_chaos_matches_s_transform(ctx, rng):
    # dense cross terms cap the order at 6; keep norms small so the
    # exponential tail beyond K = 6 is negligible: with |f| = |g| = 1/8 and
    # |h| = 1/2 it is ~6e-13 relative (at 1/4 it was 9.2e-11, near the bound)
    f = rng.standard_normal(6)
    g = rng.standard_normal(6)
    combo = WickCombo([(0.4, f / (8 * ctx.norm(f)), g / (8 * ctx.norm(g)))], 6)
    cv = combo.to_chaos(ctx, 6)
    for _ in range(5):
        h = 0.5 * ctx.unit(rng.standard_normal(6))
        assert s_transform(ctx, cv, h) == pytest.approx(
            combo.s(ctx, h), rel=1e-10)
    # pure-exponential terms stay in power form at any order
    cv2 = WickCombo.exponential(g).to_chaos(ctx, 16)
    assert all(t.is_powers for t in cv2.coeffs[1:])


def test_combo_mixing_exponential_and_first_chaos_terms_matches_s_transform(ctx, rng):
    # each order sums the power rows of both terms and the dense cross term of
    # the second; with |g_i| = 1/8 and |h| = 1/2 the tail beyond K = 6 is ~1e-12
    f, g1, g2 = (v / (8 * ctx.norm(v)) for v in rng.standard_normal((3, 6)))
    combo = WickCombo([(0.3, None, g1), (0.4, f, g2)], 6)
    cv = combo.to_chaos(ctx, 6)
    for _ in range(5):
        h = 0.5 * ctx.unit(rng.standard_normal(6))
        assert s_transform(ctx, cv, h) == pytest.approx(combo.s(ctx, h), rel=1e-10)


def test_wick_exponential_chaos_is_one_power_row_per_order(ctx, rng):
    # f_0 = 1 and f_k = h^(x k) / k! held as the single row (1/k!, h)
    h = rng.standard_normal(6)
    cv = wick_exponential_chaos(ctx, h, 12)
    assert cv.max_order == 12 and float(cv.coeffs[0].dense) == 1.0
    for k, t in enumerate(cv.coeffs[1:], 1):
        assert t.is_powers and t.weights.tolist() == [1.0 / math.factorial(k)]
        assert np.array_equal(t.vectors, h[None, :])


def test_pure_exponential_combo_is_one_power_row_per_term_and_order(ctx, rng):
    # order k holds (alpha_i / k!, g_i) in term order, zero weights dropped;
    # the constant sums the alphas left to right
    g = rng.standard_normal((3, 6))
    alphas = [0.3, 0.0, -1.7]
    cv = WickCombo([(a, None, v) for a, v in zip(alphas, g)], 6).to_chaos(ctx, 9)
    assert float(cv.coeffs[0].dense) == (0.3 + 0.0) + -1.7
    for k, t in enumerate(cv.coeffs[1:], 1):
        assert t.weights.tolist() == [0.3 / math.factorial(k), -1.7 / math.factorial(k)]
        assert np.array_equal(t.vectors, g[[0, 2]])
    empty = WickCombo([], 6).to_chaos(ctx, 3)
    assert float(empty.coeffs[0].dense) == 0.0
    assert all(t.weights.size == 0 and t.vectors.shape == (0, 6) for t in empty.coeffs[1:])


@pytest.mark.parametrize("build", [
    lambda ctx, h: WickCombo.exponential(h).to_chaos(ctx, -1),
    lambda ctx, h: WickCombo([(0.5, h, h)], 6).to_chaos(ctx, -1),
    lambda ctx, h: wick_exponential_chaos(ctx, h, -1),
])
def test_negative_chaos_order_is_a_parameter_error_naming_k(ctx, build):
    with pytest.raises(ParameterError, match=r"K must be >= 0, got -1"):
        build(ctx, np.ones(6))


@pytest.mark.parametrize("build", [
    lambda ctx, h, K: WickCombo.exponential(h).to_chaos(ctx, K),
    lambda ctx, h, K: WickCombo([(0.5, h, h)], 6).to_chaos(ctx, K),
    lambda ctx, h, K: wick_exponential_chaos(ctx, h, K),
])
def test_series_order_above_170_is_a_parameter_error_naming_k(ctx, build):
    # 171! does not convert to a double; these ended in a bare OverflowError
    for K in (171, 400):
        with pytest.raises(ParameterError, match=rf"K must be <= 170, got {K}"):
            build(ctx, 0.1 * np.ones(6), K)


def test_series_order_170_is_in_range(ctx):
    h = 0.1 * np.ones(6)
    assert wick_exponential_chaos(ctx, h, 170).max_order == 170


def test_conditional_expectation_of_a_first_chaos_term_on_bm():
    # on a Brownian grid S(E[X | F_r])(h) = (S X)(Gamma_r h); one term's
    # first-chaos factor straddles r, the other's lies wholly after it
    ctx = build_gram(BrownianMotion(), TimeGrid.uniform(8))
    rng = np.random.default_rng(3)
    g, g2, f = rng.standard_normal((3, 8))
    f_future = np.where(np.arange(8) >= 4, rng.standard_normal(8), 0.0)
    combo = WickCombo([(0.7, f, g), (-0.3, f_future, g2), (1.1, None, g2)], 8)
    op = TruncationOperator(ctx, 0.5)
    cond = combo.conditional_expectation_independent(ctx, 0.5)
    assert cond.terms[1][1] is None
    for _ in range(5):
        h = rng.standard_normal(8)
        assert s_transform(ctx, cond, h) == pytest.approx(
            s_transform(ctx, combo, op.forward(h)), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# pathwise evaluation
# ---------------------------------------------------------------------------

def test_eval_first_chaos_is_linear(ctx, rng):
    v = rng.standard_normal(6)
    cv = ChaosVector.first_chaos(v, constant=0.3)
    X = rng.standard_normal((40, 6))
    assert np.allclose(evaluate_chaos_on_sample(ctx, cv, X), 0.3 + X @ v)


def test_eval_second_order_hermite(ctx, rng):
    h = ctx.unit(rng.standard_normal(6))
    cv = ChaosVector([SymmetricTensor.scalar(0.0, 6),
                      SymmetricTensor.zero(1, 6),
                      SymmetricTensor.from_powers(2, 6, [1.0], [h])], 6)
    X = sample_increments(ctx, 50, seed=2)
    want = (X @ h) ** 2 - 1.0
    assert np.allclose(evaluate_chaos_on_sample(ctx, cv, X), want, atol=1e-10)


def test_eval_dense_vs_powers(ctx, rng):
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    P = SymmetricTensor.from_powers(3, 6, [0.5, 1.5], [a, b])
    D = SymmetricTensor.from_dense(P.to_dense())
    cvP = ChaosVector([SymmetricTensor.scalar(0, 6), SymmetricTensor.zero(1, 6),
                       SymmetricTensor.zero(2, 6), P], 6)
    cvD = ChaosVector([SymmetricTensor.scalar(0, 6), SymmetricTensor.zero(1, 6),
                       SymmetricTensor.zero(2, 6), D], 6)
    X = sample_increments(ctx, 30, seed=3)
    assert np.allclose(evaluate_chaos_on_sample(ctx, cvP, X),
                       evaluate_chaos_on_sample(ctx, cvD, X), rtol=1e-9, atol=1e-9)


def test_eval_skips_a_zero_row(ctx, rng):
    # X @ v / |v| would be 0 / 0 for a zero row: a RuntimeWarning and NaN
    a, b = rng.standard_normal((2, 6))
    X = sample_increments(ctx, 30, seed=3)
    with_zero, without = (ChaosVector([SymmetricTensor.scalar(0.0, 6), SymmetricTensor.zero(1, 6),
                                       SymmetricTensor.from_powers(2, 6, w, V)], 6)
                          for w, V in (([0.5, 2.0, 1.5], [a, np.zeros(6), b]),
                                       ([0.5, 1.5], [a, b])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_chaos_on_sample(ctx, with_zero, X)
    assert np.array_equal(got, evaluate_chaos_on_sample(ctx, without, X))


def test_eval_zero_mean_mc(ctx, rng):
    cv = ChaosVector([SymmetricTensor.scalar(0.0, 6),
                      random_symmetric(rng, 6, 1),
                      random_symmetric(rng, 6, 2),
                      random_symmetric(rng, 6, 3)], 6)
    n = 100_000
    X = sample_increments(ctx, n, seed=13)
    vals = evaluate_chaos_on_sample(ctx, cv, X)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean()) <= 3 * se


def test_isometry_against_mc(ctx, rng):
    xi = ChaosVector([SymmetricTensor.scalar(0.2, 6),
                      random_symmetric(rng, 6, 1),
                      random_symmetric(rng, 6, 2)], 6)
    eta = ChaosVector([SymmetricTensor.scalar(-0.1, 6),
                       random_symmetric(rng, 6, 1),
                       random_symmetric(rng, 6, 2)], 6)
    want = chaos_inner(ctx, xi, eta)
    n = 100_000
    X = sample_increments(ctx, n, seed=17)
    prod = (evaluate_chaos_on_sample(ctx, xi, X)
            * evaluate_chaos_on_sample(ctx, eta, X))
    se = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - want) <= 3 * se


def test_eval_shape_guard(ctx):
    with pytest.raises(ShapeError):
        evaluate_chaos_on_sample(ctx, ChaosVector.constant(1.0, 6), np.zeros(5))


def test_direction_length_is_a_shape_error(ctx, rng):
    short = rng.standard_normal(5)
    cases = [ChaosVector.first_chaos(rng.standard_normal(6)),
             wick_exponential_chaos(ctx, rng.standard_normal(6), 4),
             WickCombo.exponential(rng.standard_normal(6))]
    for xi in cases:
        with pytest.raises(ShapeError):
            s_transform(ctx, xi, short)
    for f in cases[1].coeffs[1:]:
        with pytest.raises(ShapeError):
            f.contract_last(GramImage(ctx, short), 1)


def test_chaos_vector_length_is_a_shape_error(ctx, rng):
    v = rng.standard_normal(5)
    h = rng.standard_normal(6)
    for xi in (ChaosVector.first_chaos(v), wick_exponential_chaos(ctx, v, 3)):
        with pytest.raises(ShapeError):
            s_transform(ctx, xi, h)
        with pytest.raises(ShapeError):
            chaos_inner(ctx, xi, xi)
        with pytest.raises(ShapeError):
            tensor_inner(ctx, xi.coeffs[1], xi.coeffs[1])
        with pytest.raises(ShapeError):
            xi.coeffs[1].contract_last(GramImage(ctx, h), 1)
        with pytest.raises(ShapeError):
            GramImage(ctx, h).s(xi)


def test_empty_chaos_vector_is_a_shape_error():
    with pytest.raises(ShapeError):
        ChaosVector([], 6)


# ---------------------------------------------------------------------------
# storage guards
# ---------------------------------------------------------------------------

def test_dense_size_guard():
    with pytest.raises(ShapeError):
        SymmetricTensor.zero(7, 8).to_dense()
    with pytest.raises(ShapeError):
        SymmetricTensor.from_dense(np.zeros((2,) * 7))


def test_from_powers_at_order_0_is_the_fsum_of_the_weights():
    # the rows are ignored; a left-to-right sum of these weights would give 0.0
    t = SymmetricTensor.from_powers(0, 3, [1e16, 1.0, -1e16], np.ones((3, 3)))
    assert (t.order, t.dim, t.is_powers) == (0, 3, False)
    assert float(t.dense) == 1.0


def test_from_dense_refuses_a_0d_array():
    # a 0-d array carries no dimension for the tensor
    with pytest.raises(ShapeError, match="scalar"):
        SymmetricTensor.from_dense(np.float64(2.0))


# ---------------------------------------------------------------------------
# hoisted Gram image: bit-identical to per-coefficient contraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 5, 24])
def test_s_transform_matches_per_coefficient_route_exactly(n):
    ctx = build_gram(FractionalBrownianMotion(0.7), TimeGrid.uniform(n))
    rng = np.random.default_rng(100 + n)
    cases = oracle.sample_chaos_vectors(rng, ctx)
    u, f = rng.standard_normal(n), rng.standard_normal(n)
    cases["combo"] = WickCombo([(0.3, None, 0.5 * u), (-1.2, f, 0.2 * f)], n)
    directions = [rng.standard_normal(n) for _ in range(3)] + [np.zeros(n), u]
    for name, xi in cases.items():
        for h in directions:
            assert s_transform(ctx, xi, h) == oracle.s_transform(ctx, xi, h), name


@pytest.mark.parametrize("n", [1, 5, 24])
def test_contract_last_matches_per_coefficient_route_exactly(n):
    ctx = build_gram(FractionalBrownianMotion(0.7), TimeGrid.uniform(n))
    rng = np.random.default_rng(200 + n)
    w = rng.standard_normal(n)
    image = GramImage(ctx, w)
    for name, xi in oracle.sample_chaos_vectors(rng, ctx).items():
        for f in xi.coeffs:
            for times in range(f.order + 1):
                oracle.assert_same_tensor(f.contract_last(image, times),
                                          oracle.contract_last(f, ctx, w, times))
            for times in (-1, f.order + 1):
                with pytest.raises(ShapeError):
                    f.contract_last(image, times)


# ---------------------------------------------------------------------------
# sums and contractions without placeholder tensors
# ---------------------------------------------------------------------------

def test_a_sum_passes_the_longer_vectors_extra_coefficients_through(rng):
    short = ChaosVector.first_chaos(rng.standard_normal(6), constant=0.5)
    top = symmetrize_full(rng.standard_normal((6, 6)))
    top[0, :] = top[:, 0] = -0.0
    longer = ChaosVector([SymmetricTensor.scalar(-1.0, 6),
                          SymmetricTensor.from_vector(rng.standard_normal(6)),
                          SymmetricTensor.from_dense(top),
                          SymmetricTensor.from_powers(3, 6, [0.7, -0.2],
                                                      rng.standard_normal((2, 6)))], 6)
    for xi, eta in ((short, longer), (longer, short)):
        got, want = xi.add(eta), oracle.add_padded(xi, eta)
        # the orders both hold keep the padded route's bits
        oracle.assert_same_bits(ChaosVector(got.coeffs[:2], 6), ChaosVector(want.coeffs[:2], 6))
        # the others are the longer vector's own tensors, arrays shared
        assert all(f is g for f, g in zip(got.coeffs[2:], longer.coeffs[2:]))
        oracle.assert_same_chaos(got, want)
        # a -0.0 passes through; zeros + t made it +0.0
        assert np.signbit(got.coeffs[2].dense[0]).all()
        assert not np.signbit(want.coeffs[2].dense[0]).any()


def test_sums_keep_the_bits_of_the_padded_route_where_no_negative_zero_passes(ctx):
    # equal lengths add every order as before; unequal ones too, where the
    # passed-through coefficients hold no -0.0
    cases = list(oracle.sample_chaos_vectors(np.random.default_rng(7), ctx).values())
    for xi in cases:
        for eta in cases:
            oracle.assert_same_bits(xi.add(eta), oracle.add_padded(xi, eta))
            oracle.assert_same_bits(xi.sub(eta), oracle.add_padded(xi, eta.scaled(-1.0)))


def _with_edge(xi, value):
    """xi with its constant, the first entry of each dense coefficient and the
    first weight of each power sum set to value."""
    coeffs = [SymmetricTensor.scalar(value, xi.dim)]
    for f in xi.coeffs[1:]:
        if f.is_powers:
            weights = f.weights.copy()
            weights[:1] = value
            coeffs.append(SymmetricTensor(f.order, f.dim, weights=weights, vectors=f.vectors))
        else:
            t = f.dense.copy()
            t.flat[0] = value
            coeffs.append(SymmetricTensor.from_dense(t))
    return ChaosVector(coeffs, xi.dim)


def test_chaos_inner_keeps_the_bits_of_the_padded_route_on_unequal_lengths(ctx):
    # the orders only the longer vector holds paired with empty power sums
    # gave terms of exactly 0.0, which the sum never saw
    clean = list(oracle.sample_chaos_vectors(np.random.default_rng(11), ctx).values())
    cases = clean + [_with_edge(xi, value) for xi in clean
                     for value in (-0.0, math.inf, -math.inf, math.nan)]
    unequal = 0
    for xi in cases:
        for eta in cases:
            unequal += xi.max_order != eta.max_order
            oracle.assert_same_bits(chaos_inner(ctx, xi, eta),
                                    oracle.chaos_inner_padded(ctx, xi, eta))
    assert unequal > len(cases) ** 2 // 3


def test_chaos_inner_pairs_no_order_past_the_shorter_vector(ctx):
    # the padded route formed 171! * 0.0, and the int overflowed the double
    long = ChaosVector([SymmetricTensor.scalar(3.0, 6)]
                       + [SymmetricTensor.zero(k, 6) for k in range(1, 172)], 6)
    assert chaos_inner(ctx, ChaosVector.constant(2.0, 6), long) == 6.0
    with pytest.raises(OverflowError):
        oracle.chaos_inner_padded(ctx, ChaosVector.constant(2.0, 6), long)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 40.0])
def test_contract_last_to_order_zero_is_pair_bit_for_bit(ctx, scale):
    rng = np.random.default_rng(9)
    image = GramImage(ctx, scale * rng.standard_normal(6))
    for name, xi in oracle.sample_chaos_vectors(rng, ctx).items():
        for f in xi.coeffs[1:]:
            got = f.contract_last(image, f.order)
            assert (got.order, got.is_powers) == (0, False), name
            oracle.assert_same_bits(float(got.dense), image.pair(f))


def test_a_dense_contraction_past_the_double_range_is_silent_through_contract_last_and_pair(ctx):
    # the dot products overflow to inf, and entries of both signs meet as inf - inf
    f = SymmetricTensor.from_dense(symmetrize_full(np.random.default_rng(4).standard_normal((6,) * 3)))
    image = GramImage(ctx, 1e200 * np.ones(6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twice = f.contract_last(image, 2).dense
        full = f.contract_last(image, 3)
        paired = image.pair(f)
    assert np.isinf(twice).any()
    assert math.isnan(paired)
    oracle.assert_same_bits(float(full.dense), paired)
