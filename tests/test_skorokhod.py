"""Skorokhod integrals: simple-integrand formula, S-identity, chaos divergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickgrid import (
    BrownianMotion,
    ChaosField,
    FractionalBrownianMotion,
    ShiftContext,
    SimpleIntegrand,
    TimeGrid,
    WickCombo,
    build_gram,
    cm_pathwise_integral,
    s_transform,
    shifted_qce,
    simple_to_chaos_field,
    skorokhod_chaos,
    skorokhod_simple,
    symmetrize_full,
    verify_s_transform_identity,
    wick_truncation_tail_sq,
)
from wickgrid.errors import IntervalError, ParameterError


@pytest.fixture
def ctx():
    return build_gram(FractionalBrownianMotion(0.75), TimeGrid.uniform(8))


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def random_field(ctx, rng, K):
    slots = []
    for k in range(K + 1):
        t = rng.standard_normal((ctx.n,) * (k + 1))
        if k >= 2:
            t = np.stack([symmetrize_full(t[..., i]) for i in range(ctx.n)], axis=-1)
        slots.append(t)
    return ChaosField(ctx, slots)


# ---------------------------------------------------------------------------
# simple integrands
# ---------------------------------------------------------------------------

def test_plain_increment(ctx):
    Z = SimpleIntegrand(ctx, [(0.25, 0.5, WickCombo.exponential(np.zeros(8)))])
    out = skorokhod_simple(Z)
    assert len(out.terms) == 1
    alpha, f, g = out.terms[0]
    assert alpha == 0.0
    assert np.array_equal(f, ctx.indicator_interval(0.25, 0.5))
    assert np.array_equal(g, np.zeros(8))


@st.composite
def _simple_integrands(draw):
    """(H or None for BM, N, pieces as (i, j, alpha, g scale), seed), i < j nodes."""
    N = draw(st.integers(1, 16))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, N - 1))
        pieces.append((i, draw(st.integers(i + 1, N)), draw(st.floats(-2.0, 2.0)),
                       draw(st.floats(0.0, 2.0))))
    H = draw(st.one_of(st.none(), st.floats(0.1, 0.9)))
    return H, N, pieces, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_simple_integrands())
def test_skorokhod_simple_s_identity_property(case):
    # S(delta Z)(h) = sum alpha e^{<g, h>} <1_(a, b], h> over the pieces,
    # relative to max(1, |S|), on BM and on fBm grids
    H, N, pieces, seed = case
    ctx = build_gram(BrownianMotion() if H is None else FractionalBrownianMotion(H),
                     TimeGrid.uniform(N))
    rng = np.random.default_rng(seed)
    pts = ctx.grid.points
    Z = SimpleIntegrand(ctx, [(pts[i], pts[j], WickCombo.exponential(
        scale * rng.standard_normal(N), alpha=alpha)) for i, j, alpha, scale in pieces])
    assert verify_s_transform_identity(Z, 5, seed) <= 1e-10


def test_martingale_adapted_trace_vanishes():
    ctx = build_gram(BrownianMotion(), TimeGrid.uniform(8))
    Z = SimpleIntegrand(ctx, [(0.5, 0.75, WickCombo.exponential(ctx.indicator(0.25)))])
    out = skorokhod_simple(Z)
    assert out.terms[0][0] == pytest.approx(0.0, abs=1e-15)


def test_memory_trace_term(ctx):
    # nonadapted coefficient picks up -E[X_u (X_b - X_a)]
    u, a, b = 0.875, 0.25, 0.5
    Z = SimpleIntegrand(ctx, [(a, b, WickCombo.exponential(ctx.indicator(u)))])
    out = skorokhod_simple(Z)
    model = ctx.model
    want = -(model.cov(u, b) - model.cov(u, a))
    assert out.terms[0][0] == pytest.approx(want, rel=1e-12)
    assert want != 0.0


def test_zero_expectation(ctx, rng):
    pieces = [(0.125, 0.375, WickCombo.exponential(rng.standard_normal(8), alpha=1.3)),
              (0.5, 1.0, WickCombo.exponential(rng.standard_normal(8), alpha=-0.4))]
    out = skorokhod_simple(SimpleIntegrand(ctx, pieces))
    assert out.expectation(ctx) == pytest.approx(0.0, abs=1e-12)


def test_simple_integrand_guards(ctx, rng):
    with pytest.raises(IntervalError):
        SimpleIntegrand(ctx, [(0.5, 0.25, WickCombo.exponential(np.zeros(8)))])
    with pytest.raises(ParameterError):
        SimpleIntegrand(ctx, [(0.25, 0.5, WickCombo([(0.0, np.ones(8), np.zeros(8))], 8))])


@pytest.mark.parametrize("H", [0.25, 0.5])
def test_s_transform_identity(H, rng):
    model = BrownianMotion() if H == 0.5 else FractionalBrownianMotion(H)
    ctx = build_gram(model, TimeGrid.uniform(8))
    pieces = [(0.125, 0.5, WickCombo.exponential(rng.standard_normal(8))),
              (0.625, 0.875, WickCombo.exponential(rng.standard_normal(8), alpha=0.7))]
    err = verify_s_transform_identity(SimpleIntegrand(ctx, pieces), 20, seed=3)
    assert err <= 1e-10


def test_s_identity_deviation_of_a_nan_integrand_is_nan(ctx):
    Z = SimpleIntegrand(ctx, [(0.25, 0.5, WickCombo.exponential(ctx.indicator(0.875))),
                              (0.5, 0.75, WickCombo.exponential(np.zeros(8), alpha=math.nan))])
    assert math.isnan(verify_s_transform_identity(Z, 3, seed=0))


@pytest.mark.parametrize("trials", [0, -3])
def test_s_identity_check_needs_a_trial(ctx, trials):
    Z = SimpleIntegrand(ctx, [(0.25, 0.5, WickCombo.exponential(ctx.indicator(0.875)))])
    with pytest.raises(ParameterError, match="trials"):
        verify_s_transform_identity(Z, trials, seed=0)


def test_s_identity_at_zero_direction(ctx):
    Z = SimpleIntegrand(ctx, [(0.25, 0.5, WickCombo.exponential(ctx.indicator(0.875)))])
    out = skorokhod_simple(Z)
    assert out.s(ctx, np.zeros(8)) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# chaos-level divergence
# ---------------------------------------------------------------------------

def test_deterministic_slot_gives_first_chaos(ctx, rng):
    g = rng.standard_normal(8)
    out = skorokhod_chaos(ChaosField.deterministic(ctx, g), 0.0, 1.0)
    assert np.allclose(out.coeffs[1].dense, g)
    assert out.expectation() == 0.0


def test_empty_interval_is_zero(ctx, rng):
    Z = random_field(ctx, rng, 1)
    out = skorokhod_chaos(Z, 0.5, 0.5)
    assert out.l2_norm_sq(ctx) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(IntervalError):
        skorokhod_chaos(Z, 0.5, 0.25)


def test_slot_pair_symmetrization(ctx):
    # k = 1 slot e_i (x) e_j integrates to the symmetrized second-order tensor
    i, j = 2, 5
    slot = np.zeros((8, 8))
    slot[i, j] = 1.0
    Z = ChaosField(ctx, [np.zeros(8), slot])
    out = skorokhod_chaos(Z, 0.0, 1.0)
    want = np.zeros((8, 8))
    want[i, j] = want[j, i] = 0.5
    assert np.allclose(out.coeffs[2].dense, want)


def test_defining_s_relation(ctx, rng):
    # (S integral)(h) = <(S Z)(h), h> with the pairing taken through the Gram
    Z = random_field(ctx, rng, 2)
    a, b = 0.25, 0.875
    out = skorokhod_chaos(Z, a, b)
    mask = np.zeros(8)
    mask[ctx.grid.index_of(a):ctx.grid.index_of(b)] = 1.0
    for _ in range(10):
        h = rng.standard_normal(8)
        gh = ctx.G @ h
        sz = np.zeros(8)
        for k, t in enumerate(Z.slots):
            tt = t * mask
            for _ in range(k):
                tt = np.tensordot(tt, gh, axes=([0], [0]))
            sz += tt
        want = float(sz @ gh)
        assert s_transform(ctx, out, h) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_cm_pathwise_deterministic(ctx, rng):
    g = rng.standard_normal(8)
    c = rng.standard_normal(8)
    out = cm_pathwise_integral(ChaosField.deterministic(ctx, g), c, 0.0, 1.0)
    assert out.expectation() == pytest.approx(ctx.inner(g, c), rel=1e-12)
    zero = cm_pathwise_integral(ChaosField.deterministic(ctx, g), np.zeros(8), 0.0, 1.0)
    assert zero.l2_norm_sq(ctx) == 0.0


def test_cm_pathwise_hand_n3(rng):
    # first-chaos integrand on three cells, contracted by hand
    ctx = build_gram(FractionalBrownianMotion(0.6), TimeGrid.uniform(3))
    slot1 = rng.standard_normal((3, 3))
    Z = ChaosField(ctx, [np.zeros(3), slot1])
    c = rng.standard_normal(3)
    a, b = ctx.grid.points[1], ctx.grid.points[3]
    out = cm_pathwise_integral(Z, c, a, b)
    gc = ctx.G @ c
    want = np.zeros(3)
    for slot_idx in (1, 2):
        want += slot1[:, slot_idx] * gc[slot_idx]
    assert np.allclose(out.coeffs[1].dense, want, atol=1e-13)
    assert out.max_order == 1


def test_simple_vs_field_paths(ctx, rng):
    # a Wick-exponential piece through both integral constructions
    g = 0.5 * ctx.unit(rng.standard_normal(8))
    a, b = 0.25, 0.625
    simple = SimpleIntegrand(ctx, [(a, b, WickCombo.exponential(g))])
    via_combo = skorokhod_simple(simple).to_chaos(ctx, 6)
    K = 5
    field = simple_to_chaos_field(simple, K)
    via_field = skorokhod_chaos(field, a, b)
    diff = via_combo.sub(via_field).l2_norm(ctx)
    # always below the truncation budget of the field route; at matched
    # truncation the coefficients even coincide
    tail = math.sqrt(wick_truncation_tail_sq(ctx, g, K))
    assert diff <= tail + 1e-12
    assert diff <= 1e-12


def test_qce_annihilates_future_integrals(ctx, rng):
    # quasi-conditioning at v <= t kills the integral over (t, a]
    c = rng.standard_normal(8)
    Z = random_field(ctx, rng, 2)
    t, a = 0.5, 0.875
    xi = skorokhod_chaos(Z, t, a).add(cm_pathwise_integral(Z, c, t, a))
    for v in (0.125, 0.25, 0.5):
        sc = ShiftContext(ctx, v, c)
        out = shifted_qce(sc, xi)
        assert out.l2_norm(ctx) <= 1e-9


def test_quasi_adapted_fixed_point(ctx, rng):
    # adapted slots: cell-i coefficient supported on coordinates < i
    K = 2
    slots = [np.zeros((8,) * (k + 1)) for k in range(K + 1)]
    slots[0] = rng.standard_normal(8)
    for i in range(8):
        v = np.zeros(8)
        v[:i] = rng.standard_normal(i)
        slots[1][:, i] = v
        t2 = np.zeros((8, 8))
        t2[:i, :i] = symmetrize_full(rng.standard_normal((i, i))) if i else 0.0
        slots[2][:, :, i] = t2
    Z = ChaosField(ctx, slots)
    c = rng.standard_normal(8)
    for s in (0.25, 0.5, 0.75):
        xi = skorokhod_chaos(Z, 0.0, s).add(
            cm_pathwise_integral(Z, c, 0.0, s))
        sc = ShiftContext(ctx, s, c)
        diff = shifted_qce(sc, xi).sub(xi)
        assert diff.l2_norm(ctx) <= 1e-9


def test_chaos_integral_zero_mean(ctx, rng):
    Z = random_field(ctx, rng, 2)
    out = skorokhod_chaos(Z, 0.25, 0.75)
    assert out.expectation() == 0.0
