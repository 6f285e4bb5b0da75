"""The package's first-chaos doubles against the 50-digit reference of
`mp_reference` on uniform grids of at most 8 increments.

Each bound is relative to the reference and sits well above the largest gap
measured over the fBm cases below, which is given in brackets; every gap
peaks at H = 0.95, N = 8, m = 7.
"""

import numpy as np
import pytest
from mpmath import mp

from wickgrid import (BrownianMotion, FractionalBrownianMotion, ShiftContext, SumModel,
                      TimeGrid, WeightedFbm, build_gram, max_correlation,
                      nonexistence_certificate, operator_norm)

import mp_reference as ref

GRAM_REL = 1e-13        # of the largest entry (7.0e-15)
D_R_REL = 1e-12         # (6.7e-15)
D_R_ABS_BM = 1e-15      # the reference is 0: G12 of BM is exactly zero
OPNORM_REL = 1e-12      # (2.4e-14)
RHO_REL = 1e-12         # (1.9e-15)
F_SQ_REL = 1e-12        # (5.1e-14)

FBM_CASES = [(H, N) for H in (0.1, 0.3, 0.75, 0.95) for N in (2, 3, 5, 8)]
_SIGMA = [0.5, 1.7, 0.9, 1.2, 2.0]


def _models(N):
    """(name, reference tuple, package model) of every model kind on N increments."""
    grid = TimeGrid.uniform(N)
    sigma = (_SIGMA * 2)[:N]
    return [
        ("bm", ("bm",), BrownianMotion()),
        ("weighted_fbm", ("weighted_fbm", 0.75, sigma), WeightedFbm(0.75, sigma, grid)),
        ("sum bm + fbm", ("sum", ("bm",), ("fbm", 0.3), 0.5),
         SumModel(BrownianMotion(), FractionalBrownianMotion(0.3), 0.5)),
        ("sum fbm + fbm", ("sum", ("fbm", 0.75), ("fbm", 0.3), 2.0),
         SumModel(FractionalBrownianMotion(0.75), FractionalBrownianMotion(0.3), 2.0)),
    ]


def _cases():
    for H, N in FBM_CASES:
        yield f"fbm H={H}", ("fbm", H), FractionalBrownianMotion(H), N
    for N in (2, 5, 8):
        for name, spec, model in _models(N):
            yield name, spec, model, N


def _rel(got, want):
    return abs(got - float(want)) / abs(float(want))


@pytest.mark.parametrize("name, spec, model, N", list(_cases()))
def test_first_chaos_doubles_match_the_50_digit_reference(name, spec, model, N):
    grid = TimeGrid.uniform(N)
    ctx = build_gram(model, grid)
    G = ref.gram(spec, grid.points)
    want = np.array(G.tolist(), dtype=float)
    assert np.abs(ctx.G - want).max() <= GRAM_REL * np.abs(want).max()
    for m in range(1, N):
        r = grid.points[m]
        d_r, opnorm = ref.split_geometry(G, m)
        got_d = max_correlation(ctx, r).d_r
        if spec == ("bm",):
            assert d_r == 0 and abs(got_d) <= D_R_ABS_BM
        else:
            assert _rel(got_d, d_r) <= D_R_REL, m
        assert _rel(operator_norm(ctx, r).opnorm, opnorm) <= OPNORM_REL, m
        if spec == ("bm",):
            continue
        # the certificate's inequalities hold for its double f at 50 digits
        cert = nonexistence_certificate(ShiftContext(ctx, r), K_max=1)
        f_sq, rho = ref.escape_norms(G, cert.escape, m)
        assert f_sq < 1 < rho, m
        assert _rel(cert.rho, rho) <= RHO_REL, m
        assert _rel(ctx.norm_sq(cert.escape), f_sq) <= F_SQ_REL, m


def test_the_reference_computes_at_50_digits_whatever_the_callers_precision():
    points = TimeGrid.uniform(3).points
    with mp.workdps(15):
        d_r, opnorm = ref.split_geometry(ref.gram(("fbm", 0.3), points), 1)
    with mp.workdps(ref.DPS):
        want = ref.split_geometry(ref.gram(("fbm", 0.3), points), 1)
        assert (d_r, opnorm) == want

