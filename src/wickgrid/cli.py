"""Experiment harness: flat-file config, subcommand dispatch, CSV/JSON output.

Exit codes: 0 success, 2 a declared check failed, 1 runtime/config error,
64 usage error.  Identical config + seed reproduces byte-identical CSV/JSON
bodies; only the run manifest carries timestamps.  Experiments return their
bodies and main alone writes the files, once the experiment has returned, so
a run that fails before that (exit 1 or 64) writes none.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .covariance import (
    BrownianMotion,
    FractionalBrownianMotion,
    GramContext,
    SumModel,
    TimeGrid,
    WeightedFbm,
    build_gram,
    sample_increments,
)
from .chaos import (
    ChaosVector,
    WickCombo,
    chaos_inner,
    evaluate_chaos_on_sample,
    s_transform,
    wick_exponential_chaos,
)
from .errors import GridAlignmentError, MartingaleCaseError, ParameterError
from .firstchaos import jensen_counterexample, max_correlation, operator_norm, TruncationOperator
from .qce import (
    ShiftContext,
    domain_diagnostic,
    escape_direction,
    normalized_power_series,
    shifted_qce,
)
from .skorokhod import SimpleIntegrand, verify_s_transform_identity
from .bsde import (
    BSDEProblem,
    example33_residual,
    nonexistence_certificate,
    represent_solution,
    verify_solution_weak,
    wick_exponential_solution,
)
from .fraccalc import (
    FuncOnGrid,
    appendix_reconstruction_check,
    calibrate_c_h,
    cm_truncate_fbm,
    cm_truncate_fbm_high,
    uniform_mesh,
)

USAGE_EXIT = 64
# the only words a boolean key accepts
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _list_of(convert):
    return lambda text: [convert(v) for v in text.replace(",", " ").split()]


class Config(dict):
    """Flat key = value configuration with typed accessors.

    A value that does not parse is a ParameterError naming its key.
    """

    def _typed(self, key, default, convert, what):
        if key not in self:
            return default
        try:
            return convert(self[key])
        except (KeyError, ValueError):
            raise ParameterError(f"{key} = {self[key]!r} is not {what}") from None

    def get_float(self, key, default=None):
        return self._typed(key, default, float, "a number")

    def get_int(self, key, default=None):
        return self._typed(key, default, int, "an integer")

    def get_bool(self, key, default=False):
        return self._typed(key, default, lambda text: _BOOLS[text.strip().lower()],
                           "a boolean; use one of " + ", ".join(_BOOLS))

    def get_floats(self, key, default=None):
        return self._typed(key, default, _list_of(float), "a list of numbers")

    def get_ints(self, key, default=None):
        return self._typed(key, default, _list_of(int), "a list of integers")


def parse_config(path: str) -> Config:
    cfg = Config()
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header, rows) -> None:
    """rows: a sequence of value rows, or a 2-D float64 array.

    An array's distinct values are formatted once each and gathered back,
    giving the same bytes as the per-value write of rows.tolist().
    """
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        # unique on the bit patterns, not the values: by value -0.0 == 0.0,
        # and one of "-0" and "0" would be written for both
        bits, inverse = np.unique(np.ascontiguousarray(rows).view(np.uint64),
                                  return_inverse=True)
        text = np.array([format(x, ".17g") for x in bits.view(np.float64).tolist()],
                        dtype=object)
        lines += [",".join(row) for row in text[inverse.reshape(rows.shape)].tolist()]
    else:
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _numpy_to_python(obj):
    """numpy scalars and arrays as the Python values json writes."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=_numpy_to_python) + "\n")


def svg_plot(xs, series: dict, title: str = "") -> str:
    """Text of a dependency-free polyline plot of CSV-style columns."""
    W, Hh, pad = 640, 420, 50
    xs = np.asarray(xs, dtype=float)
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(y):
        return Hh - pad - (y - y0) / (y1 - y0) * (Hh - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{Hh}">',
        f'<text x="{W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{Hh-pad}" x2="{W-pad}" y2="{Hh-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{Hh-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{Hh-pad+18}" font-size="10">{x0:.4g}</text>',
        f'<text x="{W-pad}" y="{Hh-pad+18}" text-anchor="end" font-size="10">{x1:.4g}</text>',
        f'<text x="{pad-4}" y="{Hh-pad}" text-anchor="end" font-size="10">{y0:.4g}</text>',
        f'<text x="{pad-4}" y="{pad}" text-anchor="end" font-size="10">{y1:.4g}</text>',
    ]
    for ci, (name, ys) in enumerate(sorted(series.items())):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        col = colors[ci % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{col}" points="{pts}"/>')
        parts.append(f'<text x="{W-pad}" y="{pad + 14*ci}" text-anchor="end" '
                     f'fill="{col}" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# model / grid construction from config
# ---------------------------------------------------------------------------

# (model key, default model, Hurst key, default H) of the top-level model
# and of the two components of model = sum
_MODEL_KEYS = (("model", "fbm", "H", 0.75), ("sum_model1", "bm", "sum_H1", 0.5),
               ("sum_model2", "fbm", "sum_H2", 0.75))


def model_from_config(cfg: Config, grid: TimeGrid, part: int = 0):
    """The configured model; part 1 and 2 are the components of model = sum.

    A component is bm or fbm only.
    """
    kind_key, kind_default, H_key, H_default = _MODEL_KEYS[part]
    kind = cfg.get(kind_key, kind_default)
    H = cfg.get_float(H_key, H_default)
    if kind == "bm":
        return BrownianMotion()
    if kind == "fbm":
        return FractionalBrownianMotion(H)
    if kind == "weighted_fbm" and not part:
        return WeightedFbm(H, cfg.get_floats("sigma", [1.0] * grid.n), grid)
    if kind == "sum" and not part:
        return SumModel(model_from_config(cfg, grid, 1), model_from_config(cfg, grid, 2),
                        cfg.get_float("sum_gamma", 1.0))
    raise ParameterError(f"unknown {'component ' if part else ''}model {kind!r}")


def grid_from_config(cfg: Config) -> TimeGrid:
    return TimeGrid.uniform(cfg.get_int("N", 16), cfg.get_float("T", 1.0))


def gram_from_config(cfg: Config) -> GramContext:
    """Gram context of the configured model on the configured grid."""
    grid = grid_from_config(cfg)
    return build_gram(model_from_config(cfg, grid), grid)


def _default_r(cfg: Config, grid: TimeGrid) -> float:
    r = cfg.get_float("r", grid.points[grid.n // 2])
    grid.index_of(r)
    return r


def _shift_from_config(cfg: Config, grid: TimeGrid) -> np.ndarray:
    scale = cfg.get_float("c_scale", 0.0)
    return scale * grid.indicator(grid.T)


# ---------------------------------------------------------------------------
# experiments; each returns (ok, {file name: body}) and main writes the files:
# a .csv body is (header, rows), a .json body the object, a .svg body text
# ---------------------------------------------------------------------------

def exp_gram(cfg, seed, threads):
    ctx = gram_from_config(cfg)
    return True, {
        "gram.csv": ([f"c{j}" for j in range(ctx.n)], ctx.G),
        "gram.json": {
            "cond_estimate": ctx.cond_estimate,
            "conditioning_warning": ctx.conditioning_warning,
            "eig_min": float(ctx.eigvals[0]),
            "eig_max": float(ctx.eigvals[-1]),
            "n": ctx.n,
        },
    }


def _sweep_grid(cfg: Config) -> TimeGrid:
    """The grid of the sweeps, which vary H of fBm (BM at H = 1/2) and take no
    other model."""
    if cfg.get("model", "fbm") != "fbm":
        raise ParameterError(f"model = {cfg['model']!r}: the sweeps vary H of fBm "
                             "and accept only model = fbm")
    return grid_from_config(cfg)


def _sweep_rows(threads, grid, points):
    """(H, N, r, d_r, opnorm) rows of (H, r) points, one Gram factorization per H.

    The groups run one after another so that only one Gram is alive at a
    time; the r values of a group fan out on the executor.
    """
    groups = {}
    for H, r in points:
        groups.setdefault(H, []).append(r)
    rows = []
    with ThreadPoolExecutor(max_workers=threads) as ex:
        for H, rs in groups.items():
            rows += _group_rows(ex, grid, H, rs)
    rows.sort(key=lambda t: (t[0], t[2]))
    return rows


def _group_rows(ex, grid, H, rs):
    model = BrownianMotion() if H == 0.5 else FractionalBrownianMotion(H)
    ctx = build_gram(model, grid)

    def work(r):
        geo_n = operator_norm(ctx, r)
        geo_d = max_correlation(ctx, r)
        return (H, grid.n, r, geo_d.d_r, geo_n.opnorm)

    return list(ex.map(work, rs))


def exp_opnorm_sweep(cfg, seed, threads):
    hs = cfg.get_floats("H_list", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    grid = _sweep_grid(cfg)
    r = _default_r(cfg, grid)
    rows = _sweep_rows(threads, grid, [(H, r) for H in hs])
    bodies = {"opnorm_sweep.csv": (["H", "N", "r", "d_r", "opnorm"], rows)}
    if cfg.get_bool("plot"):
        bodies["opnorm_sweep.svg"] = svg_plot(
            [row[0] for row in rows],
            {"opnorm": [row[4] for row in rows], "d_r": [row[3] for row in rows]},
            "operator norm vs H")
    return True, bodies


def exp_dr_sweep(cfg, seed, threads):
    grid = _sweep_grid(cfg)
    H = cfg.get_float("H", 0.75)
    rows = _sweep_rows(threads, grid, [(H, float(r)) for r in grid.points[1:-1]])
    return True, {"dr_sweep.csv": (["H", "N", "r", "d_r", "opnorm"], rows)}


def exp_jensen(cfg, seed, threads):
    ctx = gram_from_config(cfg)
    grid = ctx.grid
    r = _default_r(cfg, grid)
    eps = cfg.get_float("epsilon", 1e-3)
    try:
        h = jensen_counterexample(ctx, r, eps)
    except MartingaleCaseError as exc:
        return True, {"jensen.json": {"status": "martingale-case", "detail": str(exc)}}
    op = TruncationOperator(ctx, r)
    d = max_correlation(ctx, r).d_r
    ratio = ctx.norm_sq(op.forward(h)) / ctx.norm_sq(h)
    bound = 1.0 / (1.0 - d * d + 2.0 * d * eps)
    ok = ratio > 1.0 and ratio >= bound - 1e-9
    return ok, {"jensen.json": {"status": "counterexample", "d_r": d, "ratio": ratio,
                                "guaranteed_bound": bound, "epsilon": eps,
                                "h": list(map(float, h)), "passes": ok}}


def exp_qce_check(cfg, seed, threads):
    ctx = gram_from_config(cfg)
    grid = ctx.grid
    r = _default_r(cfg, grid)
    c = _shift_from_config(cfg, grid)
    sc = ShiftContext(ctx, r, c)
    rng = np.random.default_rng(seed)
    K = cfg.get_int("K", 12)

    # first-chaos closed form
    err_fc = 0.0
    for t in grid.points[1:]:
        ind = ctx.indicator(t)
        got = shifted_qce(sc, ChaosVector.first_chaos(ind))
        shift = -ctx.inner(ind - sc.op.forward(ind), c)
        want = ChaosVector.first_chaos(sc.op.forward(ind), constant=shift)
        diff = got.sub(want)
        err_fc = max(err_fc, math.sqrt(max(diff.l2_norm_sq(ctx), 0.0)))

    # Wick-exponential closed form, compared through the S-transform
    err_we = 0.0
    for _ in range(cfg.get_int("trials", 10)):
        h = rng.standard_normal(ctx.n)
        h /= max(ctx.norm(h), 1e-300)
        got = shifted_qce(sc, wick_exponential_chaos(ctx, h, K))
        gh = sc.op.forward(h)
        factor = math.exp(ctx.inner(h, sc.c_r))
        want = wick_exponential_chaos(ctx, gh, K).scaled(factor)
        for _ in range(5):
            probe = rng.standard_normal(ctx.n)
            probe /= max(ctx.norm(probe), 1e-300)
            err_we = max(err_we, abs(s_transform(ctx, got, probe)
                                     - s_transform(ctx, want, probe)))

    # towering r1 < r2
    i_r = grid.index_of(r)
    err_tow = 0.0
    if i_r + 1 <= grid.n:
        sc2 = ShiftContext(ctx, grid.points[min(i_r + 1, grid.n)], c)
        for _ in range(5):
            xi = _random_chaos(rng, ctx, order=3)
            once = shifted_qce(sc, xi)
            twice = shifted_qce(sc, shifted_qce(sc2, xi))
            diff = once.sub(twice)
            err_tow = max(err_tow, math.sqrt(max(diff.l2_norm_sq(ctx), 0.0)))

    ok = err_fc <= 1e-12 and err_we <= 1e-8 and err_tow <= 1e-10
    return ok, {"qce_check.json": {"first_chaos_error": err_fc, "wick_s_error": err_we,
                                   "towering_error": err_tow, "passes": ok}}


def _random_chaos(rng, ctx, order=3) -> ChaosVector:
    from .chaos import SymmetricTensor, symmetrize_full

    n = ctx.n
    coeffs = [SymmetricTensor.scalar(float(rng.standard_normal()), n)]
    for k in range(1, order + 1):
        t = symmetrize_full(rng.standard_normal((n,) * k))
        coeffs.append(SymmetricTensor.from_dense(t))
    return ChaosVector(coeffs, n)


def exp_domain_diagnostic(cfg, seed, threads):
    ctx = gram_from_config(cfg)
    grid = ctx.grid
    r = _default_r(cfg, grid)
    c = _shift_from_config(cfg, grid)
    sc = ShiftContext(ctx, r, c)
    K_max = cfg.get_int("K_max", 12)
    mode = cfg.get("generator", "escape")
    if mode == "escape":
        f = escape_direction(sc)
    elif mode == "contract":
        f = ctx.indicator(grid.points[1])
        f = 0.5 * f / max(ctx.norm(f), 1e-300)
    else:
        raise ParameterError(f"unknown generator {mode!r}")

    diag = domain_diagnostic(sc, normalized_power_series(f), K_max)
    rows = [(k, float(diag.partial_sums[k]),
             float(diag.term_ratios[k - 1]) if k >= 1 else float("nan"))
            for k in range(K_max + 1)]
    return True, {"domain_diagnostic.csv": (["K", "S_K", "ratio"], rows)}


def exp_skorokhod_check(cfg, seed, threads):
    ctx = gram_from_config(cfg)
    grid = ctx.grid
    pts = grid.points
    a = cfg.get_float("a", pts[grid.n // 4])
    b = cfg.get_float("b", pts[grid.n // 2])
    u = cfg.get_float("u", pts[3 * grid.n // 4])
    Z = SimpleIntegrand(ctx, [(a, b, WickCombo.exponential(ctx.indicator(u)))])
    err = verify_s_transform_identity(ctx, Z, cfg.get_int("trials", 20), seed)
    ok = err <= 1e-10
    return ok, {"skorokhod_check.json": {"max_rel_error": err, "a": a, "b": b, "u": u,
                                         "passes": ok}}


def _problem_from_config(cfg, ctx, rng):
    n = ctx.n
    a = np.full(n, cfg.get_float("a_const", 0.5))
    gamma = ctx.grid.points.copy()
    c = _shift_from_config(cfg, ctx.grid)
    G = [None] * (n + 1)
    if cfg.get_bool("with_driver", True):
        for i in range(n + 1):
            v = rng.standard_normal(n)
            v[i:] = 0.0
            const = float(rng.standard_normal())
            G[i] = ChaosVector.first_chaos(v, constant=const) if i > 0 \
                else ChaosVector.constant(const, n)
    xi = _random_chaos(rng, ctx, order=cfg.get_int("xi_order", 3))
    return BSDEProblem(ctx, a, gamma, c=c, G=G, xi=xi)


def exp_bsde_solve(cfg, seed, threads):
    ctx = gram_from_config(cfg)
    rng = np.random.default_rng(seed)
    problem = _problem_from_config(cfg, ctx, rng)
    sol = represent_solution(problem)
    rows = [(float(t), float(a), y.expectation(), math.sqrt(max(y.l2_norm_sq(ctx), 0.0)))
            for t, a, y in zip(ctx.grid.points, sol.A, sol.Y_nodes)]
    terminal_err = math.sqrt(max(sol.Y_nodes[-1].sub(problem.xi).l2_norm_sq(ctx), 0.0))
    ok = terminal_err <= 1e-10
    return ok, {"bsde_solution.csv": (["t", "A", "mean_Y", "l2_Y"], rows),
                "bsde_solution.json": {"terminal_error": terminal_err, "passes": ok}}


def exp_bsde_verify(cfg, seed, threads):
    kind = cfg.get("solution", "represent")
    if kind not in ("represent", "wick"):
        raise ParameterError(f"unknown solution {kind!r}; use represent or wick")
    ctx = gram_from_config(cfg)
    grid = ctx.grid
    rng = np.random.default_rng(seed)
    if kind == "wick":
        n = ctx.n
        problem = BSDEProblem(
            ctx, np.full(n, cfg.get_float("a_const", 0.5)), grid.points,
            c=_shift_from_config(cfg, grid),
            xi=ChaosVector.constant(1.0, n))
        f = rng.standard_normal(n)
        f /= 2.0 * max(ctx.norm(f), 1e-300)
        sol = wick_exponential_solution(problem, f, K=cfg.get_int("K", 10))
        problem.xi = sol.Y_nodes[-1]
        tol = 1e-9
    else:
        problem = _problem_from_config(cfg, ctx, rng)
        sol = represent_solution(problem)
        tol = 1e-8
    res = verify_solution_weak(problem, sol, cfg.get_int("trials", 10), seed)
    ok = res <= tol
    return ok, {"bsde_verify.json": {"max_residual": res, "tolerance": tol,
                                     "solution": kind, "passes": ok}}


def exp_nonexist_cert(cfg, seed, threads):
    grid = grid_from_config(cfg)
    model = model_from_config(cfg, grid)
    r = _default_r(cfg, grid)
    c = _shift_from_config(cfg, grid)
    n = grid.n
    a = np.full(n, cfg.get_float("a_const", 0.0))
    try:
        cert = nonexistence_certificate(model, grid, r, a=a, c=c,
                                        K_max=cfg.get_int("K_max", 12))
    except MartingaleCaseError as exc:
        return True, {"certificate.json": {"status": "refusal", "reason": str(exc)}}
    payload = cert.to_json_dict()
    payload["status"] = "certificate"
    payload["H"] = cfg.get_float("H", None)
    payload["N"] = grid.n
    return cert.bound_ok and cert.rho > 1.0, {"certificate.json": payload}


def exp_example33(cfg, seed, threads):
    hs = cfg.get_floats("H_list", [0.5, 0.35, 0.2])
    ns = cfg.get_ints("N_list", [16, 32, 64, 128, 256, 512])
    rows = []
    for H in hs:
        rep = example33_residual(H, ns, T=cfg.get_float("T", 1.0))
        for n, res in zip(rep.grid_sizes, rep.residuals):
            rows.append((H, int(n), float(res), rep.slope))
    bodies = {"example33.csv": (["H", "N", "residual", "slope"], rows)}
    if cfg.get_bool("plot"):
        series = {f"H={H}": [math.log10(r[2]) for r in rows if r[0] == H] for H in hs}
        bodies["example33.svg"] = svg_plot([math.log10(n) for n in ns], series,
                                           "log10 residual vs log10 N")
    return True, bodies


_FRAC_CHECKS = ("appendix", "low", "high", "kstar")


def exp_frac_verify(cfg, seed, threads):
    checks = [name.strip() for name in cfg.get("checks", ",".join(_FRAC_CHECKS)).split(",")]
    unknown = [name for name in checks if name not in _FRAC_CHECKS]
    if unknown:
        raise ParameterError(f"checks = {cfg['checks']!r} names {unknown[0]!r}, which is "
                             f"no check; use a comma list of {', '.join(_FRAC_CHECKS)}")
    report = {}
    bodies = {}
    ok = True
    if "appendix" in checks:
        rep = appendix_reconstruction_check(cfg.get_float("H_app", 0.2),
                                            T=1.0, m=cfg.get_int("M", 2000))
        report["appendix_max_error"] = rep.max_abs_error
        report["appendix_g_l2"] = rep.g_l2
        ok = ok and rep.max_abs_error <= 1e-3
        bodies["appendix_reconstruction.csv"] = (
            ["t", "value", "target"], list(zip(rep.t_eval, rep.reconstruction, rep.target)))
    if "low" in checks:
        m = cfg.get_int("M", 2000)
        phi = FuncOnGrid.constant(1.0, uniform_mesh(m, 1.0))
        _, err = cm_truncate_fbm(phi, 0.5, cfg.get_float("H_low", 0.3))
        report["truncation_low_error"] = err
        ok = ok and err <= 1e-3
    if "high" in checks:
        m = cfg.get_int("M_high", 4000)
        psi = FuncOnGrid.constant(1.0, uniform_mesh(m, 1.0))
        _, err = cm_truncate_fbm_high(psi, 0.5, cfg.get_float("H_high", 0.75))
        report["truncation_high_error"] = err
        ok = ok and err <= 1e-2
    if "kstar" in checks:
        H = cfg.get_float("H_kstar", 0.3)
        grid = TimeGrid.uniform(cfg.get_int("N_kstar", 48), 1.0)
        ctx = build_gram(FractionalBrownianMotion(H), grid)
        c_h, spread = calibrate_c_h(H, ctx, m=cfg.get_int("M_kstar", 600))
        report["kstar_c_h"] = c_h
        report["kstar_spread"] = spread
        ok = ok and spread <= 0.02
    report["passes"] = ok
    bodies["frac_verify.json"] = report
    return ok, bodies


def exp_mc_crosscheck(cfg, seed, threads):
    n_paths = cfg.get_int("n_paths", 100_000)
    if n_paths < 2:
        raise ParameterError(
            f"n_paths must be >= 2 for a sample standard deviation, got {n_paths}")
    ctx = gram_from_config(cfg)
    rng = np.random.default_rng(seed)
    X = sample_increments(ctx, n_paths, seed)
    h = rng.standard_normal(ctx.n)
    h /= max(ctx.norm(h), 1e-300)
    vals = np.exp(X @ h - 0.5 * ctx.norm_sq(h))
    z_mean = abs(vals.mean() - 1.0) / (vals.std(ddof=1) / math.sqrt(n_paths))
    xi = _random_chaos(rng, ctx, order=2)
    eta = _random_chaos(rng, ctx, order=2)
    prod = (evaluate_chaos_on_sample(ctx, xi, X)
            * evaluate_chaos_on_sample(ctx, eta, X))
    want = chaos_inner(ctx, xi, eta)
    z_inner = abs(prod.mean() - want) / (prod.std(ddof=1) / math.sqrt(n_paths))
    ok = z_mean <= 3.0 and z_inner <= 3.0
    return ok, {"mc_crosscheck.json": {"z_wick_mean": float(z_mean), "z_inner": float(z_inner),
                                       "n_paths": n_paths, "passes": ok}}


EXPERIMENTS = {
    "gram": exp_gram,
    "opnorm-sweep": exp_opnorm_sweep,
    "dr-sweep": exp_dr_sweep,
    "jensen": exp_jensen,
    "qce-check": exp_qce_check,
    "domain-diagnostic": exp_domain_diagnostic,
    "skorokhod-check": exp_skorokhod_check,
    "bsde-solve": exp_bsde_solve,
    "bsde-verify": exp_bsde_verify,
    "nonexist-cert": exp_nonexist_cert,
    "example33": exp_example33,
    "frac-verify": exp_frac_verify,
    "mc-crosscheck": exp_mc_crosscheck,
}

# experiments that draw randomness; these require an explicit seed
STOCHASTIC = {"qce-check", "skorokhod-check", "bsde-solve", "bsde-verify",
              "mc-crosscheck"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wickgrid", add_help=True)
    parser.add_argument("experiment")
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error(f"--threads must be >= 1, got {args.threads}")
    except SystemExit:
        return USAGE_EXIT
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; choose from "
              f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return USAGE_EXIT
    try:
        cfg = parse_config(args.config) if args.config else Config()
        seed = args.seed if args.seed is not None else cfg.get_int("seed")
        if seed is not None and seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
    except (OSError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if seed is None:
        if args.experiment in STOCHASTIC:
            print("config error: stochastic experiments require a seed "
                  "(--seed or 'seed =' in the config)", file=sys.stderr)
            return USAGE_EXIT
        seed = 0
    t0 = time.perf_counter()
    try:
        ok, bodies = EXPERIMENTS[args.experiment](cfg, seed, args.threads)
    except (ParameterError, GridAlignmentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    outputs = [out / name for name in bodies]
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, body in zip(outputs, bodies.values()):
            if path.suffix == ".csv":
                write_csv(path, *body)
            elif path.suffix == ".json":
                write_json(path, body)
            else:
                path.write_text(body)
        write_json(out / "run-manifest.json", {
            "experiment": args.experiment,
            "config": dict(cfg),
            "seed": seed,
            "version": __version__,
            "wall_time_s": time.perf_counter() - t0,
            "outputs": [str(p) for p in outputs],
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        })
    except OSError as exc:
        print(f"error: cannot write the outputs: {exc}", file=sys.stderr)
        return 1
    if not ok:
        print("checks failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
