"""Experiment harness: flat-file config, subcommand dispatch, CSV/JSON output.

Exit codes: 0 success, 2 a declared check failed, 1 runtime/config error,
64 usage error.  Identical config + seed reproduces byte-identical CSV/JSON
bodies; only the run manifest carries timestamps.  Experiments return their
bodies and main alone writes the files, once the experiment has returned, so
a run that fails before that (exit 1 or 64) writes none.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from datetime import datetime, timezone
from operator import ge, gt, le
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
    _check_count,
    _check_seed,
    build_gram,
    sample_increments,
)
from .chaos import (
    ChaosVector,
    WickCombo,
    _exp_pairing,
    chaos_inner,
    evaluate_chaos_on_sample,
    random_chaos,
    s_transform,
    wick_exponential_chaos,
)
from .errors import MartingaleCaseError, ParameterError, _worst
from .firstchaos import jensen_counterexample, max_correlation, operator_norm, TruncationOperator
from .qce import (
    ShiftContext,
    domain_diagnostic,
    escape_direction,
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
# rows of Monte Carlo paths per block in mc-crosscheck; a block of a few rows
# takes other BLAS kernels than one matrix of every path, which round the
# products differently, so blocks are never shorter than this
_MC_BLOCK = 4096
# rows of a CSV body formatted and written at a time; the text of one block,
# never of the whole body, is held at once
_CSV_BLOCK = 64
# the only words a boolean key accepts
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
# the relations a check may require between its value and its bound
_RELATIONS = {"<=": le, ">=": ge, ">": gt}

# The key table, KEYS: every key each experiment reads, with its spec.  A spec
# is the key's default, whose type is the key's type (int, float, bool, or a
# list of floats or ints); a tuple of the words the key accepts, the first the
# default; a list of the words of which the key takes a comma list; or a bare
# type (float, list of floats) whose default the experiment works out (None).
_GRID = {"N": 16, "T": 1.0}
_MODEL = {**_GRID, "model": ("fbm", "bm", "weighted_fbm", "sum"), "H": 0.75, "sigma": list,
          "sum_model1": ("bm", "fbm"), "sum_H1": 0.5, "sum_model2": ("fbm", "bm"),
          "sum_H2": 0.75, "sum_gamma": 1.0}
# the sweeps vary H of fBm themselves (BM at H = 1/2) and take no other model
_SWEEP = {**_GRID, "model": ("fbm",)}
_SHIFT = {"r": float, "c_scale": 0.0}
_PROBLEM = {**_MODEL, "c_scale": 0.0, "a_const": 0.5, "with_driver": True, "xi_order": 3}

KEYS = {
    "gram": _MODEL,
    "opnorm-sweep": {**_SWEEP, "r": float, "plot": False,
                     "H_list": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
    "dr-sweep": {**_SWEEP, "H": 0.75},
    "jensen": {**_MODEL, "r": float, "epsilon": 1e-3},
    "qce-check": {**_MODEL, **_SHIFT, "K": 12, "trials": 10},
    "domain-diagnostic": {**_MODEL, **_SHIFT, "K_max": 12, "generator": ("escape", "contract")},
    "skorokhod-check": {**_MODEL, "a": float, "b": float, "u": float, "trials": 20},
    "bsde-solve": _PROBLEM,
    "bsde-verify": {**_PROBLEM, "solution": ("represent", "wick"), "K": 10, "trials": 10},
    "nonexist-cert": {**_MODEL, **_SHIFT, "a_const": 0.0, "K_max": 12},
    "example33": {"H_list": [0.5, 0.35, 0.2], "N_list": [16, 32, 64, 128, 256, 512], "T": 1.0,
                  "plot": False},
    "frac-verify": {"checks": ["appendix", "low", "high", "kstar"], "H_app": 0.2, "M": 2000,
                    "H_low": 0.3, "M_high": 4000, "H_high": 0.75, "H_kstar": 0.3,
                    "N_kstar": 48, "M_kstar": 600},
    "mc-crosscheck": {**_MODEL, "n_paths": 100_000},
}

# a scalar type's parse, and what one and several of its values are called
_TYPES = {int: (int, "an integer", "integers"), float: (float, "a number", "numbers"),
          bool: (lambda text: _BOOLS[text.strip().lower()],
                 "a boolean; use one of " + ", ".join(_BOOLS), None)}


def _parse(key: str, text: str, spec):
    """The value of `key = text` under the key's spec; a text that does not parse,
    a word the key does not accept and an empty list are ParameterErrors naming the key."""
    kind = spec if isinstance(spec, type) else type(spec)
    item = float if spec is list else type(spec[0]) if kind is list else None
    if kind is tuple or item is str:
        words = [text] if item is None else [word.strip() for word in text.split(",")]
        if set(words) <= set(spec):
            return words if item else text
        what = ("one of " if item is None else "a comma list of ") + ", ".join(spec)
        raise ParameterError(f"{key} = {text!r} is not {what}")
    convert, one, several = _TYPES[item or kind]
    try:
        if item is None:
            return convert(text)
        values = [convert(value) for value in text.replace(",", " ").split()]
        if values:
            return values
    except (KeyError, ValueError):
        pass
    raise ParameterError(f"{key} = {text!r} is not "
                         + (one if item is None else "a non-empty list of " + several))


def resolve(experiment: str, raw: dict) -> dict:
    """Every key of the experiment's table, parsed from raw or at its default."""
    return {key: _parse(key, raw[key], spec) if key in raw
            else None if isinstance(spec, type) else spec[0] if isinstance(spec, tuple)
            else list(spec) if isinstance(spec, list) else spec
            for key, spec in KEYS[experiment].items()}


def parse_config(path: str) -> dict:
    """The raw `key = value` texts of a config file."""
    cfg = {}
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


def write_csv(path: Path, header, rows) -> None:
    """rows: value rows or a 2-D array, every cell a number written as its double.

    Each distinct bit pattern is formatted once with .17g (an int below 2**53
    reads as its digits), and the body streams to the file in blocks of
    _CSV_BLOCK rows.  Unique on the bit patterns, not the values: by value
    -0.0 == 0.0, and one of "-0" and "0" would be written for both.  The
    distinct patterns come from one sort and a mask of adjacent differences
    (np.unique hashes unsigned ints, several times slower here).
    """
    values = np.asarray(rows, dtype=np.float64).reshape(-1, len(header))
    keys = np.ascontiguousarray(values).view(np.uint64)
    bits = np.sort(keys, axis=None)
    first = np.empty(bits.size, dtype=bool)     # an empty body keeps no entry
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    bits = bits[first]
    text = np.array([format(x, ".17g") for x in bits.view(np.float64).tolist()], dtype=object)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(keys), _CSV_BLOCK):
            block = text[np.searchsorted(bits, keys[lo:lo + _CSV_BLOCK])].tolist()
            f.write("".join(",".join(row) + "\n" for row in block))


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

def model_from_config(cfg: dict, grid: TimeGrid, part: int = 0):
    """The configured model; part 1 and 2 are the components of model = sum."""
    kind = cfg[("model", "sum_model1", "sum_model2")[part]]
    H = cfg[("H", "sum_H1", "sum_H2")[part]]
    if kind == "bm":
        return BrownianMotion()
    if kind == "fbm":
        return FractionalBrownianMotion(H)
    if kind == "weighted_fbm":
        return WeightedFbm(H, cfg["sigma"] or [1.0] * grid.n, grid)
    return SumModel(model_from_config(cfg, grid, 1), model_from_config(cfg, grid, 2),
                    cfg["sum_gamma"])


def grid_from_config(cfg: dict) -> TimeGrid:
    return TimeGrid.uniform(cfg["N"], cfg["T"])


def gram_from_config(cfg: dict) -> GramContext:
    """Gram context of the configured model on the configured grid."""
    grid = grid_from_config(cfg)
    return build_gram(model_from_config(cfg, grid), grid)


def _default_r(cfg: dict, grid: TimeGrid) -> float:
    """The configured r, by default the middle node, written back into cfg."""
    r = cfg["r"] = grid.points[grid.n // 2] if cfg["r"] is None else cfg["r"]
    grid.index_of(r)
    return r


def _shift_from_config(cfg: dict) -> ShiftContext:
    """The shift (r, c = c_scale 1_(0, T]) over the configured Gram."""
    ctx = gram_from_config(cfg)
    grid = ctx.grid
    return ShiftContext(ctx, _default_r(cfg, grid), cfg["c_scale"] * grid.indicator(grid.T))


# ---------------------------------------------------------------------------
# experiments; each returns (checks, {file name: body}) and main writes the
# files: a .csv body is (header, rows), a .json body the object, a .svg body
# text; a check is a (name, value, relation, bound) record.  A key whose
# default the experiment works out is written back into cfg, so that the
# manifest echoes the value the run used
# ---------------------------------------------------------------------------

def _passes(checks) -> bool:
    """Whether every check's value is finite and stands in its relation to its bound."""
    return all(math.isfinite(value) and _RELATIONS[relation](value, bound)
               for _, value, relation, bound in checks)


def _verdict(checks, **fields) -> dict:
    """A verdict body: each checked value under its name, the fields, and passes."""
    return {**fields, **{name: value for name, value, _, _ in checks}, "passes": _passes(checks)}


def exp_gram(cfg, seed):
    ctx = gram_from_config(cfg)
    return [], {
        "gram.csv": ([f"c{j}" for j in range(ctx.n)], ctx.G),
        "gram.json": {
            "cond_estimate": ctx.cond_estimate,
            "conditioning_warning": ctx.conditioning_warning,
            "eig_min": float(ctx.eigvals[0]),
            "eig_max": float(ctx.eigvals[-1]),
            "n": ctx.n,
        },
    }


def _sweep_rows(threads, grid, points):
    """(H, N, r, d_r, opnorm) rows of (H, r) points, one Gram factorization per H.

    The groups run one after another, each consumed before the next Gram is
    built, so that only one Gram is alive at a time; only the r values of one
    group fan out on the executor.  So `threads` speeds up dr-sweep (many r,
    one H) and not opnorm-sweep (one r per H).  With one thread the sweep runs
    on the calling thread and no executor is started.
    """
    groups = {}
    for H, r in points:
        groups.setdefault(H, []).append(r)
    rows = []
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for H, rs in groups.items():
            ctx = build_gram(BrownianMotion() if H == 0.5 else FractionalBrownianMotion(H), grid)

            def work(r):
                opnorm = operator_norm(ctx, r).opnorm
                return (H, grid.n, r, max_correlation(ctx, r).d_r, opnorm)

            rows += (pool.map if pool else map)(work, rs)
            del ctx         # before the next Gram is built
    rows.sort(key=lambda t: (t[0], t[2]))
    return rows


def exp_opnorm_sweep(cfg, seed, threads):
    grid = grid_from_config(cfg)
    r = _default_r(cfg, grid)
    rows = _sweep_rows(threads, grid, [(H, r) for H in cfg["H_list"]])
    bodies = {"opnorm_sweep.csv": (["H", "N", "r", "d_r", "opnorm"], rows)}
    if cfg["plot"]:
        bodies["opnorm_sweep.svg"] = svg_plot(
            [row[0] for row in rows],
            {"opnorm": [row[4] for row in rows], "d_r": [row[3] for row in rows]},
            "operator norm vs H")
    return [], bodies


def exp_dr_sweep(cfg, seed, threads):
    if cfg["N"] < 2:
        raise ParameterError(f"N must be >= 2 for an interior grid node, got {cfg['N']}")
    grid = grid_from_config(cfg)
    rows = _sweep_rows(threads, grid, [(cfg["H"], float(r)) for r in grid.points[1:-1]])
    return [], {"dr_sweep.csv": (["H", "N", "r", "d_r", "opnorm"], rows)}


def exp_jensen(cfg, seed):
    ctx = gram_from_config(cfg)
    grid = ctx.grid
    r = _default_r(cfg, grid)
    eps = cfg["epsilon"]
    try:
        h, d = jensen_counterexample(ctx, r, eps)
    except MartingaleCaseError as exc:
        return [], {"jensen.json": {"status": "martingale-case", "detail": str(exc)}}
    op = TruncationOperator(ctx, r)
    ratio = ctx.norm_sq(op.forward(h)) / ctx.norm_sq(h)
    bound = 1.0 / (1.0 - d * d + 2.0 * d * eps)
    checks = [("ratio", ratio, ">", 1.0), ("ratio", ratio, ">=", bound - 1e-9)]
    return checks, {"jensen.json": _verdict(checks, status="counterexample", d_r=d, epsilon=eps,
                                            guaranteed_bound=bound, h=list(map(float, h)))}


def exp_qce_check(cfg, seed):
    _check_count("trials", cfg["trials"], 1)
    sc = _shift_from_config(cfg)
    ctx, grid = sc.ctx, sc.ctx.grid
    if sc.m == grid.n:
        raise ParameterError(f"r = {cfg['r']!r} has no later grid node; "
                             "the towering check needs r < T")
    rng = np.random.default_rng(seed)
    K = cfg["K"]

    # first-chaos closed form
    err_fc = 0.0
    for t in grid.points[1:]:
        ind = ctx.grid.indicator(t)
        got = shifted_qce(sc, ChaosVector.first_chaos(ind))
        with np.errstate(over="ignore", invalid="ignore"):     # a shift past range reads nan
            shift = -ctx.inner(ind - sc.op.forward(ind), sc.c)
        want = ChaosVector.first_chaos(sc.op.forward(ind), constant=shift)
        err_fc = _worst(err_fc, got.sub(want).l2_norm(ctx))

    # Wick-exponential closed form, compared through the S-transform
    err_we = 0.0
    for _ in range(cfg["trials"]):
        h = ctx.unit(rng.standard_normal(ctx.n))
        got = shifted_qce(sc, wick_exponential_chaos(ctx, h, K))
        gh = sc.op.forward(h)
        with np.errstate(over="ignore", invalid="ignore"):     # a shift past range reads nan
            factor = _exp_pairing(ctx.inner(h, sc.c_r))
        want = wick_exponential_chaos(ctx, gh, K).scaled(factor)
        for _ in range(5):
            probe = ctx.unit(rng.standard_normal(ctx.n))
            err_we = _worst(err_we, abs(s_transform(ctx, got, probe)
                                        - s_transform(ctx, want, probe)))

    # towering r1 < r2
    err_tow = 0.0
    sc2 = ShiftContext(ctx, grid.points[sc.m + 1], sc.c)
    for _ in range(5):
        xi = random_chaos(rng, ctx.n, 3)
        once = shifted_qce(sc, xi)
        twice = shifted_qce(sc, shifted_qce(sc2, xi))
        err_tow = _worst(err_tow, once.sub(twice).l2_norm(ctx))

    checks = [("first_chaos_error", err_fc, "<=", 1e-12), ("wick_s_error", err_we, "<=", 1e-8),
              ("towering_error", err_tow, "<=", 1e-10)]
    return checks, {"qce_check.json": _verdict(checks)}


def exp_domain_diagnostic(cfg, seed):
    sc = _shift_from_config(cfg)
    K_max = cfg["K_max"]
    if cfg["generator"] == "escape":
        f = escape_direction(sc)
    else:
        f = 0.5 * sc.ctx.unit(sc.ctx.grid.indicator(sc.ctx.grid.points[1]))

    diag = domain_diagnostic(sc, f, K_max)
    rows = [(k, float(diag.partial_sums[k]),
             float(diag.term_ratios[k - 1]) if k >= 1 else float("nan"))
            for k in range(K_max + 1)]
    return [], {"domain_diagnostic.csv": (["K", "S_K", "ratio"], rows)}


def exp_skorokhod_check(cfg, seed):
    ctx = gram_from_config(cfg)
    grid = ctx.grid
    pts = grid.points
    a, b, u = (pts[i * grid.n // 4] if cfg[key] is None else cfg[key]
               for i, key in enumerate("abu", 1))
    cfg.update(a=a, b=b, u=u)
    Z = SimpleIntegrand(ctx, [(a, b, WickCombo.exponential(ctx.grid.indicator(u)))])
    err = verify_s_transform_identity(Z, cfg["trials"], seed)
    checks = [("max_rel_error", err, "<=", 1e-10)]
    return checks, {"skorokhod_check.json": _verdict(checks, a=a, b=b, u=u)}


def _problem_from_config(cfg, ctx, xi, G=None) -> BSDEProblem:
    """The configured a, gamma = t and c = c_scale 1_(0, T] over ctx, with xi and driver G."""
    grid = ctx.grid
    return BSDEProblem(ctx, np.full(ctx.n, cfg["a_const"]), grid.points.copy(),
                       c=cfg["c_scale"] * grid.indicator(grid.T), G=G, xi=xi)


def _random_problem(cfg, ctx, rng) -> BSDEProblem:
    """The configured problem with a random adapted driver (when with_driver) drawn
    first, then a random xi of order xi_order."""
    n = ctx.n
    G = [None] * (n + 1)
    if cfg["with_driver"]:
        for i in range(n + 1):
            v = rng.standard_normal(n)
            v[i:] = 0.0
            const = float(rng.standard_normal())
            G[i] = ChaosVector.first_chaos(v, constant=const) if i > 0 \
                else ChaosVector.constant(const, n)
    return _problem_from_config(cfg, ctx, random_chaos(rng, n, cfg["xi_order"]), G)


def exp_bsde_solve(cfg, seed):
    ctx = gram_from_config(cfg)
    rng = np.random.default_rng(seed)
    problem = _random_problem(cfg, ctx, rng)
    # with a and c finite, a row that is not finite means Y = A^-1 [...] left the
    # double range, refused at its first node.  A NaN a or c is left to fail
    # the check
    finite = np.isfinite(problem.a).all() and np.isfinite(problem.c).all()
    rows = []
    sol = represent_solution(problem)
    for i, (t, a, y) in enumerate(zip(ctx.grid.points, sol.A, sol.Y_nodes)):
        row = (float(t), float(a), y.expectation(), y.l2_norm(ctx))
        if finite and not all(map(math.isfinite, row)):
            raise ParameterError(f"solution row at node {i} is not finite: mean_Y = "
                                 f"{row[2]!r}, l2_Y = {row[3]!r} with A = {row[1]!r}; Y "
                                 "leaves the double range, use a smaller |a|")
        rows.append(row)
    terminal_err = sol.Y_nodes[-1].sub(problem.xi).l2_norm(ctx)
    checks = [("terminal_error", terminal_err, "<=", 1e-10)]
    return checks, {"bsde_solution.csv": (["t", "A", "mean_Y", "l2_Y"], rows),
                    "bsde_solution.json": _verdict(checks)}


def exp_bsde_verify(cfg, seed):
    kind = cfg["solution"]
    ctx = gram_from_config(cfg)
    rng = np.random.default_rng(seed)
    if kind == "wick":
        problem = _problem_from_config(cfg, ctx, ChaosVector.constant(1.0, ctx.n))
        f = 0.5 * ctx.unit(rng.standard_normal(ctx.n))
        sol = wick_exponential_solution(problem, f, K=cfg["K"])
        problem.xi = sol.Y_nodes[-1]
        tol = 1e-9
    else:
        problem = _random_problem(cfg, ctx, rng)
        sol = represent_solution(problem)
        tol = 1e-8
    res = verify_solution_weak(problem, sol, cfg["trials"], seed)
    checks = [("max_residual", float(res), "<=", tol)]
    return checks, {"bsde_verify.json": _verdict(checks, tolerance=tol, solution=kind)}


def exp_nonexist_cert(cfg, seed):
    sc = _shift_from_config(cfg)
    ctx = sc.ctx
    try:
        cert = nonexistence_certificate(sc, a=np.full(ctx.n, cfg["a_const"]), K_max=cfg["K_max"])
    except MartingaleCaseError as exc:
        return [], {"certificate.json": {"status": "refusal", "reason": str(exc)}}
    payload = cert.to_json_dict()
    payload["status"] = "certificate"
    payload["H"] = getattr(ctx.model, "H", None)
    payload["N"] = ctx.n
    checks = [("rho", cert.rho, ">", 1.0), ("bound_ok", cert.bound_ok, ">=", True)]
    return checks, {"certificate.json": payload}


def exp_example33(cfg, seed):
    hs, ns = cfg["H_list"], cfg["N_list"]
    rows = []
    for H in hs:
        rep = example33_residual(H, ns, T=cfg["T"])
        for n, res in zip(rep.grid_sizes, rep.residuals):
            rows.append((H, int(n), float(res), rep.slope))
    bodies = {"example33.csv": (["H", "N", "residual", "slope"], rows)}
    if cfg["plot"]:
        series = {f"H={H}": [math.log10(r[2]) for r in rows if r[0] == H] for H in hs}
        bodies["example33.svg"] = svg_plot([math.log10(n) for n in ns], series,
                                           "log10 residual vs log10 N")
    return [], bodies


def exp_frac_verify(cfg, seed):
    report = {}
    bodies = {}
    records = []
    if "appendix" in cfg["checks"]:
        rep = appendix_reconstruction_check(cfg["H_app"], T=1.0, m=cfg["M"])
        report["appendix_g_l2"] = rep.g_l2
        records.append(("appendix_max_error", rep.max_abs_error, "<=", 1e-3))
        bodies["appendix_reconstruction.csv"] = (
            ["t", "value", "target"], list(zip(rep.t_eval, rep.reconstruction, rep.target)))
    if "low" in cfg["checks"]:
        m = cfg["M"]
        phi = FuncOnGrid.constant(1.0, uniform_mesh(m, 1.0))
        _, err = cm_truncate_fbm(phi, 0.5, cfg["H_low"])
        records.append(("truncation_low_error", err, "<=", 1e-3))
    if "high" in cfg["checks"]:
        m = cfg["M_high"]
        psi = FuncOnGrid.constant(1.0, uniform_mesh(m, 1.0))
        _, err = cm_truncate_fbm_high(psi, 0.5, cfg["H_high"])
        records.append(("truncation_high_error", err, "<=", 1e-2))
    if "kstar" in cfg["checks"]:
        H = cfg["H_kstar"]
        c_h, spread = calibrate_c_h(H, TimeGrid.uniform(cfg["N_kstar"], 1.0), m=cfg["M_kstar"])
        report["kstar_c_h"] = c_h
        records.append(("kstar_spread", spread, "<=", 0.02))
    bodies["frac_verify.json"] = _verdict(records, **report)
    return records, bodies


def exp_mc_crosscheck(cfg, seed):
    n_paths = cfg["n_paths"]
    if n_paths < 2:
        raise ParameterError(
            f"n_paths must be >= 2 for a sample standard deviation, got {n_paths}")
    ctx = gram_from_config(cfg)
    rng = np.random.default_rng(seed)
    h = ctx.unit(rng.standard_normal(ctx.n))
    xi = random_chaos(rng, ctx.n, 2)
    eta = random_chaos(rng, ctx.n, 2)
    # the paths come from a stream of their own in blocks of _MC_BLOCK rows,
    # the last block taking the remainder; only the two per-path vectors are
    # held whole, so mean and std reduce them as one vector each
    paths = np.random.default_rng(seed)
    half_sq = 0.5 * ctx.norm_sq(h)
    vals = np.empty(n_paths)
    prod = np.empty(n_paths)
    edges = [*range(0, max(n_paths - _MC_BLOCK, 0) + 1, _MC_BLOCK), n_paths]
    for lo, hi in zip(edges, edges[1:]):
        X = sample_increments(ctx, hi - lo, paths)
        vals[lo:hi] = np.exp(X @ h - half_sq)
        prod[lo:hi] = (evaluate_chaos_on_sample(ctx, xi, X)
                       * evaluate_chaos_on_sample(ctx, eta, X))
    want = chaos_inner(ctx, xi, eta)
    with np.errstate(divide="ignore", invalid="ignore"):    # a zero spread reads inf or nan
        z_mean = abs(vals.mean() - 1.0) / (vals.std(ddof=1) / math.sqrt(n_paths))
        z_inner = abs(prod.mean() - want) / (prod.std(ddof=1) / math.sqrt(n_paths))
    checks = [("z_wick_mean", float(z_mean), "<=", 3.0), ("z_inner", float(z_inner), "<=", 3.0)]
    return checks, {"mc_crosscheck.json": _verdict(checks, n_paths=n_paths)}


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
# experiments that take --threads as a third argument; the rest take (cfg, seed)
SWEEPS = {"dr-sweep", "opnorm-sweep"}


# built once; parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(prog="wickgrid", add_help=True)
_PARSER.add_argument("experiment", choices=EXPERIMENTS)
_PARSER.add_argument("--config", default=None)
_PARSER.add_argument("--out", default="out")
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--threads", type=int, default=1)
_PARSER.add_argument("--debug", action="store_true",
                     help="print the traceback of a runtime error")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.threads < 1:
            _PARSER.error(f"--threads must be >= 1, got {args.threads}")
        if args.threads > 1 and args.experiment in EXPERIMENTS.keys() - SWEEPS:
            _PARSER.error(f"--threads {args.threads}: only {' and '.join(sorted(SWEEPS))} "
                          f"run on threads; {args.experiment} takes --threads 1")
    except SystemExit as exc:       # --help exits 0, a usage error 2
        return 0 if exc.code == 0 else USAGE_EXIT
    try:
        raw = parse_config(args.config) if args.config else {}
        text = raw.pop("seed", None)
        seed = args.seed if args.seed is not None or text is None else _parse("seed", text, int)
        if seed is not None:
            _check_seed(seed)
        keys = KEYS[args.experiment]
        for key in sorted(raw.keys() - keys):
            near = difflib.get_close_matches(key, keys, n=1)
            raise ParameterError(f"{args.experiment} reads no key {key!r}; " + (
                f"did you mean {near[0]!r}?" if near else f"its keys are {', '.join(keys)}"))
        if seed is None and args.experiment in STOCHASTIC:
            raise ParameterError("stochastic experiments require a seed "
                                 "(--seed or 'seed =' in the config)")
    except (OSError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    seed = 0 if seed is None else seed
    t0 = time.perf_counter()
    try:
        cfg = resolve(args.experiment, raw)
        run = (cfg, seed, args.threads) if args.experiment in SWEEPS else (cfg, seed)
        checks, bodies = EXPERIMENTS[args.experiment](*run)
    except ParameterError as exc:     # every input error (errors.py)
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        if args.debug:
            traceback.print_exception(exc, file=sys.stderr)
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
            "config": cfg,
            "seed": seed,
            "version": __version__,
            "wall_time_s": time.perf_counter() - t0,
            "outputs": [str(p) for p in outputs],
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        })
    except OSError as exc:
        print(f"error: cannot write the outputs: {exc}", file=sys.stderr)
        return 1
    failed = [check for check in checks if not _passes([check])]
    for name, value, relation, bound in failed:
        print(f"check failed: {name} = {value!r}, needs {relation} {bound!r}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
