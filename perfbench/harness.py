"""Closed-loop benchmark of wickgrid's CLI experiments.

One client drives `wickgrid.cli.main(argv)` in this process.  A pass is one
run of a workload's fixed experiment list; the next experiment starts only
after the previous one returned.  Every pass writes to its own temporary
directory, its outputs are checked, and the directory is removed.

Run through `run.py`, which pins the BLAS/OpenMP thread pools to one thread
before numpy is imported.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy
import scipy.special  # noqa: F401  (imported before set-up is timed)

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

CLI_THREADS = 1
SETUPS = 3            # set-up is repeated and its median reported
MIN_PASSES = 3        # per timed phase, even when --seconds is short
VERIFY_SEED = 0       # seed of the warm-up passes whose bodies are digested

# Pinned experiment configs.  Keys are the CLI's flat `key = value` config.
WORKLOADS = {
    "gram-geometry": [
        ("gram", {"model": "fbm", "H": "0.3", "N": "512"}),
        ("dr-sweep", {"H": "0.3", "N": "64"}),
        ("opnorm-sweep", {"N": "256"}),
        ("example33", {"N_list": "16 32 64 128 256"}),
        ("jensen", {"N": "128"}),
    ],
    "chaos-dense": [
        ("bsde-verify", {"solution": "represent", "N": "24", "xi_order": "3",
                         "trials": "6"}),
        ("bsde-solve", {"N": "24"}),
        ("qce-check", {"N": "16", "c_scale": "0.3"}),
        ("skorokhod-check", {"N": "64", "trials": "200"}),
        ("mc-crosscheck", {"N": "32", "n_paths": "100000"}),
    ],
    "chaos-powers": [
        ("nonexist-cert", {"H": "0.75", "N": "64", "K_max": "150", "c_scale": "0.5"}),
        ("domain-diagnostic", {"H": "0.3", "N": "64", "K_max": "150", "c_scale": "0.5"}),
        ("bsde-verify", {"solution": "wick", "N": "24", "K": "10", "trials": "6",
                         "c_scale": "0.3"}),
    ],
    "frac-kernels": [
        ("frac-verify", {}),
    ],
}

# Workloads whose times are reported raw rather than normalized to host speed
# (see CAL_REF_S).  frac-verify is one 4-second run of vectorized special
# functions: the calibration kernel slows down about twice as much as it does
# under the same host load, so normalizing raised its run-to-run spread from
# 0.06-0.17 (raw) to 0.18-0.20 over ten runs.
RAW_TIMED = {"frac-kernels"}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_configs(workdir: Path, experiments) -> list:
    """Write one config file per (experiment, cfg); returns [(experiment, path, cfg)]."""
    specs = []
    for i, (exp, cfg) in enumerate(experiments):
        path = workdir / f"{i:02d}-{exp}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        specs.append((exp, path, cfg))
    return specs


def pass_seeds(seed: int, index: int, specs, mc_seeds) -> list:
    """Seeds of one pass: a fresh draw per pass from the workload seed.

    mc-crosscheck is a two-sided 3-sigma test on two statistics, so about
    0.5% of all seeds trip it by design; its seed is therefore taken from a
    table of seeds at which it passes (see README.md).
    """
    s = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    return [mc_seeds[s % len(mc_seeds)] if exp == "mc-crosscheck" else s
            for exp, _, _ in specs]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _fgn_autocov(H: float, n: int, T: float = 1.0) -> np.ndarray:
    k = np.arange(n, dtype=float)
    h2 = 2.0 * H
    gamma = 0.5 * (T / n) ** h2 * (np.abs(k + 1) ** h2 + np.abs(k - 1) ** h2
                                   - 2.0 * k ** h2)
    return gamma[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]


def _rows(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def check_outputs(exp: str, cfg: dict, out: Path) -> list:
    """Problems found in one experiment's outputs; empty when all hold."""
    problems = []
    for js in sorted(out.glob("*.json")):
        body = json.loads(js.read_text())
        if js.name != "run-manifest.json" and body.get("passes", True) is not True:
            problems.append(f"{js.name}: passes is not true")
    if exp == "gram":
        n = int(cfg["N"])
        G = _rows(out / "gram.csv")
        want = _fgn_autocov(float(cfg["H"]), n)
        if G.shape != (n, n) or not np.allclose(G, want, rtol=1e-9, atol=1e-13):
            problems.append("gram.csv differs from the fGn autocovariance")
    elif exp in ("dr-sweep", "opnorm-sweep"):
        rows = _rows(out / f"{exp.replace('-', '_')}.csv")
        d_r, opnorm = rows[:, 3], rows[:, 4]
        if not (np.all(opnorm >= 1.0 - 1e-12) and np.all((0.0 <= d_r) & (d_r < 1.0))):
            problems.append(f"{exp}: a row breaks opnorm >= 1 or 0 <= d_r < 1")
    elif exp == "nonexist-cert":
        cert = json.loads((out / "certificate.json").read_text())
        S = np.array(cert.get("S_K", []))
        bound = np.array(cert.get("geometric_lower_bound", []))
        if (cert.get("bound_ok") is not True or S.shape != bound.shape
                or not np.all(S >= bound * (1.0 - 1e-12))):
            problems.append("certificate: S_K below the geometric bound")
    elif exp == "domain-diagnostic":
        S = _rows(out / "domain_diagnostic.csv")[:, 1]
        if not np.all(np.diff(S) >= 0.0):
            problems.append("domain_diagnostic: S_K decreases")
    return problems


def bodies(out: Path) -> dict:
    """name -> bytes of every CSV/JSON body; the run manifest carries timestamps."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".json") and p.name != "run-manifest.json"}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def import_cli():
    """Import wickgrid afresh from this checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "wickgrid" or m.startswith("wickgrid.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("wickgrid")
    cli = importlib.import_module("wickgrid.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"wickgrid imported from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
# Other tenants of a shared host slow this process down by up to ~40% for
# seconds to minutes at a time, so raw wall times of identical runs spread too
# widely to gate a change on.  A fixed calibration kernel is timed just before
# and just after every experiment; the experiment's time is multiplied by
# CAL_REF_S over the mean of those two samples, which gives its time at the
# host speed where the kernel takes CAL_REF_S.  This tracks the Python-heavy
# workloads well; see RAW_TIMED for the one it does not.

CAL_REF_S = 1.0e-3    # about the kernel's median time on a 2-vCPU Intel Xeon VM, CPython 3.11
_CAL_A = np.full((16, 16), 0.06)
_CAL_X = np.linspace(0.0, 1.0, 40000)


def host_factor(before: float, after: float) -> float:
    """Multiplier that turns a time measured between two samples into CAL_REF_S time."""
    return 2.0 * CAL_REF_S / (before + after)


def _cal_kernel() -> float:
    acc = 0.0
    for i in range(8000):
        acc += math.sqrt(i)
    v = np.ones(16)
    for _ in range(400):
        v = _CAL_A @ v
    return acc + float(v[0]) + float(np.exp(_CAL_X).sum())


def host_speed_sample() -> float:
    """Best of three timings of the calibration kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _cal_kernel()
        best = min(best, perf_counter() - t0)
    return best


class PassResult:
    def __init__(self, normalize: bool = True):
        self.normalize = normalize
        self.exp_wall = []        # per experiment, in workload order
        self.exp_cpu = []
        self.cal = []             # host-speed samples around the experiments
        self.failed = 0
        self.bytes_written = 0
        self.digests = {}
        self.trace = None

    @property
    def wall_s(self) -> float:
        return sum(self.exp_wall)

    @property
    def cpu_s(self) -> float:
        return sum(self.exp_cpu)

    def scale(self, j: int) -> float:
        """Host-speed factor of experiment j (1 when not normalizing)."""
        return host_factor(self.cal[j], self.cal[j + 1]) if self.normalize else 1.0

    def norm_exp_wall(self, j: int) -> float:
        return self.exp_wall[j] * self.scale(j)

    @property
    def norm_wall_s(self) -> float:
        return sum(map(self.norm_exp_wall, range(len(self.exp_wall))))

    @property
    def norm_cpu_s(self) -> float:
        return sum(c * self.scale(j) for j, c in enumerate(self.exp_cpu))


def run_pass(cli, specs, seeds, passdir: Path, threads: int = CLI_THREADS,
             tracer: Tracer = None, normalize: bool = True) -> PassResult:
    """Run every experiment once, then check the outputs and remove them.

    Only the experiment calls are timed (and traced); the checks are not.
    """
    res = PassResult(normalize)
    codes = []
    try:
        if tracer:
            tracer.begin_pass()
        res.cal.append(host_speed_sample())
        for i, ((exp, cfg_path, _), seed) in enumerate(zip(specs, seeds)):
            argv = [exp, "--config", str(cfg_path), "--out", str(passdir / f"{i:02d}-{exp}"),
                    "--seed", str(seed), "--threads", str(threads)]
            w0, c0 = perf_counter(), process_time()
            try:
                codes.append(cli.main(argv))
            except Exception:
                traceback.print_exc()
                codes.append(None)
            res.exp_wall.append(perf_counter() - w0)
            res.exp_cpu.append(process_time() - c0)
            res.cal.append(host_speed_sample())
        if tracer:
            res.trace = tracer.end_pass()

        for i, ((exp, _, cfg), seed, rc) in enumerate(zip(specs, seeds, codes)):
            out = passdir / f"{i:02d}-{exp}"
            problems = [f"exit code {rc}"] if rc != 0 else []
            if out.is_dir():
                try:
                    problems += check_outputs(exp, cfg, out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
                for name, data in bodies(out).items():
                    res.digests[f"{i:02d}-{exp}/{name}"] = hashlib.sha256(data).hexdigest()
                    res.bytes_written += len(data)
            if problems:
                res.failed += 1
                print(f"# FAILED {exp} seed={seed}: {'; '.join(problems)}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    return res


def _quantiles(values) -> tuple:
    """(p25, p50, p75) as statistics.quantiles gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, float(np.percentile(values, p))


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "cli_threads": CLI_THREADS,
    }


class Run:
    """Set-up plus timed passes of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.seed = seed
        self.normalize = workload not in RAW_TIMED
        self.workdir = workdir
        self.specs = write_configs(workdir, WORKLOADS[workload])
        ref = json.loads(REFERENCE.read_text())
        self.mc_seeds = ref["mc_seeds"]
        self.reference_bodies = ref["bodies"][workload]
        self.attempted = 0
        self.failed = 0
        self.cli = None
        self._passes = 0

    def run_pass(self, seeds, tracer: Tracer = None) -> PassResult:
        self._passes += 1
        res = run_pass(self.cli, self.specs, seeds, self.workdir / f"pass-{self._passes}",
                       tracer=tracer, normalize=self.normalize)
        self.attempted += len(self.specs)
        self.failed += res.failed
        return res

    def setup(self) -> tuple:
        """Import + one warm-up pass, SETUPS times.

        The warm-up passes run at VERIFY_SEED.  Returns the median normalized
        and raw set-up times, and the number of bodies that differ from the
        digests in reference.json.
        """
        raw, norm, changed = [], [], 0
        verify = [VERIFY_SEED] * len(self.specs)
        for _ in range(SETUPS):
            before = host_speed_sample()
            t0 = perf_counter()
            self.cli = import_cli()
            import_s = perf_counter() - t0
            res = self.run_pass(verify)
            raw.append(import_s + res.wall_s)
            factor = host_factor(before, res.cal[0]) if self.normalize else 1.0
            norm.append(import_s * factor + res.norm_wall_s)
            keys = set(res.digests) | set(self.reference_bodies)
            changed = sum(res.digests.get(k) != self.reference_bodies.get(k)
                          for k in keys)
        return statistics.median(norm), statistics.median(raw), changed

    def timed(self, seconds: float, tracer: Tracer = None) -> list:
        """Passes until `seconds` have gone, and at least MIN_PASSES."""
        results = []
        t_end = perf_counter() + seconds
        while len(results) < MIN_PASSES or perf_counter() < t_end:
            seeds = pass_seeds(self.seed, len(results), self.specs, self.mc_seeds)
            results.append(self.run_pass(seeds, tracer))
        return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pass_stats(prefix: str, walls, cpus, done: int) -> dict:
    n = len(walls)
    p25, p50, p75 = _quantiles(walls)
    stats = {
        f"{prefix}pass_s_p50": (p50, "s", n),
        f"{prefix}pass_s_p25": (p25, "s", n),
        f"{prefix}pass_s_p75": (p75, "s", n),
        f"{prefix}cpu_s_per_pass": (_median(cpus), "s", n),
        f"{prefix}exps_per_s": (done / sum(walls), "1/s", n),
    }
    tail = tail_percentile(walls)
    if tail:
        stats[f"{prefix}pass_s_p{tail[0]}"] = (tail[1], "s", n)
    return stats


def end_to_end(run: Run, setup: tuple, results) -> dict:
    """name -> (value, unit, samples) of the untraced run.

    Times are normalized to host speed (see CAL_REF_S) unless the workload
    is in RAW_TIMED; the raw wall and CPU times are reported beside them with
    the prefix `raw_`.
    """
    norm_setup, raw_setup = setup
    done = sum(len(r.exp_wall) - r.failed for r in results)
    metrics = {
        "setup_s": (norm_setup, "s", SETUPS),
        "raw_setup_s": (raw_setup, "s", SETUPS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
        "fail_frac": (run.failed / run.attempted, "ratio", run.attempted),
        "host_speed_ms": (_median([c for r in results for c in r.cal]) * 1e3, "ms",
                          sum(len(r.cal) for r in results)),
    }
    metrics.update(_pass_stats("", [r.norm_wall_s for r in results],
                               [r.norm_cpu_s for r in results], done))
    metrics.update(_pass_stats("raw_", [r.wall_s for r in results],
                               [r.cpu_s for r in results], done))
    return metrics


def _scaling_exponent(builds) -> float:
    """Log-log slope of median build_gram self time against N (0 if < 2 sizes)."""
    by_n = {}
    for _, n, _, self_s in builds:
        by_n.setdefault(n, []).append(self_s)
    ns = sorted(by_n)
    if len(ns) < 2:
        return 0.0
    t = [statistics.median(by_n[n]) for n in ns]
    return float(np.polyfit(np.log(ns), np.log(t), 1)[0])


def per_layer(run: Run, untraced, traced, tracer: Tracer, bodies_changed: int) -> dict:
    """name -> (value, unit, samples) of the traced run.

    Counts come from the first traced pass, whose seed does not depend on
    timing; times are medians over the traced passes.
    """
    n = len(traced)
    first = traced[0]
    metrics = {}
    funcs = [r.trace.by_function() for r in traced]
    for key in tracer.keys:
        metrics[f"{key}.calls"] = (funcs[0].get(key, (0, 0.0))[0], "count", 1)
        metrics[f"{key}.self_s"] = (_median([f.get(key, (0, 0.0))[1] for f in funcs]), "s", n)
    layers = [r.trace.by_layer() for r in traced]
    for layer in LAYERS:
        for stat in ("busy_s", "self_s"):
            metrics[f"{layer}.{stat}"] = (_median([lay[layer][stat] for lay in layers]), "s", n)
        metrics[f"{layer}.failed"] = (sum(lay[layer]["failed"] for lay in layers), "count", n)
    metrics["cli.failed"] = (metrics["cli.failed"][0] + sum(r.failed for r in traced),
                             "count", n)

    builds = first.trace.gram_builds()
    distinct = {(model, grid) for model, _, grid, _ in builds}
    for key, calls in first.trace.counts.items():
        name = "covariance.cov_calls" if key == "covariance.cov" else f"{key}.calls"
        metrics[name] = (calls, "count", 1)
    metrics["covariance.gram_distinct_ratio"] = (
        len(distinct) / len(builds) if builds else 0.0, "ratio", 1)
    metrics["covariance.build_gram.scaling_N"] = (
        _scaling_exponent([b for r in traced for b in r.trace.gram_builds()]), "1", n)
    metrics["cli.bytes_written"] = (first.bytes_written, "bytes", 1)
    metrics["cli.bodies_changed"] = (bodies_changed, "count", 1)

    exps = {exp for specs in WORKLOADS.values() for exp, _ in specs}
    for exp in sorted(exps):
        cols = [i for i, (e, _, _) in enumerate(run.specs) if e == exp]
        ms = [1000.0 * r.norm_exp_wall(i) for r in untraced for i in cols]
        metrics[f"cli.exp.{exp}.ms_p50"] = (_median(ms), "ms", len(ms))

    untraced_p50 = _median([r.norm_wall_s for r in untraced])
    traced_p50 = _median([r.norm_wall_s for r in traced])
    metrics["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "ratio", n)
    walls = [r.trace.wall_s for r in traced]
    covered_s = [sum(v["self_s"] for v in lay.values()) + r.trace.root_self_s
                 for lay, r in zip(layers, traced)]
    metrics["trace.coverage"] = (_median([c / w for c, w in zip(covered_s, walls)]),
                                 "ratio", n)
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, run, and return (metrics, attempted, failed, environment)."""
    run = Run(workload, seed, workdir)
    *setup, bodies_changed = run.setup()
    if not trace:
        metrics = end_to_end(run, setup, run.timed(seconds))
        metrics["cli.bodies_changed"] = (bodies_changed, "count", 1)
    else:
        untraced = run.timed(seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.timed(seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(run, untraced, traced, tracer, bodies_changed)
    return metrics, run.attempted, run.failed, environment(workload, seed)
