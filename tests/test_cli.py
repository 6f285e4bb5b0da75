"""Experiment harness: dispatch, exit codes, artifacts, reproducibility."""

import inspect
import json
import logging
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wickgrid import (
    ChaosVector,
    TruncationOperator,
    chaos_inner,
    cli,
    errors,
    evaluate_chaos_on_sample,
    random_chaos,
    sample_increments,
)
from wickgrid.errors import CalibrationError, ParameterError, UnsupportedOperationError


def run(tmp_path, experiment, config_text="", seed=None, subdir="run"):
    out = tmp_path / subdir
    args = [experiment, "--out", str(out)]
    if config_text is not None:
        cfg = tmp_path / f"{subdir}.cfg"
        cfg.write_text(config_text)
        args += ["--config", str(cfg)]
    if seed is not None:
        args += ["--seed", str(seed)]
    with warnings.catch_warnings():     # a warning of the run fails the test
        warnings.simplefilter("error")
        code = cli.main(args)
    return code, out


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return rows


def test_unknown_experiment_is_usage_error(tmp_path):
    code, _ = run(tmp_path, "does-not-exist")
    assert code == 64


def test_help_exits_0_and_names_every_experiment(capsys):
    # argparse exits 0 on --help and 2 on a usage error; main mapped both to 64
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in cli.EXPERIMENTS)
    assert cli.main(["nope"]) == 64
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path):
    code = cli.main(["gram", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
    assert code == 64


def test_malformed_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    code = cli.main(["gram", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 64


def test_misaligned_time_is_config_error(tmp_path):
    code, _ = run(tmp_path, "jensen", "model = fbm\nH = 0.75\nN = 8\nr = 0.3\n")
    assert code == 1


def test_opnorm_sweep_dichotomy(tmp_path):
    code, out = run(tmp_path, "opnorm-sweep",
                    "H_list = 0.2,0.35,0.5,0.75\nN = 16\n", seed=1)
    assert code == 0
    rows = read_csv(out / "opnorm_sweep.csv")
    by_h = {float(r["H"]): float(r["opnorm"]) for r in rows}
    assert by_h[0.5] == pytest.approx(1.0, abs=1e-9)
    for H in (0.2, 0.35, 0.75):
        assert by_h[H] > 1.0 + 1e-6
    assert (out / "run-manifest.json").exists()


def test_dr_sweep_runs(tmp_path):
    code, out = run(tmp_path, "dr-sweep", "H = 0.75\nN = 8\n")
    assert code == 0
    rows = read_csv(out / "dr_sweep.csv")
    assert len(rows) == 7
    assert all(float(r["d_r"]) > 0 for r in rows)


def test_jensen_experiment(tmp_path):
    code, out = run(tmp_path, "jensen", "model = fbm\nH = 0.75\nN = 16\n")
    assert code == 0
    payload = json.loads((out / "jensen.json").read_text())
    assert payload["status"] == "counterexample"
    assert payload["ratio"] > 1.0


def test_jensen_martingale_refusal(tmp_path):
    code, out = run(tmp_path, "jensen", "model = bm\nN = 8\n")
    assert code == 0
    payload = json.loads((out / "jensen.json").read_text())
    assert payload["status"] == "martingale-case"


def test_nonexist_cert(tmp_path):
    code, out = run(tmp_path, "nonexist-cert", "model = fbm\nH = 0.75\nN = 16\nK_max = 12\n")
    assert code == 0
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["status"] == "certificate"
    assert payload["rho"] > 1.0
    assert payload["bound_ok"]


@pytest.mark.parametrize("field, value, line", [
    ("bound_ok", False, "check failed: bound_ok = False, needs >= True"),
    ("rho", 1.0, "check failed: rho = 1.0, needs > 1.0"),
])
def test_a_failed_certificate_exits_two_naming_its_check(tmp_path, monkeypatch, capsys,
                                                         field, value, line):
    real = cli.nonexistence_certificate

    def failed(*args, **kwargs):
        cert = real(*args, **kwargs)
        setattr(cert, field, value)
        return cert

    monkeypatch.setattr(cli, "nonexistence_certificate", failed)
    code, out = run(tmp_path, "nonexist-cert", "N = 8\nK_max = 4\n")
    assert code == 2
    assert capsys.readouterr().err == line + "\n"
    assert json.loads((out / "certificate.json").read_text())[field] == value


def test_a_certificate_without_a_driver_never_reads_a(tmp_path, capsys):
    # no A is formed without a driver; at a = 1000 it used to overflow in exp
    code, out = run(tmp_path, "nonexist-cert", "a_const = 1000\n")
    code0, out0 = run(tmp_path, "nonexist-cert", "a_const = 0\n", subdir="zero")
    assert code == code0 == 0
    assert capsys.readouterr().err == ""
    got, want = (json.loads((o / "certificate.json").read_text()) for o in (out, out0))
    assert got["coefficients"]["a"] == [1000.0] * got["N"]
    for key in ("rho", "S_K", "bound_ok"):
        assert got[key] == want[key]


def test_nonexist_cert_bm_refusal(tmp_path):
    code, out = run(tmp_path, "nonexist-cert", "model = bm\nN = 16\n")
    assert code == 0
    payload = json.loads((out / "certificate.json").read_text())
    assert payload == {"status": "refusal", "reason": (
        "operator norm is 1 at this r: martingale grid, the linear equation admits "
        "solutions for every square-integrable terminal value; no non-existence certificate")}


def test_domain_diagnostic_on_a_martingale_grid_is_a_config_error(tmp_path, capsys):
    # no escape direction exists where the operator norm is 1; the refusal
    # used to reach the catch-all and print "error: ..."
    code, out = run(tmp_path, "domain-diagnostic", "model = bm\nN = 8\n")
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: operator norm is 1 at this r")
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["nonexist-cert", "domain-diagnostic", "jensen"])
@pytest.mark.parametrize("cfg", ["N = 8\nr = 0\n", "N = 8\nr = 1\n", "model = bm\nN = 8\nr = 0\n"])
def test_a_degenerate_split_is_a_config_error(tmp_path, capsys, experiment, cfg):
    # r = 0 or r = T leaves one side of the split empty; nonexist-cert wrote a
    # "martingale grid" refusal for it, also on fBm, and jensen reached the
    # catch-all
    code, out = run(tmp_path, experiment, cfg, seed=1)
    assert code == 1
    assert capsys.readouterr().err == "config error: past/future split needs 0 < r < T\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment,cfg,echo", [
    ("nonexist-cert", "model = bm\nN = 16\n", {"r": 0.5}),
    ("jensen", "N = 8\n", {"r": 0.5}),
    ("qce-check", "N = 4\ntrials = 1\nK = 2\nr = 0.25\n", {"r": 0.25}),
    ("skorokhod-check", "N = 8\ntrials = 1\nb = 0.75\n", {"a": 0.25, "b": 0.75, "u": 0.75}),
])
def test_manifest_echoes_the_defaults_the_run_used(tmp_path, experiment, cfg, echo):
    # a key whose default the experiment works out is echoed with the value it
    # took, not as null
    code, out = run(tmp_path, experiment, cfg, seed=1)
    assert code == 0
    config = json.loads((out / "run-manifest.json").read_text())["config"]
    assert {key: config[key] for key in echo} == echo


def test_reproducibility_byte_identical(tmp_path):
    cfg = "model = fbm\nH = 0.3\nN = 6\ntrials = 5\nxi_order = 2\n"
    code1, out1 = run(tmp_path, "bsde-verify", cfg, seed=9, subdir="a")
    code2, out2 = run(tmp_path, "bsde-verify", cfg, seed=9, subdir="b")
    assert code1 == code2 == 0
    b1 = (out1 / "bsde_verify.json").read_bytes()
    b2 = (out2 / "bsde_verify.json").read_bytes()
    assert b1 == b2
    # example33 CSV bodies as well
    _, o3 = run(tmp_path, "example33", "H_list = 0.5\nN_list = 16,32,64\n", subdir="c")
    _, o4 = run(tmp_path, "example33", "H_list = 0.5\nN_list = 16,32,64\n", subdir="d")
    assert (o3 / "example33.csv").read_bytes() == (o4 / "example33.csv").read_bytes()


def test_stochastic_experiments_require_seed(tmp_path):
    code, _ = run(tmp_path, "mc-crosscheck", "model = bm\nN = 4\nn_paths = 100\n")
    assert code == 64
    code2, _ = run(tmp_path, "mc-crosscheck",
                   "model = bm\nN = 4\nn_paths = 5000\nseed = 3\n", subdir="s")
    assert code2 == 0


def test_check_failure_exits_two(tmp_path, monkeypatch, capsys):
    def failing(cfg, seed):
        return [("dummy_error", 0.5, "<=", 0.25), ("dummy_ratio", 2.0, ">", 1.0)], \
            {"dummy.json": {}}

    monkeypatch.setitem(cli.EXPERIMENTS, "always-fails", failing)
    monkeypatch.setitem(cli.KEYS, "always-fails", {})
    code = cli.main(["always-fails", "--out", str(tmp_path / "o")])
    assert code == 2
    # one line names each failed check, none the check that passed
    assert capsys.readouterr().err == "check failed: dummy_error = 0.5, needs <= 0.25\n"
    # a failed check still writes its bodies, so the failure can be read
    assert json.loads((tmp_path / "o" / "dummy.json").read_text()) == {}


@pytest.mark.parametrize("relation", ["<=", ">=", ">"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_value_fails_every_relation(relation, value):
    for bound in (0.0, math.inf, -math.inf, math.nan):
        assert not cli._passes([("x", value, relation, bound)])
        assert not cli._passes([("ok", 0.0, "<=", 1.0), ("x", value, relation, bound)])


def test_a_value_at_its_bound_passes_only_the_weak_relations():
    assert cli._passes([("x", 1e-8, "<=", 1e-8)])
    assert cli._passes([("x", 1e-8, ">=", 1e-8)])
    assert not cli._passes([("x", 1e-8, ">", 1e-8)])
    assert cli._passes([("bound_ok", True, ">=", True)])
    assert not cli._passes([("bound_ok", False, ">=", True)])
    assert cli._passes([])


def test_qce_and_skorokhod_checks(tmp_path):
    code, out = run(tmp_path, "qce-check",
                    "model = fbm\nH = 0.75\nN = 8\nc_scale = 0.5\ntrials = 4\n", seed=2)
    assert code == 0
    assert json.loads((out / "qce_check.json").read_text())["passes"]
    code2, out2 = run(tmp_path, "skorokhod-check",
                      "model = fbm\nH = 0.25\nN = 8\n", seed=3, subdir="sk")
    assert code2 == 0


def test_bsde_solve_and_wick_verify(tmp_path):
    code, out = run(tmp_path, "bsde-solve",
                    "model = fbm\nH = 0.3\nN = 6\nxi_order = 2\n", seed=5)
    assert code == 0
    rows = read_csv(out / "bsde_solution.csv")
    assert len(rows) == 7
    code2, out2 = run(tmp_path, "bsde-verify",
                      "model = fbm\nH = 0.3\nN = 6\nsolution = wick\n",
                      seed=5, subdir="wick")
    assert code2 == 0
    assert json.loads((out2 / "bsde_verify.json").read_text())["passes"]


def test_domain_diagnostic_csv(tmp_path):
    code, out = run(tmp_path, "domain-diagnostic",
                    "model = fbm\nH = 0.75\nN = 16\nK_max = 10\n")
    assert code == 0
    rows = read_csv(out / "domain_diagnostic.csv")
    sums = [float(r["S_K"]) for r in rows]
    assert len(sums) == 11
    assert all(b >= a for a, b in zip(sums, sums[1:]))


@pytest.mark.parametrize("experiment,cfg,message", [
    ("bsde-verify", "N = 6\ntrials = 0\n", "trials"),
    ("bsde-verify", "N = 6\nsolution = wick\ntrials = -3\n", "trials"),
    ("skorokhod-check", "N = 8\ntrials = 0\n", "trials"),
    ("qce-check", "N = 4\ntrials = 0\n", "trials"),
    ("qce-check", "N = 4\nr = 1.0\n", "r = 1.0 has no later grid node"),
    ("dr-sweep", "N = 1\n", "N must be >= 2"),
    ("domain-diagnostic", "N = 8\nK_max = 171\n", "170"),
    ("nonexist-cert", "N = 8\nK_max = 171\n", "170"),
    ("mc-crosscheck", "N = 4\nn_paths = 0\n", "n_paths"),
    ("mc-crosscheck", "N = 4\nn_paths = 1\n", "n_paths"),
    ("mc-crosscheck", "N = 4\nn_paths = -3\n", "n_paths"),
    ("bsde-verify", "N = 4\nsolution = wik\n", "wik"),
    ("opnorm-sweep", "N = 8\nH_list = 0.3\nplot = ture\n", "plot"),
    ("gram", "N = -2\n", "n >= 1"),
    ("gram", "N = abc\n", "N = 'abc' is not an integer"),
    ("jensen", "N = 16\nepsilon = tiny\n", "epsilon = 'tiny' is not a number"),
    ("opnorm-sweep", "N = 8\nH_list = 0.3,x\n", "H_list = '0.3,x'"),
    ("example33", "N_list = 16,3.5\n", "N_list = '16,3.5'"),
    ("frac-verify", "checks = apendix\n", "checks = 'apendix'"),
    ("frac-verify", "checks = appendix,,low\n", "appendix, low, high, kstar"),
    ("frac-verify", "checks =\n", "checks = ''"),
    ("nonexist-cert", "N = 16\nK_max = 170\nc_scale = 200\n", "order 0 overflows"),
    ("nonexist-cert", "N = 16\nK_max = 60\nc_scale = 1e6\n", "order 0 overflows"),
    ("domain-diagnostic", "N = 16\nK_max = 170\nc_scale = 200\n", "order 0 overflows"),
    ("qce-check", "N = 6\nc_scale = 1e200\n", "order 0 overflows"),
    ("bsde-verify", "N = 4\nsolution = wick\nK = 400\n", "K must be <= 170, got 400"),
    ("qce-check", "N = 4\nK = 400\n", "K must be <= 170, got 400"),
    ("frac-verify", "checks = kstar\nN_kstar = 1\n", "two distinct target times"),
    ("opnorm-sweep", "N = 8\nH_list =\n", "H_list = '' is not a non-empty list of numbers"),
    ("example33", "H_list = ,\n", "H_list = ',' is not a non-empty list of numbers"),
    ("example33", "N_list =\n", "N_list = '' is not a non-empty list of integers"),
    ("gram", "N = 4\nsigma =\n", "sigma = ''"),
    ("jensen", "N = 16\nepsilon = nan\n", "eps must be finite and positive, got nan"),
    ("jensen", "N = 16\nepsilon = inf\n", "eps must be finite and positive, got inf"),
    ("jensen", "N = 16\nepsilon = 0\n", "eps must be finite and positive, got 0.0"),
])
def test_unusable_check_settings_are_config_errors(tmp_path, capsys, experiment,
                                                  cfg, message):
    # trials = 0 used to write "passes": true after checking nothing, as did
    # r = T in qce-check for its towering check, dr-sweep at N = 1 wrote a
    # header-only table, K_max = 171 ended in a bare OverflowError, n_paths < 2
    # wrote NaN z statistics, solution = wik or plot = ture fell back to a
    # default, a value that did not parse raised a bare ValueError that named
    # no key, checks = apendix ran nothing and wrote "passes": true, a shift
    # too large for the chaos order or K = 400 ended in a bare OverflowError,
    # and N_kstar = 1 compared one calibration target with itself and passed,
    # an empty list wrote a header-only table, and epsilon = nan failed the
    # check rather than the config; the model lines go only to experiments
    # that read those keys
    prefix = "".join(line for line in ("model = fbm\n", "H = 0.75\n")
                     if line.split(" = ")[0] in cli.KEYS[experiment])
    code, out = run(tmp_path, experiment, prefix + cfg, seed=1)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def _range_case(cfg, message, experiment="bsde-verify"):
    # a bsde-verify case is named by its config and message alone
    name = f"{cfg}-{message}" if experiment == "bsde-verify" else f"{experiment}-{cfg}-{message}"
    return pytest.param(experiment, cfg, message, id=name)


# e^-710 is subnormal and its reciprocal overflows; its last digits are left to exp
_SUBNORMAL_A = "integrating factor A = 4.47628622567"


@pytest.mark.parametrize("experiment,cfg,message", [
    _range_case("solution = wick\nc_scale = 1e300\n", "solution factor beta = 0.0 at node 0"),
    _range_case("solution = wick\na_const = -1e3\n", "integrating factor A = 0.0 at node 0"),
    _range_case("solution = wick\na_const = 1e300\n", "integrating factor A = inf at node 0"),
    _range_case("solution = wick\na_const = -710\n", _SUBNORMAL_A),
    _range_case("model = fbm\nT = 1e300\n", "1e+300 ** 1.5 overflows a double"),
    _range_case("model = weighted_fbm\nT = 1e300\n", "1e+300 ** 1.5 overflows a double"),
    _range_case("model = sum\nT = 1e300\n", "1e+300 ** 1.5 overflows a double"),
    *(_range_case(prefix + f"a_const = {a}\n", message, experiment)
      for experiment, prefix in [("bsde-solve", ""), ("bsde-verify", "solution = represent\n")]
      for a, message in [("-1e3", "integrating factor A = 0.0 at node 0"),
                         ("-710", _SUBNORMAL_A),
                         ("1e300", "integrating factor A = inf at node 0")]),
    _range_case("T = 1e300\n", "residual moment nan at T = 1e+300 leaves the double range",
                "example33"),
    # A = e^-700 is a normal double, but Y = A^-1 [...] is ~1e303 and its squared norm
    # overflows: 8 l2_Y cells read inf or nan, and the terminal check passed
    _range_case("a_const = -700\n", "solution row at node 0 is not finite: mean_Y = ",
                "bsde-solve"),
])
def test_values_past_the_double_range_are_config_errors(tmp_path, capsys, experiment, cfg,
                                                        message):
    # these ended in the catch-all: "error: math range error", "error: -inf +
    # inf in fsum" and an UnsupportedOperationError after RuntimeWarnings,
    # and "error: (34, 'Numerical result out of range')"; the represented
    # solution divided by an A of 0 or inf and example33 wrote nan residuals,
    # after RuntimeWarnings, and exited 0 or 2
    code, out = run(tmp_path, experiment, cfg, seed=1)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_solution_norm_whose_order_terms_overflow_in_fsum_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    # Y_0 is a constant, so the configured runs overflow at node 0 in one term;
    # here node 1 holds two finite order terms whose sum passes the double
    # range, where fsum raises OverflowError and the norm is their double sum,
    # inf.  The row reads l2_Y = inf and is refused like one that overflows in
    # a term
    represent = cli.represent_solution

    def overflowing_node_1(problem):
        sol = represent(problem)
        ctx = problem.ctx
        v = 1.2e154 * ctx.unit(np.linspace(1.0, 2.0, ctx.n))
        sol.Y_nodes[1] = ChaosVector.first_chaos(v, constant=1.2e154)
        assert sol.Y_nodes[1].l2_norm(ctx) == math.inf
        return sol

    monkeypatch.setattr(cli, "represent_solution", overflowing_node_1)
    code, out = run(tmp_path, "bsde-solve", "", seed=1)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: solution row at node 1 is not finite: mean_Y = ")
    assert "l2_Y = inf" in err
    assert not out.exists()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_kstar_mesh_without_a_node_below_a_target_is_a_config_error(tmp_path, capsys, m):
    # a zero indicator recovery used to reach np.log(0): a RuntimeWarning, then
    # kstar_spread = nan (exit 2) or "disagree by inf%" (exit 1)
    code, out = run(tmp_path, "frac-verify", f"checks = kstar\nM_kstar = {m}\n", seed=1)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"m = {m} cell(s)" in err
    assert "refine the mesh" in err
    assert not out.exists()


def test_gram_export_and_plot(tmp_path):
    code, out = run(tmp_path, "gram", "model = fbm\nH = 0.2\nN = 8\n")
    assert code == 0
    rows = read_csv(out / "gram.csv")
    assert len(rows) == 8
    code2, out2 = run(tmp_path, "opnorm-sweep",
                      "H_list = 0.25,0.5,0.75\nN = 8\nplot = true\n", subdir="plot")
    assert code2 == 0
    svg = (out2 / "opnorm_sweep.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_a_sweep_of_one_H_plots_on_a_unit_x_axis(tmp_path):
    code, out = run(tmp_path, "opnorm-sweep", "H_list = 0.3\nN = 8\nplot = true\n")
    assert code == 0
    svg = (out / "opnorm_sweep.svg").read_text()
    # x runs from 0.3 to 1.3, so each series is one point at the left edge
    assert re.findall(r'points="([\d.]+),', svg) == ["50.00", "50.00"]
    assert ">1.3</text>" in svg


def test_a_flat_series_plots_on_a_unit_y_axis():
    svg = cli.svg_plot([0, 1], {"a": [2.0, 2.0]})
    assert 'points="50.00,370.00 590.00,370.00"' in svg
    assert ">2</text>" in svg and ">3</text>" in svg


def test_weighted_model_from_config(tmp_path):
    code, out = run(tmp_path, "gram",
                    "model = weighted_fbm\nH = 0.75\nN = 4\n"
                    "sigma = 1.0,2.0,0.5,1.0\n")
    assert code == 0
    rows = read_csv(out / "gram.csv")
    assert len(rows) == 4
    code2, out2 = run(tmp_path, "gram",
                      "model = sum\nsum_model1 = bm\nsum_model2 = fbm\n"
                      "sum_H2 = 0.75\nsum_gamma = 2.0\nN = 4\n", subdir="sum")
    assert code2 == 0


def test_mc_crosscheck(tmp_path):
    code, out = run(tmp_path, "mc-crosscheck",
                    "model = fbm\nH = 0.7\nN = 6\nn_paths = 20000\n", seed=8)
    assert code == 0
    payload = json.loads((out / "mc_crosscheck.json").read_text())
    assert payload["passes"]


def _mc_crosscheck_unblocked(cfg, seed):
    """mc_crosscheck.json body from one matrix of every path at once."""
    n_paths = cfg["n_paths"]
    ctx = cli.gram_from_config(cfg)
    rng = np.random.default_rng(seed)
    X = sample_increments(ctx, n_paths, seed)
    h = ctx.unit(rng.standard_normal(ctx.n))
    vals = np.exp(X @ h - 0.5 * ctx.norm_sq(h))
    z_mean = abs(vals.mean() - 1.0) / (vals.std(ddof=1) / math.sqrt(n_paths))
    xi = random_chaos(rng, ctx.n, 2)
    eta = random_chaos(rng, ctx.n, 2)
    prod = (evaluate_chaos_on_sample(ctx, xi, X)
            * evaluate_chaos_on_sample(ctx, eta, X))
    want = chaos_inner(ctx, xi, eta)
    z_inner = abs(prod.mean() - want) / (prod.std(ddof=1) / math.sqrt(n_paths))
    ok = z_mean <= 3.0 and z_inner <= 3.0
    return {"z_wick_mean": float(z_mean), "z_inner": float(z_inner),
            "n_paths": n_paths, "passes": ok}


@pytest.mark.parametrize("n_paths", [2, 4095, 4096, 4097, 8193, 3 * 4096 + 5])
@pytest.mark.parametrize("N", [1, 7, 32])
def test_mc_crosscheck_blocks_write_the_bytes_of_one_matrix(tmp_path, N, n_paths):
    text = f"N = {N}\nn_paths = {n_paths}\n"
    for seed in (0, 1, 7, 123):
        code, out = run(tmp_path, "mc-crosscheck", text, seed=seed, subdir=f"s{seed}")
        assert code in (0, 2)
        want = tmp_path / f"want{seed}.json"
        cfg = cli.resolve("mc-crosscheck", {"N": str(N), "n_paths": str(n_paths)})
        cli.write_json(want, _mc_crosscheck_unblocked(cfg, seed))
        assert (out / "mc_crosscheck.json").read_bytes() == want.read_bytes()


def test_mc_crosscheck_memory_is_bounded_by_the_block():
    # one matrix of every path peaks at ~55 MB; the blocks stay near 6 MB
    cfg = cli.resolve("mc-crosscheck", {"N": "32", "n_paths": "100000"})
    tracemalloc.start()
    try:
        cli.exp_mc_crosscheck(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


_QCE_KEYS = ["first_chaos_error", "wick_s_error", "towering_error"]


@pytest.mark.parametrize("experiment, cfg, keys", [
    ("qce-check", "c_scale = nan\n", _QCE_KEYS),
    ("bsde-verify", "c_scale = nan\n", ["max_residual"]),
    ("bsde-verify", "c_scale = nan\nsolution = wick\n", ["max_residual"]),
    # c_r = inf - inf and the first-chaos shift warned "invalid value"
    ("qce-check", "c_scale = inf\n", _QCE_KEYS),
    # the paths have no spread, and each z statistic's 0 / 0 warned "invalid value"
    ("mc-crosscheck", "T = 1e-300\n", ["z_wick_mean", "z_inner"]),
    # G c_r and the Wick factor's <h, c_r> warned "invalid value encountered in matmul"
    ("qce-check", "c_scale = 1e308\n", _QCE_KEYS),
])
def test_nan_shift_fails_the_checks(tmp_path, capsys, experiment, cfg, keys):
    code, out = run(tmp_path, experiment, cfg, seed=1)
    assert code == 2
    body = json.loads((out / f"{experiment.replace('-', '_')}.json").read_text())
    assert all(math.isnan(body[key]) for key in keys) and body["passes"] is False
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" = ")[0] for line in lines] == [f"check failed: {key}" for key in keys]
    assert all(" = nan, needs <= " in line for line in lines)


def test_an_infinite_shift_fails_the_certificate_without_a_warning(tmp_path, capsys):
    # the tail ratio S_K / S_{K-1} = inf / inf warned "invalid value
    # encountered in scalar divide"; it still reads nan
    code, out = run(tmp_path, "nonexist-cert", "c_scale = inf\n", seed=1)
    assert code == 2
    assert capsys.readouterr().err == "check failed: bound_ok = False, needs >= True\n"
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["S_K"][-2:] == [math.inf, math.inf] and math.isnan(cert["tail_ratio_S"])


def test_negative_wick_order_is_a_config_error_naming_k(tmp_path, capsys):
    code, out = run(tmp_path, "bsde-verify", "solution = wick\nK = -1\n", seed=1)
    assert code == 1 and not out.exists()
    assert "config error: K must be >= 0, got -1" in capsys.readouterr().err


def test_example33_exit_and_slopes(tmp_path):
    code, out = run(tmp_path, "example33",
                    "H_list = 0.5,0.2\nN_list = 16,32,64,128\n")
    assert code == 0
    rows = read_csv(out / "example33.csv")
    slopes = {float(r["H"]): float(r["slope"]) for r in rows}
    assert slopes[0.5] < -0.4
    assert slopes[0.2] >= -0.02


def test_only_the_sweeps_take_threads():
    takes = {name: list(inspect.signature(fn).parameters) for name, fn in cli.EXPERIMENTS.items()}
    assert {name for name, params in takes.items() if "threads" in params} == cli.SWEEPS
    assert all(params[:2] == ["cfg", "seed"] for params in takes.values())


def test_debug_prints_the_traceback_a_runtime_error_discards(tmp_path, monkeypatch, capsys):
    def broken(cfg, seed):
        raise RuntimeError("injected")

    monkeypatch.setitem(cli.EXPERIMENTS, "broken", broken)
    monkeypatch.setitem(cli.KEYS, "broken", {})
    assert cli.main(["broken", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: injected\n"
    assert cli.main(["broken", "--out", str(tmp_path / "o"), "--debug"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: injected\nTraceback (most recent call last):\n")
    assert "in broken\n" in err and err.endswith("RuntimeError: injected\n")
    assert not (tmp_path / "o").exists()


ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, Exception)]


def test_every_error_but_two_computation_failures_is_an_input_error():
    failures = {cls for cls in ERRORS if not issubclass(cls, ParameterError)}
    assert failures == {CalibrationError, UnsupportedOperationError}
    assert all(issubclass(cls, RuntimeError) for cls in failures)


@pytest.mark.parametrize("error", ERRORS, ids=lambda cls: cls.__name__)
def test_each_error_class_exits_1_with_its_stderr_prefix(tmp_path, monkeypatch, capsys, error):
    # main catches ParameterError alone as an input error; an IntervalError
    # or a ConditioningError used to print "error:", as a crash does
    def broken(cfg, seed):
        raise error("injected")

    monkeypatch.setitem(cli.EXPERIMENTS, "broken", broken)
    monkeypatch.setitem(cli.KEYS, "broken", {})
    out = tmp_path / "o"
    assert cli.main(["broken", "--out", str(out)]) == 1
    prefix = "config error" if issubclass(error, ParameterError) else "error"
    assert capsys.readouterr().err == f"{prefix}: injected\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment, cfg, message", [
    ("skorokhod-check", "a = 0.5\nb = 0.25\n", "each piece needs a < b"),
    ("dr-sweep", "T = 1e-300\n", "Gram is singular beyond the eigenvalue floor"),
    ("frac-verify", "checks = kstar\nH_kstar = 0.7\n", "H in (0, 1/2), got H = 0.7"),
    ("frac-verify", "checks = kstar\nH_kstar = nan\n", "H in (0, 1/2), got H = nan"),
    ("gram", "T = nan\n", "a finite T > 0, got T = nan"),
    ("gram", "T = inf\n", "a finite T > 0, got T = inf"),
    ("gram", "T = -1\n", "a finite T > 0, got T = -1.0"),
    ("bsde-verify", "solution = wick\nK = 170\nc_scale = 300\n",
     "pairing order 169 overflows a double"),
    ("skorokhod-check", "T = 1e30\n", "overflows a double in e^<g, h>"),
    ("qce-check", "c_scale = 1e5\n", "overflows a double in e^<g, h>"),
    ("example33", "H_list = 0.3\nN_list = 16, 16\n", "need at least two grid sizes"),
])
def test_input_errors_of_the_layers_are_config_errors(tmp_path, capfd, experiment, cfg, message):
    # a < b and the singular Gram of T = 1e-300 printed "error:"; H_kstar =
    # 0.7 ended in a bare LinAlgError after LAPACK printed DLASCL lines; T =
    # nan blamed t_0, and T = inf warned first; w * x ** k in GramImage.s
    # raised a bare OverflowError, "error: (34, 'Numerical result out of
    # range')", and so did e^<g, h> of the S-identity check at T = 1e30 and
    # of qce-check's Wick factor at c_scale = 1e5, "error: math range error";
    # N_list = 16, 16 exited 0 with a RankWarning and a slope through one point.
    # capfd reads the descriptor, so a LAPACK line would show
    code, out = run(tmp_path, experiment, cfg, seed=1)
    assert code == 1
    err = capfd.readouterr().err
    assert err.startswith("config error:") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_a_shift_past_the_double_range_fails_the_weak_check_by_name(tmp_path, capfd):
    # the fsum of the S-values raised on -inf + inf, after RuntimeWarnings,
    # and the run ended in the catch-all, "error: -inf + inf in fsum"
    code, out = run(tmp_path, "bsde-verify", "c_scale = 1e300\n", seed=1)
    assert code == 2
    assert capfd.readouterr().err == "check failed: max_residual = nan, needs <= 1e-08\n"
    assert json.loads((out / "bsde_verify.json").read_text())["passes"] is False


def test_a_solve_past_the_double_range_fails_its_check_without_a_warning(tmp_path, capfd):
    # terminal_error's l2_norm ran outside the errstate of exp_bsde_solve and
    # printed two RuntimeWarnings (overflow and invalid value in dot)
    code, out = run(tmp_path, "bsde-solve", "a_const = nan\nc_scale = 1e300\n", seed=1)
    assert code == 2
    assert capfd.readouterr().err == "check failed: terminal_error = nan, needs <= 1e-10\n"
    assert json.loads((out / "bsde_solution.json").read_text())["passes"] is False


def test_debug_leaves_bodies_and_stderr_of_a_good_run_alone(tmp_path, capsys):
    cfgp = tmp_path / "q.cfg"
    cfgp.write_text("N = 6\nc_scale = 0.3\ntrials = 2\n")
    for sub, extra in (("plain", []), ("debug", ["--debug"])):
        assert cli.main(["qce-check", "--config", str(cfgp), "--out", str(tmp_path / sub),
                         "--seed", "3"] + extra) == 0
        assert capsys.readouterr().err == ""
    assert (tmp_path / "plain" / "qce_check.json").read_bytes() == \
        (tmp_path / "debug" / "qce_check.json").read_bytes()


def test_the_package_logger_has_a_null_handler():
    handlers = logging.getLogger("wickgrid").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_dr_sweep_factorizes_once(tmp_path, monkeypatch):
    built = []
    original = cli.build_gram

    def counting_build_gram(model, grid, *args, **kwargs):
        built.append((model, grid.n))
        return original(model, grid, *args, **kwargs)

    monkeypatch.setattr(cli, "build_gram", counting_build_gram)
    code, out = run(tmp_path, "dr-sweep", "H = 0.3\nN = 16\n")
    assert code == 0
    assert len(read_csv(out / "dr_sweep.csv")) == 15
    assert len(built) == 1


@pytest.mark.parametrize("experiment, cfg, csv", [
    ("dr-sweep", "H = 0.3\nN = 32\n", "dr_sweep.csv"),
    ("opnorm-sweep", "H_list = 0.2,0.5,0.8\nN = 32\n", "opnorm_sweep.csv"),
])
def test_sweeps_byte_identical_across_threads(tmp_path, experiment, cfg, csv):
    bodies = []
    for threads in (1, 2, 4):
        cfgp = tmp_path / f"t{threads}.cfg"
        cfgp.write_text(cfg)
        out = tmp_path / f"t{threads}"
        assert cli.main([experiment, "--config", str(cfgp), "--out", str(out),
                         "--threads", str(threads)]) == 0
        bodies.append((out / csv).read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]


@pytest.mark.parametrize("experiment, cfg", [
    ("dr-sweep", "H = 0.3\nN = 16\n"),
    ("opnorm-sweep", "H_list = 0.2,0.5,0.8\nN = 16\n"),
])
def test_one_thread_sweeps_start_no_executor(tmp_path, monkeypatch, experiment, cfg):
    # --threads 1 maps over r on the calling thread; cli.main turns the
    # raise into exit 1
    def no_executor(*args, **kwargs):
        raise AssertionError("--threads 1 started an executor")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_executor)
    code, _ = run(tmp_path, experiment, cfg)
    assert code == 0


def test_unparsable_seed_is_usage_error(tmp_path, capsys):
    code, out = run(tmp_path, "gram", "N = 4\nseed = abc\n")
    assert code == 64
    assert capsys.readouterr().err.startswith("config error: seed = 'abc'")
    assert not out.exists()
    # a negative seed is refused before any experiment runs, whether or not
    # the experiment draws randomness
    for experiment in ("gram", "skorokhod-check"):
        for cfg, seed in (("seed = -1\n", None), ("", -1)):
            code, out = run(tmp_path, experiment, "N = 4\n" + cfg, seed=seed,
                            subdir=f"{experiment}-{seed}")
            assert code == 64
            assert capsys.readouterr().err.startswith("config error: seed must be >= 0, got -1")
            assert not out.exists()


def test_frac_verify_runs_each_listed_check(tmp_path):
    # spaces around a name are ignored
    code, out = run(tmp_path, "frac-verify", "checks = appendix, low\nM = 400\n")
    assert code == 0
    report = json.loads((out / "frac_verify.json").read_text())
    assert sorted(report) == ["appendix_g_l2", "appendix_max_error", "passes",
                              "truncation_low_error"]


def test_threads_above_one_outside_the_sweeps_is_usage_error(tmp_path, capsys):
    # the other experiments run on one thread; a --threads 2 they would ignore
    # is refused before anything runs
    for experiment in sorted(cli.EXPERIMENTS.keys() - cli.SWEEPS):
        out = tmp_path / experiment
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([experiment, "--out", str(out), "--seed", "1", "--threads", "2"])
        assert code == 64
        err = capsys.readouterr().err
        assert "--threads 2: only dr-sweep and opnorm-sweep run on threads" in err
        assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "o"
    code = cli.main(["gram", "--out", str(out), "--threads", threads])
    assert code == 64
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# (experiment, config, files in the order the manifest lists them)
CONTRACT_CASES = [
    ("gram", "N = 4\n", ["gram.csv", "gram.json"]),
    ("opnorm-sweep", "H_list = 0.3,0.5\nN = 8\nplot = true\n",
     ["opnorm_sweep.csv", "opnorm_sweep.svg"]),
    ("dr-sweep", "N = 4\n", ["dr_sweep.csv"]),
    ("jensen", "N = 8\n", ["jensen.json"]),
    ("jensen", "model = bm\nN = 8\n", ["jensen.json"]),
    ("qce-check", "N = 4\ntrials = 1\nK = 4\n", ["qce_check.json"]),
    ("domain-diagnostic", "N = 8\nK_max = 4\n", ["domain_diagnostic.csv"]),
    ("skorokhod-check", "N = 8\ntrials = 2\n", ["skorokhod_check.json"]),
    ("bsde-solve", "N = 4\nxi_order = 2\n", ["bsde_solution.csv", "bsde_solution.json"]),
    ("bsde-verify", "N = 4\ntrials = 1\nxi_order = 2\n", ["bsde_verify.json"]),
    ("nonexist-cert", "N = 8\nK_max = 4\n", ["certificate.json"]),
    ("nonexist-cert", "model = bm\nN = 8\n", ["certificate.json"]),
    ("example33", "H_list = 0.5\nN_list = 8,16\nplot = true\n",
     ["example33.csv", "example33.svg"]),
    ("frac-verify", "M = 500\nM_high = 200\nN_kstar = 8\nM_kstar = 100\n",
     ["appendix_reconstruction.csv", "frac_verify.json"]),
    ("mc-crosscheck", "N = 4\nn_paths = 2000\n", ["mc_crosscheck.json"]),
]


def test_contract_cases_cover_every_experiment():
    assert {exp for exp, _, _ in CONTRACT_CASES} == set(cli.EXPERIMENTS)


@pytest.mark.parametrize("experiment,cfg,names", CONTRACT_CASES)
def test_manifest_lists_exactly_the_files_written(tmp_path, experiment, cfg, names):
    code, out = run(tmp_path, experiment, cfg, seed=1)
    assert code == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["outputs"] == [str(out / name) for name in names]
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["run-manifest.json"])


@pytest.mark.parametrize("experiment,cfg,names", CONTRACT_CASES)
def test_passes_is_the_and_of_the_returned_checks(tmp_path, experiment, cfg, names):
    (tmp_path / "c.cfg").write_text(cfg)
    cfg = cli.resolve(experiment, cli.parse_config(str(tmp_path / "c.cfg")))
    threads = (1,) if experiment in cli.SWEEPS else ()
    checks, bodies = cli.EXPERIMENTS[experiment](cfg, 1, *threads)
    verdicts = [body for name, body in bodies.items()
                if name.endswith(".json") and ("passes" in body or "rho" in body)]
    if not checks:
        # no verdict without checks: the tables, and the two refusal branches
        assert verdicts == []
        return
    (verdict,) = verdicts
    assert all(verdict[name] == value for name, value, _, _ in checks)
    if experiment == "nonexist-cert":
        # the certificate body has no passes field; its checks are rho and bound_ok
        assert "passes" not in verdict and {name for name, *_ in checks} == {"rho", "bound_ok"}
    else:
        assert verdict["passes"] is all(cli._passes([check]) for check in checks)


def test_failed_run_leaves_no_partial_output(tmp_path):
    # the appendix stage succeeds before the kstar grid is refused; its table
    # used to stay on disk although the run exited 1
    code, out = run(tmp_path, "frac-verify", "checks = appendix,kstar\nM = 200\nN_kstar = 0\n")
    assert code == 1
    assert not out.exists()


def test_unwritable_out_is_a_runtime_error(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("a file, not a directory\n")
    assert cli.main(["gram", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write the outputs:")


def _per_value_csv(path, header, rows):
    # every value formatted on its own, as a double
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows))
    return path.read_bytes()


_rng = np.random.default_rng(11)
_nan_payload = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
CSV_ARRAYS = {
    "signed zeros": np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, -0.0]]),
    "subnormals": np.array([[5e-324, -5e-324, 2.2250738585072014e-308],
                            [1e-310, 5e-324, 0.0]]),
    "inf and nan": np.array([[np.inf, -np.inf, np.nan], [np.nan, 1.0, -np.inf]]),
    "nan payloads": np.array([[_nan_payload[0], np.nan, _nan_payload[1]]]),
    "heavy repeats": _rng.choice([0.1, -2.5, 1e300, 1 / 3], size=(40, 30)),
    "all distinct": _rng.standard_normal((25, 17)),
    "1x1": np.array([[0.30000000000000004]]),
    "Nx1": _rng.standard_normal((9, 1)),
    "transposed": _rng.standard_normal((4, 6)).T,
    "no rows": np.zeros((0, 3)),
    # around the 64-row block the body streams in
    "63 rows": _rng.standard_normal((63, 5)),
    "64 rows": _rng.choice([0.25, -0.0, 0.0, 1e-300], size=(64, 4)),
    "65 rows": _rng.choice([0.1, -2.5, 1 / 3], size=(65, 7)),
    "129 rows": _rng.standard_normal((129, 3)),
    "transposed block": _rng.choice([0.5, -0.0, 7.0, 1e-200], size=(3, 130)).T,
}


@pytest.mark.parametrize("name", CSV_ARRAYS)
def test_array_csv_equals_the_per_value_write(tmp_path, name):
    # the array path formats each distinct bit pattern once; the bytes must be
    # those of formatting every value on its own
    array = CSV_ARRAYS[name]
    header = [f"c{j}" for j in range(array.shape[1])]
    cli.write_csv(tmp_path / "a.csv", header, array)
    assert (tmp_path / "a.csv").read_bytes() == _per_value_csv(tmp_path / "b.csv", header, array)


def test_row_csv_streams_every_block(tmp_path):
    # value rows take the same 64-row blocks as arrays; an int cell is written
    # as its double, which reads as its digits below 2**53
    rows = [(i, i / 7, -0.0 if i % 2 else 2**53 - 1 - i) for i in range(129)]
    cli.write_csv(tmp_path / "r.csv", ["i", "v", "s"], rows)
    want = _per_value_csv(tmp_path / "b.csv", ["i", "v", "s"], rows)
    assert (tmp_path / "r.csv").read_bytes() == want
    assert want.splitlines()[2] == b"1,0.14285714285714285,-0"
    assert want.splitlines()[1] == b"0,0,9007199254740991"


def test_gram_csv_write_memory_is_bounded_by_the_block(tmp_path):
    # the 6 MB body of the N = 512 Gram; holding its whole text and the inverse
    # of a 262k-element sort at once peaked at ~20 MB
    ctx = cli.gram_from_config(cli.resolve("gram", {"model": "fbm", "H": "0.3", "N": "512"}))
    header = [f"c{j}" for j in range(ctx.n)]
    tracemalloc.start()
    try:
        cli.write_csv(tmp_path / "gram.csv", header, ctx.G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_gram_csv_equals_the_per_value_write_of_the_gram(tmp_path):
    code, out = run(tmp_path, "gram", "model = fbm\nH = 0.3\nN = 512\n")
    assert code == 0
    ctx = cli.gram_from_config(cli.resolve("gram", {"model": "fbm", "H": "0.3", "N": "512"}))
    header = [f"c{j}" for j in range(ctx.n)]
    assert (out / "gram.csv").read_bytes() == _per_value_csv(tmp_path / "b.csv", header, ctx.G)


def test_default_certificate_solves_one_operator_norm(tmp_path, monkeypatch):
    # the martingale test and the escape direction share one geometry
    from wickgrid import bsde, qce

    calls = []
    real = bsde.operator_norm

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bsde, "operator_norm", counted)
    monkeypatch.setattr(qce, "operator_norm", counted)
    code, out = run(tmp_path, "nonexist-cert", None)
    assert code == 0
    assert json.loads((out / "certificate.json").read_text())["status"] == "certificate"
    assert len(calls) == 1


def test_jensen_solves_one_max_correlation(tmp_path, monkeypatch):
    # the counterexample and its reported d_r share one geometry
    from wickgrid import firstchaos

    calls = []
    real = firstchaos.max_correlation

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(firstchaos, "max_correlation", counted)
    monkeypatch.setattr(cli, "max_correlation", counted)
    code, out = run(tmp_path, "jensen", "N = 8\n")
    assert code == 0
    assert json.loads((out / "jensen.json").read_text())["status"] == "counterexample"
    assert len(calls) == 1


@pytest.mark.parametrize("experiment", ["dr-sweep", "opnorm-sweep"])
@pytest.mark.parametrize("model", ["bm", "sum"])
def test_sweeps_refuse_a_model_other_than_fbm(tmp_path, capsys, experiment, model):
    # a sweep builds fBm from H itself, so another model would be ignored silently
    code, out = run(tmp_path, experiment, f"model = {model}\nN = 8\n")
    assert code == 1
    assert f"model = '{model}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, csv", [("dr-sweep", "dr_sweep.csv"),
                                             ("opnorm-sweep", "opnorm_sweep.csv")])
def test_sweeps_with_model_fbm_write_the_bytes_of_no_model_key(tmp_path, experiment, csv):
    # opnorm-sweep takes its H values from H_list
    cfg = {"dr-sweep": "H = 0.3\nN = 8\n", "opnorm-sweep": "H_list = 0.3\nN = 8\n"}[experiment]
    bodies = []
    for subdir, model in (("none", ""), ("fbm", "model = fbm\n")):
        code, out = run(tmp_path, experiment, model + cfg, subdir=subdir)
        assert code == 0
        bodies.append((out / csv).read_bytes())
    assert bodies[0] == bodies[1]


def test_domain_diagnostic_contract_generator_converges(tmp_path):
    # f = 0.5 e / |e| on the first cell: Gamma_r f = f, so k! |f~_k|^2 = rho^k
    # and S_K is a partial geometric sum below 1 / (1 - rho)
    code, out = run(tmp_path, "domain-diagnostic",
                    "H = 0.3\nN = 8\nK_max = 20\ngenerator = contract\n")
    assert code == 0
    sums = np.array([float(row["S_K"]) for row in read_csv(out / "domain_diagnostic.csv")])
    ctx = cli.gram_from_config(cli.resolve("domain-diagnostic", {"H": "0.3", "N": "8"}))
    f = 0.5 * ctx.unit(ctx.grid.indicator(ctx.grid.points[1]))
    rho = ctx.norm_sq(TruncationOperator(ctx, ctx.grid.points[4]).forward(f))
    assert sums.size == 21
    assert np.all(np.isfinite(sums))
    assert np.all(np.diff(sums) >= 0.0)
    assert np.all(sums <= 1.0 / (1.0 - rho))


def test_domain_diagnostic_contract_generator_at_r_zero_warns_nothing(tmp_path):
    # at r = 0 every term past order 0 vanishes; the ratio of two vanishing
    # terms reads nan, and computing it warned -inf - -inf
    code, out = run(tmp_path, "domain-diagnostic", "N = 8\nr = 0\nK_max = 3\ngenerator = contract\n")
    assert code == 0
    assert (out / "domain_diagnostic.csv").read_text() == "K,S_K,ratio\n0,1,nan\n1,1,0\n2,1,nan\n3,1,nan\n"


def test_domain_diagnostic_unknown_generator_is_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "domain-diagnostic", "N = 8\ngenerator = bogus\n")
    assert code == 1
    assert "generator = 'bogus' is not one of escape, contract" in capsys.readouterr().err
    assert not out.exists()


def test_parse_config_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("\n# a comment line\n   \nN = 8   # trailing comment\n\n"
                    "  # indented comment = 3\nH=0.3\n")
    assert cli.parse_config(str(path)) == {"N": "8", "H": "0.3"}


@pytest.mark.parametrize("experiment, cfg, message", [
    ("qce-check", "N = 4\nc_sacle = 0.3\n", "qce-check reads no key 'c_sacle'; did you mean 'c_scale'?"),
    ("qce-check", "Hurst = 0.2\n", "qce-check reads no key 'Hurst'; its keys are N, T, model, H,"),
    ("nonexist-cert", "N = 8\nK_max = 4\nk_max = 4\n", "did you mean 'K_max'?"),
    # skorokhod-check reads no shift, so c_scale = nan used to run and pass
    ("skorokhod-check", "N = 8\ntrials = 2\nc_scale = nan\n", "reads no key 'c_scale'"),
    ("opnorm-sweep", "N = 8\nH_lst = 0.3\n", "reads no key 'H_lst'; did you mean 'H_list'?"),
    # the sweep's H comes from H_list; with no near key the message lists them all
    ("opnorm-sweep", "N = 8\nH = 0.3\n", "reads no key 'H'; its keys are N, T, model, r, plot, "
                                          "H_list\n"),
    ("example33", "H_list = 0.5\nN = 8\n", "reads no key 'N'; its keys are H_list, N_list, T, plot"),
    ("frac-verify", "check = low\n", "did you mean 'checks'?"),
    # an unknown key is refused before a value that does not parse
    ("gram", "N = abc\ntypo = 1\n", "gram reads no key 'typo'"),
])
def test_an_unknown_key_is_a_usage_error_naming_the_nearest_key(tmp_path, capsys, experiment,
                                                                cfg, message):
    code, out = run(tmp_path, experiment, cfg, seed=1)
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_seed_is_a_key_of_every_experiment(tmp_path):
    code, out = run(tmp_path, "gram", "N = 4\nseed = 3\n")
    assert code == 0
    assert json.loads((out / "run-manifest.json").read_text())["seed"] == 3


class _Recording(dict):
    """A resolved config that adds every key an experiment reads to `read`."""

    def __init__(self, cfg, read):
        super().__init__(cfg)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# configs that take the branches the contract cases leave out
BRANCH_CASES = [(exp, model + "N = 4\n") for exp in cli.KEYS if "sigma" in cli.KEYS[exp]
                for model in ("model = weighted_fbm\n", "model = sum\n")] + [
    ("bsde-verify", "N = 4\ntrials = 1\nsolution = wick\nK = 3\n"),
    ("domain-diagnostic", "N = 8\nK_max = 4\ngenerator = contract\n"),
]


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_every_table_key_is_read_and_every_read_key_is_in_the_table(tmp_path, experiment):
    # cheap sizes for the model branches, which run with default settings
    small = {"trials": "1", "K": "3", "K_max": "4", "n_paths": "50", "xi_order": "1"}
    read = set()
    for exp, text, *_ in CONTRACT_CASES + BRANCH_CASES:
        if exp == experiment:
            (tmp_path / "c.cfg").write_text(text)
            raw = cli.parse_config(str(tmp_path / "c.cfg"))
            raw = {**{k: v for k, v in small.items() if k in cli.KEYS[exp] and k not in raw}, **raw}
            threads = (1,) if exp in cli.SWEEPS else ()
            cli.EXPERIMENTS[exp](_Recording(cli.resolve(exp, raw), read), 1, *threads)
    # a key that accepts one word only is checked by resolve and read by none
    fixed = {key for key, spec in cli.KEYS[experiment].items()
             if isinstance(spec, tuple) and len(spec) == 1}
    assert read | fixed == set(cli.KEYS[experiment])
    assert not read & fixed


def test_weighted_fbm_without_sigma_weighs_every_increment_one(tmp_path):
    bodies = []
    for subdir, sigma in (("none", ""), ("ones", "sigma = 1,1,1,1\n")):
        code, out = run(tmp_path, "gram", "model = weighted_fbm\nN = 4\n" + sigma, subdir=subdir)
        assert code == 0
        bodies.append((out / "gram.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_manifest_echoes_the_resolved_config(tmp_path):
    code, out = run(tmp_path, "bsde-verify", "N = 4\ntrials = 1\nxi_order = 2\nsigma = 1, 2\n",
                    seed=1)
    assert code == 0
    config = json.loads((out / "run-manifest.json").read_text())["config"]
    assert config == json.loads(json.dumps(cli.resolve("bsde-verify", {
        "N": "4", "trials": "1", "xi_order": "2", "sigma": "1, 2"})))
    assert set(config) == set(cli.KEYS["bsde-verify"])
    # parsed values, the defaults of the keys not given, and None for a
    # default the experiment works out
    assert config["N"] == 4 and config["xi_order"] == 2 and config["sigma"] == [1.0, 2.0]
    assert config["a_const"] == 0.5 and config["with_driver"] is True
    assert config["model"] == "fbm" and config["solution"] == "represent"
    code, out = run(tmp_path, "frac-verify", "checks = low\nM = 400\n", subdir="frac")
    assert code == 0
    config = json.loads((out / "run-manifest.json").read_text())["config"]
    assert config["checks"] == ["low"] and config["M_kstar"] == 600


@pytest.mark.parametrize("spec, text, value", [
    (3, "7", 7), (0.5, "-2.5e-3", -2.5e-3), (True, "Off", False), (False, "yes", True),
    ([0.5], "0.1, 0.2 0.3", [0.1, 0.2, 0.3]), ([16], "8,16", [8, 16]), (list, "2", [2.0]),
    (float, "inf", math.inf), (("fbm", "bm"), "bm", "bm"),
    (["low", "high"], " high ,low", ["high", "low"]),
])
def test_parse_takes_the_type_of_the_spec(spec, text, value):
    assert cli._parse("key", text, spec) == value


def test_parse_keeps_nan():
    # non-finite numbers parse, so the checks they reach fail by name
    assert math.isnan(cli._parse("c_scale", "nan", 0.0))


@pytest.mark.parametrize("spec, text", [
    (3, "7.0"), (0.5, ""), (True, "2"), ([0.5], ""), ([0.5], " , "), ([16], "8,1.5"),
    (list, ""), (("fbm", "bm"), "Fbm"), (["low", "high"], "low,,high"), (["low"], ""),
])
def test_parse_refuses_by_key(spec, text):
    with pytest.raises(ParameterError, match=rf"^key = {re.escape(repr(text))} is not "):
        cli._parse("key", text, spec)


def test_resolve_gives_every_key_its_default():
    cfg = cli.resolve("skorokhod-check", {})
    assert cfg["a"] is cfg["b"] is cfg["u"] is cfg["sigma"] is None
    assert cfg["model"] == "fbm" and cfg["sum_model1"] == "bm" and cfg["trials"] == 20
    # a list default is a copy, which the run may not change in the table
    cfg = cli.resolve("example33", {})
    cfg["H_list"].append(0.9)
    assert cli.KEYS["example33"]["H_list"] == [0.5, 0.35, 0.2]


@pytest.mark.parametrize("cfg, H", [
    ("", 0.75), ("H = 0.3\n", 0.3), ("model = weighted_fbm\nH = 0.7\n", 0.7),
    ("model = sum\n", None),
])
def test_certificate_reports_the_hurst_index_of_the_model_built(tmp_path, cfg, H):
    code, out = run(tmp_path, "nonexist-cert", cfg + "N = 8\nK_max = 4\n")
    assert code == 0
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["status"] == "certificate" and payload["H"] == H


def _key_row(key, spec):
    """One README table row: key, type, default, accepted words."""
    if isinstance(spec, tuple):
        cells = "word", f"`{spec[0]}`", ", ".join(f"`{w}`" for w in spec)
    elif isinstance(spec, type):
        cells = "list of float" if spec is list else spec.__name__, "from the grid", ""
    elif isinstance(spec, list) and isinstance(spec[0], str):
        cells = "list of words", "all", "a comma list of " + ", ".join(f"`{w}`" for w in spec)
    elif isinstance(spec, list):
        cells = f"list of {type(spec[0]).__name__}", ", ".join(map(str, spec)), ""
    else:
        cells = type(spec).__name__, str(spec).lower() if isinstance(spec, bool) else str(spec), ""
    return f"| `{key}` | " + " | ".join(cells) + " |"


def test_readme_key_tables_are_the_key_table():
    head = ["| key | type | default | accepts |", "|---|---|---|---|"]
    lines = ["The model keys:", "", *head, *(_key_row(k, s) for k, s in cli._MODEL.items()), ""]
    for exp, keys in cli.KEYS.items():
        shared = cli._MODEL.items() <= keys.items()
        rest = [_key_row(k, s) for k, s in keys.items() if not (shared and k in cli._MODEL)]
        title = f"`{exp}`: the model keys" + (", and" if rest else ".") if shared else f"`{exp}`:"
        lines += [title, ""] + (head + rest + [""] if rest else [])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "\n".join(lines) in readme
