"""Experiment harness: dispatch, exit codes, artifacts, reproducibility."""

import json

import numpy as np
import pytest

from wickgrid import TruncationOperator, cli


def run(tmp_path, experiment, config_text="", seed=None, subdir="run"):
    out = tmp_path / subdir
    args = [experiment, "--out", str(out)]
    if config_text is not None:
        cfg = tmp_path / f"{subdir}.cfg"
        cfg.write_text(config_text)
        args += ["--config", str(cfg)]
    if seed is not None:
        args += ["--seed", str(seed)]
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


def test_nonexist_cert_bm_refusal(tmp_path):
    code, out = run(tmp_path, "nonexist-cert", "model = bm\nN = 16\n")
    assert code == 0
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["status"] == "refusal"


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


def test_check_failure_exits_two(tmp_path, monkeypatch):
    def failing(cfg, seed, threads):
        return False, {"dummy.json": {}}

    monkeypatch.setitem(cli.EXPERIMENTS, "always-fails", failing)
    code = cli.main(["always-fails", "--out", str(tmp_path / "o")])
    assert code == 2
    # a failed check still writes its bodies, so the failure can be read
    assert json.loads((tmp_path / "o" / "dummy.json").read_text()) == {}


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
])
def test_unusable_check_settings_are_config_errors(tmp_path, capsys, experiment,
                                                  cfg, message):
    # trials = 0 used to write "passes": true after checking nothing,
    # K_max = 171 ended in a bare OverflowError, n_paths < 2 wrote NaN z
    # statistics, solution = wik or plot = ture fell back to a default, a
    # value that did not parse raised a bare ValueError that named no key,
    # and checks = apendix ran nothing and wrote "passes": true
    code, out = run(tmp_path, experiment, "model = fbm\nH = 0.75\n" + cfg, seed=1)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (out / "run-manifest.json").exists()


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


def test_example33_exit_and_slopes(tmp_path):
    code, out = run(tmp_path, "example33",
                    "H_list = 0.5,0.2\nN_list = 16,32,64,128\n")
    assert code == 0
    rows = read_csv(out / "example33.csv")
    slopes = {float(r["H"]): float(r["slope"]) for r in rows}
    assert slopes[0.5] < -0.4
    assert slopes[0.2] >= -0.02


def test_threads_do_not_change_output(tmp_path):
    cfg = "H_list = 0.25,0.5,0.75\nN = 8\n"
    _, o1 = run(tmp_path, "opnorm-sweep", cfg, subdir="t1")
    out2 = tmp_path / "t4"
    cfgp = tmp_path / "t4.cfg"
    cfgp.write_text(cfg)
    code = cli.main(["opnorm-sweep", "--config", str(cfgp),
                     "--out", str(out2), "--threads", "4"])
    assert code == 0
    assert (o1 / "opnorm_sweep.csv").read_bytes() == (out2 / "opnorm_sweep.csv").read_bytes()


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
    for threads in (1, 2):
        cfgp = tmp_path / f"t{threads}.cfg"
        cfgp.write_text(cfg)
        out = tmp_path / f"t{threads}"
        assert cli.main([experiment, "--config", str(cfgp), "--out", str(out),
                         "--threads", str(threads)]) == 0
        bodies.append((out / csv).read_bytes())
    assert bodies[0] == bodies[1]


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


def _per_value_csv(path, header, array):
    cli.write_csv(path, header, array.tolist())
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
}


@pytest.mark.parametrize("name", CSV_ARRAYS)
def test_array_csv_equals_the_per_value_write(tmp_path, name):
    # the array path formats each distinct bit pattern once; the bytes must be
    # those of formatting every value on its own
    array = CSV_ARRAYS[name]
    header = [f"c{j}" for j in range(array.shape[1])]
    cli.write_csv(tmp_path / "a.csv", header, array)
    assert (tmp_path / "a.csv").read_bytes() == _per_value_csv(tmp_path / "b.csv", header, array)


def test_gram_csv_equals_the_per_value_write_of_the_gram(tmp_path):
    code, out = run(tmp_path, "gram", "model = fbm\nH = 0.3\nN = 512\n")
    assert code == 0
    ctx = cli.gram_from_config(cli.Config(model="fbm", H="0.3", N="512"))
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
    bodies = []
    for subdir, model in (("none", ""), ("fbm", "model = fbm\n")):
        code, out = run(tmp_path, experiment, model + "H = 0.3\nN = 8\n", subdir=subdir)
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
    ctx = cli.gram_from_config(cli.Config(H="0.3", N="8"))
    f = ctx.indicator(ctx.grid.points[1])
    f = 0.5 * f / ctx.norm(f)
    rho = ctx.norm_sq(TruncationOperator(ctx, ctx.grid.points[4]).forward(f))
    assert sums.size == 21
    assert np.all(np.isfinite(sums))
    assert np.all(np.diff(sums) >= 0.0)
    assert np.all(sums <= 1.0 / (1.0 - rho))


def test_domain_diagnostic_unknown_generator_is_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "domain-diagnostic", "N = 8\ngenerator = bogus\n")
    assert code == 1
    assert "generator 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_parse_config_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("\n# a comment line\n   \nN = 8   # trailing comment\n\n"
                    "  # indented comment = 3\nH=0.3\n")
    assert cli.parse_config(str(path)) == {"N": "8", "H": "0.3"}
