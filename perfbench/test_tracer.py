"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py -q
"""

from concurrent.futures import ThreadPoolExecutor

import harness
import pytest
from tracer import LAYERS, ROOT, Tracer

SWEEP = [("opnorm-sweep", {"N": "128", "H_list": "0.3 0.5 0.7"})]
MIXED = SWEEP + [
    ("qce-check", {"N": "8", "c_scale": "0.3", "trials": "2"}),
    ("nonexist-cert", {"H": "0.75", "N": "16", "K_max": "20", "c_scale": "0.5"}),
    ("bsde-verify", {"solution": "represent", "N": "6", "xi_order": "2", "trials": "2"}),
]


@pytest.fixture(scope="module")
def cli():
    return harness.import_cli()


def traced_pass(cli, tmp_path, experiments, threads=1, seed=7):
    specs = harness.write_configs(tmp_path, experiments)
    tracer = Tracer()
    tracer.install()
    try:
        res = harness.run_pass(cli, specs, [seed] * len(specs), tmp_path / "pass",
                               threads=threads, tracer=tracer)
    finally:
        tracer.uninstall()
    assert res.failed == 0
    return res.trace


def test_wrappers_rebound_in_every_importing_module(cli):
    import wickgrid.bsde as bsde
    import wickgrid.covariance as covariance

    original = covariance.build_gram
    tracer = Tracer()
    tracer.install()
    try:
        assert covariance.build_gram is not original
        assert cli.build_gram is covariance.build_gram is bsde.build_gram
        assert cli.EXPERIMENTS["gram"] is cli.exp_gram
        assert cli.ThreadPoolExecutor is not ThreadPoolExecutor
    finally:
        tracer.uninstall()
    assert cli.build_gram is covariance.build_gram is bsde.build_gram is original
    assert cli.ThreadPoolExecutor is ThreadPoolExecutor


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_thread_spans_link_to_the_experiment(cli, tmp_path, threads):
    trace = traced_pass(cli, tmp_path, SWEEP, threads=threads)
    (exp,) = [s for s in trace.spans if s.key == "cli.exp_opnorm_sweep"]
    builds = [s for s in trace.spans if s.key == "covariance.build_gram"]
    assert len(builds) == 3
    assert all(s.parent == exp.sid for s in builds)
    # with per-thread stacks the worker spans would be roots and the whole
    # sweep would count as its own self time
    assert trace.self_s[exp.sid] < 0.5 * (exp.t1 - exp.t0)


def test_self_times_cover_the_traced_wall_time(cli, tmp_path):
    trace = traced_pass(cli, tmp_path, MIXED)
    layers = trace.by_layer()
    assert set(layers) == set(LAYERS)
    total = sum(v["self_s"] for v in layers.values()) + trace.root_self_s
    assert total == pytest.approx(trace.wall_s, rel=1e-9)
    assert all(s.parent == ROOT for s in trace.spans if s.key == "cli.main")
    assert layers["cli"]["failed"] == 0


def test_count_metrics_repeat_exactly(tmp_path):
    def counts(run_dir):
        run_dir.mkdir()
        metrics, attempted, failed, _ = harness.measure(
            "chaos-powers", seed=11, seconds=0.0, trace=True, workdir=run_dir)
        assert failed == 0 and attempted > 0
        return {k: v for k, (v, unit, _) in metrics.items() if unit in ("count", "bytes")}

    first, second = counts(tmp_path / "a"), counts(tmp_path / "b")
    assert first == second
    assert first["chaos.SymmetricTensor.contract_last.calls"] > 0
    assert first["qce.ShiftContext.calls"] > 0
    assert first["covariance.cov_calls"] > 0
