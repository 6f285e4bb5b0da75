"""Benchmark entry point: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload gram-geometry --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the `end_to_end` ones of BENCHMARK.json, with `--trace 1` the `per_layer`
ones.  Lines before it report every metric with its unit and sample count.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402


def declared(section: str) -> list:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def report(metrics: dict, env: dict) -> None:
    print("# env " + json.dumps(env, sort_keys=True))
    for name in sorted(metrics):
        value, unit, samples = metrics[name]
        print(f"{env['workload']:>14} {name:<48} {value:>14.6g} {unit:<6} n={samples}")


def run_one(args) -> int:
    names = declared("per_layer" if args.trace else "end_to_end")
    workdir = harness.ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        metrics, attempted, failed, env = harness.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except ImportError as exc:
        print(f"cannot import wickgrid from {harness.SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    report(metrics, env)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so that peak_rss_mb stays per workload."""
    code = 0
    for workload in harness.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        # the child's JSON line is for one workload only; keep its report lines
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
        code = code or proc.returncode
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
