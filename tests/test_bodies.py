"""Byte identity of the CLI bodies against the digests in bodies.sha256.

Every CSV/JSON/SVG body (not run-manifest.json, which carries timestamps) of
each `CONTRACT_CASES` config in test_cli.py at seeds 1, 2, 5 and 9 and of the
pinned benchmark configs (`WORKLOADS` in perfbench/harness.py) at seed 1 is
hashed in one subprocess.  Both config tables are read with ast.literal_eval,
so neither module is imported.  The pinned frac-verify (about 3 s) is left
out; frac-verify is digested at the CONTRACT_CASES mesh.

OpenBLAS and numpy's own loops pick their kernels at run time by CPU: on an
AVX-512 machine about half of these bodies differ in their last bits between
OpenBLAS's SkylakeX and Haswell kernels, and 13 between numpy's AVX-512 and
AVX2 loops.  So the subprocess pins the OpenBLAS core, one BLAS thread, and
numpy's loops at AVX2 (X86_V3).  bodies.sha256 stores the numpy and scipy
versions, the core each OpenBLAS reports and numpy's enabled loops next to the
digests; a run under another runtime fails and names what differs.

To re-record, after a change that moves a body on purpose:

    PYTHONPATH=src python tests/test_bodies.py --record
"""

import ast
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("bodies.sha256")
PINNED_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
              "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
CONTRACT_SEEDS = (1, 2, 5, 9)
WORKLOAD_SEED = 1


def _literal(path: Path, name: str):
    """The literal assigned to `name` at the top level of the module at path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def runs():
    """(label, experiment, config text, seed) of every digested run."""
    cases = _literal(ROOT / "tests" / "test_cli.py", "CONTRACT_CASES")
    for seed in CONTRACT_SEEDS:
        for i, (exp, text, _) in enumerate(cases):
            yield f"contract/{i:02d}-{exp}@{seed}", exp, text, seed
    workloads = _literal(ROOT / "perfbench" / "harness.py", "WORKLOADS")
    for workload, specs in workloads.items():
        for i, (exp, cfg) in enumerate(specs):
            if exp == "frac-verify":
                continue
            text = "".join(f"{k} = {v}\n" for k, v in cfg.items())
            yield f"{workload}/{i:02d}-{exp}@{WORKLOAD_SEED}", exp, text, WORKLOAD_SEED


def _cores() -> str:
    """The kernel set (core) of each loaded OpenBLAS, as the library reports it."""
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    cores = []
    for pkg in ("numpy", "scipy"):
        libs = Path(sys.modules[pkg].__file__).parent.with_name(f"{pkg}.libs")
        for lib in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
                if hasattr(handle, symbol):
                    get = getattr(handle, symbol)
                    get.restype = ctypes.c_char_p
                    cores.append(f"{pkg}:{get().decode()}")
    return " ".join(cores) or "unknown"


def measure() -> dict:
    """Run every config in this process; {"env": ..., "digests": ...}."""
    import numpy
    import scipy
    from wickgrid import cli
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n, (label, exp, text, seed) in enumerate(runs()):
            cfg, out = Path(tmp) / f"{n}.cfg", Path(tmp) / f"{n}"
            cfg.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([exp, "--config", str(cfg), "--out", str(out),
                                 "--seed", str(seed), "--threads", "1"])
            if code != 0:
                digests[label] = f"exit {code}"
                continue
            for path in sorted(out.iterdir()):
                if path.name != "run-manifest.json":
                    digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    simd = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)) or "baseline"
    env = {"numpy": numpy.__version__, "scipy": scipy.__version__, "core": _cores(),
           "simd": simd}
    return {"env": env, "digests": digests}


def measure_pinned() -> dict:
    """measure() in a subprocess with the BLAS kernels pinned, where a
    warning is an error."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", __file__, "--measure"], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def read_digests() -> dict:
    env, digests = {}, {}
    for line in DIGESTS.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            env[key] = value
        elif line:
            digest, _, label = line.partition("  ")
            digests[label] = digest
    return {"env": env, "digests": digests}


def write_digests(result: dict) -> None:
    lines = [f"# {key} {value}" for key, value in result["env"].items()]
    lines += [f"{digest}  {label}" for label, digest in result["digests"].items()]
    DIGESTS.write_text("\n".join(lines) + "\n")


def test_bodies_match_the_recorded_digests():
    want = read_digests()
    got = measure_pinned()
    moved = {k: (want["env"].get(k), got["env"].get(k))
             for k in want["env"].keys() | got["env"].keys()
             if want["env"].get(k) != got["env"].get(k)}
    assert not moved, f"the digests were recorded under another runtime (recorded, now): {moved}"
    labels = want["digests"].keys() | got["digests"].keys()
    changed = sorted(k for k in labels if want["digests"].get(k) != got["digests"].get(k))
    assert not changed, f"{len(changed)} bodies moved: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--measure"]:
        json.dump(measure(), sys.stdout)
    elif sys.argv[1:] == ["--record"]:
        result = measure_pinned()
        write_digests(result)
        print(f"recorded {len(result['digests'])} digests under {result['env']}")
    else:
        sys.exit("usage: python tests/test_bodies.py --record")
