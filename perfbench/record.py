"""Regenerate reference.json from the wickgrid in this checkout.

    python3 perfbench/record.py

It records (a) the sha256 of every CSV/JSON body each workload writes at the
verification seed, against which `cli.bodies_changed` counts, and (b) the
table of mc-crosscheck seeds the benchmark draws from.  Run it only on a
commit whose outputs are trusted, and say so in the change that updates it.
"""

import json
import shutil
import sys

import run  # noqa: F401  (pins the thread pools before numpy is imported)
import harness
import numpy as np

MC_TABLE = 256
MC_CONFIG = dict(harness.WORKLOADS["chaos-dense"])["mc-crosscheck"]


def main() -> int:
    work = harness.ROOT / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli = harness.import_cli()
        bodies = {}
        for workload in harness.WORKLOADS:
            specs = harness.write_configs(work, harness.WORKLOADS[workload])
            res = harness.run_pass(cli, specs, [harness.VERIFY_SEED] * len(specs),
                                   work / "pass")
            if res.failed:
                print(f"{workload}: a verification experiment failed", file=sys.stderr)
                return 1
            bodies[workload] = res.digests

        specs = harness.write_configs(work, [("mc-crosscheck", MC_CONFIG)])
        seeds, tried = [], 0
        for cand in np.random.SeedSequence(20261017).generate_state(2 * MC_TABLE):
            tried += 1
            if not harness.run_pass(cli, specs, [int(cand)], work / "pass").failed:
                seeds.append(int(cand))
            if len(seeds) == MC_TABLE:
                break
        print(f"mc-crosscheck: {len(seeds)} of {tried} candidate seeds pass")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    harness.REFERENCE.write_text(json.dumps({"bodies": bodies, "mc_seeds": seeds},
                                            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
