"""Self-test: the deterministic work counters repeat exactly across runs.

Run from the root of a source checkout:

    python3 bench/selftest.py [--seed N] [workload ...]

For each workload (all by default) it makes two traced runs of one seed with
the shortest run length and compares every counter in run.DETERMINISTIC.
Exits 1 when a counter differs.  Failed output checks are printed, not
judged: they are the benchmark's own result, not the self-test's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import DETERMINISTIC  # noqa: E402

WORKLOADS = ("table", "torus", "sweep")
RUN_TIMEOUT_S = 600


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = (traced_run(workload, args.seed) for _ in range(2))
        for key in DETERMINISTIC:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                ok = False
                print(f"{workload}: {key} differs: {a} vs {b}")
        for run in (first, second):
            if not run["correct"]:
                print(f"{workload}: run reported failed={run['failed']} of {run['attempted']}")
        counts = ", ".join(f"{k}={first['metrics'][k]['value']}" for k in DETERMINISTIC)
        print(f"{workload} seed={args.seed}: {counts}")
    print("counters repeat" if ok else "SELF-TEST FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
