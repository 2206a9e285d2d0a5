"""Repeat the benchmark over seeds and record medians and quartile spreads.

Run from the root of a source checkout:

    python3 bench/repeat.py --runs 10 --out bench/baseline.json [workload ...]

For each workload (all by default) it makes ``--runs`` untraced runs with
seeds 1..runs and one traced run with seed 0, at the ``run_seconds`` of
BENCHMARK.json.  For every end-to-end metric it records the ten values, their
median and the quartile spread (Q3 - Q1) / median, from
``statistics.quantiles(values, n=4)``, next to the metric's bound; the
per-layer metrics of the traced run are kept as they were printed.  The
machine, interpreter and numpy/scipy versions are recorded with them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["summary"] = proc.stdout.strip().splitlines()[-2]
    result["stderr"] = proc.stderr.strip().splitlines()
    return result


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    report = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(bench_run(workload, seed, seconds, 0))
            print(runs[-1]["summary"], flush=True)
        spreads = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spreads[metric["name"]] = {
                "values": values,
                "median": statistics.median(values),
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
            }
            print(f"  {metric['name']}: median {statistics.median(values):.4f} "
                  f"spread {spreads[metric['name']]['spread']:.4f} "
                  f"(bound {metric['bound']})", flush=True)
        traced = bench_run(workload, 0, seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": spreads,
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failures": sorted({line for r in runs for line in r["stderr"]}),
            "per_layer_seed0": traced["metrics"],
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
