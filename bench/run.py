"""Closed-loop benchmark of the pelastica command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload table|torus|sweep --seed N --seconds S --trace 0|1

One client runs the workload's seeded command stream in-process through
``pelastica.cli.main(argv)``, each command only after the previous one has
returned, repeating the whole stream (a pass) while the next pass still fits
in ``--seconds``.  Every command's output is checked after its pass, outside
the timed region.  The last line of standard output is one JSON object:

  --trace 0  wall_s (median pass time), setup_s (median import time of
             pelastica.cli in fresh interpreters), peak_rss_mb.
  --trace 1  per-layer work counters of one traced pass (totals per pass;
             Lambda evaluations per solve is closure.lambda_evals /
             closure.solves where all Lambda calls come from solves, as in
             table and torus), median self times of the traced passes (see
             spans.py), and trace.overhead_s: median traced minus median
             untraced pass time, both measured in this run.

``attempted``/``failed`` count commands; a command fails on an exception,
an unexpected exit code or a failed output check, so failed/attempted is the
fail ratio.  Traced runs also write their spans once, at the end, to
``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
SETUP_CODE = (
    "import time; t = time.perf_counter(); import pelastica.cli; "
    "print(time.perf_counter() - t)"
)
# Counters that must repeat exactly between traced passes of one seed.
DETERMINISTIC = (
    "qpotential.calls", "quad.integrals", "closure.solves", "closure.lambda_evals",
    "closure.candidates", "energy.calls", "stability.calls", "curve.ode_steps",
    "curve.samples", "hopf.vertices", "hopf.covers", "cli.bytes_out",
)


@dataclass
class Result:
    rc: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float


def measure_setup() -> float:
    """Median import time of pelastica.cli, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_command(main, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    except Exception:  # a crashing command is a counted failure, not the end of the run
        error = traceback.format_exc(limit=3).strip().replace("\n", " | ")
    seconds = time.perf_counter() - t0
    return Result(rc, out.getvalue(), err.getvalue().strip(), error, seconds)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_pass(cli, commands, tracer, pinned, checks):
    """Run the stream once; return (seconds, failures, bytes out, latencies)."""
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
    try:
        results, stems, latencies = [], [], []
        for i, cmd in enumerate(commands):
            stem = os.path.join(pass_dir, f"c{i:02d}")
            argv = [a.replace("{out}", stem) for a in cmd.argv]
            res = run_command(cli.main, argv)
            results.append(res)
            stems.append(stem)
            latencies.append(res.seconds)
        if tracer is not None:
            tracer.enabled = False
        bytes_out = _dir_bytes(pass_dir) + sum(len(r.stdout.encode()) for r in results)
        failures = []
        for cmd, res, stem in zip(commands, results, stems):
            reason = checks.check(cmd, res, stem, pinned)
            if reason is not None:
                failures.append(f"{cmd.key}: {reason}")
        return sum(latencies), failures, bytes_out, latencies
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def run_passes(cli, commands, budget_s, tracer, pinned, checks, on_pass=None):
    """Closed loop: repeat passes while the next one is expected to fit."""
    start = time.perf_counter()
    walls, all_failures, latencies, attempted = [], [], [], 0
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.enabled = True
        wall, failures, bytes_out, lat = run_pass(cli, commands, tracer, pinned, checks)
        walls.append(wall)
        all_failures += failures
        latencies += lat
        attempted += len(commands)
        if on_pass is not None:
            on_pass(bytes_out)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > budget_s:
            return walls, all_failures, latencies, attempted


def _tail(samples: list[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    n = len(samples)
    text = f"n={n} median={statistics.median(samples):.4f}s"
    if n > 20:
        q = 100 * (n - 10) // n
        text += f" p{q}={statistics.quantiles(samples, n=100)[q - 1]:.4f}s"
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "pelastica", "cli.py")):
        print(f"no pelastica sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import spans
    import workloads
    from pelastica import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    commands = workloads.generate(args.workload, args.seed)
    pinned = checks.load_pinned()
    setup_s = measure_setup() if not args.trace else None

    if not args.trace:
        walls, failures, latencies, attempted = run_passes(
            cli, commands, args.seconds, None, pinned, checks
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        summary = (
            f"wall_s per pass {_tail(walls)} ({', '.join(f'{w:.3f}' for w in walls)}); "
            f"per command {_tail(latencies)}"
        )
        consistent = True
    else:
        half = args.seconds / 2.0
        plain, failures, _, attempted = run_passes(cli, commands, half, None, pinned, checks)
        tracer = spans.Tracer()
        tracer.install()
        per_pass, span_dump = [], []

        def record(bytes_out):
            values = dict(tracer.counts)
            values.update(tracer.self_times())
            values["cli.bytes_out"] = bytes_out
            per_pass.append(values)
            span_dump.append(tracer.spans)

        traced, more_failures, _, more_attempted = run_passes(
            cli, commands, half, tracer, pinned, checks, on_pass=record
        )
        failures += more_failures
        attempted += more_attempted
        first = per_pass[0]
        consistent = all(
            all(v.get(k, 0) == first.get(k, 0) for k in DETERMINISTIC) for v in per_pass
        )
        if not consistent:
            print("work counters differ between traced passes of one seed", file=sys.stderr)
        metrics = {k: {"value": first.get(k, 0), "unit": "count"} for k in DETERMINISTIC}
        metrics["cli.bytes_out"]["unit"] = "B"
        for name in spans.SELF_TIME_METRICS.values():
            metrics[name] = {"value": statistics.median(v[name] for v in per_pass), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s",
        }
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": span_dump}, fh)
        summary = (
            f"untraced pass {_tail(plain)}; traced pass {_tail(traced)}; spans in {path}"
        )

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {summary}")
    print(json.dumps({
        "correct": not failures and consistent,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
