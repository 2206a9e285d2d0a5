"""Command line front end: solve, tabulate, trace, lift and sweep.

Subcommands
    table1     reproduce the reference table of closed-curve invariants
    curve      trace one closed curve to CSV/JSON/SVG
    stability  second-variation report as JSON
    hopf       lift a closed curve and export the torus mesh
    sweep      tabulate the progression or the second-variation density
               over a momentum grid

Every argument is validated before any computation.  Exit codes: 0 success,
2 invalid argument/admissibility/domain, 3 convergence, 4 invariant breach or
unresolvable quadrature, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import closure, curve, energy, hopf, stability
from .errors import (
    ConvergenceFailure,
    DomainError,
    InvariantBreach,
    NotFound,
    PElasticaError,
    ResolutionError,
)
from .qpotential import a_star, make_params
from .quad import DEFAULT_REL_TOL

EXIT_OK = 0
EXIT_ADMISSIBILITY = 2
EXIT_CONVERGENCE = 3
EXIT_INVARIANT = 4
EXIT_IO = 5

# Reference values for the eleven closed curves tabulated in the source
# material; columns: figure tag, p, n, m, a, energy, second variation.
REFERENCE_TABLE = (
    ("fig1-left", 0.3, 2, 3, 0.79, 9.2, -24.88),
    ("fig1-center", 0.3, 3, 5, 1.68, 13.1, -85.05),
    ("fig1-right", 0.3, 4, 7, 2.66, 16.53, -137.51),
    ("fig2-left", 0.3, 5, 8, 1.23, 22.87, -92.17),
    ("fig2-center", 0.3, 5, 9, 3.74, 19.65, -451.26),
    ("fig2-right", 0.3, 6, 11, 4.9, 22.57, -841.27),
    ("fig3-left", 0.01, 2, 3, 0.96, 12.22, -33.34),
    ("fig3-center-left", 0.2, 2, 3, 0.79, 9.74, -26.37),
    ("fig3-center", 0.5, 2, 3, 0.8, 8.82, -23.88),
    ("fig3-center-right", 0.8, 2, 3, 0.79, 9.74, -26.37),
    ("fig3-right", 0.99, 2, 3, 0.96, 12.22, -33.34),
)
A_TOL = 0.02
ENERGY_TOL = 0.05
DELTA2_REL_TOL = 0.01
_CURVE_FORMATS = ("csv", "json", "svg")
_CONFIG_KEYS = {"tol": float, "samples": int}


def _load_config(path: str) -> dict:
    """tol and samples from a key=value config file; other keys are ignored."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = (part.strip() for part in line.split("=", 1))
            if key in _CONFIG_KEYS:
                try:
                    out[key] = _CONFIG_KEYS[key](val)
                except ValueError:
                    raise DomainError(f"config {key} = {val!r} is not a number") from None
    return out


def _parse_pole(text: str) -> tuple | None:
    """Four finite comma-separated components, not all zero; None otherwise."""
    try:
        pole = tuple(float(v) for v in text.split(","))
    except ValueError:
        return None
    if len(pole) != 4 or not all(map(math.isfinite, pole)) or not any(pole):
        return None
    return pole


def _check_arguments(args) -> None:
    """Raise DomainError for any argument the command cannot run with.

    Runs before any computation, so a bad argument never costs a solve.
    """
    cmd = args.command
    if cmd == "table1":
        return
    if not 0.0 < args.p < 1.0:
        raise DomainError(f"--p must lie in (0, 1), got {args.p}")
    if cmd == "sweep":
        if args.count <= 0:
            raise DomainError("--count must be positive")
        if not 0.0 < args.offset_min <= args.offset_max < math.inf:
            raise DomainError("need 0 < --offset-min <= --offset-max < inf")
        return
    if cmd == "stability":
        if args.a is not None and (args.n is not None or args.m is not None):
            raise DomainError("give either --a or --n/--m, not both")
        if args.a is not None:
            if not math.isfinite(args.a):
                raise DomainError("--a must be finite")
            return
        if args.n is None or args.m is None:
            raise DomainError("give either --a or both --n and --m")
    if cmd == "curve":
        if not 1e-14 <= args.tol <= 1e-3:
            raise DomainError(f"--tol must lie in [1e-14, 1e-3], got {args.tol}")
        unknown = set(args.format.split(",")) - set(_CURVE_FORMATS)
        if unknown:
            raise DomainError(
                f"--format {args.format!r}: choose from {','.join(_CURVE_FORMATS)}"
            )
    if cmd in ("curve", "hopf") and args.samples <= 0:
        raise DomainError("--samples must be positive")
    if cmd == "hopf" and _parse_pole(args.pole) is None:
        raise DomainError("--pole needs four finite comma-separated components, not all zero")
    if not closure.is_admissible(args.n, args.m):
        raise DomainError(
            f"({args.n}, {args.m}) is not admissible: need gcd(n, m) = 1 and "
            "m < 2n < sqrt(2) m"
        )


def _solve_indices(rows) -> dict:
    """{(p, n, m): solved ClosureIndex} for the rows; one closure scan per p or pair.

    Rows whose exponents sum to exactly 1.0 share one scan at the smaller
    exponent, since Lambda_p(a) = Lambda_{1-p}(a) at every momentum.
    """
    exponents = {p for _, p, *_ in rows}
    scan_at = {p: min([p, *(q for q in exponents if p + q == 1.0)]) for p in exponents}
    by_scan = {}
    for _, p, n, m, *_ in rows:
        by_scan.setdefault(scan_at[p], {})[(n, m)] = closure.ClosureIndex(n, m)
    solved = {
        (scan_p, index.n, index.m): index
        for scan_p, indices in by_scan.items()
        for index in closure.solve_closures(scan_p, indices.values())
    }
    return {(p, n, m): solved[(scan_at[p], n, m)] for _, p, n, m, *_ in rows}


def _solve_rows(rows) -> list:
    """(tag, p, n, m, a, energy, delta2) for each row, in the rows' order.

    One Upsilon quadrature per exponent serves all of its rows, and gives
    each both delta2 and the energy: the energy's moment M(p-1) is one of
    Upsilon's rows, on the mesh energy.energy_closed integrates it on.
    """
    solved = _solve_indices(rows)
    params = [make_params(p, solved[(p, n, m)].a_solved) for _, p, n, m, *_ in rows]
    by_p = {}
    for i, (_, p, *_) in enumerate(rows):
        by_p.setdefault(p, []).append(i)
    arch_rows = [None] * len(rows)
    for at_p in by_p.values():
        for i, values in zip(at_p, stability._upsilon_rows([params[i] for i in at_p])):
            arch_rows[i] = values
    computed = []
    for (tag, p, n, m, *_), row_params, values in zip(rows, params, arch_rows):
        direct, _, _, m_pm1, _, _ = values
        theta = energy._closed_energy(p, m, m_pm1)
        computed.append((tag, p, n, m, row_params.a, theta, 2.0 * m * direct))
    return computed


def cmd_table1(args) -> int:
    computed = _solve_rows(REFERENCE_TABLE)
    all_ok = True
    for ref, got in zip(REFERENCE_TABLE, computed):
        tag, p, n, m = ref[:4]
        a_ref, th_ref, d2_ref = ref[4:]
        _, _, _, _, a_val, th_val, d2_val = got
        checks = (
            ("a", a_val, a_ref, abs(a_val - a_ref) <= A_TOL),
            ("energy", th_val, th_ref, abs(th_val - th_ref) <= ENERGY_TOL),
            ("delta2", d2_val, d2_ref, abs(d2_val - d2_ref) <= DELTA2_REL_TOL * abs(d2_ref)),
        )
        row_ok = all(ok for *_, ok in checks)
        all_ok = all_ok and row_ok
        cells = "  ".join(
            f"{name}={val:.2f} (ref {ref_v:.2f}) {'ok' if ok else 'FAIL'}"
            for name, val, ref_v, ok in checks
        )
        print(f"{tag:<18} p={p:<5} ({n},{m}): {cells}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("figure,p,n,m,a,energy,delta2\r\n")
            for tag, p, n, m, a_val, th_val, d2_val in computed:
                fh.write(f"{tag},{p},{n},{m},{a_val:.12g},{th_val:.12g},{d2_val:.12g}\r\n")
    return EXIT_OK if all_ok else EXIT_INVARIANT


def cmd_curve(args) -> int:
    index = closure.ClosureIndex(args.n, args.m)
    trace = curve.trace_closed_curve(
        args.p, index, rel_tol=args.tol, samples_per_period=args.samples
    )
    base = args.out or f"curve_p{args.p}_n{args.n}_m{args.m}"
    formats = args.format.split(",")
    if "csv" in formats:
        curve.trace_to_csv(trace, base + ".csv")
    if "json" in formats:
        curve.trace_to_json(trace, base + ".json")
    if "svg" in formats:
        curve.trace_to_svg(trace, base + ".svg")
    print(
        f"a={trace.params.a:.12g} closureGap={trace.closure_gap:.3e} "
        f"winding={trace.winding_number}"
    )
    return EXIT_OK


def cmd_stability(args) -> int:
    m = 1
    if args.a is not None:
        a_val = args.a
    else:
        solved = closure.solve_closure(args.p, closure.ClosureIndex(args.n, args.m))
        a_val, m = solved.a_solved, args.m
    report = stability.upsilon(make_params(args.p, a_val), m=m)
    payload = {
        "p": args.p,
        "a": a_val,
        "m": m,
        "upsilon": report.upsilon,
        "delta2": report.delta_squared,
        "residuals": list(report.rewrite_residuals),
        "method": "quadrature",
    }
    try:
        text = json.dumps(payload, indent=1, allow_nan=False)
    except ValueError:
        raise InvariantBreach(f"stability report is not finite: {payload}") from None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_hopf(args) -> int:
    pole = _parse_pole(args.pole)
    # build_torus reads only the trace's end and its arch, so one sample a
    # period is enough
    trace = curve.trace_closed_curve(
        args.p, closure.ClosureIndex(args.n, args.m), samples_per_period=1
    )
    patch = hopf.build_torus(trace, s_samples=args.samples)
    base = args.out or f"hopf_p{args.p}_n{args.n}_m{args.m}"
    hopf.patch_to_obj(patch, base + ".obj", pole=pole)
    hopf.patch_to_json(patch, base + ".json")
    print(
        f"holonomy={patch.holonomy_angle:.12g} covers={patch.covers} "
        f"closed={patch.closed}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    thr = a_star(args.p)
    grid = thr * (1.0 + np.geomspace(args.offset_min, args.offset_max, args.count))

    if args.quantity == "lambda":
        values = closure.lambda_grid([make_params(args.p, a_val) for a_val in grid])
    else:
        reports = stability.upsilon_grid([make_params(args.p, a_val) for a_val in grid])
        values = [report.upsilon for report in reports]
    text = f"a,{args.quantity}\r\n" + "".join(
        f"{a_val:.12g},{v:.12g}\r\n" for a_val, v in zip(grid, values)
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The command line parser; defaults override the built-in tol and samples."""
    defaults = defaults or {}
    parser = argparse.ArgumentParser(
        prog="pelastica", description="closed spherical p-elastic curve toolkit"
    )
    parser.add_argument("--config", help="key=value file with default tolerances")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="reproduce the closed-curve reference table")
    t1.add_argument("--out", help="CSV output path")
    t1.set_defaults(func=cmd_table1)

    cv = sub.add_parser("curve", help="trace one closed curve")
    cv.add_argument("--p", type=float, required=True)
    cv.add_argument("--n", type=int, required=True)
    cv.add_argument("--m", type=int, required=True)
    cv.add_argument("--tol", type=float, default=defaults.get("tol", DEFAULT_REL_TOL))
    cv.add_argument(
        "--samples", type=int, default=defaults.get("samples", curve.SAMPLES_PER_PERIOD)
    )
    cv.add_argument("--out", help="output path stem")
    cv.add_argument("--format", default="csv,json,svg")
    cv.set_defaults(func=cmd_curve)

    st = sub.add_parser("stability", help="second-variation report")
    st.add_argument("--p", type=float, required=True)
    st.add_argument("--a", type=float)
    st.add_argument("--n", type=int)
    st.add_argument("--m", type=int)
    st.add_argument("--out")
    st.set_defaults(func=cmd_stability)

    hp = sub.add_parser("hopf", help="lift to a torus mesh and export")
    hp.add_argument("--p", type=float, required=True)
    hp.add_argument("--n", type=int, required=True)
    hp.add_argument("--m", type=int, required=True)
    hp.add_argument("--samples", type=int, default=defaults.get("samples", 128))
    hp.add_argument("--pole", default="0,0,0,-1")
    hp.add_argument("--out", help="output path stem")
    hp.set_defaults(func=cmd_hopf)

    sw = sub.add_parser("sweep", help="tabulate lambda or upsilon over momenta")
    sw.add_argument("--p", type=float, required=True)
    sw.add_argument("--quantity", choices=("lambda", "upsilon"), default="lambda")
    sw.add_argument("--offset-min", type=float, default=1e-3)
    sw.add_argument("--offset-max", type=float, default=1e3)
    sw.add_argument("--count", type=int, default=50)
    sw.add_argument("--out")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # The config file only sets defaults, so anything the command
            # line gives, in whatever spelling argparse accepts, wins.
            args = build_parser(_load_config(args.config)).parse_args(argv)
        _check_arguments(args)
        return args.func(args)
    except (InvariantBreach, ResolutionError) as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConvergenceFailure, NotFound) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except DomainError as exc:
        print(f"domain/admissibility error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except PElasticaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
