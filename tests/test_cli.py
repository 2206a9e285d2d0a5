"""Command line interface: subcommands, outputs and exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest

from pelastica import cli, qpotential
from pelastica.cli import (
    EXIT_ADMISSIBILITY,
    EXIT_CONVERGENCE,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    REFERENCE_TABLE,
    build_parser,
    main,
)


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_curve_command_writes_outputs(tmp_path, capsys):
    stem = str(tmp_path / "g23")
    code = main(
        ["curve", "--p", "0.3", "--n", "2", "--m", "3", "--out", stem,
         "--format", "csv,json,svg"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "closureGap=" in out and "winding=2" in out
    for suffix in (".csv", ".json", ".svg"):
        assert (tmp_path / ("g23" + suffix)).exists()
    meta = json.loads((tmp_path / "g23.json").read_text())
    assert meta["windingNumber"] == 2
    assert meta["closureGap"] < 1e-6


def test_curve_command_rejects_inadmissible(capsys):
    code = main(["curve", "--p", "0.3", "--n", "5", "--m", "7"])
    assert code == EXIT_ADMISSIBILITY
    assert "not admissible" in capsys.readouterr().err


def test_hopf_pole_on_the_mesh_exits_2_and_writes_nothing(tmp_path, capsys):
    # the pole direction of a vertex of the p = 1/2 gamma_{2,3} torus: the
    # projection is undefined there, so the --pole given is invalid input
    stem = tmp_path / "torus"
    argv = ["hopf", "--p", "0.5", "--n", "2", "--m", "3", "--out", str(stem)]
    code = main(argv + ["--pole", "1.97153,0,0,0.336266"])
    assert code == EXIT_ADMISSIBILITY
    assert "too close to the projection pole" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_curve_command_domain_error_exit(capsys):
    # negative winding index fails index validation inside the library
    code = main(["curve", "--p", "1.5", "--n", "2", "--m", "3"])
    assert code == EXIT_ADMISSIBILITY


@pytest.mark.parametrize("command", ["stability", "curve"])
def test_closure_target_at_the_limit_exits_3(command, capsys):
    # (2378, 3363) is admissible, but 2 pi 2378/3363 lies within 1e-6 of
    # sqrt(2) pi, which Lambda approaches only as the momentum tends to a_*
    code = main([command, "--p", "0.3", "--n", "2378", "--m", "3363"])
    assert code == EXIT_CONVERGENCE
    assert capsys.readouterr().err.startswith("convergence failure:")


@pytest.mark.parametrize("failure", ["no sign change", "NaN", "iteration cap"])
def test_closure_root_solver_failures_exit_3(failure, monkeypatch, capsys):
    # the closure scan's root solver, fed a bracket function that breaks it
    def failing(gap, a_lo, a_hi, xtol, rtol):
        if failure == "no sign change":
            return qpotential._zeroin(lambda a: abs(gap(a)) + 1.0, a_lo, a_hi, xtol, rtol)
        if failure == "NaN":
            return qpotential._zeroin(lambda a: math.nan, a_lo, a_hi, xtol, rtol)
        return qpotential._zeroin(gap, a_lo, a_hi, xtol, rtol, maxiter=1)

    monkeypatch.setattr(cli.closure, "_zeroin", failing)
    code = main(["curve", "--p", "0.3", "--n", "2", "--m", "3"])
    assert code == EXIT_CONVERGENCE
    assert capsys.readouterr().err.startswith("convergence failure:")


def test_stability_command_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["stability", "--p", "0.3", "--a", "1.0", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["upsilon"] < 0.0
    assert payload["delta2"] == pytest.approx(2.0 * payload["upsilon"])
    assert max(payload["residuals"]) < 1e-8


def test_stability_command_closed_curve_report(capsys):
    code = main(["stability", "--p", "0.3", "--n", "2", "--m", "3"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"p", "a", "m", "upsilon", "delta2", "residuals", "method"}
    assert payload["method"] == "quadrature"
    assert (payload["p"], payload["m"]) == (0.3, 3)
    assert payload["delta2"] == 2 * payload["m"] * payload["upsilon"]


def test_stability_unrepresentable_upsilon_exits_4_and_writes_nothing(tmp_path, capsys):
    # At p = 0.99, a = 1.3e6 the kappa^(p-3) moment of Upsilon's arch
    # quadrature no longer fits in float64: the rule refuses it, with no
    # numpy warning (pyproject turns those into errors).
    out = tmp_path / "report.json"
    code = main(["stability", "--p", "0.99", "--a", "1.3e6", "--out", str(out)])
    assert code == EXIT_INVARIANT
    assert "does not fit in float64" in capsys.readouterr().err
    assert not out.exists()


def test_stability_non_finite_report_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # a NaN has no JSON text: the report is refused, not written as NaN
    nan_report = cli.stability.SecondVariationReport(-1.0, -2.0, (0.0, math.nan, 0.0))
    monkeypatch.setattr(cli.stability, "upsilon", lambda params, m: nan_report)
    out = tmp_path / "report.json"
    code = main(["stability", "--p", "0.3", "--a", "1.0", "--out", str(out)])
    assert code == EXIT_INVARIANT
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_config_tol_is_checked_like_the_option(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("tol = 1e-20\n")
    argv = ["--config", str(cfg), "curve", "--p", "0.3", "--n", "2", "--m", "3",
            "--out", str(tmp_path / "c"), "--format", "json"]
    assert main(argv) == EXIT_ADMISSIBILITY
    assert "--tol must lie in [1e-14, 1e-3]" in capsys.readouterr().err
    assert main(argv + ["--tol", "1e-12"]) == EXIT_OK


def test_stability_command_rejects_conflicting_args(capsys):
    code = main(["stability", "--p", "0.3", "--a", "1.0", "--n", "2", "--m", "3"])
    assert code == EXIT_ADMISSIBILITY


def test_stability_command_inadmissible_momentum(capsys):
    # a below the periodic-orbit threshold is a domain error
    code = main(["stability", "--p", "0.3", "--a", "0.1"])
    assert code == EXIT_ADMISSIBILITY


def test_sweep_command_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--p", "0.5", "--quantity", "lambda", "--count", "5",
         "--offset-min", "0.01", "--offset-max", "10", "--out", str(out)]
    )
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "lambda"]
    assert len(rows) == 6
    values = [float(r[1]) for r in rows[1:]]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p,offset_max", [(0.99, 7498.942093324558), (0.01, 999.0)])
def test_upsilon_sweep_equals_one_sweep_per_momentum(p, offset_max, tmp_path):
    # the grid's momenta share one arch quadrature; each cell is the text of
    # a one-momentum sweep at its offset
    def cells(offset_min, offset_max, count):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--p", repr(p), "--quantity", "upsilon", "--count", str(count),
                "--offset-min", repr(offset_min), "--offset-max", repr(offset_max),
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        with open(out) as fh:
            return list(csv.reader(fh))[1:]

    offsets = np.geomspace(1e-6, offset_max, 8).tolist()
    grid = cells(1e-6, offset_max, 8)
    assert grid == [row for offset in offsets for row in cells(offset, offset, 1)]


def _csv_text(rows) -> str:
    """The csv module's text of rows, the reference of the CLI's CSVs."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("to_file", [True, False])
def test_sweep_csv_is_the_csv_modules_text(to_file, tmp_path, monkeypatch, capsys):
    # zeros of both signs, nan, inf, exponent notation and ties at 12 digits
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -2.5e17, 0.1 + 0.2]
    values += np.random.default_rng(5).standard_normal(32).tolist()
    monkeypatch.setattr(cli.closure, "lambda_grid", lambda params_seq: values)
    argv = ["sweep", "--p", "0.3", "--count", str(len(values))]
    argv += ["--out", str(tmp_path / "s.csv")] if to_file else []
    assert main(argv) == EXIT_OK
    text = (tmp_path / "s.csv").read_bytes().decode() if to_file else capsys.readouterr().out
    grid = qpotential.a_star(0.3) * (1.0 + np.geomspace(1e-3, 1e3, len(values)))
    expected = [["a", "lambda"]] + [[f"{a:.12g}", f"{v:.12g}"] for a, v in zip(grid, values)]
    assert text == _csv_text(expected)


def test_table_csv_is_the_csv_modules_text(tmp_path, monkeypatch):
    # the reference rows stand in for the computed ones
    monkeypatch.setattr(cli, "_solve_rows", lambda rows: list(REFERENCE_TABLE))
    out = tmp_path / "table.csv"
    assert main(["table1", "--out", str(out)]) == EXIT_OK
    expected = [["figure", "p", "n", "m", "a", "energy", "delta2"]] + [
        [tag, p, n, m, f"{a:.12g}", f"{energy:.12g}", f"{delta2:.12g}"]
        for tag, p, n, m, a, energy, delta2 in REFERENCE_TABLE
    ]
    assert out.read_bytes().decode() == _csv_text(expected)


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("# sampling\nsamples = 300\nunknown = 1\n")
    stem = str(tmp_path / "cfgcurve")
    base = ["--config", str(cfg), "curve", "--p", "0.3", "--n", "2", "--m", "3",
            "--out", stem, "--format", "json"]
    # 300 samples per period over 3 periods, endpoint included
    for explicit, expected in (
        ([], 901),
        # the command line wins over the config file in every spelling
        (["--samples", "64"], 193),
        (["--samples=64"], 193),
        (["--sam", "64"], 193),
    ):
        assert main(base + explicit) == EXIT_OK
        meta = json.loads((tmp_path / "cfgcurve.json").read_text())
        assert len(meta["samples"]) == expected, explicit


def test_reference_table_shape():
    assert len(REFERENCE_TABLE) == 11
    for tag, p, n, m, a_ref, th_ref, d2_ref in REFERENCE_TABLE:
        assert 0.0 < p < 1.0
        assert m < 2 * n and 4 * n * n < 2 * m * m
        assert a_ref > 0.0 and th_ref > 0.0 and d2_ref < 0.0


def test_table_command_flags_known_discrepancies(tmp_path, monkeypatch, capsys):
    seen = []
    original = cli.closure.lambda_grid

    def recording(params_seq, *args):
        seen.extend((params.p, params.a) for params in params_seq)
        return original(params_seq, *args)

    monkeypatch.setattr(cli.closure, "lambda_grid", recording)
    out = tmp_path / "table.csv"
    code = main(["table1", "--out", str(out)])
    # one closure scan per exponent: no (p, momentum) has its Lambda computed
    # twice, neither by a second scan nor at a bracket end Brent starts from
    assert seen and len(set(seen)) == len(seen)
    captured = capsys.readouterr().out
    # three reference cells disagree with the recomputed invariants beyond
    # tolerance (see the project decision log), so the command exits with the
    # invariant-breach code while still writing the full table
    assert code == EXIT_INVARIANT
    failing = [ln for ln in captured.splitlines() if "FAIL" in ln]
    assert len(failing) == 2  # fig1-right (delta2), fig2-left (energy+delta2)
    assert any("fig1-right" in ln for ln in failing)
    assert any("fig2-left" in ln for ln in failing)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--p", "0.3"],
        ["stability", "--p", "0.3", "--n", "2"],
        ["stability", "--p", "0.3", "--a", "nan"],
        ["hopf", "--p", "0.5", "--n", "2", "--m", "3", "--pole", "a,b,c,d"],
        ["hopf", "--p", "0.5", "--n", "2", "--m", "3", "--pole", "0,0,1"],
        ["hopf", "--p", "0.5", "--n", "2", "--m", "3", "--pole", "0,0,0,0"],
        ["hopf", "--p", "0.5", "--n", "2", "--m", "3", "--samples", "0"],
        ["curve", "--p", "0.3", "--n", "2", "--m", "3", "--format", "xml"],
        ["curve", "--p", "0.3", "--n", "2", "--m", "3", "--format", "csv,xml"],
        ["curve", "--p", "0.3", "--n", "2", "--m", "3", "--samples", "-1"],
        ["curve", "--p", "0.3", "--n", "2", "--m", "3", "--tol", "0"],
        ["curve", "--p", "0.3", "--n", "2", "--m", "3", "--tol", "1e-20"],
        ["curve", "--p", "0.3", "--n", "2", "--m", "3", "--tol", "0.01"],
        ["sweep", "--p", "0.3", "--count", "0"],
        ["sweep", "--p", "0.3", "--offset-min", "0"],
        ["sweep", "--p", "0.3", "--offset-min", "10", "--offset-max", "1"],
        ["sweep", "--p", "nan"],
    ],
)
def test_bad_arguments_exit_2_before_any_computation(argv, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("computation started before argument validation")

    for name in ("trace_closed_curve", "sample_profile"):
        monkeypatch.setattr(cli.curve, name, forbidden)
    for name in ("solve_closure", "lambda_p", "lambda_grid"):
        monkeypatch.setattr(cli.closure, name, forbidden)
    monkeypatch.setattr(cli, "make_params", forbidden)
    monkeypatch.setattr(cli.stability, "upsilon", forbidden)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_ADMISSIBILITY
    assert capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_PAIR = ["--n", "2", "--m", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--p", p, *extra]
        for p in ("1e-17", "1e-300", repr(1.0 - 2.0**-53))
        for command, extra in (
            ("curve", _PAIR), ("hopf", _PAIR), ("stability", _PAIR), ("sweep", [])
        )
    ]
    + [
        ["sweep", "--quantity", quantity, "--p", "1e-17", "--count", "1",
         "--offset-min", "1e-15", "--offset-max", "1e-15"]
        for quantity in ("lambda", "upsilon")
    ]
    + [
        ["hopf", "--p", "0.5", *_PAIR, "--pole", pole]
        for pole in ("1e200,1e200,0,0", "1e-200,0,0,-1e-200", "5e-324,0,0,0")
    ],
)
def test_extreme_valid_inputs_exit_with_a_code_not_a_traceback(argv, tmp_path, capsys):
    # exponents at the ends of (0, 1) in float64 and poles whose norm leaves
    # the float64 range; a RuntimeWarning fails the test
    out = str(tmp_path / "out")
    argv = [*argv, "--out", out + (".csv" if argv[0] == "sweep" else "")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_ADMISSIBILITY, EXIT_CONVERGENCE, EXIT_INVARIANT)
    if "--pole" in argv:
        assert code == EXIT_OK and (tmp_path / "out.obj").exists()
    elif code != EXIT_OK:
        assert captured.err and list(tmp_path.iterdir()) == []


def test_config_errors_map_to_exit_codes(tmp_path, capsys):
    argv = ["curve", "--p", "0.3", "--n", "5", "--m", "7"]
    assert main(["--config", str(tmp_path / "missing.cfg"), *argv]) == EXIT_IO
    cfg = tmp_path / "cfg"
    cfg.write_text("samples = many\n")
    assert main(["--config", str(cfg), *argv]) == EXIT_ADMISSIBILITY


def test_sweep_unresolvable_lambda_is_an_invariant_breach(capsys):
    # Lambda's inner layer at p = 0.99, a = 2e4 a_* is out of the mesh's reach
    code = main(
        ["sweep", "--p", "0.99", "--count", "1", "--offset-min", "2e4", "--offset-max", "2e4"]
    )
    assert code == EXIT_INVARIANT
    assert "the arch mesh's reach" in capsys.readouterr().err


def test_sweep_with_an_unresolvable_lambda_writes_no_csv(tmp_path, capsys):
    # offsets 1, 27, 737 and 2e4: the last lies past p = 0.99's mesh wall,
    # and the batched Lambda refuses the grid before any row is written
    out = tmp_path / "s.csv"
    argv = ["sweep", "--p", "0.99", "--count", "4", "--offset-min", "1", "--offset-max", "2e4"]
    assert main([*argv, "--out", str(out)]) == EXIT_INVARIANT
    assert "the arch mesh's reach" in capsys.readouterr().err
    assert not out.exists()
