"""Command line interface: subcommands, outputs and exit codes."""

import csv
import json
import math

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


def test_stability_non_finite_report_exits_4_and_writes_nothing(tmp_path, capsys):
    # At p = 0.99, a = 953921.8 the kappa^(p-3) moment is ~3e303 and its
    # term in the third rewrite overflows, so that residual is NaN, which
    # has no JSON text.
    out = tmp_path / "report.json"
    code = main(["stability", "--p", "0.99", "--a", "953921.8", "--out", str(out)])
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
