"""Command line interface: subcommands, outputs and exit codes."""

import csv
import json

import pytest

from pelastica import cli
from pelastica.cli import (
    EXIT_ADMISSIBILITY,
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


def test_curve_command_domain_error_exit(capsys):
    # negative winding index fails index validation inside the library
    code = main(["curve", "--p", "1.5", "--n", "2", "--m", "3"])
    assert code == EXIT_ADMISSIBILITY


def test_stability_command_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["stability", "--p", "0.3", "--a", "1.0", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["upsilon"] < 0.0
    assert payload["delta2"] == pytest.approx(2.0 * payload["upsilon"])
    assert max(payload["residuals"]) < 1e-8


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


def test_table_command_flags_known_discrepancies(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["table1", "--out", str(out)])
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
        ["sweep", "--p", "0.3", "--count", "0"],
        ["sweep", "--p", "0.3", "--offset-min", "0"],
        ["sweep", "--p", "0.3", "--offset-min", "10", "--offset-max", "1"],
        ["sweep", "--p", "nan"],
    ],
)
def test_bad_arguments_exit_2_before_any_computation(argv, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("computation started before argument validation")

    for name in ("trace_closed_curve", "integrate_profile"):
        monkeypatch.setattr(cli.curve, name, forbidden)
    for name in ("solve_closure", "lambda_p"):
        monkeypatch.setattr(cli.closure, name, forbidden)
    monkeypatch.setattr(cli, "make_params", forbidden)
    monkeypatch.setattr(cli.stability, "stability_report", forbidden)
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
