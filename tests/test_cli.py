"""Command-line contract: exit codes, schemas, file formats."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from asep_exact import (
    ContourSpec,
    RateParams,
    cli,
    delta_recovery,
    distribution_over_window,
    oracle_distribution,
)
from asep_exact.transition_prob import _evaluate


def run(argv):
    return cli.main(argv)


def test_no_command_is_usage_error(capsys):
    assert run([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["verify-delta", "--p", "0.5", "--y", "0,1", "--frobnicate"]) == 1


def test_p_zero_exits_one_citing_hypothesis(capsys):
    code = run(["prob", "--p", "0", "--t", "1", "--y", "0,1", "--nu", "1,1"])
    assert code == 1
    assert "p != 0 hypothesis" in capsys.readouterr().err


def test_missing_rate_is_usage_error(capsys):
    assert run(["prob", "--y", "0,1", "--nu", "1,2", "--t", "1"]) == 1


def test_verify_delta_pass_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        ["verify-delta", "--p", "0.7", "--y", "0,1", "--nu", "1,2", "--out", str(out)]
    )
    assert code == 0
    assert "verify-delta: PASS" in capsys.readouterr().out
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["verify-delta"])
    assert report["passed"] is True
    assert report["quadrature"]["nodes"] >= 8
    assert report["tolerance"] == 1e-8


def test_verify_delta_impossible_tolerance_exits_two(capsys):
    # an unreachable tolerance must fail honestly with exit 2
    code = run(
        ["verify-delta", "--p", "0.7", "--y", "0,1", "--quad-tol", "1e-30",
         "--nodes", "8"]
    )
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_report_schema_validates_and_rejects():
    good = {
        "command": "verify-delta",
        "formula": "contour-sum-at-time-zero",
        "p": 0.7,
        "initial": {"sites": [0, 1], "species": [1, 2]},
        "margin": 2,
        "tolerance": 1e-8,
        "quadrature": {"nodes": 64, "radius": 0.3, "radius_rule": "balanced"},
        "max_residual": 1e-17,
        "passed": True,
    }
    jsonschema.validate(good, cli.REPORT_SCHEMAS["verify-delta"])
    for drop in ("max_residual", "quadrature", "formula"):
        bad = {k: v for k, v in good.items() if k != drop}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, cli.REPORT_SCHEMAS["verify-delta"])
    extra = dict(good, surprise=1)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(extra, cli.REPORT_SCHEMAS["verify-delta"])


def test_prob_csv_columns(tmp_path):
    out = tmp_path / "rows.csv"
    code = run(
        ["prob", "--p", "0.5", "--t", "0.3", "--y", "0,1", "--nu", "1,2",
         "--x", "0,2", "--pi", "2,1", "--csv", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["sites"] for r in rows] == ["0 2"]
    assert rows[0]["species"] == "2 1"
    assert 0 <= float(rows[0]["value"]) <= 1
    with open(out) as fh:
        assert next(csv.reader(fh)) == ["sites", "species", "value"]
    assert cli.CSV_SCHEMAS["targets"] == "sites,species,value[,oracle]"


def test_prob_with_oracle_adds_column(tmp_path):
    # as a flag and as a run manifest's "with_oracle": true
    out, manifest = tmp_path / "rows.csv", tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"command": "prob", "p": 0.5, "t": 0.3, "y": [0, 1], "nu": [1, 2], "window": [-3, 4],
         "with_oracle": True, "csv": str(out)}
    ))
    flags = ["prob", "--p", "0.5", "--t", "0.3", "--y", "0,1", "--nu", "1,2",
             "--window", "-3,4", "--with-oracle", "--csv", str(out)]
    for argv in (flags, ["run", str(manifest)]):
        out.unlink(missing_ok=True)
        assert run(argv) == 0
        with open(out) as fh:
            assert next(csv.reader(fh)) == ["sites", "species", "value", "oracle"]
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert abs(float(row["value"]) - float(row["oracle"])) < 1e-6


def test_simulate_csv_histogram(tmp_path):
    out = tmp_path / "hist.csv"
    code = run(
        ["simulate", "--p", "0.7", "--t", "0.4", "--y", "0,1", "--nu", "2,1",
         "--trials", "500", "--seed", "5", "--csv", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"sites", "species", "count", "frequency"}
    assert sum(int(r["count"]) for r in rows) == 500
    for row in rows:
        assert float(row["frequency"]) == pytest.approx(int(row["count"]) / 500)


def test_compare_command_exit_codes(tmp_path, capsys):
    argv = ["compare", "--p", "0.7", "--t", "0.4", "--y", "0,1", "--nu", "2,1",
            "--trials", "20000", "--seed", "77"]
    assert run(argv) == 0
    assert "compare: PASS" in capsys.readouterr().out
    # an absurd threshold flips the same data to a verification failure
    assert run(argv + ["--z-threshold", "1e-9"]) == 2


def test_problem_file_round_trip(tmp_path):
    problem = {
        "p": "7/10",
        "t": 0.5,
        "N": 2,
        "M": 2,
        "Y": [0, 1],
        "nu": [2, 1],
        "targets": [{"X": [0, 1], "pi": [2, 1]}],
        "quad": {"nodes": 64, "radius": None},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "report.json"
    assert run(["prob", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["prob"])
    assert report["targets"][0]["value"] == pytest.approx(0.4616951307536925, abs=5e-11)


def test_problem_file_unknown_field_rejected(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"p": 0.5, "t": 1.0, "Y": [0], "nu": [1], "bogus": 2}))
    assert run(["prob", str(path)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_problem_file_inconsistent_counts_rejected(tmp_path, capsys):
    path = tmp_path / "problem.json"
    for counts, message in [
        ({"N": 3, "nu": [1, 2]}, "N=3 but Y has 2 sites"),
        ({"M": 2, "nu": [1, 1]}, "M=2 but nu has 1 distinct labels"),
    ]:
        path.write_text(json.dumps({"p": 0.5, "t": 1.0, "Y": [0, 1], **counts}))
        assert run(["prob", str(path)]) == 1
        assert message in capsys.readouterr().err


def test_problem_file_zero_denominator_rejected(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(PROBLEM, p="1/0")))
    assert run(["prob", str(path)]) == 1
    assert "p = 1/0" in capsys.readouterr().err


def test_manifest_dispatch_and_rejection(tmp_path, capsys):
    manifest = {"command": "verify-delta", "p": "1/2", "y": [0, 1, 2]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run(["run", str(path)]) == 0
    path.write_text(json.dumps(dict(manifest, command="never-heard-of-it")))
    assert run(["run", str(path)]) == 1
    path.write_text(json.dumps(dict(manifest, mystery_knob=3)))
    assert run(["run", str(path)]) == 1


def test_schema_command_prints_everything(capsys):
    assert run(["schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"manifest", "problem", "reports", "csv"}
    assert set(doc["reports"]) == set(cli.REPORT_SCHEMAS) == set(cli.COMMANDS)
    # each schema is filed under the command its report names
    for command, schema in doc["reports"].items():
        assert schema["properties"]["command"] == {"const": command}
    # every published schema is itself valid under the draft it names
    jsonschema.Draft202012Validator.check_schema(doc["manifest"])
    jsonschema.Draft202012Validator.check_schema(doc["problem"])
    for schema in doc["reports"].values():
        jsonschema.Draft202012Validator.check_schema(schema)


def test_oracle_command_report(tmp_path):
    out = tmp_path / "oracle.json"
    code = run(
        ["oracle", "--p", "0.5", "--t", "0.2", "--y", "0,1", "--nu", "1,2",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["oracle"])
    assert report["total_value"] == pytest.approx(1.0, abs=1e-6)
    assert report["leakage"] <= 1e-10


def test_oracle_command_reads_its_targets_and_writes_csv(tmp_path):
    # the oracle looks each target up; one outside its window reads 0
    problem = dict(PROBLEM, t=0.2, targets=[
        {"X": [0, 2], "pi": [2, 1]}, {"X": [40, 41], "pi": [1, 2]},
    ])
    path, out, rows = tmp_path / "problem.json", tmp_path / "oracle.json", tmp_path / "rows.csv"
    path.write_text(json.dumps(problem))
    assert run(["oracle", str(path), "--out", str(out), "--csv", str(rows)]) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["oracle"])
    dist, _, _ = oracle_distribution((0, 1), (1, 2), RateParams.from_p(0.5), 0.2)
    expect = [dist[((0, 2), (2, 1))], 0.0]
    assert [row["value"] for row in report["targets"]] == expect
    with open(rows) as fh:
        assert list(csv.reader(fh)) == [
            ["sites", "species", "value"], ["0 2", "2 1", repr(expect[0])], ["40 41", "1 2", "0.0"],
        ]
    # the same target as --x/--pi flags
    flags = ["oracle", "--p", "0.5", "--t", "0.2", "--y", "0,1", "--nu", "1,2",
             "--x", "0,2", "--pi", "2,1", "--out", str(out)]
    assert run(flags) == 0
    assert [row["value"] for row in json.loads(out.read_text())["targets"]] == expect[:1]


def test_unreadable_problem_files_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "problem.json"
    assert run(["prob", str(path)]) == 1
    assert f"cannot read problem file {path}" in capsys.readouterr().err
    path.write_text('{"p": 0.5,')
    assert run(["prob", str(path)]) == 1
    assert f"problem file {path} line 1:" in capsys.readouterr().err


def test_site_list_that_is_not_integers_is_usage_error(capsys):
    assert run(["verify-delta", "--p", "0.5", "--y", "0,a"]) == 1
    assert "expected comma-separated integers, got '0,a'" in capsys.readouterr().err


def test_verify_braid_cli_small(tmp_path):
    out = tmp_path / "braid.json"
    code = run(
        ["verify-braid", "--p", "1/2", "--n", "3", "--points", "2", "--seed", "0",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["verify-braid"])
    assert report["passed"] and report["checks"] > 0


def test_verify_braid_needs_rational(capsys):
    assert run(["verify-braid", "--p", "0.5", "--n", "3"]) == 1
    assert "rational" in capsys.readouterr().err


def test_verify_b_classes_cli(tmp_path):
    out = tmp_path / "b.json"
    code = run(
        ["verify-b-classes", "--p", "0.7", "--y", "0,1,2", "--x", "1,2,4",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["verify-b-classes"])
    assert report["passed"]


def test_verify_second_class_cli(tmp_path):
    out = tmp_path / "sc.json"
    code = run(
        ["verify-second-class", "--p", "2/5", "--max-n", "3", "--seed", "0",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["verify-second-class"])
    assert report["passed"] and report["checks"] > 0


def test_prob_rejects_targets_and_window_together(capsys):
    code = run(
        ["prob", "--p", "0.5", "--t", "0.3", "--y", "0,1", "--nu", "1,2",
         "--x", "0,1", "--window", "-3,4"]
    )
    assert code == 1
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["prob"],
    ["oracle"],
    ["compare", "--trials", "10", "--seed", "1", "--reference", "oracle"],
    ["compare", "--trials", "10", "--seed", "1", "--reference", "formula"],
])
def test_reversed_window_gets_the_library_message(command, capsys):
    # one check, the state space's, names a reversed window for every command
    argv = command[:1] + ["--p", "0.7", "--t", "0.5", "--y", "0,1", "--nu", "2,1",
                          "--window", "4,-3"] + command[1:]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "asep-exact: error: window (4, -3) is not two integers lo <= hi\n"


def test_simulate_and_compare_reports_match_schemas(tmp_path):
    sim_out, sim_csv = tmp_path / "sim.json", tmp_path / "sim.csv"
    code = run(
        ["simulate", "--p", "0.7", "--t", "0.4", "--y", "0,1", "--nu", "2,1",
         "--trials", "500", "--seed", "5", "--out", str(sim_out), "--csv", str(sim_csv)]
    )
    assert code == 0
    jsonschema.validate(json.loads(sim_out.read_text()), cli.REPORT_SCHEMAS["simulate"])
    with open(sim_csv) as fh:
        assert next(csv.reader(fh)) == cli.CSV_SCHEMAS["histogram"].split(",")
    cmp_out = tmp_path / "cmp.json"
    code = run(
        ["compare", "--p", "0.7", "--t", "0.4", "--y", "0,1", "--nu", "2,1",
         "--trials", "20000", "--seed", "77", "--z-threshold", "1",
         "--out", str(cmp_out)]
    )
    assert code == 2
    report = json.loads(cmp_out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["compare"])
    assert report["flagged"] and not report["passed"]


@pytest.mark.parametrize("reference", ["oracle", "formula"])
def test_compare_at_time_zero_writes_strict_json(reference, tmp_path, capsys):
    # at t = 0 the start has probability 1: every trial lands there, so its
    # z is 0, not 0/0, and the report parses without NaN
    out = tmp_path / "cmp.json"
    argv = ["compare", "--p", "0.7", "--t", "0", "--y", "0,1", "--nu", "1,1",
            "--trials", "100", "--seed", "1", "--reference", reference, "--out", str(out)]
    assert run(argv) == 0
    assert "max |z| = 0.00" in capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"non-finite number {name} in the report")

    report = json.loads(out.read_text(), parse_constant=refuse)
    assert report["checked"] == 1 and report["max_abs_z"] == 0.0


PROBLEM = {"p": 0.5, "t": 0.3, "Y": [0, 1], "nu": [1, 2], "targets": [{"X": [0, 1], "pi": [2, 1]}]}
BAD_INPUTS = [  # (manifest, what the error must name)
    ({"command": "verify-braid", "p": "1/2", "points": 0}, "at points:"),
    ({"command": "verify-braid", "p": "1/2", "n": 1}, "at n:"),
    ({"command": "verify-second-class", "p": "2/5", "max_n": 1}, "at max_n:"),
    ({"command": "verify-delta", "p": 0.7, "y": [0, 1], "margin": -1}, "at margin:"),
    (
        {"command": "simulate", "p": 0.7, "t": 0.4, "y": [0, 1], "trials": 10, "seed": -1},
        "at seed:",
    ),
    (
        {"command": "prob", "p": 0.5, "t": 0.3, "y": [0, 1], "nu": [1, 2], "x": [0, 1],
         "print_limit": -1},
        "at print_limit:",
    ),
    (
        {"command": "prob", "p": 0.5, "t": 0.3, "y": [0, 1], "nu": [1, 2], "pi": [2, 1],
         "window": [-1, 2]},
        "--pi",
    ),
    ({"command": "prob", "problem": "problem.json", "window": [-3, 4]}, "--window"),
    ({"command": "prob", "problem": "problem.json", "p": 0.2, "t": 3}, "--p, --t"),
    (
        {"command": "oracle", "p": 0.5, "t": 0.3, "y": [0, 1], "nu": [1, 2],
         "window": [5, 10]},
        "window (5, 10)",
    ),
    (
        {"command": "compare", "p": 0.5, "t": 0.3, "y": [0, 1], "nu": [1, 2],
         "window": [5, 10], "trials": 100, "seed": 1},
        "window (5, 10)",
    ),
    (
        {"command": "prob", "p": 0.5, "t": 0.3, "y": [0, 1], "nu": [1, 2], "x": [0, 1],
         "nodes": 2048},
        "at nodes:",
    ),
    ({"command": "verify-b-classes", "p": 0.7, "y": [0], "x": [1]}, "at least 2 particles"),
    (
        {"command": "verify-b-classes", "p": 0.7, "y": [0, 1], "x": [1, 2, 3]},
        "target size differs",
    ),
    (
        {"command": "oracle", "p": 0.5, "t": 0.3, "y": [0, 1], "nu": [1, 2],
         "window": [0, 1099511627776]},
        "int64",
    ),
    # the oracle's targets are checked as the engine's are
    (
        {"command": "oracle", "p": 0.7, "t": 0.5, "y": [0, 1, 2], "nu": [2, 1, 2],
         "x": [3, 4], "pi": [2, 2]},
        "target size differs from initial size",
    ),
    (
        {"command": "oracle", "p": 0.7, "t": 0.5, "y": [0, 1, 2], "nu": [2, 1, 2],
         "x": [3, -1, 2], "pi": [2, 2, 1]},
        "sites must be strictly increasing, got (3, -1, 2)",
    ),
    (
        {"command": "oracle", "p": 0.7, "t": 0.5, "y": [0, 1, 2], "nu": [2, 1, 2],
         "x": [1, 2, 3], "pi": [2, 0, 1]},
        "species labels must be positive integers",
    ),
    (
        {"command": "oracle", "p": 0.7, "t": 0.5, "y": [0, 1, 2], "nu": [2, 1, 2],
         "x": [1, 2, 3], "pi": [2, 1]},
        "sites and species lengths differ",
    ),
    # the engine's window goes through the oracle's int64 guard too
    (
        {"command": "prob", "p": 0.5, "t": 0.3, "y": [0, 1], "nu": [1, 2],
         "window": [0, 1099511627776]},
        "int64",
    ),
    # a window of billions of states is refused before it is enumerated
    (
        {"command": "prob", "p": 0.5, "t": 0.3, "y": [0, 1, 2], "nu": [1, 2, 1],
         "window": [-1000, 1000]},
        "3,999,999,000 states",
    ),
    (
        {"command": "oracle", "p": 0.5, "t": 0.3, "y": [0, 1, 2], "nu": [1, 2, 1],
         "window": [-1000, 1000]},
        "3,999,999,000 states",
    ),
    # seeds key uint64 Philox streams
    (
        {"command": "simulate", "p": 0.7, "t": 0.4, "y": [0, 1], "trials": 10,
         "seed": 2**64},
        "at seed:",
    ),
    ({"command": "verify-braid", "p": "1/2", "seed": 2**64}, "at seed:"),
    # no window within reach keeps the leakage down, and the single target's
    # contour overflows: both are input errors, not tracebacks or a nan
    (
        {"command": "prob", "p": 0.7, "t": 100000, "y": [0], "nu": [1]},
        "below leak_tol = 1e-10 at t = 100000",
    ),
    (
        {"command": "compare", "p": 0.7, "t": 100000, "y": [0], "nu": [1], "trials": 10,
         "seed": 1},
        "below leak_tol = 1e-10 at t = 100000",
    ),
    (
        {"command": "prob", "p": 0.7, "t": 100000, "y": [0], "nu": [1], "x": [5]},
        "1 of 1 values are not finite",
    ),
    (
        {"command": "prob", "p": 0.7, "t": 100000, "y": [0, 1], "nu": [2, 1], "x": [3, 5]},
        "1 of 1 values are not finite",
    ),
    # a rate a/0 and a time that is not finite are input errors naming p
    # and t, not a traceback, a nan or an empty distribution
    ({"command": "prob", "p": "1/0", "t": 1, "y": [0], "nu": [1], "x": [1]}, "p = 1/0"),
    ({"command": "verify-second-class", "p": "2/0"}, "p = 2/0"),
    (
        {"command": "oracle", "p": 0.7, "t": float("inf"), "y": [0, 1], "nu": [1, 1],
         "window": [-3, 4]},
        "got t = inf",
    ),
    (
        {"command": "simulate", "p": 0.7, "t": float("nan"), "y": [0, 1], "trials": 10,
         "seed": 1},
        "got t = nan",
    ),
    # a site past int64 is refused by name, on the orbit or off it
    (
        {"command": "prob", "p": 0.7, "t": 0.5, "y": [0, 1], "nu": [1, 2],
         "x": [1, 99999999999999999999], "pi": [2, 1]},
        "((1, 99999999999999999999), (2, 1)): sites and species must be integers",
    ),
    (
        {"command": "prob", "p": 0.7, "t": 0.5, "y": [0, 1], "nu": [1, 2],
         "x": [1, 99999999999999999999], "pi": [2, 2]},
        "((1, 99999999999999999999), (2, 2)): sites and species must be integers",
    ),
    # targets left of the start run with p and q swapped, whose pole bound
    # refuses this radius
    (
        {"command": "prob", "p": 0.7, "t": 0.5, "y": [0, 1], "nu": [1, 1], "x": [-2, -1],
         "radius": 0.5},
        "radius 0.5 is refused by the mirrored half, where targets left of the start run "
        "with p and q swapped (p = 0.3, q = 0.7)",
    ),
]


@pytest.mark.parametrize("manifest, names", BAD_INPUTS)
def test_bad_input_rejected_as_flags_and_as_manifest(manifest, names, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "problem.json").write_text(json.dumps(PROBLEM))
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for argv in (cli._manifest_argv(dict(manifest)), ["run", "manifest.json"]):
        assert run(argv) == 1, argv
        assert names in capsys.readouterr().err, argv


def test_every_flag_is_a_manifest_key():
    # flags and manifest keys come from one table; they must not drift
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli.COMMANDS) | {"run", "schema"}
    keys = cli.MANIFEST_SCHEMA["properties"]
    for command in cli.COMMANDS:
        for action in sub.choices[command]._actions:
            if action.dest == "help":
                continue
            assert action.dest in keys, (command, action.dest)
            if action.default is not None:
                jsonschema.validate(action.default, keys[action.dest])


R05, R07 = RateParams.from_p(0.5), RateParams.from_p(0.7)


@pytest.mark.parametrize("argv, library", [
    (
        ["prob", "--p", "0.5", "--t", "0.3", "--y", "0,1", "--nu", "1,2", "--window", "-3,4"],
        lambda: distribution_over_window((0, 1), (1, 2), R05, 0.3, window=(-3, 4)).quadrature,
    ),
    (
        ["verify-delta", "--p", "0.7", "--y", "0,1,3", "--nodes", "8", "--quad-tol", "1e-14"],
        lambda: delta_recovery(
            (0, 1, 3), (1, 1, 1), R07, tol=1e-14, spec=ContourSpec(nodes=8, dimension=3)
        ).quadrature,
    ),
    (
        ["verify-b-classes", "--p", "0.7", "--y", "0,1,2", "--x", "1,2,4", "--radius", "0.2"],
        lambda: _evaluate(
            (0, 1, 2), (1, 1, 1), [((1, 2, 4), (1, 1, 1))], R07, 0.0,
            ContourSpec(radius=0.2, dimension=3), [(1, 3, 2)],
        ).quadrature,
    ),
], ids=["prob", "verify-delta", "verify-b-classes"])
def test_report_carries_the_library_quadrature(argv, library, tmp_path):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    record = library()
    assert json.loads(out.read_text())["quadrature"] == cli._json(record)
    if argv[0] == "prob":
        # left targets put both halves to work
        assert record.radius is not None and record.mirror_radius is not None
    if argv[0] == "verify-delta":
        assert record.nodes == 16


def test_report_text_is_pinned(tmp_path, capsys):
    # no float and no random draw enters this report: keys sorted, indent
    # 2, trailing newline, nothing else
    out = tmp_path / "sc.json"
    argv = ["verify-second-class", "--p", "2/5", "--max-n", "3", "--out", str(out)]
    assert run(argv) == 0
    assert out.read_text() == (
        "{\n"
        '  "checks": 36,\n'
        '  "command": "verify-second-class",\n'
        '  "formula": "second-class-closed-forms",\n'
        '  "max_n": 3,\n'
        '  "outside_validity": 8,\n'
        '  "p": "2/5",\n'
        '  "passed": true\n'
        "}\n"
    )


def test_unset_optional_fields_are_left_out(tmp_path):
    out = tmp_path / "prob.json"
    argv = ["prob", "--p", "0.5", "--t", "0.3", "--y", "0,1", "--nu", "1,2", "--x", "-3,-2"]
    assert run(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, cli.REPORT_SCHEMAS["prob"])
    # targets given, so no window and no leakage bound
    assert "window" not in report and "leakage" not in report
    # no oracle column asked for
    assert all("oracle" not in row for row in report["targets"])
    # a required nullable field is written as null: no target lies in the
    # direct half
    assert report["quadrature"]["radius"] is None
    assert report["quadrature"]["mirror_radius"] > 0


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_path_exits_one(flag, tmp_path, capsys):
    path = tmp_path / "missing" / "r.out"
    argv = ["simulate", "--p", "0.7", "--t", "0.4", "--y", "0,1", "--trials", "10",
            "--seed", "1", flag, str(path)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "asep-exact: error: cannot write " in captured.err
    assert str(path) in captured.err
    # the summary is printed before the write fails
    assert "simulate: 10 trials" in captured.out


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, asep_exact.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_jsonschema_out(tmp_path):
    # jsonschema is loaded by the first validation, not by the import
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, asep_exact.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, check=True)
    assert proc.stdout.strip() == "False"
