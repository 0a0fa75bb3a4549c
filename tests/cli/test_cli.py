"""Unit tests for the repro-io command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_figures_all(capsys):
    code, out, _ = run_cli(capsys, "figures")
    assert code == 0
    assert "Figure 1" in out and "Figure 2" in out
    assert "Figure 3" in out and "Figure 4" in out


def test_figures_single(capsys):
    code, out, _ = run_cli(capsys, "figures", "3")
    assert code == 0
    assert "Figure 3" in out and "Figure 1" not in out


def test_taxonomy(capsys):
    code, out, _ = run_cli(capsys, "taxonomy")
    assert code == 0
    assert "Modeling & Prediction" in out
    code, out, _ = run_cli(capsys, "taxonomy", "--modules")
    assert "repro." in out


def test_experiment_single(capsys):
    code, out, _ = run_cli(capsys, "experiment", "E3")
    assert code == 0
    assert "[E3] SUPPORTED" in out


def test_experiment_lowercase_id(capsys):
    code, out, _ = run_cli(capsys, "experiment", "c1")
    assert code == 0
    assert "[C1] SUPPORTED" in out


def test_experiment_unknown_id(capsys):
    code, out, err = run_cli(capsys, "experiment", "Z9")
    assert code == 2
    assert "unknown experiment" in err


def test_experiment_json_output(capsys, tmp_path):
    out_path = tmp_path / "res.json"
    code, out, _ = run_cli(capsys, "experiment", "C1", "--json", str(out_path))
    assert code == 0
    assert out_path.exists()


def dsl_scenario(tmp_path, program, n_ranks=2):
    """A scenario JSON file running one ``dsl`` workload."""
    path = tmp_path / "dsl.json"
    path.write_text(json.dumps({
        "name": "dsl-demo",
        "workloads": [{"kind": "dsl", "n_ranks": n_ranks,
                       "params": {"program": program}}],
    }))
    return str(path)


def test_run_dsl(capsys, tmp_path):
    spec = dsl_scenario(
        tmp_path,
        'workload demo { ranks 2; create shared "/x"; '
        'write shared "/x" size 2MB transfer 1MB; close "/x"; }',
    )
    code, out, _ = run_cli(capsys, "scenario", "run", spec)
    assert code == 0
    assert "dsl-demo" in out
    assert "demo: " in out and "W 4.2 MB" in out


def test_run_dsl_missing_file(capsys):
    code, _, err = run_cli(capsys, "scenario", "run", "/nonexistent.json")
    assert code == 2
    assert "cannot read scenario" in err


def test_run_dsl_bad_syntax(capsys, tmp_path):
    spec = dsl_scenario(tmp_path, "workload broken { ranks 0; }")
    code, _, err = run_cli(capsys, "scenario", "run", spec)
    assert code == 2
    assert "scenario error" in err


def test_scenario_run_engine_and_metrics(capsys, tmp_path):
    from repro import telemetry

    trace = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, "scenario", "run", "scale-tiny",
        "--engine", "partitioned", "--engine-workers", "2",
        "--trace", str(trace), "--store-dir", str(tmp_path / "store"),
    )
    telemetry.disable()
    assert code == 0
    assert "scale engine partitioned: " in out
    # The cohort-size histogram and the per-partition window metrics are
    # in the summary of the one telemetry document.
    code, out, _ = run_cli(capsys, "telemetry", str(trace))
    assert code == 0
    assert "des.cohort.size" in out
    assert "des.partition.window_occupancy" in out
    assert "partitioned execution:" in out


def test_scenario_run_conservative_engine_is_a_usage_error(capsys):
    # One partition is ``--engine partitioned --engine-workers 1``.
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "run", "scale-tiny", "--engine", "conservative"])
    assert exc.value.code == 2
    assert "invalid choice: 'conservative'" in capsys.readouterr().err


def test_scenario_run_sequential_no_telemetry(capsys):
    code, out, _ = run_cli(capsys, "scenario", "run", "scale-tiny")
    assert code == 0
    assert "scale engine sequential" in out
    assert "des.cohort" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["submit", "tiny"],
        ["jobs", "--address", "127.0.0.1:1", "stats"],
        ["loadgen", "--tenants", "1"],
    ],
    ids=["submit", "jobs-stats", "loadgen"],
)
def test_unreachable_service_exits_2(argv, capsys, monkeypatch):
    from repro.service.client import ServiceClient

    async def refuse(cls, host, port, **kwargs):
        raise ConnectionRefusedError(111, "Connection refused")

    monkeypatch.setattr(ServiceClient, "connect", classmethod(refuse))
    if argv[0] != "jobs":
        argv = argv + ["--address", "127.0.0.1:1"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "cannot reach service at 127.0.0.1:1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "E3", "--jobs", "0"],
        ["scenario", "sweep", "tiny", "n_oss=2", "--jobs", "0"],
        ["scenario", "run", "tiny", "--engine-workers", "0"],
        ["grammar", "sample", "--ranks", "0"],
        ["grammar", "sample", "--count", "-1"],
        ["grammar", "expand", "0", "--ranks", "0"],
        ["watch", "--interval", "-1"],
        ["watch", "--interval", "0"],
        ["serve", "--workers", "0"],
        ["loadgen", "--tenants", "0"],
        ["loadgen", "--connections", "0"],
    ],
    ids=" ".join,
)
def test_out_of_range_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_zero_stays_valid_where_it_means_something():
    assert build_parser().parse_args(["serve", "--port", "0"]).port == 0
    assert build_parser().parse_args(["watch", "--timeout", "0"]).timeout == 0
    assert build_parser().parse_args(["experiment", "E3", "--seeds", "0"]).seeds == [0]


def test_experiment_seeds_default_to_zero():
    assert build_parser().parse_args(["experiment", "E3"]).seeds == [0]


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--journal"],
        ["serve", "--no-journal"],
        ["serve", "--no-cache"],
        ["serve", "--scrub-interval", "5"],
        ["experiment", "E3", "--seed", "0"],
        ["experiment", "E3", "--no-manifest"],
        ["experiment", "E3", "--fail-fast"],
        ["scenario", "sweep", "tiny", "n_oss=2", "--no-manifest"],
        ["scenario", "sweep", "tiny", "n_oss=2", "--fail-fast"],
        ["experiment", "E3", "--metrics"],
        ["experiment", "E3", "--series"],
        ["experiment", "E3", "--metrics-json", "m.json"],
        ["scenario", "run", "tiny", "--metrics"],
        ["scenario", "run", "tiny", "--no-store"],
    ],
    ids=" ".join,
)
def test_removed_options_are_usage_errors(argv, capsys):
    """The service runs in one configuration (always journaled, always
    landing results, scrubbed only by `store scrub`), `experiment` takes
    its seeds from --seeds alone, and the fan-out commands always record
    every failure and keep their manifest only in the store, and
    `--trace` is the one self-telemetry switch."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_repeated_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["experiment", "E3", "--seeds", "0,0"])
    assert exc.value.code == 2
    assert "repeated" in capsys.readouterr().err


def test_sweep_with_a_repeated_value_is_a_scenario_error(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "scenario", "sweep", "tiny", "n_oss=2,2")
    assert code == 2
    assert "scenario error" in err and "repeats value" in err
