"""Command-line interface tests (in-process through cli.main)."""

import json
import re

import pytest

from microrel.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from microrel.scenario_io import bundled_scenario_path, parse_report


@pytest.fixture(scope="module")
def case_paths():
    return {name: str(bundled_scenario_path(name))
            for name in ("case1", "case2", "case3", "sweep")}


def test_run_case1_writes_published_report(case_paths, tmp_path):
    out = tmp_path / "case1.csv"
    code = main(["run", case_paths["case1"], "--out", str(out)])
    assert code == EXIT_OK
    report = parse_report(out.read_text())
    assert report.system.saifi == pytest.approx(0.721, abs=1e-3)
    assert report.system.ens == pytest.approx(42381, abs=1)
    assert report.converged
    rows = {row[0]: row for row in report.load_point_rows}
    assert rows["LP9"][1] == pytest.approx(0.656, abs=1e-3)


def test_run_writes_to_stdout_without_out(case_paths, capsys):
    code = main(["run", case_paths["case1"]])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "[system]" in captured.out
    assert "0.721,7.624,10.57,42381,60.544" in captured.out
    # Diagnostics stay out of the artifact stream.
    assert "simulated years" in captured.err
    assert "simulated years" not in captured.out


def test_run_identical_invocations_are_byte_identical(case_paths, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["run", case_paths["case3"], "--out", str(first)]) == EXIT_OK
    assert main(["run", case_paths["case3"], "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_run_seed_flag_overrides_file_seed(case_paths, tmp_path):
    out_default = tmp_path / "default.json"
    out_seeded = tmp_path / "seeded.json"
    main(["run", case_paths["case1"], "--out", str(out_default),
          "--format", "structured"])
    main(["run", case_paths["case1"], "--out", str(out_seeded),
          "--format", "structured", "--seed", "4242"])
    assert json.loads(out_default.read_text())["seed"] == 1
    assert json.loads(out_seeded.read_text())["seed"] == 4242


def test_run_structured_format_is_json(case_paths, tmp_path):
    out = tmp_path / "case1.json"
    main(["run", case_paths["case1"], "--out", str(out), "--format", "structured"])
    payload = json.loads(out.read_text())
    assert payload["scenario"] == "case1"
    assert {"saifi", "saidi", "caidi", "ens_kwh", "aens_kwh"} <= set(payload["system"])


def test_run_emits_convergence_trace(case_paths, tmp_path):
    out = tmp_path / "r.csv"
    trace = tmp_path / "trace.csv"
    code = main(["run", case_paths["case3"], "--out", str(out),
                 "--trace", str(trace)])
    assert code == EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines[0] == "year,running_ens_kwh,statistic"
    assert len(lines) == 1001  # header + one row per simulated year
    year, ens, stat = lines[1].split(",")
    assert year == "1" and float(ens) > 0 and stat == ""
    assert float(lines[-1].split(",")[2]) >= 0.0


def test_run_reports_nonconvergence_with_exit_4(case_paths, tmp_path):
    # A max-year cap below the convergence floor cannot converge.
    doc = bundled_scenario_path("case3").read_text()
    capped = doc.replace("max_years: 100000", "max_years: 120")
    path = tmp_path / "capped.yaml"
    path.write_text(capped)
    out = tmp_path / "r.csv"
    code = main(["run", str(path), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    assert "converged,false" in out.read_text()


def test_scenario_the_model_cannot_evaluate_is_config_error(tmp_path, capsys):
    # With no failure anywhere SAIFI is zero, so CAIDI has no value.
    doc = bundled_scenario_path("case3").read_text()
    doc = re.sub(r"(sum_lambda\w*: )[0-9.]+", r"\g<1>0.0", doc)
    doc = doc.replace("failure_rate_per_yr: 0.5", "failure_rate_per_yr: 0.0")
    doc = doc.replace("max_years: 100000", "max_years: 5")
    path = tmp_path / "no_failures.yaml"
    path.write_text(doc)
    out = tmp_path / "r.csv"
    code = main(["run", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "SAIFI is zero" in err
    assert not out.exists()


def test_validate_accepts_bundled_scenarios(case_paths, tmp_path, capsys):
    code = main(["validate", case_paths["case3"]])
    assert code == EXIT_OK
    assert "is valid" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_validate_rejects_broken_file_without_artifacts(tmp_path, capsys):
    broken = tmp_path / "broken.yaml"
    broken.write_text(bundled_scenario_path("case1").read_text()
                      .replace("priority: [LP9, LP3, LP4, LP2]",
                               "priority: [LP9, LP3, LP2]"))
    code = main(["validate", str(broken)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "dangling_reference" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.yaml"]


def test_missing_scenario_file_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == EXIT_IO


def test_run_and_sweep_never_mutate_the_scenario_file(case_paths, tmp_path):
    source = bundled_scenario_path("sweep").read_text()
    path = tmp_path / "sweep.yaml"
    path.write_text(source)
    main(["run", str(path), "--out", str(tmp_path / "r.csv")])
    main(["sweep", str(path), "--out", str(tmp_path / "s.csv")])
    assert path.read_text() == source


def test_argument_errors_exit_2(case_paths):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing scenario path
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", case_paths["case1"]])
    assert exc.value.code == EXIT_USAGE


def test_sweep_with_explicit_probabilities(case_paths, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", case_paths["case3"], "--p", "1,0.5,0",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = parse_report(out.read_text())
    assert [row[0] for row in report.sensitivity] == [1.0, 0.5, 0.0]


def test_sweep_zero_row_matches_case1_system_row(case_paths, tmp_path):
    sweep_out = tmp_path / "sweep.csv"
    case1_out = tmp_path / "case1.csv"
    main(["sweep", case_paths["sweep"], "--out", str(sweep_out)])
    main(["run", case_paths["case1"], "--out", str(case1_out)])
    case1_system = case1_out.read_text().split("[system]")[1].splitlines()[2]
    sweep_lines = sweep_out.read_text().splitlines()
    zero_row = next(l for l in sweep_lines if l.startswith("0.000,"))
    assert zero_row == "0.000," + case1_system


def test_sweep_uses_file_ladder_by_default(case_paths, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", case_paths["sweep"], "--out", str(out)]) == EXIT_OK
    report = parse_report(out.read_text())
    assert [row[0] for row in report.sensitivity] == [1.0, 0.75, 0.5, 0.25, 0.0]


def test_sweep_without_any_ladder_is_usage_error(case_paths):
    assert main(["sweep", case_paths["case3"]]) == EXIT_USAGE


def test_sweep_rejects_malformed_or_out_of_range_p(case_paths):
    assert main(["sweep", case_paths["case3"], "--p", "a,b"]) == EXIT_USAGE
    assert main(["sweep", case_paths["case3"], "--p", "0.5,1.7"]) == EXIT_USAGE


def test_sample_single_unit_to_stdout(case_paths, capsys):
    code = main(["sample", case_paths["case3"], "--days", "10", "--unit", "WTG1"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "day_index,resource_value,power_kW"
    assert len(lines) == 11


def test_sample_is_deterministic(case_paths, capsys):
    main(["sample", case_paths["case3"], "--days", "30", "--unit", "PV1"])
    first = capsys.readouterr().out
    main(["sample", case_paths["case3"], "--days", "30", "--unit", "PV1"])
    assert capsys.readouterr().out == first
    main(["sample", case_paths["case3"], "--days", "30", "--unit", "PV1",
          "--seed", "777"])
    assert capsys.readouterr().out != first


def test_sample_whole_fleet_to_directory(case_paths, tmp_path):
    out_dir = tmp_path / "traces"
    code = main(["sample", case_paths["case3"], "--days", "20",
                 "--out", str(out_dir)])
    assert code == EXIT_OK
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["PV1.csv", "PV2.csv", "WTG1.csv", "WTG2.csv"]
    for name in names:
        assert len((out_dir / name).read_text().splitlines()) == 21


def test_sample_multi_unit_stdout_is_rejected(case_paths):
    assert main(["sample", case_paths["case3"], "--days", "5"]) == EXIT_USAGE


def test_sample_unknown_unit_is_usage_error(case_paths):
    assert main(["sample", case_paths["case3"], "--unit", "GHOST"]) == EXIT_USAGE


def test_sample_empty_fleet_is_usage_error(case_paths):
    assert main(["sample", case_paths["case1"]]) == EXIT_USAGE


@pytest.mark.parametrize("command, case", [
    ("run", "case3"), ("sweep", "sweep"), ("sample", "case3"),
])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_usage_error(case_paths, capsys, command, case,
                                             seed):
    code = main([command, case_paths[case], "--seed", seed])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--seed" in err and seed in err


def test_largest_64_bit_seed_is_accepted(case_paths, capsys):
    code = main(["sample", case_paths["case3"], "--days", "3", "--unit", "PV1",
                 "--seed", str(2**64 - 1)])
    assert code == EXIT_OK


@pytest.mark.parametrize("command, case", [("run", "case3"), ("sweep", "sweep")])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_worker_count_below_one_is_usage_error(case_paths, capsys, tmp_path,
                                               command, case, workers):
    out = tmp_path / "report.csv"
    code = main([command, case_paths[case], "--workers", workers,
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()
