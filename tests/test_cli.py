"""Command-line interface tests (in-process through cli.main)."""

import errno
import json
import os
import re
import subprocess
import sys
import warnings
from importlib import import_module, resources
from pathlib import Path

import pytest
import yaml

import microrel
from microrel import cli, engine, scenario_io
from microrel.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from microrel.res_models import NumericsError
from microrel.scenario_io import bundled_scenario_path, parse_report, parse_scenario
from test_scenario_io import GOLDEN_REPORTS


@pytest.fixture(scope="module")
def case_paths():
    return {name: str(bundled_scenario_path(name))
            for name in scenario_io._BUNDLED_NAMES}


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


@pytest.mark.parametrize("fmt, suffix", [("delimited", "csv"), ("structured", "json")])
@pytest.mark.parametrize("case", scenario_io._BUNDLED_NAMES)
def test_run_writes_the_golden_report(case_paths, tmp_path, case, fmt, suffix):
    command = "sweep" if case == "sweep" else "run"
    out = tmp_path / f"{case}.{suffix}"
    assert main([command, case_paths[case], "--format", fmt, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN_REPORTS / f"{case}.{suffix}").read_bytes()


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


def test_run_one_year_cap_exits_4_with_report(tmp_path):
    doc = bundled_scenario_path("case3").read_text()
    path = tmp_path / "one_year.yaml"
    path.write_text(doc.replace("max_years: 100000", "max_years: 1"))
    out = tmp_path / "r.csv"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_NO_CONVERGENCE
    report = parse_report(out.read_text())
    assert report.years_run == 1 and not report.converged


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


@pytest.mark.parametrize("case, key, value", [
    ("case2", "shape_k", "0.001"), ("case3", "scale_gmax_w_m2", "1.0e+300"),
])
def test_extreme_distributions_run_without_warnings(tmp_path, capsys, case,
                                                    key, value):
    # An infinite wind speed gives 0 kW past cut-out and a huge irradiance
    # p_sn above g_std: the overflows reach the right limits, and outside
    # pytest each warning would be two more stderr lines.
    path = tmp_path / f"{case}.yaml"
    path.write_text(re.sub(rf"{key}: [0-9.]+", f"{key}: {value}",
                           bundled_scenario_path(case).read_text()))
    out = tmp_path / "r.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == EXIT_OK
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.count("\n") == 1
    assert "nan" not in out.read_text().lower()


@pytest.mark.parametrize("fmt", ["delimited", "structured"])
@pytest.mark.parametrize("key, value", [
    ("level_kw", "1.0e+308"), ("level_kw", "1.0e+307"),
    ("failure_rate_per_yr", "1.0e+308"),
])
def test_indices_that_overflow_exit_3_before_simulating(tmp_path, capsys, monkeypatch,
                                                        key, value, fmt):
    # Levels of 1e308 kW make ENS infinite, and 1e307 overflow its fsum; an
    # upstream rate of 1e308 makes U infinite.  Each index is greatest
    # without the microgrid, which the run checks before simulating a year.
    def no_block(*args):
        raise AssertionError("a block was simulated")

    monkeypatch.setattr(engine, "_simulate_block", no_block)
    path = tmp_path / "huge.yaml"
    path.write_text(re.sub(rf"{key}: [0-9.]+", f"{key}: {value}",
                           bundled_scenario_path("case3").read_text()))
    out = tmp_path / "report"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path), "--format", fmt, "--out", str(out)]) == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", scenario_io._BUNDLED_NAMES)
def test_validate_accepts_bundled_scenarios(case_paths, tmp_path, capsys, case):
    code = main(["validate", case_paths[case]])
    assert code == EXIT_OK
    assert "is valid" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_the_package_ships_its_scenarios_and_console_script():
    # Run against an installed copy, this checks what the install holds: the
    # bundled scenarios as package data, and the `microrel` entry point.
    shipped = resources.files(scenario_io.__package__) / "scenarios"
    assert sorted(entry.name for entry in shipped.iterdir()
                  if entry.name.endswith(".yaml")) == sorted(
        f"{name}.yaml" for name in scenario_io._BUNDLED_NAMES)
    for name in scenario_io._BUNDLED_NAMES:
        parse_scenario(bundled_scenario_path(name).read_text())
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads(
        (Path(__file__).parent.parent / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["microrel"]
    assert target == "microrel.cli:main"
    module, name = target.split(":")
    assert getattr(import_module(module), name) is main


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


def test_topology_rule_violation_exits_3_with_one_line(tmp_path, capsys):
    cycle = tmp_path / "cycle.yaml"
    topology = bundled_scenario_path("topology").read_text()
    cycle.write_text(topology.replace("parent: s1", "parent: s3"))
    assert main(["validate", str(cycle)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[constraint] network: parent cycle" in err


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_yaml_syntax_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                 loader):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML without libyaml")
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", getattr(yaml, loader))
    path = tmp_path / "broken.yaml"
    path.write_text("meta:\n  name: [unbalanced\n")
    assert main(["run", str(path), "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "not valid YAML" in err and "line 2" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.yaml"]


# Runs cli.main on sys.argv[2:], reading scenario files with the PyYAML
# loader named by sys.argv[1].
_LOADER_STUDY = """
import sys, yaml
from microrel import cli, scenario_io
scenario_io._YAML_LOADER = getattr(yaml, sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize("name", ["deep", "repeated"])
def test_deep_or_repeated_yaml_exits_3_with_one_line(tmp_path, loader, name):
    # 100 000 nested lists overflowed libyaml's composer (SIGSEGV) and
    # PyYAML's recursion limit, and a repeated key took the last value; in a
    # subprocess, so that a crash fails this test alone.
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML without libyaml")
    case3 = bundled_scenario_path("case3").read_text()
    assert case3.count("  max_years: 100000\n") == 1
    path = tmp_path / f"{name}.yaml"
    path.write_text("[" * 100_000 if name == "deep" else
                    case3.replace("  max_years: 100000\n",
                                  "  max_years: 7\n  max_years: 100000\n"))
    proc = subprocess.run([sys.executable, "-c", _LOADER_STUDY, loader, "validate",
                           str(path)], env=_python_env(), capture_output=True,
                          text=True, timeout=120)
    reason = {"deep": "collections nest deeper than 100 levels at line 1, column 101",
              "repeated": "repeated key 'max_years' at line 87, column 3"}[name]
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == f"configuration error [syntax] {reason}\n"


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


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_empty_sweep_ladder_is_a_configuration_error(tmp_path, capsys, command):
    path = tmp_path / "empty-ladder.yaml"
    path.write_text(bundled_scenario_path("sweep").read_text().replace(
        "sweep_p: [1.0, 0.75, 0.5, 0.25, 0.0]", "sweep_p: []"))
    assert main([command, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "[constraint] simulation.sweep_p" in err


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


def test_sample_single_unit_to_a_file(case_paths, tmp_path, capsys):
    # A path that is not a directory receives the one trace itself, the
    # bytes that --unit writes to stdout.
    main(["sample", case_paths["case3"], "--days", "15", "--unit", "PV2"])
    expected = capsys.readouterr().out
    out = tmp_path / "pv2.csv"
    code = main(["sample", case_paths["case3"], "--days", "15", "--unit", "PV2",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.is_file() and out.read_text() == expected
    assert len(expected.splitlines()) == 16


def test_sample_whole_fleet_to_directory(case_paths, tmp_path):
    out_dir = tmp_path / "traces"
    code = main(["sample", case_paths["case3"], "--days", "20",
                 "--out", str(out_dir)])
    assert code == EXIT_OK
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["PV1.csv", "PV2.csv", "WTG1.csv", "WTG2.csv"]
    for name in names:
        assert len((out_dir / name).read_text().splitlines()) == 21


def test_sample_one_unit_with_independent_irradiance(tmp_path, capsys):
    # Each array has its own irradiance stream; one unit's trace must be
    # the one it has in the whole-fleet sample.
    doc = bundled_scenario_path("case3").read_text()
    path = tmp_path / "independent.yaml"
    path.write_text(doc.replace("shared_sample: true", "shared_sample: false"))
    out_dir = tmp_path / "traces"
    assert main(["sample", str(path), "--days", "40", "--out", str(out_dir)]) == EXIT_OK
    whole = {name: (out_dir / f"{name}.csv").read_text() for name in ("PV1", "PV2")}
    assert whole["PV1"] != whole["PV2"]
    for name in ("PV1", "PV2", "WTG2"):
        assert main(["sample", str(path), "--days", "40", "--unit", name]) == EXIT_OK
        assert capsys.readouterr().out == (out_dir / f"{name}.csv").read_text()


def test_sample_writes_distinct_traces_for_an_array_named_shared(tmp_path):
    # "shared" is also the label of the shared irradiance stream; with
    # independent irradiance the array of that name and PV2 still read
    # their own streams.
    doc = bundled_scenario_path("case3").read_text()
    doc = doc.replace("shared_sample: true", "shared_sample: false")
    path = tmp_path / "named-shared.yaml"
    path.write_text(doc.replace("name: PV1", "name: shared"))
    out_dir = tmp_path / "traces"
    assert main(["sample", str(path), "--days", "40", "--out", str(out_dir)]) == EXIT_OK
    assert (out_dir / "shared.csv").read_text() != (out_dir / "PV2.csv").read_text()


# Every unit's `microrel sample SCENARIO --days 730 --out DIR` trace for case2,
# case3 and case3_independent (case3 with `shared_sample: false`): two years,
# so the traces cross a year boundary.  They hold the samplers' doubles
# exactly; a change to any of them must be explained in CHANGES.md like a
# change to the golden reports.
GOLDEN_TRACES = Path(__file__).parent / "data" / "traces"


@pytest.mark.parametrize("case", ["case2", "case3", "case3_independent"])
def test_sample_traces_match_the_goldens_byte_for_byte(case_paths, case, tmp_path):
    if case == "case3_independent":
        scenario = tmp_path / f"{case}.yaml"
        scenario.write_text(bundled_scenario_path("case3").read_text().replace(
            "shared_sample: true", "shared_sample: false"))
    else:
        scenario = case_paths[case]
    out = tmp_path / case
    assert main(["sample", str(scenario), "--days", "730", "--out", str(out)]) == EXIT_OK
    golden = sorted(path.name for path in (GOLDEN_TRACES / case).iterdir())
    assert sorted(path.name for path in out.iterdir()) == golden
    for name in golden:
        assert (out / name).read_bytes() == (GOLDEN_TRACES / case / name).read_bytes(), name


def _duplicate_wind_region(doc):
    regions = doc["distributions"]["wind_regions"]
    regions[1] = dict(regions[0])


def _duplicate_aggregate_row(doc):
    rows = doc["network"]["aggregate"]
    rows[1] = dict(rows[0])


def _zero_priority(doc):
    doc["loads"][0]["priority"] = 0


@pytest.mark.parametrize("edit, path", [
    (_duplicate_wind_region, "distributions.wind_regions.1"),
    (_duplicate_aggregate_row, "network.aggregate.1"),
    (_zero_priority, "loads.0"),
])
def test_record_rule_violation_exits_3_with_one_line(tmp_path, capsys, edit, path):
    doc = yaml.safe_load(bundled_scenario_path("case3").read_text())
    edit(doc)
    scenario = tmp_path / "broken.yaml"
    scenario.write_text(yaml.safe_dump(doc, sort_keys=False))
    out = tmp_path / "report.csv"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"[constraint] {path}:" in err
    assert not out.exists()


@pytest.mark.parametrize("section, value, message", [
    ("network", 5, "network: expected a mapping, got int"),
    ("fleet", {"wind_turbines": 5}, "fleet.wind_turbines: expected a list, got int"),
])
def test_section_of_the_wrong_kind_exits_3_with_one_line(tmp_path, capsys, section,
                                                         value, message):
    doc = yaml.safe_load(bundled_scenario_path("case3").read_text())
    doc[section] = value
    scenario = tmp_path / "broken.yaml"
    scenario.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["validate", str(scenario)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error [schema] {message}\n"


def test_sample_zero_days_exits_2_with_one_line(case_paths, capsys):
    assert main(["sample", case_paths["case3"], "--days", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--days must be >= 1, got 0\n"


def test_sample_multi_unit_stdout_is_rejected(case_paths):
    assert main(["sample", case_paths["case3"], "--days", "5"]) == EXIT_USAGE


def test_sample_unknown_unit_is_usage_error(case_paths):
    assert main(["sample", case_paths["case3"], "--unit", "GHOST"]) == EXIT_USAGE


def test_sample_empty_fleet_is_usage_error(case_paths):
    assert main(["sample", case_paths["case1"]]) == EXIT_USAGE


def test_sample_too_many_days_to_hold_exits_2_with_one_line(case_paths, capsys):
    # numpy refuses the uniforms for these days at once, allocating nothing:
    # with MemoryError for 10^15, with ValueError for shapes it cannot index.
    for days in (10**15, 10**18, 10**31):
        code = main(["sample", case_paths["case3"], "--days", str(days),
                     "--unit", "PV1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"--days {days}" in err and "too large" in err


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


def test_default_workers_count_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._default_workers() == 3
    assert build_parser().parse_args(["run", "s.yaml"]).workers == 3
    # Without affinity information, all of the host's CPUs.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._default_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._default_workers() == 1


# ---------------------------------------------------------------------------
# What a study loads, in a fresh interpreter
# ---------------------------------------------------------------------------

LAZY_MODULES = ("scipy", "concurrent.futures", "multiprocessing")

# Runs cli.main on the argv given as JSON (none: import only) and prints the
# exit code and which of LAZY_MODULES are loaded.
_STUDY = """
import json, sys
from microrel import cli
argv = json.loads(sys.argv[1])
code = cli.main(argv) if argv else 0
print(json.dumps([code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))
"""

# Runs cli.main on sys.argv[1:] with an os.fork that records, at each fork,
# the sizes of the beta bracket table, served threshold, wind power bounds
# and stream bounds caches the forked block worker inherits.
_FORKING_STUDY = """
import json, os, sys
from microrel import cli, engine, res_models

forks = []
fork = os.fork

def recording_fork():
    forks.append([res_models._beta_bracket_table.cache_info().currsize,
                  engine._served_thresholds.cache_info().currsize,
                  res_models.wind_power_bounds.cache_info().currsize,
                  res_models._stream_bounds.cache_info().currsize])
    return fork()

os.fork = recording_fork
print(json.dumps([cli.main(sys.argv[1:]), forks]))
"""


def _python_env() -> dict[str, str]:
    """This environment, with the microrel under test first on the path."""
    env = dict(os.environ)
    src = str(Path(microrel.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _fresh_python(*args: str):
    proc = subprocess.run([sys.executable, "-c", *args], env=_python_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _study_loads(argv):
    return _fresh_python(_STUDY, json.dumps(argv), json.dumps(LAZY_MODULES))


@pytest.mark.parametrize("command, case", [
    (None, None), ("validate", "case1"), ("run", "case1"), ("run", "case2"),
])
def test_studies_without_pv_load_neither_scipy_nor_the_pool(
        case_paths, tmp_path, command, case):
    argv = [] if command is None else [command, case_paths[case]]
    if command == "run":
        argv += ["--workers", "1", "--out", str(tmp_path / "report.csv")]
    assert _study_loads(argv) == [EXIT_OK, []]


@pytest.mark.parametrize("command, case, workers", [
    ("run", "case3", "1"), ("run", "case3", "2"), ("sweep", "sweep", "2"),
    ("sample", "case3", None),
])
def test_no_study_loads_scipy(case_paths, tmp_path, command, case, workers):
    # The beta CDF is microrel's own, and block workers are plain forks: no
    # study loads scipy or a process pool library, at any worker count.
    argv = [command, case_paths[case], "--out", str(tmp_path / "artifact")]
    if workers is not None:
        argv += ["--workers", workers]
    assert _study_loads(argv) == [EXIT_OK, []]


def test_pv_study_writes_its_report_with_scipy_blocked(case_paths, tmp_path):
    # A None entry in sys.modules makes any import of scipy fail, here and in
    # the forked workers.
    blocked, inline = tmp_path / "blocked.csv", tmp_path / "inline.csv"
    code, _ = _fresh_python("import sys; sys.modules['scipy'] = None\n" + _STUDY,
                            json.dumps(["run", case_paths["case3"], "--workers",
                                        "2", "--out", str(blocked)]), "[]")
    assert code == EXIT_OK
    assert main(["run", case_paths["case3"], "--workers", "1",
                 "--out", str(inline)]) == EXIT_OK
    assert blocked.read_bytes() == inline.read_bytes()


def test_beta_shapes_too_large_to_evaluate_exit_3_with_one_line(tmp_path, capsys):
    # The CDF of a beta(1e14, 1e14) is a step narrower than 1e-7 at 1/2; the
    # incomplete beta's continued fraction there needs more than its cap.
    doc = bundled_scenario_path("case3").read_text()
    doc = re.sub(r"(alpha|beta): [0-9.]+", r"\g<1>: 1.0e+14", doc)
    path = tmp_path / "narrow.yaml"
    path.write_text(doc)
    out = tmp_path / "r.csv"
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "NumericsError" in err and "did not converge" in err
    assert not out.exists()


def test_pv_study_builds_the_beta_tables_before_the_pool_starts(case_paths,
                                                                tmp_path):
    # The pool is the forked block workers: one at --workers 2, since case3
    # stops at the 1000-year floor, two blocks in.
    forked, inline = tmp_path / "forked.csv", tmp_path / "inline.csv"
    code, forks = _fresh_python(_FORKING_STUDY, "run", case_paths["case3"],
                                "--workers", "2", "--out", str(forked))
    assert code == EXIT_OK
    assert forks == [[1, 1, 2, 1]]
    assert main(["run", case_paths["case3"], "--workers", "1",
                 "--out", str(inline)]) == EXIT_OK
    assert forked.read_bytes() == inline.read_bytes()


def test_wind_study_builds_its_power_bounds_before_the_pool_starts(case_paths,
                                                                   tmp_path):
    # case2's four turbines are two distinct specs; no beta table.
    code, forks = _fresh_python(_FORKING_STUDY, "run", case_paths["case2"],
                                "--workers", "2", "--out", str(tmp_path / "r.csv"))
    assert code == EXIT_OK
    assert forks and all(fork == [0, 1, 2, 1] for fork in forks)


def test_a_block_workers_numerics_error_exits_3_with_one_line(
        case_paths, tmp_path, capsys, monkeypatch):
    # Forked workers inherit the patch; block 1 is the worker's at 2 workers.
    simulate = engine._simulate_block

    def failing(ctx, start, size):
        if start == engine._YEARS_PER_BLOCK:
            raise NumericsError("inverse CDF did not converge")
        return simulate(ctx, start, size)

    monkeypatch.setattr(engine, "_simulate_block", failing)
    out = tmp_path / "r.csv"
    assert main(["run", case_paths["case2"], "--workers", "2",
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "NumericsError: inverse CDF did not converge" in err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_exits_with_one_line(case_paths, tmp_path, capsys,
                                          monkeypatch):
    fork, calls = os.fork, []

    def second_fork_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    out = tmp_path / "r.csv"
    assert main(["run", case_paths["case2"], "--workers", "3",
                 "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Resource temporarily unavailable" in err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_dead_block_worker_exits_5_with_one_line(case_paths, tmp_path, capsys,
                                                   monkeypatch):
    # Block 1 is the forked worker's at 2 workers; it dies without a word.
    simulate = engine._simulate_block

    def dying(ctx, start, size):
        if start == engine._YEARS_PER_BLOCK:
            os._exit(7)
        return simulate(ctx, start, size)

    monkeypatch.setattr(engine, "_simulate_block", dying)
    out = tmp_path / "r.csv"
    assert main(["run", case_paths["case2"], "--workers", "2",
                 "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exited with status 7" in err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
