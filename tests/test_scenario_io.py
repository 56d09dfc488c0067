"""Scenario-file and report serialization tests."""

import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
import yaml

from microrel import engine, scenario_io
from microrel.network import FeederSection, LoadPoint, Switchgear
from microrel.res_models import BetaParams, PvArraySpec, ResourceDistributions, WindTurbineSpec
from microrel.scenario_io import (
    ConstraintError,
    DanglingReferenceError,
    ScenarioError,
    ScenarioSyntaxError,
    SchemaError,
    build_report,
    bundled_scenario_path,
    bundled_scenarios,
    emit_report,
    emit_scenario,
    parse_report,
    parse_scenario,
)


@pytest.fixture(scope="module")
def cases():
    return bundled_scenarios()


@pytest.fixture(scope="module")
def case3_doc():
    return yaml.safe_load(bundled_scenario_path("case3").read_text())


@pytest.fixture(scope="module")
def topology_doc():
    return yaml.safe_load(bundled_scenario_path("topology").read_text())


def _parse_mutated(doc):
    return parse_scenario(yaml.safe_dump(doc))


# ---------------------------------------------------------------------------
# Bundled scenarios
# ---------------------------------------------------------------------------

def test_all_bundled_scenarios_parse_and_validate(cases):
    assert set(cases) == {"case1", "case2", "case3", "case4", "sweep", "topology"}


def test_case1_is_the_no_dg_baseline(cases):
    scenario = cases["case1"]
    assert scenario.fleet == ()
    assert scenario.network.total_customers == 700


def test_case3_fleet_matches_published_placements(cases):
    fleet = {u.name: u for u in cases["case3"].fleet}
    assert fleet["WTG1"].location == "LP7"
    assert isinstance(fleet["WTG1"].device, WindTurbineSpec)
    assert fleet["WTG1"].device.p_rated == 2000.0
    assert fleet["WTG2"].location == "LP10"
    assert fleet["WTG2"].device.p_rated == 1500.0
    assert fleet["PV1"].location == "LP1"
    assert isinstance(fleet["PV1"].device, PvArraySpec)
    assert fleet["PV2"].location == "LP8"
    nameplate = sum(getattr(u.device, "p_rated", 0.0) + getattr(u.device, "p_sn", 0.0)
                    for u in cases["case3"].fleet)
    assert nameplate == pytest.approx(7500.0)
    assert cases["case3"].network.total_load == pytest.approx(5500.0)
    assert nameplate > cases["case3"].network.total_load


def test_case2_runs_four_wind_turbines(cases):
    fleet = cases["case2"].fleet
    assert len(fleet) == 4
    assert all(isinstance(u.device, WindTurbineSpec) for u in fleet)


def test_sweep_probability_ladder(cases):
    assert cases["sweep"].sweep_p == (1.0, 0.75, 0.5, 0.25, 0.0)


def test_cases_differ_only_in_fleet_and_load_factors(cases):
    reference = cases["case3"]
    for name in ("case1", "case2", "case4"):
        other = cases[name]
        assert other.network == reference.network
        assert other.distributions == reference.distributions
        assert other.p_islanding == reference.p_islanding
        assert other.max_years == reference.max_years
        assert other.tolerance == reference.tolerance
        assert other.dispatch == reference.dispatch
    assert cases["case4"].fleet == reference.fleet
    assert cases["case4"].load_factors != reference.load_factors
    assert max(cases["case4"].load_factors) < 1.0


def test_bundled_network_matches_calibrated_dataset(cases):
    # case1-4 and sweep carry one study network; its values are checked
    # against the published data in test_network.py.
    reference = cases["case1"].network
    assert reference.mode == "aggregate"
    for name in ("case2", "case3", "case4", "sweep"):
        assert cases[name].network == reference


def test_topology_case_reconstructs_the_study_feeder(cases):
    topology, study = cases["topology"], cases["case1"]
    assert topology.network.mode == "topology"
    assert topology.network.load_points == study.network.load_points
    assert topology.network.upstream == study.network.upstream
    total_rate = math.fsum(sec.reliability.failure_rate
                           for sec in topology.network.sections)
    assert total_rate == pytest.approx(0.226, abs=1e-12)
    reference = cases["case3"]
    assert topology.fleet == reference.fleet
    assert topology.seed == reference.seed
    assert topology.distributions == reference.distributions


def test_unknown_bundled_name_raises():
    with pytest.raises(KeyError):
        bundled_scenario_path("case99")


# ---------------------------------------------------------------------------
# Scenario round-trip
# ---------------------------------------------------------------------------

def _every_option_scenario(topology_doc):
    """The topology study with every optional key set to a non-default value."""
    doc = copy.deepcopy(topology_doc)
    doc["meta"]["description"] = "every optional key set"
    doc["distributions"]["wind_regions"] = [
        {"region": "r1", "scale_c_m_s": 7.88, "shape_k": 2.62}]
    doc["distributions"]["irradiance"].update(scale_gmax_w_m2=850.0,
                                              shared_sample=False)
    doc["fleet"] = {
        "wind_turbines": [{"name": "WTG1", "location": "LP7", "region": "r1",
                           "rated_kw": 2000.0, "rated_speed_m_s": 15.0,
                           "cut_in_m_s": 3.0, "cut_out_m_s": 25.0}],
        "pv_arrays": [{"name": "PV1", "location": "LP1", "rated_kw": 2000.0,
                       "std_irradiance_w_m2": 900.0, "breakpoint_w_m2": 120.0}],
    }
    doc["network"]["sections"][0]["isolator_downstream"] = True
    doc["loads"][0]["class"] = "commercial"
    doc["simulation"] = {"max_years": 5000, "tolerance": 0.01, "p_islanding": 0.9,
                         "dispatch": "blocking", "sweep_p": [1.0, 0.5, 0.0]}
    doc["load_factors"] = [0.5 + day / 1000.0 for day in range(365)]
    return parse_scenario(yaml.safe_dump(doc))


@pytest.mark.parametrize("name", ["case1", "case2", "case3", "case4", "sweep",
                                  "topology", "every_option"])
def test_scenario_emit_parse_round_trip(cases, topology_doc, name):
    scenario = (_every_option_scenario(topology_doc) if name == "every_option"
                else cases[name])
    text = emit_scenario(scenario)
    assert parse_scenario(text) == scenario
    if name == "every_option":
        for key in ("description", "shared_sample", "scale_gmax_w_m2",
                    "std_irradiance_w_m2", "breakpoint_w_m2", "class",
                    "isolator_downstream", "at_section", "sweep_p", "load_factors"):
            assert f"{key}:" in text


def test_topology_scenario_parses_and_round_trips(cases):
    scenario = cases["topology"]
    assert scenario.network.mode == "topology"
    assert len(scenario.network.sections) == 6
    assert parse_scenario(emit_scenario(scenario)) == scenario


def test_topology_scenario_runs_end_to_end(cases):
    scenario = dataclasses.replace(cases["topology"], fleet=())
    result = engine.run(scenario)
    assert result.converged and result.years_run == 1
    # Every section fault interrupts every load point on this feeder, so
    # each failure rate is the section total plus the upstream rate.
    total_rate = 0.040 + 0.040 + 0.036 + 0.040 + 0.040 + 0.030
    for lp_id in ("LP2", "LP3", "LP4", "LP9"):
        assert result.per_lp[lp_id].failure_rate == pytest.approx(
            total_rate + 0.5, abs=1e-12)
    # LP4 sits in the two-section isolation zone of both s4 and s5 faults
    # and is switch-restored otherwise.
    repair_u = (0.040 + 0.040) * 30.0
    switch_u = (0.040 + 0.040 + 0.036 + 0.030) * 3.5
    upstream_u = 0.5 * 10.0
    assert result.per_lp["LP4"].unavailability == pytest.approx(
        repair_u + switch_u + upstream_u, abs=1e-9)


# ---------------------------------------------------------------------------
# Schema rejection
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
@pytest.mark.parametrize("name", ["case1", "case2", "case3", "case4", "sweep",
                                  "topology"])
def test_libyaml_and_python_loaders_read_equal_scenarios(name, monkeypatch):
    text = bundled_scenario_path(name).read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == \
        yaml.load(text, Loader=yaml.SafeLoader)
    fast = parse_scenario(text)
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", yaml.SafeLoader)
    assert parse_scenario(text) == fast


_LOADERS = ["SafeLoader"] + (["CSafeLoader"] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.parametrize("loader", _LOADERS)
def test_numbers_in_exponent_form_without_a_dot_are_numbers(loader, monkeypatch):
    # YAML 1.1 reads a float only with a dot (5.0e-3); YAML 1.2 also reads
    # 5e-3, 2e3 and 1E+2.
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", getattr(yaml, loader))
    text = bundled_scenario_path("case3").read_text()
    edits = {"tolerance: 0.005": "tolerance: 5e-3",
             "rated_kw: 2000.0\n      rated_speed": "rated_kw: 2e3\n      rated_speed",
             "scale_gmax_w_m2: 850.0": "scale_gmax_w_m2: 1E+2"}
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    scenario = parse_scenario(text)
    base = bundled_scenarios()["case3"]
    assert scenario.tolerance == 0.005
    assert scenario.fleet[0].device == base.fleet[0].device
    assert scenario.distributions.irradiance.scale_gmax == 100.0
    with pytest.raises(ConstraintError, match="must be finite"):
        parse_scenario(text.replace("tolerance: 5e-3", "tolerance: .nan"))
    # A string field meets such a number as it meets any other: an unquoted
    # id of 1e3 is the number 1000.0, as 1.0e+3 is.
    topology = bundled_scenario_path("topology").read_text()
    errors = []
    for value in ("1e3", "1.0e+3"):
        with pytest.raises(SchemaError) as err:
            parse_scenario(topology.replace("- id: s5", f"- id: {value}"))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert "expected a non-empty string, got 1000.0" in errors[0]
    # So such a string is written quoted, and reads back as a string.
    named = dataclasses.replace(base, name="1e3")
    assert "name: '1e3'" in emit_scenario(named)
    assert parse_scenario(emit_scenario(named)) == named


def test_rejects_invalid_yaml_syntax():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("{unbalanced: [")
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("- a\n- b\n")


@pytest.mark.parametrize("loader", _LOADERS)
def test_a_repeated_key_is_rejected_but_a_merge_key_may_override(loader, monkeypatch):
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", getattr(yaml, loader))
    text = bundled_scenario_path("case3").read_text()
    assert text.count("\nsimulation:\n  max_years: 100000\n") == 1
    for repeat in ("  max_years: 7\n", '  "max_years": 7\n'):  # one key, however written
        with pytest.raises(ScenarioSyntaxError, match="repeated key 'max_years' at line 87"):
            parse_scenario(text.replace("  max_years: 100000\n",
                                        "  max_years: 100000\n" + repeat))
    # A mapping's own keys override the keys it merges (<<), and the first
    # merged mapping the later ones.
    merged = parse_scenario(text.replace(
        "\nsimulation:\n",
        "\nsimulation:\n  <<: [{max_years: 7, sweep_p: [0.5]}, {sweep_p: [0.25]}]\n"))
    assert merged == dataclasses.replace(bundled_scenarios()["case3"], sweep_p=(0.5,))


def test_optional_fields_default_as_their_records_do():
    # A key a file leaves out reads as the default of the record field it
    # fills, so a file and the Python API cannot drift apart.
    records = {
        "_META": (engine.Scenario,), "_IRRADIANCE": (BetaParams, ResourceDistributions),
        "_PV_ARRAY": (PvArraySpec,), "_SECTION": (FeederSection,),
        "_SWITCHGEAR": (Switchgear,), "_LOAD": (LoadPoint,),
        "_SIMULATION": (engine.Scenario,), "_DOCUMENT": (engine.Scenario,),
    }
    checked = []
    for table, owners in records.items():
        defaults = {field.name: field.default if field.default_factory is dataclasses.MISSING
                    else field.default_factory()
                    for owner in owners for field in dataclasses.fields(owner)}
        for key, _, default, target in getattr(scenario_io, table):
            if default is not scenario_io._REQUIRED:
                assert default == defaults[target], f"{table} {key}"
                checked.append(target)
    assert sorted(checked) == sorted([
        "description", "scale_gmax", "shared_irradiance", "g_std", "r_c",
        "isolator_upstream", "isolator_downstream", "load_points", "at_section",
        "customer_class", "max_years", "tolerance", "p_islanding", "dispatch",
        "sweep_p", "load_factors"])


def test_rejects_unknown_top_level_key(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["surprise"] = 1
    with pytest.raises(SchemaError) as err:
        _parse_mutated(doc)
    assert "surprise" in str(err.value)


def test_rejects_missing_required_section(case3_doc):
    for key in ("meta", "distributions", "fleet", "network", "loads",
                "priority", "upstream", "simulation"):
        doc = copy.deepcopy(case3_doc)
        del doc[key]
        with pytest.raises(SchemaError):
            _parse_mutated(doc)


def test_turbine_speed_constraint_names_the_turbine(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["fleet"]["wind_turbines"][0]["cut_in_m_s"] = 20.0
    with pytest.raises(ConstraintError) as err:
        _parse_mutated(doc)
    assert "WTG1" in str(err.value)
    assert err.value.code == "constraint"


def test_priority_list_missing_load_point_is_dangling(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["priority"] = ["LP9", "LP3", "LP2"]
    with pytest.raises(DanglingReferenceError) as err:
        _parse_mutated(doc)
    assert "LP4" in str(err.value)


def test_priority_list_unknown_id_is_dangling(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["priority"] = ["LP9", "LP3", "LP4", "LP2", "LP77"]
    with pytest.raises(DanglingReferenceError):
        _parse_mutated(doc)


def test_priority_order_must_match_ranks(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["priority"] = ["LP3", "LP9", "LP4", "LP2"]
    with pytest.raises(ConstraintError):
        _parse_mutated(doc)


def test_fleet_region_reference_must_resolve(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["fleet"]["wind_turbines"][1]["region"] = "atlantis"
    with pytest.raises(DanglingReferenceError) as info:
        _parse_mutated(doc)
    assert info.value.code == "dangling_reference"
    assert info.value.path == "fleet.wind_turbines.1.region"


def test_aggregate_row_for_unknown_load_point(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["network"]["aggregate"][0]["load_point"] = "LP77"
    with pytest.raises(DanglingReferenceError):
        _parse_mutated(doc)


def test_load_factors_wrong_length_rejected(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["load_factors"] = [1.0] * 100
    with pytest.raises(ConstraintError):
        _parse_mutated(doc)


def test_sweep_probability_out_of_range(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["simulation"]["sweep_p"] = [1.0, 1.5]
    with pytest.raises(ConstraintError):
        _parse_mutated(doc)


def test_negative_rates_rejected(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["upstream"]["failure_rate_per_yr"] = -0.5
    with pytest.raises(ConstraintError):
        _parse_mutated(doc)


def _walk_paths(node, prefix=()):
    """Yield (path, value) for every leaf and mapping in the document."""
    if isinstance(node, dict):
        yield prefix, node
        for key, value in node.items():
            yield from _walk_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk_paths(value, prefix + (i,))
    else:
        yield prefix, node


def _set_path(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@pytest.mark.parametrize("base", ["case3", "topology"])
def test_every_single_field_corruption_is_rejected(case3_doc, topology_doc, base):
    # Total schema rejection: replacing any leaf with a mapping, or adding
    # an unknown key to any mapping, must produce a ScenarioError rather
    # than a silent default.
    base_doc = case3_doc if base == "case3" else topology_doc
    corrupted = 0
    for path, value in _walk_paths(base_doc):
        doc = copy.deepcopy(base_doc)
        if isinstance(value, dict):
            _set_path(doc, path + ("unexpected_key",), 1)
        else:
            _set_path(doc, path, {"bogus": 1})
        with pytest.raises(ScenarioError):
            _parse_mutated(doc)
        corrupted += 1
    assert corrupted > 50


def test_errors_carry_machine_readable_code_and_path(case3_doc):
    doc = copy.deepcopy(case3_doc)
    doc["loads"][0]["customers"] = -3
    with pytest.raises(ScenarioError) as err:
        _parse_mutated(doc)
    assert err.value.code == "constraint"
    assert err.value.path.startswith("loads.0")
    assert err.value.reason


_DELETE = object()

# (base document, {path: new value or _DELETE}, error code, path prefix)
REJECTIONS = {
    "switchgear_kind": ("topology", {("network", "switchgear", 0, "kind"): "fuse"},
                        "constraint", "network.switchgear.0"),
    "tie_without_section": ("topology",
                            {("network", "switchgear", 1, "at_section"): _DELETE},
                            "constraint", "network.switchgear.1"),
    "tie_at_unknown_section": ("topology",
                               {("network", "switchgear", 1, "at_section"): "s99"},
                               "constraint", "network"),
    "parent_cycle": ("topology", {("network", "sections", 1, "parent"): "s3"},
                     "constraint", "network"),
    "duplicate_section_ids": ("topology", {("network", "sections", 1, "id"): "s1"},
                              "constraint", "network"),
    "tap_of_unknown_load_point": ("topology",
                                  {("network", "sections", 0, "load_points"): ["LP77"]},
                                  "constraint", "network"),
    "duration_without_rate": ("case3",
                              {("network", "aggregate", 0, "sum_lambda_per_yr"): 0},
                              "constraint", "network.aggregate.0"),
    "no_load_points": ("case3", {("loads",): [], ("priority",): [],
                                 ("network", "aggregate"): []},
                       "constraint", "network"),
    "seed_beyond_64_bits": ("case3", {("meta", "seed"): 2**64},
                            "constraint", "meta.seed"),
    "integer_beyond_float_range": ("case3", {("upstream", "repair_time_h"): 10**400},
                                   "constraint", "upstream.repair_time_h"),
    "tolerance": ("case3", {("simulation", "tolerance"): 0.0},
                  "constraint", "simulation.tolerance"),
    "p_islanding": ("case3", {("simulation", "p_islanding"): 1.5},
                    "constraint", "simulation.p_islanding"),
    "max_years": ("case3", {("simulation", "max_years"): 0},
                  "constraint", "simulation.max_years"),
    "dispatch": ("case3", {("simulation", "dispatch"): "greedy"},
                 "constraint", "simulation.dispatch"),
    "sweep_p": ("case3", {("simulation", "sweep_p"): [1.0, 1.5]},
                "constraint", "simulation.sweep_p"),
    "load_factor_count": ("case3", {("load_factors",): [1.0] * 100},
                          "constraint", "load_factors"),
    "negative_load_factor": ("case3", {("load_factors",): [1.0] * 364 + [-0.5]},
                             "constraint", "load_factors"),
    "negative_customers": ("case3", {("loads", 0, "customers"): -3},
                           "constraint", "loads.0"),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejections_are_scenario_errors_at_their_path(case3_doc, topology_doc, name):
    base, edits, code, prefix = REJECTIONS[name]
    doc = copy.deepcopy(case3_doc if base == "case3" else topology_doc)
    for path, value in edits.items():
        if value is _DELETE:
            target = doc
            for key in path[:-1]:
                target = target[key]
            del target[path[-1]]
        else:
            _set_path(doc, path, value)
    with pytest.raises(ScenarioError) as err:
        _parse_mutated(doc)
    assert err.value.code == code
    assert err.value.path.startswith(prefix)
    assert err.value.reason


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def case1_report(cases):
    result = engine.run(cases["case1"])
    return build_report(result, cases["case1"])


def test_case1_delimited_system_row_matches_published_table(case1_report):
    text = emit_report(case1_report, "delimited")
    lines = text.splitlines()
    system_at = lines.index("[system]")
    assert lines[system_at + 1] == "saifi,saidi,caidi,ens_kwh,aens_kwh"
    assert lines[system_at + 2] == "0.721,7.624,10.57,42381,60.544"


def test_case1_delimited_load_point_rows(case1_report):
    text = emit_report(case1_report, "delimited")
    assert "LP2,0.726,11.042,8.017" in text
    assert "LP3,0.726,10.823,7.858" in text
    assert "LP4,0.726,10.093,7.328" in text
    assert "LP9,0.656,10.554,6.924" in text


def test_sensitivity_block_omitted_when_empty(case1_report):
    assert "[sensitivity]" not in emit_report(case1_report, "delimited")
    assert parse_report(emit_report(case1_report, "delimited")).sensitivity == ()
    payload = json.loads(emit_report(case1_report, "structured"))
    assert payload["sensitivity"] == []


def test_structured_report_round_trip_is_exact(case1_report):
    text = emit_report(case1_report, "structured")
    assert parse_report(text) == case1_report


def test_delimited_report_round_trip_is_idempotent(case1_report):
    text = emit_report(case1_report, "delimited")
    reparsed = parse_report(text)
    assert emit_report(reparsed, "delimited") == text
    assert reparsed.scenario_name == case1_report.scenario_name
    assert reparsed.seed == case1_report.seed
    assert reparsed.converged == case1_report.converged


def test_report_with_sensitivity_round_trips(cases):
    sweep = engine.sensitivity_sweep(cases["sweep"], [1.0, 0.5, 0.0])
    report = build_report(sweep.base, cases["sweep"], sweep_rows=sweep.rows)
    structured = emit_report(report, "structured")
    assert parse_report(structured) == report
    delimited = emit_report(report, "delimited")
    assert "[sensitivity]" in delimited
    assert emit_report(parse_report(delimited), "delimited") == delimited


def test_emit_report_rejects_unknown_format(case1_report):
    with pytest.raises(ValueError):
        emit_report(case1_report, "xml")


def test_report_emission_is_deterministic(case1_report):
    assert emit_report(case1_report, "delimited") == emit_report(case1_report, "delimited")
    assert emit_report(case1_report, "structured") == emit_report(case1_report, "structured")


def test_build_report_embeds_provenance(cases, case1_report):
    assert case1_report.seed == cases["case1"].seed
    assert case1_report.years_run == 1
    assert case1_report.converged is True
    assert case1_report.version


@pytest.mark.parametrize("field, factor, message", [
    ("caidi", 1.01, r"CAIDI \* SAIFI"), ("aens", 1.01, r"AENS \* total customers")])
def test_build_report_rejects_inconsistent_system_indices(cases, field, factor, message):
    result = engine.run(cases["case1"])
    system = dataclasses.replace(result.system,
                                 **{field: getattr(result.system, field) * factor})
    with pytest.raises(ValueError, match=message):
        build_report(dataclasses.replace(result, system=system), cases["case1"])


@pytest.mark.parametrize("block", ["meta", "load_points", "system"])
def test_delimited_report_missing_a_block_is_rejected(case1_report, block):
    chunks = emit_report(case1_report, "delimited").split("\n\n")
    text = "\n\n".join(chunk for chunk in chunks if not chunk.startswith(f"[{block}]"))
    with pytest.raises(ValueError, match=re.escape(f"report is missing its [{block}] block")):
        parse_report(text)


@pytest.mark.parametrize("fmt", ["delimited", "structured"])
def test_report_missing_a_meta_key_names_it(case1_report, fmt):
    text = emit_report(case1_report, fmt)
    if fmt == "delimited":
        assert "\nseed,1\n" in text
        text = text.replace("\nseed,1\n", "\n")
    else:
        payload = json.loads(text)
        del payload["seed"]
        text = json.dumps(payload)
    with pytest.raises(ValueError, match=re.escape("report's [meta] block has no 'seed'")):
        parse_report(text)


@pytest.mark.parametrize("fmt", ["delimited", "structured"])
def test_report_with_a_misspelt_column_names_it(case1_report, fmt):
    text = emit_report(case1_report, fmt)
    assert text.count("lambda_per_yr") >= 1
    text = text.replace("lambda_per_yr", "lambda_per_year")
    with pytest.raises(ValueError,
                       match=re.escape("report's [load_points] block has no 'lambda_per_yr'")):
        parse_report(text)


def test_structured_report_missing_a_block_is_rejected(case1_report):
    payload = json.loads(emit_report(case1_report, "structured"))
    del payload["system"]
    with pytest.raises(ValueError, match=re.escape("report is missing its [system] block")):
        parse_report(json.dumps(payload))


def test_delimited_report_rows_before_any_block_header_are_rejected(case1_report):
    text = "scenario,case1\n" + emit_report(case1_report, "delimited")
    with pytest.raises(ValueError, match="report rows found before any block header"):
        parse_report(text)


# Text that breaks a naively split CSV row: a comma, a quote, line breaks and
# a line that reads like a block header.
AWKWARD_TEXT = ['case1, "feeder A"\nnorth', 'bus 7,\r\n[system]\n"', '[meta]\r"x",y']


@pytest.mark.parametrize("text", AWKWARD_TEXT)
def test_report_text_with_commas_quotes_and_line_breaks_round_trips(text):
    doc = yaml.safe_load(bundled_scenario_path("case1").read_text())
    doc["meta"]["name"] = text
    lp_id = text + " LP2"
    doc["loads"][0]["id"] = doc["network"]["aggregate"][0]["load_point"] = lp_id
    doc["priority"] = [lp_id if item == "LP2" else item for item in doc["priority"]]
    scenario = parse_scenario(yaml.safe_dump(doc))
    report = build_report(engine.run(scenario), scenario)
    assert report.scenario_name == text and report.load_point_rows[0][0] == lp_id

    structured = emit_report(report, "structured")
    assert parse_report(structured) == report
    delimited = emit_report(report, "delimited")
    reparsed = parse_report(delimited)
    assert reparsed.scenario_name == text
    assert [row[0] for row in reparsed.load_point_rows] == [lp_id, "LP3", "LP4", "LP9"]
    assert emit_report(reparsed, "delimited") == delimited


# The reports of every bundled study, and of case3_twelve below, at its own
# seed and default convergence, as the CLI wrote them (`microrel run|sweep
# SCENARIO [--format structured]`).  A change to any of them breaks ROADMAP
# rule (c) and must be explained in CHANGES.md.
GOLDEN_REPORTS = Path(__file__).parent / "data" / "reports"


def _twelve_load_case3(case3_doc):
    """case3 with eight more load points after its four in priority, more
    than any bundled network has."""
    return _parse_mutated(twelve_load_doc(case3_doc))


def twelve_load_doc(case3_doc):
    """The scenario document of ``_twelve_load_case3``."""
    doc = copy.deepcopy(case3_doc)
    doc["meta"]["name"] = "case3_twelve"
    for j, level in enumerate([300.0, 120.0, 450.0, 80.0, 250.0, 60.0, 200.0, 150.0]):
        lp_id = f"LP{11 + j}"
        doc["loads"].append({"id": lp_id, "level_kw": level, "customers": 20 + 10 * j,
                             "priority": 5 + j, "class": "residential"})
        doc["network"]["aggregate"].append({"load_point": lp_id, "sum_lambda_per_yr": 0.2,
                                            "sum_lambda_r_h_per_yr": 2.0 + 0.1 * j})
        doc["priority"].append(lp_id)
    return doc


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", ["case1", "case2", "case3", "case4", "sweep",
                                  "topology", "case3_twelve"])
def test_bundled_reports_match_the_goldens_byte_for_byte(cases, case3_doc, name, workers):
    scenario = _twelve_load_case3(case3_doc) if name == "case3_twelve" else cases[name]
    if scenario.sweep_p is None:
        report = build_report(engine.run(scenario, workers=workers), scenario)
    else:
        sweep = engine.sensitivity_sweep(scenario, list(scenario.sweep_p), workers=workers)
        report = build_report(sweep.base, scenario, sweep_rows=sweep.rows)
    for fmt, suffix in (("delimited", "csv"), ("structured", "json")):
        golden = (GOLDEN_REPORTS / f"{name}.{suffix}").read_bytes()
        assert emit_report(report, fmt).encode() == golden, f"{name}.{suffix}"

