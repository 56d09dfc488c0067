"""Scenario-file and report serialization tests."""

import copy
import json

import pytest
import yaml

from microrel import engine, scenario_io
from microrel.network import load_calibrated_dataset
from microrel.res_models import PvArraySpec, WindTurbineSpec
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


def _parse_mutated(doc):
    return parse_scenario(yaml.safe_dump(doc))


# ---------------------------------------------------------------------------
# Bundled scenarios
# ---------------------------------------------------------------------------

def test_all_bundled_scenarios_parse_and_validate(cases):
    assert set(cases) == {"case1", "case2", "case3", "case4", "sweep"}


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
    net = cases["case1"].network
    reference = load_calibrated_dataset()
    assert net.load_points == reference.load_points
    assert net.upstream == reference.upstream
    assert net.aggregates == reference.aggregates


def test_unknown_bundled_name_raises():
    with pytest.raises(KeyError):
        bundled_scenario_path("case99")


# ---------------------------------------------------------------------------
# Scenario round-trip
# ---------------------------------------------------------------------------

TOPOLOGY_SCENARIO = """\
meta:
  name: topo-study
  seed: 11
distributions:
  irradiance:
    alpha: 1.03745
    beta: 1.38279
fleet: {}
network:
  mode: topology
  sections:
    - id: s1
      failure_rate_per_yr: 0.040
      repair_time_h: 30.0
      parent: null
      isolator_upstream: true
      load_points: [LP2]
    - id: s2
      failure_rate_per_yr: 0.040
      repair_time_h: 30.0
      parent: s1
      isolator_upstream: true
      load_points: [LP9]
    - id: s3
      failure_rate_per_yr: 0.036
      repair_time_h: 30.0
      parent: s2
      isolator_upstream: true
    - id: s4
      failure_rate_per_yr: 0.040
      repair_time_h: 30.0
      parent: s3
      isolator_upstream: true
      load_points: [LP3]
    - id: s5
      failure_rate_per_yr: 0.040
      repair_time_h: 30.0
      parent: s4
      load_points: [LP4]
    - id: s6
      failure_rate_per_yr: 0.030
      repair_time_h: 30.0
      parent: s5
      isolator_upstream: true
  switchgear:
    - kind: feeder_breaker
      switching_time_h: 3.5
    - kind: normally_open_tie
      switching_time_h: 3.5
      at_section: s6
loads:
  - id: LP2
    level_kw: 1000.0
    customers: 100
    priority: 4
  - id: LP3
    level_kw: 3000.0
    customers: 300
    priority: 2
  - id: LP4
    level_kw: 1000.0
    customers: 250
    priority: 3
  - id: LP9
    level_kw: 500.0
    customers: 50
    priority: 1
priority: [LP9, LP3, LP4, LP2]
upstream:
  failure_rate_per_yr: 0.5
  repair_time_h: 10.0
simulation: {}
"""


def _every_option_scenario():
    """TOPOLOGY_SCENARIO with every optional key set to a non-default value."""
    doc = yaml.safe_load(TOPOLOGY_SCENARIO)
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
                                  "every_option"])
def test_scenario_emit_parse_round_trip(cases, name):
    scenario = _every_option_scenario() if name == "every_option" else cases[name]
    text = emit_scenario(scenario)
    assert parse_scenario(text) == scenario
    if name == "every_option":
        for key in ("description", "shared_sample", "scale_gmax_w_m2",
                    "std_irradiance_w_m2", "breakpoint_w_m2", "class",
                    "isolator_downstream", "at_section", "sweep_p", "load_factors"):
            assert f"{key}:" in text


def test_topology_scenario_parses_and_round_trips():
    scenario = parse_scenario(TOPOLOGY_SCENARIO)
    assert scenario.network.mode == "topology"
    assert len(scenario.network.sections) == 6
    assert parse_scenario(emit_scenario(scenario)) == scenario


def test_topology_scenario_runs_end_to_end():
    scenario = parse_scenario(TOPOLOGY_SCENARIO)
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
@pytest.mark.parametrize("name", ["case1", "case2", "case3", "case4", "sweep"])
def test_libyaml_and_python_loaders_read_equal_scenarios(name, monkeypatch):
    text = bundled_scenario_path(name).read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == \
        yaml.load(text, Loader=yaml.SafeLoader)
    fast = parse_scenario(text)
    monkeypatch.setattr(scenario_io, "_YAML_LOADER", yaml.SafeLoader)
    assert parse_scenario(text) == fast


def test_rejects_invalid_yaml_syntax():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("{unbalanced: [")
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("- a\n- b\n")


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
    doc["fleet"]["wind_turbines"][0]["region"] = "atlantis"
    with pytest.raises(DanglingReferenceError):
        _parse_mutated(doc)


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
def test_every_single_field_corruption_is_rejected(case3_doc, base):
    # Total schema rejection: replacing any leaf with a mapping, or adding
    # an unknown key to any mapping, must produce a ScenarioError rather
    # than a silent default.
    base_doc = case3_doc if base == "case3" else yaml.safe_load(TOPOLOGY_SCENARIO)
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
def test_rejections_are_scenario_errors_at_their_path(case3_doc, name):
    base, edits, code, prefix = REJECTIONS[name]
    doc = copy.deepcopy(case3_doc if base == "case3" else yaml.safe_load(TOPOLOGY_SCENARIO))
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
