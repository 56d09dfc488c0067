"""Scenario-file parsing, bundled study cases, and report serialization.

Scenario files are YAML documents with a fixed section layout (meta,
distributions, fleet, network, loads, priority, upstream, simulation and an
optional load_factors list).  The schema is strict: unknown keys, wrong
types, dangling references and constraint violations are all rejected with
distinct, machine-readable errors that name the offending path.

Reports are emitted in two formats with identical content: ``delimited``
(CSV blocks whose numeric precision mirrors conventional reliability tables)
and ``structured`` (JSON at full precision, exactly round-trippable).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Any, Mapping, Optional, Sequence

import yaml

from . import engine
from .engine import RunResult, Scenario, SystemIndices
from .network import (
    FeederSection,
    ComponentReliability,
    LoadPoint,
    LoadPointAggregate,
    NetworkModel,
    Switchgear,
    UpstreamLink,
)
from .res_models import (
    BetaParams,
    DgUnit,
    PvArraySpec,
    ResourceDistributions,
    WeibullParams,
    WindTurbineSpec,
)

__all__ = [
    "ScenarioError",
    "ScenarioSyntaxError",
    "SchemaError",
    "DanglingReferenceError",
    "ConstraintError",
    "ReportDocument",
    "parse_scenario",
    "emit_scenario",
    "build_report",
    "emit_report",
    "parse_report",
    "bundled_scenarios",
    "bundled_scenario_path",
    "ARTIFACT_VERSION",
]

ARTIFACT_VERSION = "0.1.0"

FORMAT_DELIMITED = "delimited"
FORMAT_STRUCTURED = "structured"
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's is ~7x faster


class ScenarioError(ValueError):
    """Base class for scenario-file problems.

    ``path`` locates the offending node ("section.0.id" style) and ``code``
    is a stable machine-readable discriminator.
    """

    code = "scenario_error"

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path = path
        self.reason = reason


class ScenarioSyntaxError(ScenarioError):
    """The document is not parseable YAML (or not a mapping at top level)."""

    code = "syntax"


class SchemaError(ScenarioError):
    """A required key is missing, a key is unknown, or a type is wrong."""

    code = "schema"


class DanglingReferenceError(ScenarioError):
    """An id is referenced but never defined."""

    code = "dangling_reference"


class ConstraintError(ScenarioError):
    """A value violates a domain constraint."""

    code = "constraint"


# ---------------------------------------------------------------------------
# Schema helpers
# ---------------------------------------------------------------------------

def _require_mapping(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _require_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise SchemaError(path, f"expected a list, got {type(node).__name__}")
    return node


def _check_keys(mapping: dict, path: str, required: Sequence[str],
                optional: Sequence[str] = ()) -> None:
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in mapping]
    if missing:
        raise SchemaError(path, f"missing required keys {missing}")


def _get_str(mapping: dict, key: str, path: str) -> str:
    value = mapping[key]
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}.{key}", "expected a non-empty string")
    return value


def _get_bool(mapping: dict, key: str, path: str) -> bool:
    value = mapping[key]
    if not isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "expected a boolean")
    return value


def _get_int(mapping: dict, key: str, path: str, minimum: Optional[int] = None) -> int:
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConstraintError(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _get_number(mapping: dict, key: str, path: str,
                minimum: Optional[float] = None,
                exclusive_minimum: Optional[float] = None,
                maximum: Optional[float] = None) -> float:
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConstraintError(f"{path}.{key}", "must be finite")
    if minimum is not None and number < minimum:
        raise ConstraintError(f"{path}.{key}", f"must be >= {minimum}, got {number}")
    if exclusive_minimum is not None and number <= exclusive_minimum:
        raise ConstraintError(
            f"{path}.{key}", f"must be > {exclusive_minimum}, got {number}"
        )
    if maximum is not None and number > maximum:
        raise ConstraintError(f"{path}.{key}", f"must be <= {maximum}, got {number}")
    return number


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------

def _parse_distributions(node: Any) -> ResourceDistributions:
    mapping = _require_mapping(node, "distributions")
    _check_keys(mapping, "distributions", required=["irradiance"],
                optional=["wind_regions"])
    regions: dict[str, WeibullParams] = {}
    for i, item in enumerate(_require_list(mapping.get("wind_regions", []),
                                           "distributions.wind_regions")):
        path = f"distributions.wind_regions.{i}"
        entry = _require_mapping(item, path)
        _check_keys(entry, path, required=["region", "scale_c_m_s", "shape_k"])
        region = _get_str(entry, "region", path)
        if region in regions:
            raise ConstraintError(path, f"duplicate region {region!r}")
        regions[region] = WeibullParams(
            scale_c=_get_number(entry, "scale_c_m_s", path, exclusive_minimum=0.0),
            shape_k=_get_number(entry, "shape_k", path, exclusive_minimum=0.0),
            region_id=region,
        )
    irr_path = "distributions.irradiance"
    irr = _require_mapping(mapping["irradiance"], irr_path)
    _check_keys(irr, irr_path, required=["alpha", "beta"],
                optional=["scale_gmax_w_m2", "shared_sample"])
    beta_params = BetaParams(
        alpha=_get_number(irr, "alpha", irr_path, exclusive_minimum=0.0),
        beta=_get_number(irr, "beta", irr_path, exclusive_minimum=0.0),
        scale_gmax=(
            _get_number(irr, "scale_gmax_w_m2", irr_path, exclusive_minimum=0.0)
            if "scale_gmax_w_m2" in irr else 1000.0
        ),
    )
    shared = _get_bool(irr, "shared_sample", irr_path) if "shared_sample" in irr else True
    return ResourceDistributions(wind_regions=regions, irradiance=beta_params,
                                 shared_irradiance=shared)


def _parse_fleet(node: Any, regions: Mapping[str, WeibullParams]) -> tuple[DgUnit, ...]:
    mapping = _require_mapping(node, "fleet")
    _check_keys(mapping, "fleet", required=[], optional=["wind_turbines", "pv_arrays"])
    units: list[DgUnit] = []
    for i, item in enumerate(_require_list(mapping.get("wind_turbines", []),
                                           "fleet.wind_turbines")):
        path = f"fleet.wind_turbines.{i}"
        entry = _require_mapping(item, path)
        _check_keys(entry, path, required=[
            "name", "location", "region", "rated_kw", "rated_speed_m_s",
            "cut_in_m_s", "cut_out_m_s",
        ])
        name = _get_str(entry, "name", path)
        region = _get_str(entry, "region", path)
        if region not in regions:
            raise DanglingReferenceError(
                f"{path}.region", f"turbine {name!r} references unknown region {region!r}"
            )
        cut_in = _get_number(entry, "cut_in_m_s", path, exclusive_minimum=0.0)
        rated_speed = _get_number(entry, "rated_speed_m_s", path, exclusive_minimum=0.0)
        cut_out = _get_number(entry, "cut_out_m_s", path, exclusive_minimum=0.0)
        if not cut_in < rated_speed < cut_out:
            raise ConstraintError(
                path,
                f"turbine {name!r} needs cut_in < rated_speed < cut_out, got "
                f"{cut_in} / {rated_speed} / {cut_out}",
            )
        units.append(DgUnit(
            name=name,
            location=_get_str(entry, "location", path),
            device=WindTurbineSpec(
                p_rated=_get_number(entry, "rated_kw", path, exclusive_minimum=0.0),
                v_rated=rated_speed,
                v_cut_in=cut_in,
                v_cut_out=cut_out,
                region_id=region,
            ),
        ))
    for i, item in enumerate(_require_list(mapping.get("pv_arrays", []),
                                           "fleet.pv_arrays")):
        path = f"fleet.pv_arrays.{i}"
        entry = _require_mapping(item, path)
        _check_keys(entry, path, required=["name", "location", "rated_kw"],
                    optional=["std_irradiance_w_m2", "breakpoint_w_m2"])
        name = _get_str(entry, "name", path)
        g_std = (_get_number(entry, "std_irradiance_w_m2", path, exclusive_minimum=0.0)
                 if "std_irradiance_w_m2" in entry else 1000.0)
        r_c = (_get_number(entry, "breakpoint_w_m2", path, exclusive_minimum=0.0)
               if "breakpoint_w_m2" in entry else 150.0)
        if not r_c < g_std:
            raise ConstraintError(
                path, f"array {name!r} needs breakpoint_w_m2 < std_irradiance_w_m2"
            )
        units.append(DgUnit(
            name=name,
            location=_get_str(entry, "location", path),
            device=PvArraySpec(
                p_sn=_get_number(entry, "rated_kw", path, exclusive_minimum=0.0),
                g_std=g_std,
                r_c=r_c,
            ),
        ))
    names = [unit.name for unit in units]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise ConstraintError("fleet", f"duplicate unit names {sorted(duplicates)}")
    return tuple(units)


def _parse_loads(node: Any) -> tuple[LoadPoint, ...]:
    loads = []
    for i, item in enumerate(_require_list(node, "loads")):
        path = f"loads.{i}"
        entry = _require_mapping(item, path)
        _check_keys(entry, path, required=["id", "level_kw", "customers", "priority"],
                    optional=["class"])
        loads.append(LoadPoint(
            id=_get_str(entry, "id", path),
            load_level=_get_number(entry, "level_kw", path, minimum=0.0),
            customers=_get_int(entry, "customers", path, minimum=0),
            priority_rank=_get_int(entry, "priority", path, minimum=1),
            customer_class=_get_str(entry, "class", path) if "class" in entry else "",
        ))
    ids = [lp.id for lp in loads]
    if len(set(ids)) != len(ids):
        raise ConstraintError("loads", "load point ids must be unique")
    ranks = [lp.priority_rank for lp in loads]
    if len(set(ranks)) != len(ranks):
        raise ConstraintError("loads", "priority ranks must be unique")
    return tuple(loads)


def _parse_priority(node: Any, loads: Sequence[LoadPoint]) -> None:
    order = _require_list(node, "priority")
    for i, lp_id in enumerate(order):
        if not isinstance(lp_id, str):
            raise SchemaError(f"priority.{i}", "expected a load point id string")
    by_id = {lp.id: lp for lp in loads}
    for i, lp_id in enumerate(order):
        if lp_id not in by_id:
            raise DanglingReferenceError(
                f"priority.{i}", f"priority list names unknown load point {lp_id!r}"
            )
    missing = set(by_id) - set(order)
    if missing:
        raise DanglingReferenceError(
            "priority", f"priority list is missing load points {sorted(missing)}"
        )
    expected = [lp.id for lp in sorted(loads, key=lambda lp: lp.priority_rank)]
    if list(order) != expected:
        raise ConstraintError(
            "priority",
            f"priority list order {order} contradicts the load ranks {expected}",
        )


def _parse_network(node: Any, loads: tuple[LoadPoint, ...],
                   upstream: UpstreamLink) -> NetworkModel:
    mapping = _require_mapping(node, "network")
    mode = _get_str(mapping, "mode", "network") if "mode" in mapping else None
    if mode == "aggregate":
        _check_keys(mapping, "network", required=["mode", "aggregate"])
        aggregates: dict[str, LoadPointAggregate] = {}
        lp_ids = {lp.id for lp in loads}
        for i, item in enumerate(_require_list(mapping["aggregate"], "network.aggregate")):
            path = f"network.aggregate.{i}"
            entry = _require_mapping(item, path)
            _check_keys(entry, path, required=[
                "load_point", "sum_lambda_per_yr", "sum_lambda_r_h_per_yr",
            ])
            lp_id = _get_str(entry, "load_point", path)
            if lp_id not in lp_ids:
                raise DanglingReferenceError(
                    f"{path}.load_point", f"unknown load point {lp_id!r}"
                )
            if lp_id in aggregates:
                raise ConstraintError(path, f"duplicate aggregate row for {lp_id!r}")
            aggregates[lp_id] = LoadPointAggregate(
                sum_lambda=_get_number(entry, "sum_lambda_per_yr", path, minimum=0.0),
                sum_lambda_r=_get_number(entry, "sum_lambda_r_h_per_yr", path, minimum=0.0),
            )
        missing = lp_ids - set(aggregates)
        if missing:
            raise ConstraintError(
                "network.aggregate", f"missing rows for load points {sorted(missing)}"
            )
        return NetworkModel(load_points=loads, upstream=upstream, aggregates=aggregates)
    if mode == "topology":
        _check_keys(mapping, "network", required=["mode", "sections", "switchgear"])
        sections = []
        for i, item in enumerate(_require_list(mapping["sections"], "network.sections")):
            path = f"network.sections.{i}"
            entry = _require_mapping(item, path)
            _check_keys(entry, path, required=[
                "id", "failure_rate_per_yr", "repair_time_h", "parent",
            ], optional=["isolator_upstream", "isolator_downstream", "load_points"])
            parent = entry["parent"]
            if parent is not None and not isinstance(parent, str):
                raise SchemaError(f"{path}.parent", "expected a section id or null")
            lp_list = entry.get("load_points", [])
            for j, lp_id in enumerate(_require_list(lp_list, f"{path}.load_points")):
                if not isinstance(lp_id, str):
                    raise SchemaError(f"{path}.load_points.{j}", "expected an id string")
            sections.append(FeederSection(
                id=_get_str(entry, "id", path),
                reliability=ComponentReliability(
                    failure_rate=_get_number(entry, "failure_rate_per_yr", path, minimum=0.0),
                    repair_time=_get_number(entry, "repair_time_h", path, minimum=0.0),
                ),
                parent=parent,
                isolator_upstream=(
                    _get_bool(entry, "isolator_upstream", path)
                    if "isolator_upstream" in entry else False
                ),
                isolator_downstream=(
                    _get_bool(entry, "isolator_downstream", path)
                    if "isolator_downstream" in entry else False
                ),
                load_points=tuple(lp_list),
            ))
        switchgear = []
        for i, item in enumerate(_require_list(mapping["switchgear"], "network.switchgear")):
            path = f"network.switchgear.{i}"
            entry = _require_mapping(item, path)
            _check_keys(entry, path, required=["kind", "switching_time_h"],
                        optional=["at_section"])
            switchgear.append(Switchgear(
                kind=_get_str(entry, "kind", path),
                switching_time=_get_number(entry, "switching_time_h", path, minimum=0.0),
                at_section=(_get_str(entry, "at_section", path)
                            if "at_section" in entry else None),
            ))
        return NetworkModel(load_points=loads, upstream=upstream,
                            sections=tuple(sections), switchgear=tuple(switchgear))
    raise SchemaError("network.mode", "must be 'aggregate' or 'topology'")


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises a :class:`ScenarioError` subclass naming the offending path for
    any syntax problem, schema violation, dangling reference or constraint
    violation.  Unknown keys are rejected everywhere.
    """
    try:
        document = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioSyntaxError("", "not valid YAML: " + " ".join(str(exc).split())) from exc
    if not isinstance(document, dict):
        raise ScenarioSyntaxError("", "top level must be a mapping")
    _check_keys(document, "", required=[
        "meta", "distributions", "fleet", "network", "loads", "priority",
        "upstream", "simulation",
    ], optional=["load_factors"])

    meta = _require_mapping(document["meta"], "meta")
    _check_keys(meta, "meta", required=["name", "seed"], optional=["description"])
    name = _get_str(meta, "name", "meta")
    seed = _get_int(meta, "seed", "meta", minimum=0)
    description = _get_str(meta, "description", "meta") if "description" in meta else ""

    distributions = _parse_distributions(document["distributions"])
    fleet = _parse_fleet(document["fleet"], distributions.wind_regions)
    loads = _parse_loads(document["loads"])
    _parse_priority(document["priority"], loads)

    upstream_node = _require_mapping(document["upstream"], "upstream")
    _check_keys(upstream_node, "upstream",
                required=["failure_rate_per_yr", "repair_time_h"])
    upstream = UpstreamLink(
        failure_rate=_get_number(upstream_node, "failure_rate_per_yr", "upstream", minimum=0.0),
        repair_time=_get_number(upstream_node, "repair_time_h", "upstream", minimum=0.0),
    )

    network = _parse_network(document["network"], loads, upstream)

    sim = _require_mapping(document["simulation"], "simulation")
    _check_keys(sim, "simulation", required=[], optional=[
        "max_years", "tolerance", "p_islanding", "dispatch", "sweep_p",
    ])
    max_years = _get_int(sim, "max_years", "simulation", minimum=1) \
        if "max_years" in sim else 100_000
    tolerance = _get_number(sim, "tolerance", "simulation", exclusive_minimum=0.0) \
        if "tolerance" in sim else 0.005
    p_islanding = _get_number(sim, "p_islanding", "simulation", minimum=0.0, maximum=1.0) \
        if "p_islanding" in sim else 1.0
    dispatch = _get_str(sim, "dispatch", "simulation") if "dispatch" in sim \
        else engine.DISPATCH_SERVE_IF_FITS
    if dispatch not in (engine.DISPATCH_SERVE_IF_FITS, engine.DISPATCH_BLOCKING):
        raise ConstraintError("simulation.dispatch",
                              f"must be 'serve_if_fits' or 'blocking', got {dispatch!r}")
    sweep_p: Optional[tuple[float, ...]] = None
    if "sweep_p" in sim:
        values = _require_list(sim["sweep_p"], "simulation.sweep_p")
        parsed = []
        for i, value in enumerate(values):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"simulation.sweep_p.{i}", "expected a number")
            if not 0.0 <= float(value) <= 1.0:
                raise ConstraintError(f"simulation.sweep_p.{i}",
                                      "must lie in [0, 1]")
            parsed.append(float(value))
        sweep_p = tuple(parsed)

    load_factors: tuple[float, ...]
    if "load_factors" in document:
        values = _require_list(document["load_factors"], "load_factors")
        if len(values) != 365:
            raise ConstraintError("load_factors",
                                  f"expected 365 entries, got {len(values)}")
        parsed_factors = []
        for i, value in enumerate(values):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"load_factors.{i}", "expected a number")
            if not (float(value) >= 0.0 and math.isfinite(float(value))):
                raise ConstraintError(f"load_factors.{i}", "must be finite and >= 0")
            parsed_factors.append(float(value))
        load_factors = tuple(parsed_factors)
    else:
        load_factors = (1.0,) * 365

    try:
        return Scenario(
            name=name,
            network=network,
            distributions=distributions,
            fleet=fleet,
            seed=seed,
            load_factors=load_factors,
            p_islanding=p_islanding,
            max_years=max_years,
            tolerance=tolerance,
            dispatch=dispatch,
            sweep_p=sweep_p,
            description=description,
        )
    except ValueError as exc:  # residual domain checks not caught above
        raise ConstraintError("", str(exc)) from exc


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to its YAML document form."""
    document: dict[str, Any] = {
        "meta": {"name": scenario.name, "seed": scenario.seed},
    }
    if scenario.description:
        document["meta"]["description"] = scenario.description
    dists = scenario.distributions
    document["distributions"] = {
        "wind_regions": [
            {
                "region": region,
                "scale_c_m_s": params.scale_c,
                "shape_k": params.shape_k,
            }
            for region, params in sorted(dists.wind_regions.items())
        ],
        "irradiance": {
            "alpha": dists.irradiance.alpha,
            "beta": dists.irradiance.beta,
            "scale_gmax_w_m2": dists.irradiance.scale_gmax,
            "shared_sample": dists.shared_irradiance,
        },
    }
    turbines = []
    arrays = []
    for unit in scenario.fleet:
        if isinstance(unit.device, WindTurbineSpec):
            turbines.append({
                "name": unit.name,
                "location": unit.location,
                "region": unit.device.region_id,
                "rated_kw": unit.device.p_rated,
                "rated_speed_m_s": unit.device.v_rated,
                "cut_in_m_s": unit.device.v_cut_in,
                "cut_out_m_s": unit.device.v_cut_out,
            })
        else:
            arrays.append({
                "name": unit.name,
                "location": unit.location,
                "rated_kw": unit.device.p_sn,
                "std_irradiance_w_m2": unit.device.g_std,
                "breakpoint_w_m2": unit.device.r_c,
            })
    fleet: dict[str, Any] = {}
    if turbines:
        fleet["wind_turbines"] = turbines
    if arrays:
        fleet["pv_arrays"] = arrays
    document["fleet"] = fleet

    net = scenario.network
    if net.mode == "aggregate":
        assert net.aggregates is not None
        document["network"] = {
            "mode": "aggregate",
            "aggregate": [
                {
                    "load_point": lp.id,
                    "sum_lambda_per_yr": net.aggregates[lp.id].sum_lambda,
                    "sum_lambda_r_h_per_yr": net.aggregates[lp.id].sum_lambda_r,
                }
                for lp in net.load_points
            ],
        }
    else:
        document["network"] = {
            "mode": "topology",
            "sections": [
                {
                    "id": sec.id,
                    "failure_rate_per_yr": sec.reliability.failure_rate,
                    "repair_time_h": sec.reliability.repair_time,
                    "parent": sec.parent,
                    "isolator_upstream": sec.isolator_upstream,
                    "isolator_downstream": sec.isolator_downstream,
                    "load_points": list(sec.load_points),
                }
                for sec in net.sections
            ],
            "switchgear": [
                {
                    "kind": sw.kind,
                    "switching_time_h": sw.switching_time,
                    **({"at_section": sw.at_section} if sw.at_section else {}),
                }
                for sw in net.switchgear
            ],
        }
    document["loads"] = [
        {
            "id": lp.id,
            "level_kw": lp.load_level,
            "customers": lp.customers,
            "priority": lp.priority_rank,
            **({"class": lp.customer_class} if lp.customer_class else {}),
        }
        for lp in net.load_points
    ]
    document["priority"] = list(net.priority_order())
    document["upstream"] = {
        "failure_rate_per_yr": net.upstream.failure_rate,
        "repair_time_h": net.upstream.repair_time,
    }
    document["simulation"] = {
        "max_years": scenario.max_years,
        "tolerance": scenario.tolerance,
        "p_islanding": scenario.p_islanding,
        "dispatch": scenario.dispatch,
        **({"sweep_p": list(scenario.sweep_p)} if scenario.sweep_p is not None else {}),
    }
    if any(f != 1.0 for f in scenario.load_factors):
        document["load_factors"] = list(scenario.load_factors)
    return yaml.safe_dump(document, sort_keys=False, default_flow_style=False)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportDocument:
    """Serializable result of one study: per-load-point and system tables.

    ``load_point_rows`` holds (id, failure rate, repair time, unavailability)
    tuples; ``sensitivity`` holds (islanding probability, indices) rows.
    """

    scenario_name: str
    seed: int
    years_run: int
    converged: bool
    version: str
    load_point_rows: tuple[tuple[str, float, float, float], ...]
    system: SystemIndices
    sensitivity: tuple[tuple[float, SystemIndices], ...] = ()


def _check_identities(system: SystemIndices, n_customers: Optional[int] = None) -> None:
    if abs(system.caidi * system.saifi - system.saidi) > 1e-9 * max(1.0, system.saidi):
        raise ValueError("CAIDI * SAIFI must equal SAIDI")
    if n_customers:
        if abs(system.aens * n_customers - system.ens) > 1e-9 * max(1.0, system.ens):
            raise ValueError("AENS * total customers must equal ENS")


def build_report(result: RunResult, scenario: Scenario,
                 sweep_rows: Sequence[tuple[float, SystemIndices]] = ()) -> ReportDocument:
    """Assemble the report document for a completed run."""
    n_customers = scenario.network.total_customers
    _check_identities(result.system, n_customers)
    for _, system in sweep_rows:
        _check_identities(system, n_customers)
    rows = []
    for lp in scenario.network.load_points:
        indices = result.per_lp[lp.id]
        rows.append((lp.id, indices.failure_rate, indices.repair_time,
                     indices.unavailability))
    return ReportDocument(
        scenario_name=result.scenario_name,
        seed=result.seed,
        years_run=result.years_run,
        converged=result.converged,
        version=ARTIFACT_VERSION,
        load_point_rows=tuple(rows),
        system=result.system,
        sensitivity=tuple(sweep_rows),
    )


def _truncate(value: float, decimals: int) -> str:
    """Format with the final digits truncated toward zero, not rounded.

    Published reliability tables truncate; a guard absorbs float artifacts
    sitting within a hair of the next representable decimal.
    """
    scaled = value * 10**decimals
    floored = math.floor(scaled)
    if scaled - floored > 1.0 - 1e-6:
        floored += 1
    if decimals == 0:
        return str(int(floored))
    return f"{floored / 10**decimals:.{decimals}f}"


def _system_row(system: SystemIndices) -> str:
    return ",".join([
        _truncate(system.saifi, 3),
        _truncate(system.saidi, 3),
        _truncate(system.caidi, 2),
        _truncate(system.ens, 0),
        _truncate(system.aens, 3),
    ])


_SYSTEM_HEADER = "saifi,saidi,caidi,ens_kwh,aens_kwh"


def emit_report(report: ReportDocument, format: str = FORMAT_DELIMITED) -> str:
    """Serialize a report deterministically.

    ``delimited`` renders CSV blocks at fixed table precision (3 decimals
    for per-load-point indices, SAIFI and SAIDI, 2 for CAIDI, whole kWh for
    ENS, 3 for AENS); ``structured`` renders JSON at full precision and
    round-trips exactly through :func:`parse_report`.
    """
    if format == FORMAT_STRUCTURED:
        payload = {
            "version": report.version,
            "scenario": report.scenario_name,
            "seed": report.seed,
            "years_run": report.years_run,
            "converged": report.converged,
            "load_points": [
                {"id": lp_id, "lambda_per_yr": lam, "r_h": r, "u_h_per_yr": u}
                for lp_id, lam, r, u in report.load_point_rows
            ],
            "system": _system_payload(report.system),
            "sensitivity": [
                {"p_islanding": p, **_system_payload(system)}
                for p, system in report.sensitivity
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if format != FORMAT_DELIMITED:
        raise ValueError(f"unknown report format {format!r}")

    lines = [
        "[meta]",
        "field,value",
        f"scenario,{report.scenario_name}",
        f"seed,{report.seed}",
        f"years_run,{report.years_run}",
        f"converged,{'true' if report.converged else 'false'}",
        f"version,{report.version}",
        "",
        "[load_points]",
        "id,lambda_per_yr,r_h,u_h_per_yr",
    ]
    for lp_id, lam, r, u in report.load_point_rows:
        lines.append(
            f"{lp_id},{_truncate(lam, 3)},{_truncate(r, 3)},{_truncate(u, 3)}"
        )
    lines += ["", "[system]", _SYSTEM_HEADER, _system_row(report.system)]
    if report.sensitivity:
        lines += ["", "[sensitivity]", "p_islanding," + _SYSTEM_HEADER]
        for p, system in report.sensitivity:
            lines.append(f"{_truncate(p, 3)},{_system_row(system)}")
    return "\n".join(lines) + "\n"


def _system_payload(system: SystemIndices) -> dict[str, float]:
    return {
        "saifi": system.saifi,
        "saidi": system.saidi,
        "caidi": system.caidi,
        "ens_kwh": system.ens,
        "aens_kwh": system.aens,
    }


def _system_from_payload(payload: Mapping[str, float]) -> SystemIndices:
    return SystemIndices(
        saifi=float(payload["saifi"]),
        saidi=float(payload["saidi"]),
        caidi=float(payload["caidi"]),
        ens=float(payload["ens_kwh"]),
        aens=float(payload["aens_kwh"]),
    )


def parse_report(text: str) -> ReportDocument:
    """Parse either report format back into a document.

    Delimited reports parse at their emitted precision; structured reports
    recover the exact values.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        return ReportDocument(
            scenario_name=payload["scenario"],
            seed=int(payload["seed"]),
            years_run=int(payload["years_run"]),
            converged=bool(payload["converged"]),
            version=payload["version"],
            load_point_rows=tuple(
                (row["id"], float(row["lambda_per_yr"]), float(row["r_h"]),
                 float(row["u_h_per_yr"]))
                for row in payload["load_points"]
            ),
            system=_system_from_payload(payload["system"]),
            sensitivity=tuple(
                (float(row["p_islanding"]), _system_from_payload(row))
                for row in payload["sensitivity"]
            ),
        )

    blocks: dict[str, list[list[str]]] = {}
    current: Optional[str] = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            blocks[current] = []
            continue
        if current is None:
            raise ValueError("report rows found before any block header")
        blocks[current].append(line.split(","))
    for required in ("meta", "load_points", "system"):
        if required not in blocks:
            raise ValueError(f"report is missing its [{required}] block")

    meta = {row[0]: row[1] for row in blocks["meta"][1:]}
    lp_rows = tuple(
        (row[0], float(row[1]), float(row[2]), float(row[3]))
        for row in blocks["load_points"][1:]
    )
    system_values = [float(v) for v in blocks["system"][1]]
    system = SystemIndices(*system_values)
    sensitivity = tuple(
        (float(row[0]), SystemIndices(*(float(v) for v in row[1:])))
        for row in blocks.get("sensitivity", [None, []])[1:]
    ) if "sensitivity" in blocks else ()
    return ReportDocument(
        scenario_name=meta["scenario"],
        seed=int(meta["seed"]),
        years_run=int(meta["years_run"]),
        converged=meta["converged"] == "true",
        version=meta["version"],
        load_point_rows=lp_rows,
        system=system,
        sensitivity=sensitivity,
    )


# ---------------------------------------------------------------------------
# Bundled study cases
# ---------------------------------------------------------------------------

_BUNDLED_NAMES = ("case1", "case2", "case3", "case4", "sweep")


def bundled_scenario_path(name: str):
    """Filesystem path of a bundled scenario file (importlib resource)."""
    if name not in _BUNDLED_NAMES:
        raise KeyError(f"no bundled scenario {name!r}; have {_BUNDLED_NAMES}")
    return resources.files(__package__) / "scenarios" / f"{name}.yaml"


def bundled_scenarios() -> dict[str, Scenario]:
    """The five bundled studies on the calibrated four-load-point feeder.

    case1 has no DG fleet; case2 runs four wind turbines; case3 runs two
    wind turbines and two PV arrays; case4 is case3 with a sub-unity
    seasonal load-factor profile; sweep is case3 plus the islanding-success
    probability ladder used by the sweep subcommand.
    """
    return {
        name: parse_scenario(bundled_scenario_path(name).read_text())
        for name in _BUNDLED_NAMES
    }
