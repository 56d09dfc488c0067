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

from .engine import DISPATCH_SERVE_IF_FITS, RunResult, Scenario, SystemIndices
from .network import (
    MODE_AGGREGATE,
    MODE_TOPOLOGY,
    ComponentReliability,
    FeederSection,
    LoadPoint,
    LoadPointAggregate,
    NetworkModel,
    Switchgear,
    UpstreamLink,
)
from .res_models import (
    DAYS_PER_YEAR,
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
# Scenario schema
# ---------------------------------------------------------------------------

# One table per YAML mapping, one row per key:
#     (YAML key, kind, default or _REQUIRED, target record field)
# A kind is str (non-empty), int, float (a finite number, not a bool), bool,
# Optional[str] (a string or null), [kind] (a list of that kind), another
# table (a nested mapping), or a dict of tables keyed by the node's ``mode``.
# Value constraints are not here: each record checks its own when built.
_REQUIRED = object()

_META = (
    ("name", str, _REQUIRED, "name"),
    ("seed", int, _REQUIRED, "seed"),
    ("description", str, "", "description"),
)
_WIND_REGION = (
    ("region", str, _REQUIRED, "region_id"),
    ("scale_c_m_s", float, _REQUIRED, "scale_c"),
    ("shape_k", float, _REQUIRED, "shape_k"),
)
_IRRADIANCE = (
    ("alpha", float, _REQUIRED, "alpha"),
    ("beta", float, _REQUIRED, "beta"),
    ("scale_gmax_w_m2", float, 1000.0, "scale_gmax"),
    ("shared_sample", bool, True, "shared_irradiance"),
)
_TURBINE = (
    ("name", str, _REQUIRED, "name"),
    ("location", str, _REQUIRED, "location"),
    ("region", str, _REQUIRED, "region_id"),
    ("rated_kw", float, _REQUIRED, "p_rated"),
    ("rated_speed_m_s", float, _REQUIRED, "v_rated"),
    ("cut_in_m_s", float, _REQUIRED, "v_cut_in"),
    ("cut_out_m_s", float, _REQUIRED, "v_cut_out"),
)
_PV_ARRAY = (
    ("name", str, _REQUIRED, "name"),
    ("location", str, _REQUIRED, "location"),
    ("rated_kw", float, _REQUIRED, "p_sn"),
    ("std_irradiance_w_m2", float, 1000.0, "g_std"),
    ("breakpoint_w_m2", float, 150.0, "r_c"),
)
_AGGREGATE_ROW = (
    ("load_point", str, _REQUIRED, "load_point"),
    ("sum_lambda_per_yr", float, _REQUIRED, "sum_lambda"),
    ("sum_lambda_r_h_per_yr", float, _REQUIRED, "sum_lambda_r"),
)
_RELIABILITY = (
    ("failure_rate_per_yr", float, _REQUIRED, "failure_rate"),
    ("repair_time_h", float, _REQUIRED, "repair_time"),
)
_SECTION = (("id", str, _REQUIRED, "id"),) + _RELIABILITY + (
    ("parent", Optional[str], _REQUIRED, "parent"),
    ("isolator_upstream", bool, False, "isolator_upstream"),
    ("isolator_downstream", bool, False, "isolator_downstream"),
    ("load_points", [str], (), "load_points"),
)
_SWITCHGEAR = (
    ("kind", str, _REQUIRED, "kind"),
    ("switching_time_h", float, _REQUIRED, "switching_time"),
    ("at_section", str, None, "at_section"),
)
_LOAD = (
    ("id", str, _REQUIRED, "id"),
    ("level_kw", float, _REQUIRED, "load_level"),
    ("customers", int, _REQUIRED, "customers"),
    ("priority", int, _REQUIRED, "priority_rank"),
    ("class", str, "", "customer_class"),
)
_SIMULATION = (
    ("max_years", int, 100_000, "max_years"),
    ("tolerance", float, 0.005, "tolerance"),
    ("p_islanding", float, 1.0, "p_islanding"),
    ("dispatch", str, DISPATCH_SERVE_IF_FITS, "dispatch"),
    ("sweep_p", [float], None, "sweep_p"),
)
_DOCUMENT = (
    ("meta", _META, _REQUIRED, "meta"),
    ("distributions", (
        ("wind_regions", [_WIND_REGION], (), "wind_regions"),
        ("irradiance", _IRRADIANCE, _REQUIRED, "irradiance"),
    ), _REQUIRED, "distributions"),
    ("fleet", (
        ("wind_turbines", [_TURBINE], (), "wind_turbines"),
        ("pv_arrays", [_PV_ARRAY], (), "pv_arrays"),
    ), _REQUIRED, "fleet"),
    ("network", {
        MODE_AGGREGATE: (
            ("mode", str, _REQUIRED, "mode"),
            ("aggregate", [_AGGREGATE_ROW], _REQUIRED, "aggregates"),
        ),
        MODE_TOPOLOGY: (
            ("mode", str, _REQUIRED, "mode"),
            ("sections", [_SECTION], _REQUIRED, "sections"),
            ("switchgear", [_SWITCHGEAR], _REQUIRED, "switchgear"),
        ),
    }, _REQUIRED, "network"),
    ("loads", [_LOAD], _REQUIRED, "loads"),
    ("priority", [str], _REQUIRED, "priority"),
    ("upstream", _RELIABILITY, _REQUIRED, "upstream"),
    ("simulation", _SIMULATION, _REQUIRED, "simulation"),
    ("load_factors", [float], (1.0,) * DAYS_PER_YEAR, "load_factors"),
)

# Where each Scenario field sits in the document; Scenario's checks name
# the field they reject first.
_SCENARIO_PATHS = {
    "fleet": "fleet",
    "load_factors": "load_factors",
    **{target: f"{section}.{key}"
       for section, table in (("meta", _META), ("simulation", _SIMULATION))
       for key, _, _, target in table},
}

# A scalar kind: the types its values may have (a bool is only a bool), and
# its name in errors.
_SCALARS = {
    str: (str, "a non-empty string"),
    Optional[str]: ((str, type(None)), "a string or null"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "a boolean"),
}


def _read(node: Any, kind: Any, path: str) -> Any:
    """Check ``node`` against ``kind``; its value with defaults filled in.

    A table reads as a dict keyed by target field, a list as a tuple.
    """
    if isinstance(kind, (tuple, dict)):
        if not isinstance(node, dict):
            raise SchemaError(path, f"expected a mapping, got {type(node).__name__}")
        if isinstance(kind, dict):
            mode = node.get("mode")
            if not isinstance(mode, str) or mode not in kind:
                raise SchemaError(f"{path}.mode", f"must be one of {sorted(kind)}")
            kind = kind[mode]
        unknown = set(node).difference(row[0] for row in kind)
        if unknown:
            raise SchemaError(path, f"unknown keys {sorted(unknown, key=str)}")
        missing = [key for key, _, default, _ in kind
                   if default is _REQUIRED and key not in node]
        if missing:
            raise SchemaError(path, f"missing required keys {missing}")
        prefix = f"{path}." if path else ""
        return {target: _read(node[key], sub, prefix + key) if key in node else default
                for key, sub, default, target in kind}
    if isinstance(kind, list):
        if not isinstance(node, list):
            raise SchemaError(path, f"expected a list, got {type(node).__name__}")
        return tuple(_read(item, kind[0], f"{path}.{i}") for i, item in enumerate(node))
    types, expected = _SCALARS[kind]
    if not isinstance(node, types) or (isinstance(node, bool) and kind is not bool) \
            or node == "":
        raise SchemaError(path, f"expected {expected}, got {node!r}")
    if kind is not float:
        return node
    try:
        number = float(node)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConstraintError(path, "must be finite")
    return number


def _write(value: Any, kind: Any) -> Any:
    """The YAML form of ``value`` (read as by _read); defaults are left out."""
    if isinstance(kind, dict):
        kind = kind[value["mode"]]
    if isinstance(kind, tuple):
        return {key: _write(value[target], sub) for key, sub, default, target in kind
                if default is _REQUIRED or value[target] != default}
    if isinstance(kind, list):
        return [_write(item, kind[0]) for item in value]
    return value


def _build(path: str, record: Any, fields: Mapping[str, Any], label: str = "",
           field_paths: Optional[Mapping[str, str]] = None) -> Any:
    """``record(**fields)``; its ValueError, TopologyError too, becomes a
    ConstraintError at ``path``, or at the one ``field_paths`` gives for the
    field the message starts with.  ``label`` prefixes the reason."""
    try:
        return record(**fields)
    except ValueError as exc:
        reason = str(exc)
        path = (field_paths or {}).get(reason.partition(" ")[0], path)
        raise ConstraintError(path, label + reason) from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises only :class:`ScenarioError` subclasses, each naming the offending
    path: for any syntax problem, schema violation, dangling reference or
    constraint violation.  Unknown keys are rejected everywhere.
    """
    try:
        document = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioSyntaxError("", "not valid YAML: " + " ".join(str(exc).split())) from exc
    if not isinstance(document, dict):
        raise ScenarioSyntaxError("", "top level must be a mapping")
    doc = _read(document, _DOCUMENT, "")

    regions: dict[str, WeibullParams] = {}
    for i, row in enumerate(doc["distributions"]["wind_regions"]):
        path = f"distributions.wind_regions.{i}"
        if row["region_id"] in regions:
            raise ConstraintError(path, f"duplicate region {row['region_id']!r}")
        regions[row["region_id"]] = _build(path, WeibullParams, row)
    irradiance = doc["distributions"]["irradiance"]
    shared = irradiance.pop("shared_irradiance")
    distributions = ResourceDistributions(
        regions, _build("distributions.irradiance", BetaParams, irradiance), shared
    )

    fleet = []
    for group, device in (("wind_turbines", WindTurbineSpec), ("pv_arrays", PvArraySpec)):
        for i, row in enumerate(doc["fleet"][group]):
            path = f"fleet.{group}.{i}"
            name, location = row.pop("name"), row.pop("location")
            if "region_id" in row and row["region_id"] not in regions:
                raise DanglingReferenceError(
                    f"{path}.region",
                    f"turbine {name!r} references unknown region {row['region_id']!r}",
                )
            fleet.append(DgUnit(name, location, _build(path, device, row, f"unit {name!r}: ")))

    loads = tuple(_build(f"loads.{i}", LoadPoint, row) for i, row in enumerate(doc["loads"]))
    net = doc["network"]
    parts: dict[str, Any] = {
        "load_points": loads, "upstream": _build("upstream", UpstreamLink, doc["upstream"]),
    }
    if net["mode"] == MODE_AGGREGATE:
        lp_ids = {lp.id for lp in loads}
        aggregates = parts["aggregates"] = {}
        for i, row in enumerate(net["aggregates"]):
            path = f"network.aggregate.{i}"
            lp_id = row.pop("load_point")
            if lp_id not in lp_ids:
                raise DanglingReferenceError(f"{path}.load_point", f"unknown load point {lp_id!r}")
            if lp_id in aggregates:
                raise ConstraintError(path, f"duplicate aggregate row for {lp_id!r}")
            aggregates[lp_id] = _build(path, LoadPointAggregate, row)
    else:
        sections = []
        for i, row in enumerate(net["sections"]):
            path = f"network.sections.{i}"
            reliability = {key: row.pop(key) for key in ("failure_rate", "repair_time")}
            row["reliability"] = _build(path, ComponentReliability, reliability)
            sections.append(_build(path, FeederSection, row))
        parts["sections"] = tuple(sections)
        parts["switchgear"] = tuple(_build(f"network.switchgear.{i}", Switchgear, row)
                                    for i, row in enumerate(net["switchgear"]))
    network = _build("network", NetworkModel, parts)

    order, expected = doc["priority"], network.priority_order()
    for i, lp_id in enumerate(order):
        if lp_id not in expected:
            raise DanglingReferenceError(f"priority.{i}", f"unknown load point {lp_id!r}")
    missing = sorted(set(expected).difference(order))
    if missing:
        raise DanglingReferenceError("priority", f"missing load points {missing}")
    if order != expected:
        raise ConstraintError("priority",
                              f"order {list(order)} contradicts the ranks {list(expected)}")

    return _build("", Scenario, {
        **doc["meta"], **doc["simulation"], "load_factors": doc["load_factors"],
        "network": network, "distributions": distributions, "fleet": tuple(fleet),
    }, field_paths=_SCENARIO_PATHS)


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to its YAML document form."""
    dists, net = scenario.distributions, scenario.network
    units = [{**vars(unit), **vars(unit.device)} for unit in scenario.fleet]
    document = {
        "meta": vars(scenario),
        "distributions": {
            "wind_regions": [{**vars(params), "region_id": region}
                             for region, params in sorted(dists.wind_regions.items())],
            "irradiance": {**vars(dists.irradiance),
                           "shared_irradiance": dists.shared_irradiance},
        },
        "fleet": {
            "wind_turbines": [unit for unit in units if "v_rated" in unit],
            "pv_arrays": [unit for unit in units if "p_sn" in unit],
        },
        "network": {
            "mode": net.mode,
            "aggregates": [{"load_point": lp.id, **vars(net.aggregates[lp.id])}
                           for lp in net.load_points] if net.aggregates else (),
            "sections": [{**vars(sec), **vars(sec.reliability)} for sec in net.sections],
            "switchgear": [vars(sw) for sw in net.switchgear],
        },
        "loads": [vars(lp) for lp in net.load_points],
        "priority": net.priority_order(),
        "upstream": vars(net.upstream),
        "simulation": vars(scenario),
        "load_factors": scenario.load_factors,
    }
    return yaml.safe_dump(_write(document, _DOCUMENT), sort_keys=False,
                          default_flow_style=False)


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
