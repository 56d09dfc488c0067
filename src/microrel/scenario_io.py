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

import csv
import io
import json
import math
import re
from dataclasses import astuple, dataclass
from functools import lru_cache
from importlib import resources
from types import SimpleNamespace
from typing import Any, Mapping, Optional, Sequence

import yaml

from .engine import (
    DISPATCH_SERVE_IF_FITS,
    RunResult,
    Scenario,
    SystemIndices,
    UnknownRegionError,
)
from .network import (
    MODE_AGGREGATE,
    MODE_TOPOLOGY,
    ComponentReliability,
    FeederSection,
    LoadPoint,
    LoadPointAggregate,
    NetworkModel,
    Switchgear,
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
# PyYAML follows YAML 1.1, whose floats need a dot: it reads 5.0e-3 as a
# number but 5e-3, 2e3 and 1E+2 as strings.  Scenario files are read, and
# written, with YAML 1.2's floats too, so that a string such as "1e3" is
# written quoted.
_YAML12_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?$")
# The deepest nesting of collections a scenario file may have; the schema's
# is five.  PyYAML composes a document with one recursion per level (libyaml's
# composer overflows the C stack past ~20 000), but parses it without any.
_MAX_NESTING = 100


@lru_cache(maxsize=None)
def _with_yaml12_floats(base: type) -> type:
    """``base``, a PyYAML loader or dumper, resolving YAML 1.2 floats too;
    its own implicit types are tried first."""
    cls = type(base.__name__, (base,), {})
    cls.add_implicit_resolver("tag:yaml.org,2002:float", _YAML12_FLOAT,
                              list("-+.0123456789"))
    return cls


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
    field the message starts with.  ``label`` prefixes the reason.  A
    turbine's unknown region is a DanglingReferenceError at the turbine."""
    try:
        return record(**fields)
    except UnknownRegionError as exc:  # the parser puts wind turbines first
        raise DanglingReferenceError(f"fleet.wind_turbines.{exc.index}.region",
                                     str(exc)) from exc
    except ValueError as exc:
        reason = str(exc)
        path = (field_paths or {}).get(reason.partition(" ")[0], path)
        raise ConstraintError(path, label + reason) from exc


def _check_events(text: str, loader: type) -> None:
    """Reject, in one pass over the document's events, nesting deeper than
    _MAX_NESTING and a key repeated within a mapping.  Keys are compared
    as resolved scalars; a merge key (``<<``) may repeat, and override, the
    keys it merges."""
    def at(event: Any) -> str:
        return f"line {event.start_mark.line + 1}, column {event.start_mark.column + 1}"

    parser = loader(text)
    try:
        # Per open collection: a mapping's keys so far and whether its next
        # node is a key, or None for a sequence.
        open_collections: list[Optional[list]] = []
        while parser.check_event():
            event = parser.get_event()
            if isinstance(event, yaml.CollectionEndEvent):
                open_collections.pop()
            elif not isinstance(event, yaml.NodeEvent):  # a stream's or document's
                continue
            mapping = open_collections[-1] if open_collections else None
            if mapping is not None and mapping[1] and isinstance(event, yaml.ScalarEvent):
                tag = event.tag
                if tag in (None, "!"):
                    tag = parser.resolve(yaml.ScalarNode, event.value, event.implicit)
                if (tag, event.value) in mapping[0]:
                    raise ScenarioSyntaxError("", f"repeated key {event.value!r} at {at(event)}")
                if tag != "tag:yaml.org,2002:merge":
                    mapping[0].add((tag, event.value))
            if isinstance(event, yaml.CollectionStartEvent):
                open_collections.append(
                    [set(), True] if isinstance(event, yaml.MappingStartEvent) else None)
                if len(open_collections) > _MAX_NESTING:
                    raise ScenarioSyntaxError(
                        "", f"collections nest deeper than {_MAX_NESTING} levels at {at(event)}")
            elif mapping is not None:  # one of its nodes is complete
                mapping[1] = not mapping[1]
    finally:
        parser.dispose()


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises only :class:`ScenarioError` subclasses, each naming the offending
    path: for any syntax problem, schema violation, dangling reference or
    constraint violation.  Unknown keys are rejected everywhere.
    """
    loader = _with_yaml12_floats(_YAML_LOADER)
    try:
        _check_events(text, loader)
        document = yaml.load(text, Loader=loader)
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
            fleet.append(DgUnit(name, location, _build(path, device, row, f"unit {name!r}: ")))

    loads = tuple(_build(f"loads.{i}", LoadPoint, row) for i, row in enumerate(doc["loads"]))
    net = doc["network"]
    upstream = _build("upstream", ComponentReliability, doc["upstream"])
    parts: dict[str, Any] = {"load_points": loads, "upstream": upstream}
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
    return yaml.dump(_write(document, _DOCUMENT), Dumper=_with_yaml12_floats(yaml.SafeDumper),
                     sort_keys=False, default_flow_style=False)


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


def build_report(result: RunResult, scenario: Scenario,
                 sweep_rows: Sequence[tuple[float, SystemIndices]] = ()) -> ReportDocument:
    """Assemble the report document for a completed run."""
    n_customers = scenario.network.total_customers
    for system in (result.system, *(indices for _, indices in sweep_rows)):
        if abs(system.caidi * system.saifi - system.saidi) > 1e-9 * max(1.0, system.saidi):
            raise ValueError("CAIDI * SAIFI must equal SAIDI")
        if n_customers and \
                abs(system.aens * n_customers - system.ens) > 1e-9 * max(1.0, system.ens):
            raise ValueError("AENS * total customers must equal ENS")
    per_lp = [(lp.id, result.per_lp[lp.id]) for lp in scenario.network.load_points]
    return ReportDocument(
        scenario_name=result.scenario_name,
        seed=result.seed,
        years_run=result.years_run,
        converged=result.converged,
        version=ARTIFACT_VERSION,
        load_point_rows=tuple((lp_id, indices.failure_rate, indices.repair_time,
                               indices.unavailability) for lp_id, indices in per_lp),
        system=result.system,
        sensitivity=tuple(sweep_rows),
    )


# The report, one column table per block: (key, delimited decimals or the
# type of a text, count or flag column) and, in meta, the ReportDocument
# field.  The other blocks list their columns in the order of their row
# tuples, SystemIndices' field order for the system.  After meta the blocks
# come in delimited order; an empty sensitivity block is left out.
_META_COLUMNS = (("scenario", str, "scenario_name"), ("seed", int, "seed"),
                 ("years_run", int, "years_run"), ("converged", bool, "converged"),
                 ("version", str, "version"))
_ROW_BLOCKS = {
    "load_points": (("id", str), ("lambda_per_yr", 3), ("r_h", 3), ("u_h_per_yr", 3)),
    "system": (("saifi", 3), ("saidi", 3), ("caidi", 2), ("ens_kwh", 0), ("aens_kwh", 3)),
}
_ROW_BLOCKS["sensitivity"] = (("p_islanding", 3),) + _ROW_BLOCKS["system"]


def _payload(report: ReportDocument) -> dict[str, Any]:
    """The report keyed by column: meta's keys, then a list of rows per block.
    Structured reports write it as JSON, with the system's one row unlisted."""
    rows = {"load_points": report.load_point_rows, "system": [astuple(report.system)],
            "sensitivity": [(p, *astuple(system)) for p, system in report.sensitivity]}
    return {
        **{key: getattr(report, field) for key, _, field in _META_COLUMNS},
        **{block: [{key: value for (key, _), value in zip(columns, row)} for row in rows[block]]
           for block, columns in _ROW_BLOCKS.items()},
    }


def _document(payload: Mapping[str, Any]) -> ReportDocument:
    """The report a payload of either format holds: the inverse of _payload."""
    def typed(cell: Any, kind: Any) -> Any:  # a JSON value or CSV text as its type
        if kind is bool:
            return cell is True or cell == "true"
        return kind(cell) if isinstance(kind, type) else float(cell)

    def read(mapping: Mapping[str, Any], key: str, block: str) -> Any:
        if key not in mapping:
            raise ValueError(f"report is missing its [{block}] block" if key == block
                             else f"report's [{block}] block has no {key!r}")
        return mapping[key]

    rows = {block: [[typed(read(row, key, block), kind) for key, kind in columns]
                    for row in read(payload, block, block)]
            for block, columns in _ROW_BLOCKS.items()}
    (system,) = rows["system"]
    return ReportDocument(
        **{field: typed(read(payload, key, "meta"), kind)
           for key, kind, field in _META_COLUMNS},
        load_point_rows=tuple(map(tuple, rows["load_points"])),
        system=SystemIndices(*system),
        sensitivity=tuple((p, SystemIndices(*rest)) for p, *rest in rows["sensitivity"]),
    )


def _cell(value: Any, kind: Any) -> str:
    """A payload value as delimited text.  Numbers keep ``kind`` decimals,
    truncated toward zero, not rounded, as published reliability tables do;
    a guard absorbs float artifacts a hair below the next decimal."""
    if kind is bool:
        return "true" if value else "false"
    if isinstance(kind, type):
        return str(value)
    scaled = value * 10**kind
    floored = math.floor(scaled)
    if scaled - floored > 1.0 - 1e-6:
        floored += 1
    return f"{floored / 10**kind:.{kind}f}"


def emit_report(report: ReportDocument, format: str = FORMAT_DELIMITED) -> str:
    """Serialize a report deterministically.

    ``delimited`` renders CSV blocks at fixed table precision (3 decimals
    for per-load-point indices, SAIFI and SAIDI, 2 for CAIDI, whole kWh for
    ENS, 3 for AENS), quoting text that holds a comma, a quote or a line
    break; ``structured`` renders JSON at full precision and round-trips
    exactly through :func:`parse_report`.
    """
    payload = _payload(report)
    if format == FORMAT_STRUCTURED:
        payload["system"] = payload["system"][0]
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if format != FORMAT_DELIMITED:
        raise ValueError(f"unknown report format {format!r}")
    rows = [["[meta]"], ["field", "value"]]
    rows += [[key, _cell(payload[key], kind)] for key, kind, _ in _META_COLUMNS]
    for block, columns in _ROW_BLOCKS.items():
        if payload[block] or block != "sensitivity":
            rows += [[], [f"[{block}]"], [key for key, _ in columns]]
            rows += [[_cell(row[key], kind) for key, kind in columns] for row in payload[block]]
    # The writer quotes a field holding a character of its line terminator,
    # so "\r\n" has it quote both line breaks; each row is one write call.
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def parse_report(text: str) -> ReportDocument:
    """Parse either report format back into a document.

    Delimited reports parse at their emitted precision; structured reports
    recover the exact values.
    """
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if "system" in payload:
            payload["system"] = [payload["system"]]
        return _document(payload)
    blocks: dict[str, list[list[str]]] = {}
    for row in filter(None, csv.reader(io.StringIO(text))):  # lines end at "\n" only
        if len(row) == 1 and row[0].startswith("[") and row[0].endswith("]"):
            rows = blocks[row[0][1:-1]] = []
        elif not blocks:
            raise ValueError("report rows found before any block header")
        else:
            rows.append(row)
    for required in ("meta", "load_points", "system"):
        if required not in blocks:
            raise ValueError(f"report is missing its [{required}] block")
    payload: dict[str, Any] = dict(blocks["meta"][1:])
    for block in _ROW_BLOCKS:
        header, *records = blocks.get(block, [[]])
        payload[block] = [dict(zip(header, record)) for record in records]
    return _document(payload)


# ---------------------------------------------------------------------------
# Bundled study cases
# ---------------------------------------------------------------------------

_BUNDLED_NAMES = ("case1", "case2", "case3", "case4", "sweep", "topology")


def bundled_scenario_path(name: str):
    """Filesystem path of a bundled scenario file (importlib resource)."""
    if name not in _BUNDLED_NAMES:
        raise KeyError(f"no bundled scenario {name!r}; have {_BUNDLED_NAMES}")
    return resources.files(__package__) / "scenarios" / f"{name}.yaml"


def bundled_scenarios() -> dict[str, Scenario]:
    """The six bundled studies of the four-load-point study system.

    case1 has no DG fleet; case2 runs four wind turbines; case3 runs two
    wind turbines and two PV arrays; case4 is case3 with a sub-unity
    seasonal load-factor profile; sweep is case3 plus the islanding-success
    probability ladder used by the sweep subcommand.  These five share one
    aggregate-mode network.  topology is case3 on an illustrative
    topology-mode reconstruction of the feeder.
    """
    return {
        name: parse_scenario(bundled_scenario_path(name).read_text())
        for name in _BUNDLED_NAMES
    }
