"""Radial distribution feeder model and interruption-contribution analysis.

A network is described in one of two modes:

* aggregate - each load point directly carries the totals sum(lambda_j) and
  sum(lambda_j * r_j) of the feeder components whose failure interrupts it.
  This is the mode of the bundled calibrated dataset.
* topology - an explicit tree of feeder sections with isolating switches, a
  feeder breaker and an optional normally-open tie.  Per-load-point
  contributions are derived by simulating the fault response of every
  section.

Both modes produce the same ContributionTable consumed by the evaluation
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = [
    "TopologyError",
    "ComponentReliability",
    "UpstreamLink",
    "LoadPoint",
    "FeederSection",
    "Switchgear",
    "FailureEffect",
    "LoadPointAggregate",
    "ContributionTable",
    "NetworkModel",
    "analyze_failure_effects",
    "build_contribution_table",
    "load_calibrated_dataset",
    "illustrative_feeder",
    "EFFECT_REPAIR",
    "EFFECT_SWITCH",
    "EFFECT_NONE",
    "MODE_AGGREGATE",
    "MODE_TOPOLOGY",
]

MODE_AGGREGATE = "aggregate"
MODE_TOPOLOGY = "topology"

EFFECT_REPAIR = "repair"
EFFECT_SWITCH = "switch"
EFFECT_NONE = "none"

KIND_FEEDER_BREAKER = "feeder_breaker"
KIND_ISOLATOR = "isolator"
KIND_TIE = "normally_open_tie"
_SWITCHGEAR_KINDS = (KIND_FEEDER_BREAKER, KIND_ISOLATOR, KIND_TIE)


class TopologyError(ValueError):
    """The feeder description is structurally invalid."""


def _check_nonnegative(name: str, value: float) -> None:
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite nonnegative number, got {value}")


@dataclass(frozen=True)
class ComponentReliability:
    """Failure rate (occurrences/yr) and repair time (hours) of a component."""

    failure_rate: float
    repair_time: float

    def __post_init__(self) -> None:
        _check_nonnegative("failure_rate", self.failure_rate)
        _check_nonnegative("repair_time", self.repair_time)


@dataclass(frozen=True)
class UpstreamLink:
    """Bulk-grid connection whose failure forces the microgrid to island."""

    failure_rate: float
    repair_time: float

    def __post_init__(self) -> None:
        _check_nonnegative("failure_rate", self.failure_rate)
        _check_nonnegative("repair_time", self.repair_time)


@dataclass(frozen=True)
class LoadPoint:
    """A customer aggregation bus.

    ``priority_rank`` orders islanded dispatch; rank 1 is served first.
    """

    id: str
    load_level: float  # kW
    customers: int
    priority_rank: int
    customer_class: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("load point id must be non-empty")
        _check_nonnegative(f"{self.id} load_level", self.load_level)
        if self.customers < 0:
            raise ValueError(f"{self.id}: customers must be >= 0")
        if self.priority_rank < 1:
            raise ValueError(f"{self.id}: priority_rank must be >= 1")


@dataclass(frozen=True)
class FeederSection:
    """One section of the radial feeder tree.

    ``parent`` names the upstream section, or None for the section attached
    to the feeder breaker.  ``isolator_upstream``/``isolator_downstream``
    say whether an isolating switch sits at the corresponding boundary.
    ``load_points`` are the ids of load points tapped from this section.
    """

    id: str
    reliability: ComponentReliability
    parent: Optional[str] = None
    isolator_upstream: bool = False
    isolator_downstream: bool = False
    load_points: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("section id must be non-empty")
        object.__setattr__(self, "load_points", tuple(self.load_points))


@dataclass(frozen=True)
class Switchgear:
    """A switching device: feeder breaker, isolator, or normally-open tie.

    ``at_section`` locates a tie (the section its open point connects to);
    it is unused for the other kinds.
    """

    kind: str
    switching_time: float  # hours
    at_section: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _SWITCHGEAR_KINDS:
            raise ValueError(
                f"switchgear kind must be one of {_SWITCHGEAR_KINDS}, got {self.kind!r}"
            )
        _check_nonnegative("switching_time", self.switching_time)
        if self.kind == KIND_TIE and not self.at_section:
            raise ValueError("a normally_open_tie needs at_section")


@dataclass(frozen=True)
class FailureEffect:
    """Classified impact of one section failure on one load point."""

    load_point: str
    effect: str  # repair | switch | none
    duration: float  # hours

    def __post_init__(self) -> None:
        if self.effect not in (EFFECT_REPAIR, EFFECT_SWITCH, EFFECT_NONE):
            raise ValueError(f"unknown effect class {self.effect!r}")
        _check_nonnegative("duration", self.duration)
        if self.effect == EFFECT_NONE and self.duration != 0.0:
            raise ValueError("an unaffected load point must have duration 0")


@dataclass(frozen=True)
class LoadPointAggregate:
    """Aggregate-mode interruption totals for one load point."""

    sum_lambda: float  # occurrences/yr
    sum_lambda_r: float  # hours/yr

    def __post_init__(self) -> None:
        _check_nonnegative("sum_lambda", self.sum_lambda)
        _check_nonnegative("sum_lambda_r", self.sum_lambda_r)
        if self.sum_lambda == 0.0 and self.sum_lambda_r > 0.0:
            raise ValueError("sum_lambda_r must be 0 when sum_lambda is 0")


class ContributionTable:
    """Each load point's feeder interruption totals, in load-point order.

    ``sum_lambda`` is the rate of the interruptions the feeder causes and
    ``sum_lambda_r`` the hours per year they last; the analytical
    combination adds the upstream link's share to both.
    """

    def __init__(self, totals: Mapping[str, LoadPointAggregate]):
        self._totals = dict(totals)

    @property
    def load_point_ids(self) -> tuple[str, ...]:
        return tuple(self._totals)

    def sum_lambda(self, load_point: str) -> float:
        return self._totals[load_point].sum_lambda

    def sum_lambda_r(self, load_point: str) -> float:
        return self._totals[load_point].sum_lambda_r


@dataclass(frozen=True)
class NetworkModel:
    """Immutable description of the feeder in aggregate or topology mode."""

    load_points: tuple[LoadPoint, ...]
    upstream: UpstreamLink
    aggregates: Optional[Mapping[str, LoadPointAggregate]] = None
    sections: tuple[FeederSection, ...] = ()
    switchgear: tuple[Switchgear, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "load_points", tuple(self.load_points))
        object.__setattr__(self, "sections", tuple(self.sections))
        object.__setattr__(self, "switchgear", tuple(self.switchgear))
        if not self.load_points:
            raise ValueError("a network needs at least one load point")
        ids = [lp.id for lp in self.load_points]
        if len(set(ids)) != len(ids):
            raise ValueError("load point ids must be unique")
        ranks = [lp.priority_rank for lp in self.load_points]
        if len(set(ranks)) != len(ranks):
            raise ValueError("load point priority ranks must be unique")
        if (self.aggregates is None) == (not self.sections):
            raise ValueError(
                "specify exactly one of aggregates (aggregate mode) or "
                "sections (topology mode)"
            )
        if self.aggregates is not None:
            aggregates = dict(self.aggregates)
            object.__setattr__(self, "aggregates", aggregates)
            missing = set(ids) - set(aggregates)
            extra = set(aggregates) - set(ids)
            if missing or extra:
                raise ValueError(
                    f"aggregates must cover exactly the load points; "
                    f"missing={sorted(missing)}, unknown={sorted(extra)}"
                )
        else:
            _validate_topology(self)

    @property
    def mode(self) -> str:
        return MODE_AGGREGATE if self.aggregates is not None else MODE_TOPOLOGY

    @property
    def total_customers(self) -> int:
        return sum(lp.customers for lp in self.load_points)

    @property
    def total_load(self) -> float:
        return math.fsum(lp.load_level for lp in self.load_points)

    def load_point(self, lp_id: str) -> LoadPoint:
        for lp in self.load_points:
            if lp.id == lp_id:
                return lp
        raise KeyError(lp_id)

    def priority_order(self) -> tuple[str, ...]:
        """Load point ids from most to least sensitive."""
        return tuple(
            lp.id for lp in sorted(self.load_points, key=lambda lp: lp.priority_rank)
        )

    def section(self, section_id: str) -> FeederSection:
        for sec in self.sections:
            if sec.id == section_id:
                return sec
        raise TopologyError(f"unknown section {section_id!r}")


def _validate_topology(network: NetworkModel) -> None:
    sections = {sec.id: sec for sec in network.sections}
    if len(sections) != len(network.sections):
        raise TopologyError("section ids must be unique")
    roots = [sec for sec in network.sections if sec.parent is None]
    if len(roots) != 1:
        raise TopologyError(
            f"exactly one section must attach to the feeder breaker, found {len(roots)}"
        )
    for sec in network.sections:
        if sec.parent is not None and sec.parent not in sections:
            raise TopologyError(f"section {sec.id!r} has unknown parent {sec.parent!r}")
    # Walk to the root from every section; a revisit means a parent cycle.
    for sec in network.sections:
        seen = set()
        node = sec
        while node.parent is not None:
            if node.id in seen:
                raise TopologyError(f"parent cycle involving section {sec.id!r}")
            seen.add(node.id)
            node = sections[node.parent]

    lp_ids = {lp.id for lp in network.load_points}
    attached: dict[str, str] = {}
    for sec in network.sections:
        for lp_id in sec.load_points:
            if lp_id not in lp_ids:
                raise TopologyError(
                    f"section {sec.id!r} taps unknown load point {lp_id!r}"
                )
            if lp_id in attached:
                raise TopologyError(
                    f"load point {lp_id!r} attached to both "
                    f"{attached[lp_id]!r} and {sec.id!r}"
                )
            attached[lp_id] = sec.id
    unattached = lp_ids - set(attached)
    if unattached:
        raise TopologyError(f"load points not attached to any section: {sorted(unattached)}")

    breakers = [sw for sw in network.switchgear if sw.kind == KIND_FEEDER_BREAKER]
    ties = [sw for sw in network.switchgear if sw.kind == KIND_TIE]
    if len(breakers) != 1:
        raise TopologyError(f"topology mode needs exactly one feeder breaker, found {len(breakers)}")
    if len(ties) > 1:
        raise TopologyError(f"at most one normally-open tie is supported, found {len(ties)}")
    for tie in ties:
        if tie.at_section not in sections:
            raise TopologyError(f"tie attaches to unknown section {tie.at_section!r}")


def _neighbors(network: NetworkModel) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {sec.id: [] for sec in network.sections}
    for sec in network.sections:
        if sec.parent is not None:
            adj[sec.id].append(sec.parent)
            adj[sec.parent].append(sec.id)
    return adj


def _edge_isolable(parent: FeederSection, child: FeederSection) -> bool:
    return parent.isolator_downstream or child.isolator_upstream


def _reachable(network: NetworkModel, start: str, blocked: set[str],
               adj: dict[str, list[str]]) -> set[str]:
    """Sections connected to ``start`` without entering ``blocked``."""
    if start in blocked:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen and nxt not in blocked:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def analyze_failure_effects(network: NetworkModel,
                            failed_section: str) -> list[FailureEffect]:
    """Classify every load point's interruption for one section failure.

    A fault trips the feeder breaker, interrupting the whole feeder.  The
    faulty section is then isolated together with any neighbours it cannot
    be separated from (boundaries without isolating switches).  Load points
    that can be re-energized from the breaker side or through the
    normally-open tie are interrupted for the switching time; load points
    stranded inside or beyond the isolated zone wait for the repair.
    """
    if network.mode != MODE_TOPOLOGY:
        raise TopologyError("failure-effect analysis needs a topology-mode network")
    sections = {sec.id: sec for sec in network.sections}
    if failed_section not in sections:
        raise TopologyError(f"unknown section {failed_section!r}")
    adj = _neighbors(network)

    # Isolation zone: grow from the fault through non-isolable boundaries.
    zone = {failed_section}
    stack = [failed_section]
    while stack:
        current = sections[stack.pop()]
        for other_id in adj[current.id]:
            if other_id in zone:
                continue
            other = sections[other_id]
            parent, child = (current, other) if other.parent == current.id else (other, current)
            if not _edge_isolable(parent, child):
                zone.add(other_id)
                stack.append(other_id)

    root = next(sec for sec in network.sections if sec.parent is None)
    breaker = next(sw for sw in network.switchgear if sw.kind == KIND_FEEDER_BREAKER)
    tie = next((sw for sw in network.switchgear if sw.kind == KIND_TIE), None)

    powered: dict[str, float] = {}
    for sec_id in _reachable(network, root.id, zone, adj):
        powered[sec_id] = breaker.switching_time
    if tie is not None:
        for sec_id in _reachable(network, tie.at_section, zone, adj):
            duration = tie.switching_time
            powered[sec_id] = min(powered.get(sec_id, duration), duration)

    repair_time = sections[failed_section].reliability.repair_time
    effects = []
    for lp in network.load_points:
        host = next(sec for sec in network.sections if lp.id in sec.load_points)
        if host.id in powered:
            effects.append(FailureEffect(lp.id, EFFECT_SWITCH, powered[host.id]))
        else:
            effects.append(FailureEffect(lp.id, EFFECT_REPAIR, repair_time))
    return effects


def build_contribution_table(network: NetworkModel) -> ContributionTable:
    """Each load point's interruption totals from the network.

    Aggregate mode carries them as given; topology mode sums, for every
    section whose failure interrupts the load point, its failure rate and
    its rate times the duration set by the failure-effect class.
    """
    if network.mode == MODE_AGGREGATE:
        assert network.aggregates is not None
        return ContributionTable(
            {lp.id: network.aggregates[lp.id] for lp in network.load_points}
        )
    pairs: dict[str, list[tuple[float, float]]] = {
        lp.id: [] for lp in network.load_points
    }
    for sec in network.sections:
        if sec.reliability.failure_rate == 0.0:
            continue
        for effect in analyze_failure_effects(network, sec.id):
            if effect.effect != EFFECT_NONE:
                pairs[effect.load_point].append(
                    (sec.reliability.failure_rate, effect.duration)
                )
    return ContributionTable({
        lp_id: LoadPointAggregate(math.fsum(lam for lam, _ in lp_pairs),
                                  math.fsum(lam * dur for lam, dur in lp_pairs))
        for lp_id, lp_pairs in pairs.items()
    })


# ---------------------------------------------------------------------------
# Bundled datasets
# ---------------------------------------------------------------------------

DEFAULT_SWITCHING_TIME_H = 3.5
DEFAULT_REPAIR_TIME_H = 30.0

_CALIBRATED_LOAD_POINTS = (
    LoadPoint("LP2", load_level=1000.0, customers=100, priority_rank=4,
              customer_class="commercial"),
    LoadPoint("LP3", load_level=3000.0, customers=300, priority_rank=2,
              customer_class="office"),
    LoadPoint("LP4", load_level=1000.0, customers=250, priority_rank=3,
              customer_class="residential"),
    LoadPoint("LP9", load_level=500.0, customers=50, priority_rank=1,
              customer_class="governmental"),
)

# Per-load-point interruption totals of the four-load-point study feeder.
_CALIBRATED_AGGREGATES = {
    "LP2": LoadPointAggregate(sum_lambda=0.226, sum_lambda_r=3.017),
    "LP3": LoadPointAggregate(sum_lambda=0.226, sum_lambda_r=2.858),
    "LP4": LoadPointAggregate(sum_lambda=0.226, sum_lambda_r=2.328),
    "LP9": LoadPointAggregate(sum_lambda=0.156, sum_lambda_r=1.924),
}

_CALIBRATED_UPSTREAM = UpstreamLink(failure_rate=0.5, repair_time=10.0)


def load_calibrated_dataset() -> NetworkModel:
    """The bundled aggregate-mode study system.

    Four prioritized load points (700 customers, 5.5 MW) on a radial feeder
    with a 0.5 occ/yr, 10 h upstream link.
    """
    return NetworkModel(
        load_points=_CALIBRATED_LOAD_POINTS,
        upstream=_CALIBRATED_UPSTREAM,
        aggregates=dict(_CALIBRATED_AGGREGATES),
    )


def illustrative_feeder() -> NetworkModel:
    """An illustrative topology-mode reconstruction of the study feeder.

    The real feeder's section data is not public, so this tree is a
    plausible stand-in for exercising the fault-response analysis: six main
    sections in series, the four load points tapped along them, a breaker at
    the head and a normally-open tie at the far end.  Section failure rates
    sum to 0.226 occ/yr; repair takes 30 h and switching 3.5 h.  It is not
    calibrated to match the aggregate dataset's per-load-point totals.
    """
    rel = lambda rate: ComponentReliability(failure_rate=rate,
                                            repair_time=DEFAULT_REPAIR_TIME_H)
    sections = (
        FeederSection("s1", rel(0.040), parent=None, isolator_upstream=True,
                      isolator_downstream=False, load_points=("LP2",)),
        FeederSection("s2", rel(0.040), parent="s1", isolator_upstream=True,
                      isolator_downstream=False, load_points=("LP9",)),
        FeederSection("s3", rel(0.036), parent="s2", isolator_upstream=True,
                      isolator_downstream=False, load_points=()),
        FeederSection("s4", rel(0.040), parent="s3", isolator_upstream=True,
                      isolator_downstream=False, load_points=("LP3",)),
        # No isolator between s4 and s5: a fault on either strands both.
        FeederSection("s5", rel(0.040), parent="s4", isolator_upstream=False,
                      isolator_downstream=False, load_points=("LP4",)),
        FeederSection("s6", rel(0.030), parent="s5", isolator_upstream=True,
                      isolator_downstream=False, load_points=()),
    )
    switchgear = (
        Switchgear(KIND_FEEDER_BREAKER, DEFAULT_SWITCHING_TIME_H),
        Switchgear(KIND_TIE, DEFAULT_SWITCHING_TIME_H, at_section="s6"),
    )
    return NetworkModel(
        load_points=_CALIBRATED_LOAD_POINTS,
        upstream=_CALIBRATED_UPSTREAM,
        sections=sections,
        switchgear=switchgear,
    )
