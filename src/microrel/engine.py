"""Hybrid reliability evaluation of an islandable microgrid.

Daily Monte-Carlo state sampling estimates, for every load point, the
probability that local renewable generation can carry it through an islanding
event under strict priority dispatch.  Those probabilities are then combined
analytically with the feeder's interruption statistics and the upstream-link
data to produce per-load-point indices (failure rate, unavailability, repair
time) and the customer-weighted system indices SAIFI, SAIDI, CAIDI, ENS and
AENS.

Years are independent given the seed: every simulated year reads its own
words of a counter-based RNG keyed by (seed, year // 64), so runs are
reproducible and the result is invariant to how many workers simulate the
years.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from typing import BinaryIO, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .network import (
    ComponentReliability,
    LoadPointAggregate,
    NetworkModel,
    build_contribution_table,
)
from .res_models import (
    DAYS_PER_YEAR,
    YEARS_PER_GROUP,
    DailyResources,
    DgUnit,
    ResourceDistributions,
    StreamBounds,
    day_lanes,
    day_words,
    draw_uniforms,
    irradiance_bounds,
    pv_power_range,
    resource_values,
    sample_daily_resources,  # noqa: F401  (wrapped by perfbench/tracing.py)
    stream_bounds,
    stream_label,
    u_cells,
    unit_power_series,
    words_per_year,
)

__all__ = [
    "DISPATCH_SERVE_IF_FITS",
    "DISPATCH_BLOCKING",
    "Scenario",
    "PResEstimate",
    "LoadPointIndices",
    "SystemIndices",
    "RunResult",
    "SweepResult",
    "priority_dispatch",
    "simulate_year",
    "combine_analytical",
    "compute_system_indices",
    "run",
    "sensitivity_sweep",
    "CONVERGENCE_WINDOW_YEARS",
    "MIN_CONVERGENCE_YEARS",
]

DISPATCH_SERVE_IF_FITS = "serve_if_fits"
DISPATCH_BLOCKING = "blocking"

# Convergence rule: stop once the 100-year moving average of the running ENS
# estimate changes by less than the scenario tolerance over a window, with a
# floor of 1000 years so the estimate never freezes prematurely.  Scenarios
# with no DG fleet have nothing stochastic to estimate and settle in one year.
CONVERGENCE_WINDOW_YEARS = 100
MIN_CONVERGENCE_YEARS = 1000
_YEARS_PER_BLOCK = 512
# Years per pass of the chain from u-cells to served-day counts within a
# block: one group of the sampler, whose coarse words one seek reads.  A
# pass's per-day arrays (23 360 days, 23-190 KB each) stay in cache, and a
# block starting at a multiple of 512 is a whole number of groups.
_YEARS_PER_PASS = YEARS_PER_GROUP
_THRESHOLD_BRACKET = 128  # ulps; a threshold is a few ulps off a prefix sum of the served needs

_IDENTITY_RTOL = 1e-9
_MAX_SEED = 2**64


def _default_load_factors() -> tuple[float, ...]:
    return (1.0,) * DAYS_PER_YEAR


class UnknownRegionError(ValueError):
    """A turbine's region is not among the scenario's wind regions;
    ``index`` is the unit's place in the fleet."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Scenario:
    """One complete reliability study.

    Attributes:
        name: Study label, echoed into reports.
        network: Feeder model (aggregate or topology mode).
        distributions: Fitted resource distributions for the DG fleet.
        fleet: Renewable DG units; may be empty (grid-only study).
        seed: Base RNG seed; all randomness derives from it.
        load_factors: 365 per-day multipliers applied to every load level.
        p_islanding: Probability that islanding succeeds on an upstream
            failure; 1 means the island always forms, 0 disables the fleet's
            contribution entirely.
        max_years: Simulation-year cap.
        tolerance: Relative-change convergence threshold.
        dispatch: "serve_if_fits" (a load that does not fit is skipped but
            later, smaller loads are still considered) or "blocking" (stop at
            the first load that does not fit).
        sweep_p: Optional islanding-success probabilities for sweeps.

    Each check's message starts with the name of the field it rejects, so
    that a scenario file's error can point at that field.
    """

    name: str
    network: NetworkModel
    distributions: ResourceDistributions
    fleet: tuple[DgUnit, ...] = ()
    seed: int = 0
    load_factors: tuple[float, ...] = field(default_factory=_default_load_factors)
    p_islanding: float = 1.0
    max_years: int = 100_000
    tolerance: float = 0.005
    dispatch: str = DISPATCH_SERVE_IF_FITS
    sweep_p: Optional[tuple[float, ...]] = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fleet", tuple(self.fleet))
        object.__setattr__(self, "load_factors", tuple(float(f) for f in self.load_factors))
        if not (0 <= self.seed < _MAX_SEED):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if len(self.load_factors) != DAYS_PER_YEAR:
            raise ValueError(
                f"load_factors must have {DAYS_PER_YEAR} entries, got {len(self.load_factors)}"
            )
        if any(f < 0.0 or not math.isfinite(f) for f in self.load_factors):
            raise ValueError("load_factors must be finite and >= 0")
        if not (0.0 <= self.p_islanding <= 1.0):
            raise ValueError(f"p_islanding must lie in [0, 1], got {self.p_islanding}")
        if self.max_years < 1:
            raise ValueError(f"max_years must be >= 1, got {self.max_years}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.dispatch not in (DISPATCH_SERVE_IF_FITS, DISPATCH_BLOCKING):
            raise ValueError(f"dispatch must be {DISPATCH_SERVE_IF_FITS!r} or "
                             f"{DISPATCH_BLOCKING!r}, got {self.dispatch!r}")
        names = [unit.name for unit in self.fleet]
        if len(set(names)) != len(names):
            raise ValueError("fleet unit names must be unique")
        for index, unit in enumerate(self.fleet):
            region = getattr(unit.device, "region_id", None)
            if region is not None and region not in self.distributions.wind_regions:
                raise UnknownRegionError(
                    f"fleet unit {unit.name!r} references unknown wind region {region!r}",
                    index,
                )
        if self.sweep_p is not None:
            object.__setattr__(self, "sweep_p", tuple(float(p) for p in self.sweep_p))
            if not self.sweep_p:
                raise ValueError("sweep_p must list at least one probability")
            if any(not 0.0 <= p <= 1.0 for p in self.sweep_p):
                raise ValueError("sweep_p values must lie in [0, 1]")


@dataclass(frozen=True)
class PResEstimate:
    """Estimated probability that the fleet fully serves one load point."""

    supplied_days: int
    total_days: int

    def __post_init__(self) -> None:
        if self.total_days < 1:
            raise ValueError("total_days must be >= 1")
        if not 0 <= self.supplied_days <= self.total_days:
            raise ValueError("supplied_days must lie in [0, total_days]")

    @property
    def p_res(self) -> float:
        return self.supplied_days / self.total_days


@dataclass(frozen=True)
class LoadPointIndices:
    """Per-load-point reliability indices.

    ``repair_time`` is unavailability / failure rate; when the failure rate
    is zero it is reported as 0 with ``repair_time_defined`` cleared.
    """

    failure_rate: float  # occurrences/yr
    unavailability: float  # hours/yr
    repair_time: float  # hours
    repair_time_defined: bool = True

    def __post_init__(self) -> None:
        _require_finite(self, ("failure_rate", "unavailability", "repair_time"))
        if self.repair_time_defined:
            residual = abs(self.repair_time * self.failure_rate - self.unavailability)
            if residual > _IDENTITY_RTOL * max(1.0, self.unavailability):
                raise ValueError("repair_time * failure_rate must equal unavailability")


@dataclass(frozen=True)
class SystemIndices:
    """System-level indices for one study case."""

    saifi: float  # interruptions / yr / customer
    saidi: float  # hours / yr / customer
    caidi: float  # hours / interruption
    ens: float  # kWh / yr
    aens: float  # kWh / yr / customer

    def __post_init__(self) -> None:
        _require_finite(self, ("saifi", "saidi", "caidi", "ens", "aens"))


def _require_finite(record, names: Sequence[str]) -> None:
    for name in names:
        value = getattr(record, name)
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


# ---------------------------------------------------------------------------
# Priority dispatch
# ---------------------------------------------------------------------------

def _dispatch(remaining: np.ndarray, needs: np.ndarray, blocking: bool,
              counts: np.ndarray) -> None:
    """Priority dispatch of every day of ``remaining``, in place.

    ``remaining`` (rows x days) holds each day's generation and ends as the
    curtailed surplus.  ``needs[k]`` is load k's level on each day, loads in
    priority order.  ``counts[:, k]`` (int64) receives the days per row on
    which load k is served.  It defines both rules, and the served thresholds.
    """
    fits = np.empty(remaining.shape, dtype=bool)
    served = np.ones(remaining.shape, dtype=bool) if blocking else fits
    for column, need in enumerate(needs):
        np.less_equal(need, remaining, out=fits)
        if blocking:
            served &= fits
        np.add.reduce(served, axis=1, dtype=np.int64, out=counts[:, column])
        np.subtract(remaining, need, out=remaining, where=served)


def priority_dispatch(total_res: float,
                      loads: Sequence[tuple[str, float]],
                      blocking: bool = False) -> set[str]:
    """Serve priority-ordered loads from a renewable generation budget.

    ``loads`` must be sorted from highest to lowest priority.  A load is
    supplied only if its full level fits in the remaining capacity, in which
    case its level is deducted; surplus generation is curtailed.  Under the
    default rule, a load that does not fit is skipped and lower-priority
    loads are still considered; with ``blocking=True`` dispatch stops at the
    first load that does not fit.
    """
    if total_res < 0.0:
        raise ValueError(f"generation must be >= 0, got {total_res}")
    for lp_id, level in loads:
        if level < 0.0:
            raise ValueError(f"load level for {lp_id!r} must be >= 0")
    needs = np.array([level for _, level in loads], dtype=np.float64)
    counts = np.zeros((1, needs.size), dtype=np.int64)
    _dispatch(np.array([[float(total_res)]]), needs[:, None], blocking, counts)
    return {lp_id for (lp_id, _), served in zip(loads, counts[0]) if served}


# ---------------------------------------------------------------------------
# Yearly simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SimContext:
    """Everything a block needs to simulate its years, the run's tables
    too: they are built from the other fields with it (``replace`` rebuilds
    them).  Forked block workers inherit it, so it is never pickled."""

    distributions: ResourceDistributions
    fleet: tuple[DgUnit, ...]
    lp_ids: tuple[str, ...]  # priority order, most sensitive first
    levels: tuple[float, ...]  # aligned with lp_ids
    load_factors: tuple[float, ...]
    blocking: bool
    seed: int
    bounds: StreamBounds = field(init=False, repr=False, compare=False)
    taus: np.ndarray = field(init=False, repr=False, compare=False)
    steps: np.ndarray = field(init=False, repr=False, compare=False)
    limits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bounds = stream_bounds(self.distributions, self.fleet)
        taus, steps = _served_thresholds(self.levels, self.load_factors, self.blocking)
        for name, table in (("bounds", bounds), ("taus", taus), ("steps", steps),
                            ("limits", bounds.limits(taus))):
            object.__setattr__(self, name, table)


def _context_for(scenario: Scenario) -> _SimContext:
    order = scenario.network.priority_order()
    levels = tuple(scenario.network.load_point(lp_id).load_level for lp_id in order)
    return _SimContext(
        distributions=scenario.distributions,
        fleet=scenario.fleet,
        lp_ids=order,
        levels=levels,
        load_factors=scenario.load_factors,
        blocking=scenario.dispatch == DISPATCH_BLOCKING,
        seed=scenario.seed,
    )


@lru_cache(maxsize=8)
def _served_thresholds(levels: tuple[float, ...], load_factors: tuple[float, ...],
                       blocking: bool) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds that count each load's served days without dispatching.

    A day's served loads, a boolean row in priority order, never fall in
    lexicographic order as its total T grows (README, "Evaluation method"),
    so from T = 0 each load factor's served sets form a chain.  The walk
    steps every factor at once to the least double whose set is later,
    bisected over the doubles' bit patterns with ``_dispatch`` as the
    oracle, within a bracket about the total that first serves an unserved
    load (from the last threshold to inf where the bracket fails).  Each
    set of the chains' union but the last is a row, where a factor that
    skips the set takes its next threshold.  Returns thresholds (rows x
    days, one column for one factor) and steps (rows x loads): load j is
    served on sum_r #(T >= tau_r) * steps[r, j] days.
    """
    factors, day_factor = np.unique(load_factors, return_inverse=True)
    needs = np.multiply.outer(factors, levels)  # (factors, loads)

    def served(patterns: np.ndarray, rows: np.ndarray) -> np.ndarray:  # of the doubles
        counts = np.empty((patterns.size, len(levels)), dtype=np.int64)
        _dispatch(patterns.view(np.float64)[:, None].copy(), needs[rows].T[:, :, None],
                  blocking, counts)
        return counts > 0

    def later(sets: np.ndarray, than: np.ndarray) -> np.ndarray:  # lexicographically
        return (sets & ~than)[np.arange(len(sets)), np.argmax(sets != than, axis=1)]

    inf = 0x7FF0 << 48  # the bits of inf, whose set serves every finite need
    walking, at = np.arange(factors.size), np.zeros(factors.size, dtype=np.int64)
    current, last = served(at, walking), served(at + inf, walking)
    chain = [(walking, at, current)]
    while (more := np.any(current != last, axis=1)).any():
        walking, at, current, last = walking[more], at[more], current[more], last[more]
        # Unserved load j is served from about the served needs above it plus
        # its own; blocking can serve only the first unserved load.
        need = needs[walking]
        reach = np.where(current, np.inf, np.cumsum(need * current, axis=1) + need)
        guess = (reach[np.arange(walking.size), current.argmin(axis=1)] if blocking
                 else reach.min(axis=1)).view(np.int64)
        lo = np.maximum(guess - _THRESHOLD_BRACKET // 2, at)
        hi = np.minimum(guess + _THRESHOLD_BRACKET // 2, inf)
        ends = later(served(np.r_[lo, hi], np.r_[walking, walking]), np.tile(current, (2, 1)))
        held = ends[walking.size:] & ~ends[:walking.size]
        lo, hi = np.where(held, lo, at), np.where(held, hi, inf)
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            up = later(served(mid, walking), current)
            hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
        at, current = hi, served(hi, walking)
        chain.append((walking, at, current))

    factor, taus, sets = (np.concatenate(part) for part in zip(*chain))
    # np.unique orders boolean rows lexicographically; the empty set is row 0.
    union, rank = np.unique(np.vstack((sets, np.zeros_like(sets[:1]))), axis=0,
                            return_inverse=True)
    first = np.full((len(union), factors.size), np.inf)  # where a chain enters a set
    first[rank.reshape(-1)[:factor.size], factor] = taus.view(np.float64)
    tau = np.minimum.accumulate(first[::-1], axis=0)[-2::-1]  # least of any later set
    steps = np.diff(union.astype(np.int64), axis=0)
    return tau[:, day_factor if factors.size > 1 else [0]], steps


class _Workspace(NamedTuple):
    """The buffers a pass writes into, for fleets drawing one number of
    streams; every pass of up to _YEARS_PER_PASS years slices them."""

    coarse: np.ndarray  # (years, 4C) coarse words
    cells: np.ndarray  # (years, days) intp: one stream's u-cells
    lower: np.ndarray  # (years * days,) int32: the day's fixed-point bounds,
    upper: np.ndarray  # summed over the streams
    part: np.ndarray  # one stream's take, before it is added
    reach: np.ndarray  # (years, days) bool
    flip: np.ndarray
    is_open: np.ndarray


# The process's pass buffers, by the number of streams drawn.  Blocks run
# in processes, never in threads: two threads running blocks measured slower
# than one.
_workspaces: dict[int, _Workspace] = {}


def _workspace(n_streams: int) -> _Workspace:
    """The pass buffers for ``n_streams`` drawn streams, made on first use
    and kept: every later pass, block and run reuses them, so a warm pass
    allocates no per-day array."""
    if n_streams not in _workspaces:
        days = (_YEARS_PER_PASS, DAYS_PER_YEAR)
        n_days = _YEARS_PER_PASS * DAYS_PER_YEAR
        _workspaces[n_streams] = _Workspace(
            coarse=np.empty((_YEARS_PER_PASS, words_per_year(n_streams)), dtype=np.uint64),
            cells=np.empty(days, dtype=np.intp),
            lower=np.empty(n_days, dtype=np.int32),
            upper=np.empty(n_days, dtype=np.int32),
            part=np.empty(n_days, dtype=np.int32),
            reach=np.empty(days, dtype=bool),
            flip=np.empty(days, dtype=bool),
            is_open=np.empty(days, dtype=bool),
        )
    return _workspaces[n_streams]


def _simulate_block(ctx: _SimContext, start_year: int, n_years: int) -> np.ndarray:
    """Supplied-day counts, shape (n_years, n_load_points), priority order.

    The block runs in passes, each the years of one sampler group
    (_YEARS_PER_PASS) that the block holds, in buffers that every pass of
    the process reuses (``_workspace``).  A pass reads its coarse words with
    one seek and takes each stream's u-cells with one shift of its run of
    16-bit lanes (``u_cells``).  Each stream's fixed-point bounds (``ctx.bounds``)
    enter it with one lower and one upper take, int32 multiples of a power
    of two q; summed over the streams, exactly, they bound the day's
    fleet-order total T: lower * q <= T <= upper * q.  A served threshold
    tau (``ctx.taus``) becomes t = ceil(tau / q) (``ctx.limits``), capped
    at 2^31 - 1: a day whose lower sum reaches t has T >= tau, and one
    whose upper sum is below t has T < tau.  A day counts against every
    threshold by its lower sum; it is open when its upper sum reaches a
    threshold its lower one does not, and the pass keeps its lanes
    (``day_lanes``).  After the passes the open days of the block take
    their fine words (``day_words``) in one go, and ``_open_totals`` gives
    each a total that reaches exactly the thresholds its exact fleet-order
    total reaches; those settle the counts they can change.
    """
    dists, bounds, taus, limits = ctx.distributions, ctx.bounds, ctx.taus, ctx.limits
    space = _workspace(bounds.n_rows)
    reached = np.empty((n_years, len(taus)), dtype=np.int16)  # <= 365 a year

    open_days: list[np.ndarray] = []
    open_lows: list[np.ndarray] = []
    open_lanes: list[np.ndarray] = []  # (days, streams) per pass
    # Passes end where the sampler's groups do.
    ends = [*range(-start_year % _YEARS_PER_PASS or _YEARS_PER_PASS, n_years,
                   _YEARS_PER_PASS), n_years]
    for first, last in zip([0, *ends], ends):
        years = last - first
        n_days = years * DAYS_PER_YEAR
        coarse = draw_uniforms(dists, ctx.fleet, ctx.seed, years, start_year + first,
                               out=space.coarse[:years]).coarse
        lower, upper, part = (space.lower[:n_days], space.upper[:n_days],
                              space.part[:n_days])
        if not bounds.rows:  # no fleet: every total is 0
            lower.fill(0)
            upper.fill(0)
        for s, row in enumerate(bounds.rows):
            cell = u_cells(coarse, row, out=space.cells[:years]).reshape(-1)
            # Every cell is in range, so no mode changes an index; per
            # take of a pass, "wrap" took 15 us, "clip" 20, "raise" 27.
            for table, total in ((bounds.lower[s], lower), (bounds.upper[s], upper)):
                if s == 0:
                    table.take(cell, out=total, mode="wrap")
                else:
                    total += table.take(cell, out=part, mode="wrap")
        lower, upper = lower.reshape(years, -1), upper.reshape(years, -1)
        reach, flip, is_open = (space.reach[:years], space.flip[:years],
                                space.is_open[:years])
        is_open.fill(False)
        for row, limit in enumerate(limits):
            np.greater_equal(lower, limit, out=reach)
            np.add.reduce(reach, axis=1, dtype=np.int16, out=reached[first:last, row])
            np.greater_equal(upper, limit, out=flip)
            flip ^= reach
            is_open |= flip
        days = np.flatnonzero(is_open)
        open_lows.append(lower.reshape(-1)[days])
        open_days.append(days + first * DAYS_PER_YEAR)
        open_lanes.append(day_lanes(coarse, bounds.rows, days))

    days = np.concatenate(open_days)
    year, day = np.divmod(days, DAYS_PER_YEAR)
    words = day_words(np.concatenate(open_lanes), ctx.seed, bounds.n_rows, bounds.rows,
                      start_year + year, day)
    if taus.shape[1] > 1:  # one column per day of the year
        taus, limits = taus[:, day], limits[:, day]
    totals = _open_totals(ctx, words, taus)
    late = (totals >= taus) & (np.concatenate(open_lows) < limits)
    for row in range(len(taus)):
        reached[:, row] += np.bincount(year[late[row]], minlength=n_years)
    return reached @ ctx.steps


def _open_totals(ctx: _SimContext, words: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """A total for each open day that reaches the same ``taus`` (rows x
    days, or one column) as its exact fleet-order total.

    Every unit adds to a lower and an upper sum, in fleet order: a turbine
    its exact series from its stream's exact speeds (``resource_values``)
    to both, a PV array the least and greatest power (``pv_power_range``)
    of its irradiance draws' bounds, taken without inverting the beta CDF
    (``irradiance_bounds``).  Rounded addition is monotone in each operand,
    so the two sums bracket the exact total, and the lower one answers
    every threshold it does not straddle; a fleet without PV has equal
    sums and straddles none.  Only the days whose bracket straddles a
    threshold, lower sum below it and upper sum at or above it, take the
    exact chain: the beta inverse CDF of their irradiance uniforms, then
    every unit's series added in fleet order.  Each draw depends only on
    its own word, so these are the values of a whole-block evaluation.
    """
    dists, labels = ctx.distributions, ctx.bounds.labels
    streams = {label: resource_values(dists, label, words[:, i])
               for i, label in enumerate(labels) if label[0] == "wind"}
    drawn = {label: irradiance_bounds(dists.irradiance, words[:, i])
             for i, label in enumerate(labels) if label[0] == "irradiance"}
    resources = DailyResources(streams, words.shape[0], dists.shared_irradiance)
    low, high = np.zeros(words.shape[0]), np.zeros(words.shape[0])
    for unit in ctx.fleet:
        label = stream_label(unit, dists.shared_irradiance)
        if label in drawn:
            unit_low, unit_high = pv_power_range(unit.device, *drawn[label])
        else:
            unit_low = unit_high = unit_power_series(unit, resources)
        low += unit_low
        high += unit_high
    straddled = np.flatnonzero(((low < taus) & (high >= taus)).any(axis=0))
    if straddled.size:
        exact = {label: values[straddled] for label, values in streams.items()}
        exact.update((label, resource_values(dists, label, words[straddled, i]))
                     for i, label in enumerate(labels) if label in drawn)
        resources = DailyResources(exact, straddled.size, dists.shared_irradiance)
        totals = np.zeros(straddled.size)
        for unit in ctx.fleet:
            totals += unit_power_series(unit, resources)
        low[straddled] = totals
    return low


def simulate_year(scenario: Scenario, year_index: int) -> dict[str, int]:
    """Supplied-day counts for one simulated year, keyed by load point id."""
    if year_index < 0:
        raise ValueError("year_index must be >= 0")
    ctx = _context_for(scenario)
    counts = _simulate_block(ctx, year_index, 1)[0]
    return dict(zip(ctx.lp_ids, (int(c) for c in counts)))


# ---------------------------------------------------------------------------
# Analytical combination and system indices
# ---------------------------------------------------------------------------

def _p_res_value(estimate: Union[PResEstimate, float]) -> float:
    p = estimate.p_res if isinstance(estimate, PResEstimate) else float(estimate)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"supply probability must lie in [0, 1], got {p}")
    return p


def _upstream_share(upstream: ComponentReliability, p_islanding: float, p):
    """The upstream link's share of the failure rate and the unavailability
    of a load point with supply probability ``p`` (a float or an array).

    An upstream failure interrupts the load point only when the island fails
    to form or the fleet cannot carry the load, hence the (1 - q*p) weight.
    """
    rate = (1.0 - p_islanding * p) * upstream.failure_rate
    return rate, rate * upstream.repair_time


def combine_analytical(p_res: Mapping[str, Union[PResEstimate, float]],
                       contributions: Mapping[str, LoadPointAggregate],
                       upstream: ComponentReliability,
                       p_islanding: float = 1.0) -> dict[str, LoadPointIndices]:
    """Combine supply probabilities with network and upstream statistics.

    For each load point i with supply probability p_i, q = p_islanding::

        rate_i   = (1 - q * p_i) * lambda_up
        lambda_i = sum(lambda_j) + rate_i
        U_i      = sum(lambda_j * r_j) + rate_i * r_up

    With p_islanding = 0 the fleet contributes nothing.
    """
    if not 0.0 <= p_islanding <= 1.0:
        raise ValueError(f"p_islanding must lie in [0, 1], got {p_islanding}")
    indices = {}
    for lp_id, totals in contributions.items():
        if lp_id not in p_res:
            raise KeyError(f"missing supply probability for load point {lp_id!r}")
        rate, hours = _upstream_share(upstream, p_islanding, _p_res_value(p_res[lp_id]))
        lam = totals.sum_lambda + rate
        u = totals.sum_lambda_r + hours
        if lam > 0.0:
            indices[lp_id] = LoadPointIndices(lam, u, u / lam)
        else:
            indices[lp_id] = LoadPointIndices(lam, u, 0.0, repair_time_defined=False)
    return indices


def compute_system_indices(per_lp: Mapping[str, LoadPointIndices],
                           network: NetworkModel) -> SystemIndices:
    """Customer- and load-weighted system indices.

    SAIFI and SAIDI weight the per-load-point failure rate and
    unavailability by customer count; CAIDI is their ratio; ENS weights
    unavailability by load level; AENS is ENS per customer.
    """
    n_total = network.total_customers
    if n_total == 0:
        raise ZeroDivisionError("system has no customers")
    missing = [lp.id for lp in network.load_points if lp.id not in per_lp]
    if missing:
        raise KeyError(f"missing indices for load points {missing}")
    saifi = math.fsum(
        per_lp[lp.id].failure_rate * lp.customers for lp in network.load_points
    ) / n_total
    saidi = math.fsum(
        per_lp[lp.id].unavailability * lp.customers for lp in network.load_points
    ) / n_total
    if saifi == 0.0:
        raise ZeroDivisionError("SAIFI is zero; CAIDI is undefined")
    ens = math.fsum(
        per_lp[lp.id].unavailability * lp.load_level for lp in network.load_points
    )
    return SystemIndices(
        saifi=saifi,
        saidi=saidi,
        caidi=saidi / saifi,
        ens=ens,
        aens=ens / n_total,
    )


# ---------------------------------------------------------------------------
# Full evaluation with convergence control
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Everything a completed evaluation produced."""

    scenario_name: str
    seed: int
    years_run: int
    converged: bool
    p_res: dict[str, PResEstimate]
    per_lp: dict[str, LoadPointIndices]
    system: SystemIndices
    running_ens: np.ndarray  # running ENS estimate after each year
    statistic: np.ndarray  # convergence statistic per year (NaN until defined)


@dataclass
class SweepResult:
    """Sensitivity of the system indices to islanding-success probability."""

    base: RunResult
    rows: tuple[tuple[float, SystemIndices], ...]


def _running_ens_series(counts: np.ndarray, ctx_lp_ids: Sequence[str],
                        network: NetworkModel,
                        table: Mapping[str, LoadPointAggregate],
                        p_islanding: float,
                        prior_counts: Union[np.ndarray, int] = 0,
                        prior_years: int = 0) -> np.ndarray:
    """Running ENS estimate after each simulated year (vectorized).

    ``prior_counts`` (supplied days per load point) and ``prior_years``
    continue a series whose earlier years are not in ``counts``.
    """
    years = counts.shape[0]
    cumulative = np.cumsum(counts, axis=0, dtype=np.float64) + prior_counts
    total_days = DAYS_PER_YEAR * np.arange(
        prior_years + 1, prior_years + years + 1, dtype=np.float64)
    p = cumulative / total_days[:, None]
    levels = np.array([network.load_point(lp).load_level for lp in ctx_lp_ids])
    sum_lr = np.array([table[lp].sum_lambda_r for lp in ctx_lp_ids])
    u = sum_lr + _upstream_share(network.upstream, p_islanding, p)[1]
    return u @ levels


def _cumulative_sums(head: np.ndarray, series: np.ndarray) -> np.ndarray:
    """``head`` followed by the sums of ``series`` continuing from head[-1]."""
    continued = np.cumsum(np.concatenate((head[-1:], series)))
    return np.concatenate((head[:-1], continued))


def _convergence_statistic(running_ens: np.ndarray, window: int,
                           head: Optional[np.ndarray] = None) -> np.ndarray:
    """Relative change between window-mean ENS and its value a window earlier.

    ``head`` continues a series: the cumulative sums of the running ENS
    before ``running_ens``, either all of them from the 0 before year one
    (the default, no earlier years) or at least the last ``2 * window + 1``.
    The result covers the years of ``running_ens`` and is NaN until
    ``2 * window`` years exist.
    """
    csum = _cumulative_sums(np.zeros(1) if head is None else head, running_ens)
    means = (csum[window:] - csum[:-window]) / window  # means[j]: year j + window
    stat = np.full(csum.size - 1, np.nan)
    if means.size > window:
        current = means[window:]
        earlier = means[:-window]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(current - earlier) / np.abs(earlier)
        rel = np.where(
            earlier == 0.0, np.where(current == 0.0, 0.0, np.inf), rel
        )
        stat[2 * window - 1:] = rel
    return stat[stat.size - running_ens.size:]


class _Convergence:
    """The one record of a run, which the convergence rule extends wave by
    wave with the new years only.

    It keeps the years taken, the supplied days per load point and each
    year's running ENS and statistic; a wave that holds the stop year is cut
    at that year.  To extend the series it carries the latest year's counts
    and the last cumulative sums of the running ENS.  The statistic it sees
    for every year is bit-identical to one recomputed over all years taken.
    """

    def __init__(self, scenario: Scenario, lp_ids: Sequence[str],
                 table: Mapping[str, LoadPointAggregate]):
        self._scenario = scenario
        self._lp_ids = lp_ids
        self._table = table
        self.years = 0
        self.totals = np.zeros(len(lp_ids), dtype=np.int64)
        self.running_ens: list[np.ndarray] = []  # one array per wave
        self.statistic: list[np.ndarray] = []
        self._latest = np.zeros((0, len(lp_ids)), dtype=np.int64)
        self._head = np.zeros(1)

    def add(self, counts: np.ndarray) -> Optional[int]:
        """Take the counts of the next years, up to the first one that meets
        the convergence rule; return that stop year, if any."""
        scenario = self._scenario
        # numpy takes a one-row product through a dot kernel that can round
        # differently from the matrix-vector kernel of longer series, so a
        # lone new year is evaluated together with the year before it.
        lead = self._latest if counts.shape[0] == 1 else self._latest[:0]
        rows = np.concatenate((lead, counts))
        running = _running_ens_series(
            rows, self._lp_ids, scenario.network, self._table,
            scenario.p_islanding,
            prior_counts=self.totals - lead.sum(axis=0),
            prior_years=self.years - lead.shape[0],
        )[lead.shape[0]:]
        window = CONVERGENCE_WINDOW_YEARS
        statistic = _convergence_statistic(running, window, self._head)
        # statistic[i] belongs to year self.years + i + 1.
        floor = max(MIN_CONVERGENCE_YEARS - self.years, 1)
        hits = np.flatnonzero(statistic[floor - 1:] < scenario.tolerance)
        if hits.size:  # the wave ends at its stop year
            taken = floor + int(hits[0])
            counts, running, statistic = counts[:taken], running[:taken], statistic[:taken]
        self._head = _cumulative_sums(self._head, running)[-(2 * window + 1):]
        self.running_ens.append(running)
        self.statistic.append(statistic)
        self.totals += counts.sum(axis=0)
        self._latest = counts[-1:]
        self.years += counts.shape[0]
        return self.years if hits.size else None


_BLOCK_TAG, _ERROR_TAG = b"b", b"e"


def _fork_block_worker(ctx: _SimContext, starts: range,
                       max_years: int) -> tuple[int, BinaryIO]:
    """Fork a process that simulates the blocks at ``starts`` in order; its
    pid and pipe.

    Each block's counts go down the pipe as raw int64 bytes behind
    _BLOCK_TAG.  Any exception, an interrupt too, ends it and goes down
    pickled behind _ERROR_TAG, for the caller to raise.  The pipe's
    capacity bounds how far the process runs ahead of the reader.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    try:
        os.close(read)
        with open(write, "wb") as pipe:
            try:
                for start in starts:
                    size = min(_YEARS_PER_BLOCK, max_years - start)
                    pipe.write(_BLOCK_TAG + _simulate_block(ctx, start, size).tobytes())
                    pipe.flush()
            except BaseException as exc:
                pipe.write(_ERROR_TAG + pickle.dumps(exc))
    finally:
        os._exit(0)


def _receive_block(forked: dict[int, tuple[int, BinaryIO]], worker: int,
                   shape: tuple[int, int]) -> np.ndarray:
    """The next block from a forked worker; raises what the worker raised,
    or ChildProcessError if it exited without sending the block."""
    pid, pipe = forked[worker]
    tag = pipe.read(1)
    if tag == _ERROR_TAG:
        raise pickle.loads(pipe.read())
    nbytes = 8 * shape[0] * shape[1]
    data = pipe.read(nbytes)
    if tag == _BLOCK_TAG and len(data) == nbytes:
        return np.frombuffer(data, dtype=np.int64).reshape(shape)
    del forked[worker]
    pipe.close()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    raise ChildProcessError(f"block worker {pid} exited with status {status} "
                            "before sending all of its blocks")


def _stop_block_workers(forked: dict[int, tuple[int, BinaryIO]]) -> None:
    """Kill, reap and close every forked block worker, running or done."""
    import signal  # only runs that fork need it

    for pid, pipe in forked.values():
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pipe.close()


def run(scenario: Scenario, workers: int = 1) -> RunResult:
    """Execute the full evaluation for one scenario.

    Years are simulated in fixed-size blocks until the convergence rule
    triggers or ``scenario.max_years`` is reached.  Block j runs in process
    j mod w, w = min(workers, blocks): the caller is process 0 and forks
    the others, which inherit the run's context with its tables (where
    ``os.fork`` is missing, w = 1).  Forked workers run ahead and the
    caller takes the blocks in order; because every year reads its own
    words of the (seed, year // 64) Philox and the stopping year is a
    function of the per-year series alone, the result is identical for any
    worker count.
    On return, no forked worker is left running.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    table = build_contribution_table(scenario.network)
    # Without the microgrid (p = 0) each load point's failure rate and
    # unavailability are greatest, so if these indices are valid, so are
    # the run's.
    compute_system_indices(combine_analytical(dict.fromkeys(table, 0.0), table,
                                              scenario.network.upstream),
                           scenario.network)
    ctx = _context_for(scenario)
    n_lp = len(ctx.lp_ids)
    record = _Convergence(scenario, ctx.lp_ids, table)

    if not scenario.fleet:
        # Nothing stochastic: one year settles the estimate.
        record.add(_simulate_block(ctx, 0, 1))
        stop = 1
    else:
        # Lazy, so a cap far beyond where the run converges costs nothing;
        # len(starts) would overflow past 2^63 blocks.
        starts = range(0, scenario.max_years, _YEARS_PER_BLOCK)
        n_blocks = -(-scenario.max_years // _YEARS_PER_BLOCK)
        w = min(workers, n_blocks) if hasattr(os, "fork") else 1
        stop = None
        forked: dict[int, tuple[int, BinaryIO]] = {}  # process -> pid, pipe
        try:
            for process in range(1, w):
                forked[process] = _fork_block_worker(ctx, starts[process::w],
                                                     scenario.max_years)
            for j, start in enumerate(starts):
                size = min(_YEARS_PER_BLOCK, scenario.max_years - start)
                if j % w:
                    stop = record.add(_receive_block(forked, j % w, (size, n_lp)))
                else:
                    stop = record.add(_simulate_block(ctx, start, size))
                if stop is not None:
                    break
        finally:
            if forked:
                _stop_block_workers(forked)

    total_days = DAYS_PER_YEAR * record.years
    p_res = {
        lp_id: PResEstimate(int(record.totals[i]), total_days)
        for i, lp_id in enumerate(ctx.lp_ids)
    }
    per_lp = combine_analytical(p_res, table, scenario.network.upstream,
                                scenario.p_islanding)
    system = compute_system_indices(per_lp, scenario.network)
    return RunResult(
        scenario_name=scenario.name,
        seed=scenario.seed,
        years_run=record.years,
        converged=stop is not None,
        p_res=p_res,
        per_lp=per_lp,
        system=system,
        running_ens=np.concatenate(record.running_ens),
        statistic=np.concatenate(record.statistic),
    )


def sensitivity_sweep(scenario: Scenario,
                      p_values: Iterable[float],
                      workers: int = 1) -> SweepResult:
    """Recompute the system indices for several islanding-success levels.

    The Monte-Carlo estimate is produced once (supply probabilities do not
    depend on the islanding outcome) and each probability is applied through
    the analytical combination, so every index is exactly affine in p.
    """
    p_list = [float(p) for p in p_values]
    if not p_list:
        raise ValueError("at least one probability value is required")
    for p in p_list:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"islanding probability must lie in [0, 1], got {p}")
    base = run(scenario, workers=workers)
    table = build_contribution_table(scenario.network)
    rows = []
    for p in p_list:
        per_lp = combine_analytical(base.p_res, table, scenario.network.upstream, p)
        rows.append((p, compute_system_indices(per_lp, scenario.network)))
    return SweepResult(base=base, rows=tuple(rows))
