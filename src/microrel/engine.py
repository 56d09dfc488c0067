"""Hybrid reliability evaluation of an islandable microgrid.

Daily Monte-Carlo state sampling estimates, for every load point, the
probability that local renewable generation can carry it through an islanding
event under strict priority dispatch.  Those probabilities are then combined
analytically with the feeder's interruption statistics and the upstream-link
data to produce per-load-point indices (failure rate, unavailability, repair
time) and the customer-weighted system indices SAIFI, SAIDI, CAIDI, ENS and
AENS.

Years are independent given the seed: every simulated year consumes an RNG
substream derived from (seed, year index), so runs are reproducible and the
result is invariant to how many workers simulate the years.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from typing import BinaryIO, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .network import (
    ContributionTable,
    NetworkModel,
    UpstreamLink,
    build_contribution_table,
)
from .res_models import (
    DAYS_PER_YEAR,
    SHARED_IRRADIANCE_KEY,
    DailyResources,
    DgUnit,
    ResourceDistributions,
    WindTurbineSpec,
    draw_uniforms,
    prepare_sampling,
    sample_daily_resources,  # noqa: F401  (wrapped by perfbench/tracing.py)
    stream_days,
    unit_power_series,
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
# Years per pass of the chain from Weibull to dispatch within a block, so
# that a pass's per-day arrays (~190 KB each) stay in cache.
_YEARS_PER_PASS = 64
_MAX_THRESHOLD_LOADS = 6  # thresholds enumerate the 2^k served sets of k loads
_THRESHOLD_BRACKET = 128  # ulps; a threshold is a few ulps off a subset sum

_IDENTITY_RTOL = 1e-9
_MAX_SEED = 2**64


def _default_load_factors() -> tuple[float, ...]:
    return (1.0,) * DAYS_PER_YEAR


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
        for unit in self.fleet:
            region = getattr(unit.device, "region_id", None)
            if region is not None and region not in self.distributions.wind_regions:
                raise ValueError(
                    f"fleet unit {unit.name!r} references unknown wind region {region!r}"
                )
        if self.sweep_p is not None:
            object.__setattr__(self, "sweep_p", tuple(float(p) for p in self.sweep_p))
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
        for name in ("failure_rate", "unavailability", "repair_time"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
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


# ---------------------------------------------------------------------------
# Priority dispatch
# ---------------------------------------------------------------------------

def _dispatch(remaining: np.ndarray, needs: np.ndarray, blocking: bool,
              counts: np.ndarray) -> None:
    """Priority dispatch of every day of ``remaining``, in place.

    ``remaining`` (rows x days) holds each day's generation and ends as the
    curtailed surplus.  ``needs[k]`` is load k's level on each day, loads in
    priority order.  ``counts[:, k]`` receives the days per row on which
    load k is served.  It defines both rules, and the served thresholds.
    """
    fits = np.empty(remaining.shape, dtype=bool)
    served = np.ones(remaining.shape, dtype=bool) if blocking else fits
    for column, need in enumerate(needs):
        np.less_equal(need, remaining, out=fits)
        if blocking:
            served &= fits
        counts[:, column] = np.count_nonzero(served, axis=1)
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
    """Everything a block needs to simulate its years; forked block workers
    inherit it, so it is never pickled."""

    distributions: ResourceDistributions
    fleet: tuple[DgUnit, ...]
    lp_ids: tuple[str, ...]  # priority order, most sensitive first
    levels: tuple[float, ...]  # aligned with lp_ids
    load_factors: tuple[float, ...]
    blocking: bool
    seed: int


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


def _series_key(unit: DgUnit, shared_irradiance: bool) -> tuple:
    """Units with equal keys have equal power series: same spec and stream."""
    device = unit.device
    if isinstance(device, WindTurbineSpec):
        return device, device.region_id
    return device, SHARED_IRRADIANCE_KEY if shared_irradiance else unit.name


@lru_cache(maxsize=8)
def _served_thresholds(levels: tuple[float, ...], load_factors: tuple[float, ...],
                       blocking: bool) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Thresholds that count each load's served days without dispatching.

    A day's served loads, read as a binary code with the first load on top,
    never decrease with its total T (README, "Evaluation method"): load j
    is served on sum_c #(T >= tau_c) * (bit_j(c) - bit_j(c - 1)) days, with
    tau_c the least double whose code is >= c, bisected over the doubles'
    bit patterns with ``_dispatch`` as the oracle from a bracket at a subset
    sum of the needs (all doubles where it fails).  Equal rows merge.
    Returns thresholds (rows x days, one column for one factor) and steps
    (rows x loads), or None past _MAX_THRESHOLD_LOADS loads.
    """
    k = len(levels)
    if not 0 < k <= _MAX_THRESHOLD_LOADS:
        return None
    factors, day_factor = np.unique(load_factors, return_inverse=True)
    needs = np.multiply.outer(levels, factors)
    weights = 1 << np.arange(k - 1, -1, -1)
    bits = (np.arange(2**k)[:, None] & weights) > 0  # bits[c, j]: code c serves load j

    def code(patterns: np.ndarray) -> np.ndarray:  # of the doubles with these bits
        counts = np.empty((patterns.size, k), dtype=np.int64)
        _dispatch(patterns.reshape(-1, 1).view(np.float64).copy(),
                  np.tile(needs, patterns.shape[0])[:, :, None], blocking, counts)
        return (counts @ weights).reshape(patterns.shape)
    sums = (bits @ needs).view(np.int64) + _THRESHOLD_BRACKET // 2
    hi = np.full((2**k, factors.size), np.inf).view(np.int64)  # code(inf) is all ones
    np.minimum.at(hi, (code(sums), np.arange(factors.size)), sums)
    hi = np.minimum.accumulate(hi[::-1], axis=0)[-2::-1]
    c = np.arange(1, 2**k)[:, None]
    lo = np.maximum(hi - _THRESHOLD_BRACKET, 0)
    lo = np.where(code(lo) < c, lo, -1)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2  # -1 (a NaN, code 0) only where hi - lo == 1
        up = code(mid) >= c
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    tau = hi.view(np.float64)[:, day_factor if factors.size > 1 else [0]]
    rows = np.flatnonzero(np.r_[True, np.any(tau[1:] != tau[:-1], axis=1)])
    steps = np.add.reduceat(np.diff(bits.astype(np.int64), axis=0), rows, axis=0)
    return tau[rows], steps


def _simulate_block(ctx: _SimContext, start_year: int, n_years: int) -> np.ndarray:
    """Supplied-day counts, shape (n_years, n_load_points), priority order.

    The block draws its uniforms and inverts its irradiance streams once;
    the rest of the chain runs in passes of _YEARS_PER_PASS years, each
    computing every distinct power series once, summing the series in fleet
    order and counting the days whose totals reach each served threshold.
    """
    dists = ctx.distributions
    block = draw_uniforms(dists, ctx.fleet, ctx.seed, n_years, start_year)
    rows = {label: row for row, label in enumerate(block.labels)}
    irradiance = {
        key: stream_days(dists, block, row, 0, n_years * DAYS_PER_YEAR)
        for (kind, key), row in rows.items() if kind == "irradiance"
    }
    regions = {unit.device.region_id: rows["wind", unit.device.region_id]
               for unit in ctx.fleet if isinstance(unit.device, WindTurbineSpec)}
    keys = [_series_key(unit, dists.shared_irradiance) for unit in ctx.fleet]
    distinct: dict[tuple, DgUnit] = {}  # the first unit of each series
    for key, unit in zip(keys, ctx.fleet):
        distinct.setdefault(key, unit)
    served = _served_thresholds(ctx.levels, ctx.load_factors, ctx.blocking)
    if served is None:
        needs = np.multiply.outer(ctx.levels, ctx.load_factors)

    counts = np.empty((n_years, len(ctx.lp_ids)), dtype=np.int64)
    for first in range(0, n_years, _YEARS_PER_PASS):
        last = min(first + _YEARS_PER_PASS, n_years)
        start, stop = first * DAYS_PER_YEAR, last * DAYS_PER_YEAR
        resources = DailyResources(
            wind_speeds={region: stream_days(dists, block, row, start, stop)
                         for region, row in regions.items()},
            irradiance={key: values[start:stop] for key, values in irradiance.items()},
            n_days=stop - start,
        )
        power = {key: unit_power_series(unit, resources)
                 for key, unit in distinct.items()}
        totals = np.zeros((last - first, DAYS_PER_YEAR))
        for key in keys:
            totals += power[key].reshape(totals.shape)
        if served is None:
            _dispatch(totals, needs, ctx.blocking, counts[first:last])
            continue
        reached = [(totals >= tau).sum(axis=1) for tau in served[0]]
        counts[first:last] = np.stack(reached, axis=1) @ served[1]
    return counts


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


def combine_analytical(p_res: Mapping[str, Union[PResEstimate, float]],
                       contributions: ContributionTable,
                       upstream: UpstreamLink,
                       p_islanding: float = 1.0) -> dict[str, LoadPointIndices]:
    """Combine supply probabilities with network and upstream statistics.

    For each load point i with supply probability p_i::

        lambda_i = sum(lambda_j) + (1 - p_islanding * p_i) * lambda_up
        U_i      = sum(lambda_j * r_j) + (1 - p_islanding * p_i) * lambda_up * r_up

    An upstream failure interrupts the load point only when the island fails
    to form or the fleet cannot carry the load, hence the (1 - p) weight on
    the upstream term.  With p_islanding = 0 the fleet contributes nothing.
    """
    if not 0.0 <= p_islanding <= 1.0:
        raise ValueError(f"p_islanding must lie in [0, 1], got {p_islanding}")
    indices = {}
    for lp_id in contributions.load_point_ids:
        if lp_id not in p_res:
            raise KeyError(f"missing supply probability for load point {lp_id!r}")
        p_effective = p_islanding * _p_res_value(p_res[lp_id])
        lam = contributions.sum_lambda(lp_id) + (1.0 - p_effective) * upstream.failure_rate
        u = contributions.sum_lambda_r(lp_id) + (
            (1.0 - p_effective) * upstream.failure_rate * upstream.repair_time
        )
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
                        network: NetworkModel, table: ContributionTable,
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
    upstream = network.upstream
    levels = np.array([network.load_point(lp).load_level for lp in ctx_lp_ids])
    sum_lr = np.array([table.sum_lambda_r(lp) for lp in ctx_lp_ids])
    u = sum_lr[None, :] + (1.0 - p_islanding * p) * (
        upstream.failure_rate * upstream.repair_time
    )
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


def _find_stop_year(statistic: np.ndarray, tolerance: float,
                    max_years: int, offset: int) -> Optional[int]:
    """First year (1-based) meeting the convergence rule, or None.

    ``statistic[i]`` belongs to year ``offset + i + 1``.
    """
    first = max(MIN_CONVERGENCE_YEARS - offset, 1)
    limit = min(statistic.size, max_years - offset)
    if limit < first:
        return None
    hits = np.flatnonzero(statistic[first - 1:limit] < tolerance)
    if hits.size == 0:
        return None
    return offset + first + int(hits[0])


class _Convergence:
    """The convergence rule applied wave by wave to the new years only.

    It carries forward what the rule needs of earlier years: the supplied
    days per load point, the latest year's counts and the last cumulative
    sums of the running ENS.  The statistic it sees for every year is
    bit-identical to one recomputed over all years simulated so far.
    """

    def __init__(self, scenario: Scenario, lp_ids: Sequence[str],
                 table: ContributionTable):
        self._scenario = scenario
        self._lp_ids = lp_ids
        self._table = table
        self._years = 0
        self._totals = np.zeros(len(lp_ids), dtype=np.int64)
        self._latest = np.zeros((0, len(lp_ids)), dtype=np.int64)
        self._head = np.zeros(1)

    def add(self, counts: np.ndarray) -> Optional[int]:
        """Take the counts of the next years; return the stop year, if any."""
        scenario = self._scenario
        # numpy takes a one-row product through a dot kernel that can round
        # differently from the matrix-vector kernel of longer series, so a
        # lone new year is evaluated together with the year before it.
        lead = self._latest if counts.shape[0] == 1 else self._latest[:0]
        rows = np.concatenate((lead, counts))
        running = _running_ens_series(
            rows, self._lp_ids, scenario.network, self._table,
            scenario.p_islanding,
            prior_counts=self._totals - lead.sum(axis=0),
            prior_years=self._years - lead.shape[0],
        )[lead.shape[0]:]
        window = CONVERGENCE_WINDOW_YEARS
        statistic = _convergence_statistic(running, window, self._head)
        stop = _find_stop_year(statistic, scenario.tolerance,
                               scenario.max_years, self._years)
        self._head = _cumulative_sums(self._head, running)[-(2 * window + 1):]
        self._totals += counts.sum(axis=0)
        self._latest = counts[-1:]
        self._years += counts.shape[0]
        return stop


_BLOCK_TAG, _ERROR_TAG = b"b", b"e"


def _fork_block_worker(ctx: _SimContext,
                       blocks: Sequence[tuple[int, int]]) -> tuple[int, BinaryIO]:
    """Fork a process that simulates ``blocks`` in order; its pid and pipe.

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
                for start, size in blocks:
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
    the others once the tables they inherit are built (where ``os.fork``
    is missing, w = 1).  Forked workers run ahead and the caller takes the
    blocks in order; because every year draws from its own (seed, year)
    substream and the stopping year is a function of the per-year series
    alone, the result is identical for any worker count.  On return, no
    forked worker is left running.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    table = build_contribution_table(scenario.network)
    ctx = _context_for(scenario)
    n_lp = len(ctx.lp_ids)

    if not scenario.fleet:
        # Nothing stochastic: the supply probability is exactly zero.
        counts = np.zeros((1, n_lp), dtype=np.int64)
        converged = True
        years_run = 1
    else:
        blocks = [(start, min(_YEARS_PER_BLOCK, scenario.max_years - start))
                  for start in range(0, scenario.max_years, _YEARS_PER_BLOCK)]
        w = min(workers, len(blocks)) if hasattr(os, "fork") else 1
        prepare_sampling(ctx.distributions, ctx.fleet)
        _served_thresholds(ctx.levels, ctx.load_factors, ctx.blocking)
        convergence = _Convergence(scenario, ctx.lp_ids, table)
        simulated: list[np.ndarray] = []
        stop = None
        forked: dict[int, tuple[int, BinaryIO]] = {}  # process -> pid, pipe
        try:
            for process in range(1, w):
                forked[process] = _fork_block_worker(ctx, blocks[process::w])
            for j, (start, size) in enumerate(blocks):
                if j % w:
                    simulated.append(_receive_block(forked, j % w, (size, n_lp)))
                else:
                    simulated.append(_simulate_block(ctx, start, size))
                stop = convergence.add(simulated[-1])
                if stop is not None:
                    break
        finally:
            if forked:
                _stop_block_workers(forked)
        converged = stop is not None
        years_run = stop if converged else scenario.max_years
        counts = np.concatenate(simulated, axis=0)[:years_run]

    running_ens = _running_ens_series(
        counts, ctx.lp_ids, scenario.network, table, scenario.p_islanding
    )
    statistic = _convergence_statistic(running_ens, CONVERGENCE_WINDOW_YEARS)

    totals = counts.sum(axis=0)
    total_days = DAYS_PER_YEAR * years_run
    p_res = {
        lp_id: PResEstimate(int(totals[i]), total_days)
        for i, lp_id in enumerate(ctx.lp_ids)
    }
    per_lp = combine_analytical(p_res, table, scenario.network.upstream,
                                scenario.p_islanding)
    system = compute_system_indices(per_lp, scenario.network)
    return RunResult(
        scenario_name=scenario.name,
        seed=scenario.seed,
        years_run=years_run,
        converged=converged,
        p_res=p_res,
        per_lp=per_lp,
        system=system,
        running_ens=running_ens,
        statistic=statistic,
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
