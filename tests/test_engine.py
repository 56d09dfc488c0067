"""Engine tests: dispatch, analytical combination, indices, full runs."""

import dataclasses
import errno
import itertools
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from microrel import engine, res_models
from microrel.engine import (
    LoadPointIndices,
    PResEstimate,
    Scenario,
    combine_analytical,
    compute_system_indices,
    priority_dispatch,
    run,
    sensitivity_sweep,
    simulate_year,
)
from microrel.network import (
    ComponentReliability,
    LoadPoint,
    LoadPointAggregate,
    NetworkModel,
    build_contribution_table,
)
from microrel.res_models import (
    _BETA_CELLS,
    BetaParams,
    DailyResources,
    DgUnit,
    NumericsError,
    PvArraySpec,
    ResourceDistributions,
    WeibullParams,
    WindTurbineSpec,
)
from microrel.scenario_io import build_report, bundled_scenarios, emit_report
from oracles import dispatch_by_enumeration, reference_block_counts

PRIORITY_LOADS = [("LP9", 500.0), ("LP3", 3000.0), ("LP4", 1000.0), ("LP2", 1000.0)]

TABLE_V_CASE1 = {
    "LP2": (0.726, 11.042, 8.017),
    "LP3": (0.726, 10.823, 7.858),
    "LP4": (0.726, 10.093, 7.328),
    "LP9": (0.656, 10.554, 6.924),
}


@pytest.fixture(scope="module")
def cases():
    return bundled_scenarios()


# The study network that case1-4 and sweep share.
STUDY_NETWORK = bundled_scenarios()["case1"].network


def _zero_p_res():
    return {lp: 0.0 for lp in ("LP2", "LP3", "LP4", "LP9")}


# ---------------------------------------------------------------------------
# Priority dispatch
# ---------------------------------------------------------------------------

def test_dispatch_nothing_served_without_generation():
    assert priority_dispatch(0.0, PRIORITY_LOADS) == set()


def test_dispatch_exact_capacity_serves_everything():
    assert priority_dispatch(5500.0, PRIORITY_LOADS) == {"LP9", "LP3", "LP4", "LP2"}


def test_dispatch_partial_capacity_respects_priority():
    served = priority_dispatch(3600.0, PRIORITY_LOADS)
    assert served == {"LP9", "LP3"}
    assert priority_dispatch(3600.0, PRIORITY_LOADS, blocking=True) == {"LP9", "LP3"}


def test_dispatch_rules_differ_when_a_skip_frees_capacity():
    # 1600 kW: LP3 does not fit; serve-if-fits passes over it to LP4 while
    # the blocking rule stops the scan.
    assert priority_dispatch(1600.0, PRIORITY_LOADS) == {"LP9", "LP4"}
    assert priority_dispatch(1600.0, PRIORITY_LOADS, blocking=True) == {"LP9"}


def test_dispatch_rejects_negative_generation():
    with pytest.raises(ValueError):
        priority_dispatch(-1.0, PRIORITY_LOADS)


def test_dispatch_rejects_a_negative_load_level():
    with pytest.raises(ValueError, match="load level for 'LP3' must be >= 0"):
        priority_dispatch(1000.0, [("LP9", 100.0), ("LP3", -1.0)])


@pytest.mark.parametrize("blocking", [False, True])
def test_dispatch_matches_subset_enumeration(blocking):
    rng = np.random.default_rng(314)
    for _ in range(1000):
        n = rng.integers(1, 7)
        loads = [(f"L{i}", float(rng.integers(0, 40)) * 25.0) for i in range(n)]
        total = float(rng.integers(0, 60)) * 25.0
        expected = dispatch_by_enumeration(total, loads, blocking=blocking)
        assert priority_dispatch(total, loads, blocking=blocking) == expected


def _served_by_kernel(totals, loads, factor, blocking):
    # One row per total, one day each: counts[i, k] says whether load k is
    # served on day i.
    levels = np.array([level for _, level in loads])
    counts = np.zeros((len(totals), len(loads)), dtype=np.int64)
    engine._dispatch(np.array(totals, dtype=float)[:, None],
                     np.multiply.outer(levels, [factor]), blocking, counts)
    return [{lp_id for (lp_id, _), c in zip(loads, row) if c} for row in counts]


@pytest.mark.parametrize("blocking", [False, True])
def test_dispatch_kernel_matches_subset_enumeration(blocking):
    rng = np.random.default_rng(2718)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        loads = [(f"L{i}", float(level))
                 for i, level in enumerate(rng.uniform(0.0, 3000.0, n))]
        loads[int(rng.integers(0, n))] = ("Z", 0.0)
        factor = float(rng.choice([1.0, 0.37, 1.9]))
        scaled = [(lp_id, level * factor) for lp_id, level in loads]
        # Random totals, and totals exactly at every prefix sum of the
        # scaled levels, where a load fits with nothing to spare.
        prefix = np.cumsum([level for _, level in scaled])
        totals = np.concatenate((rng.uniform(0.0, 1.2 * prefix[-1], 20),
                                 prefix, [0.0]))
        served = _served_by_kernel(totals, loads, factor, blocking)
        for total, got in zip(totals, served):
            assert got == dispatch_by_enumeration(float(total), scaled,
                                                  blocking=blocking)


@pytest.mark.parametrize("blocking", [False, True])
def test_zero_level_load_is_always_served_and_never_blocks(cases, blocking):
    assert priority_dispatch(0.0, [("Z", 0.0), ("A", 1.0), ("B", 0.0)],
                             blocking=blocking) == ({"Z"} if blocking else {"Z", "B"})
    # Zero-level loads at the top and below LP9 change no other load's
    # count; the top one is served every day, the other whenever the scan
    # reaches it.
    ctx = dataclasses.replace(engine._context_for(cases["case3"]),
                              blocking=blocking)
    with_zero = dataclasses.replace(
        ctx, lp_ids=("Z0",) + ctx.lp_ids[:1] + ("Z1",) + ctx.lp_ids[1:],
        levels=(0.0,) + ctx.levels[:1] + (0.0,) + ctx.levels[1:])
    counts = engine._simulate_block(with_zero, 0, 40)
    expected = engine._simulate_block(ctx, 0, 40)
    np.testing.assert_array_equal(np.delete(counts, [0, 2], axis=1), expected)
    assert np.all(counts[:, 0] == engine.DAYS_PER_YEAR)
    np.testing.assert_array_equal(
        counts[:, 2], expected[:, 0] if blocking else engine.DAYS_PER_YEAR)


# ---------------------------------------------------------------------------
# Served thresholds against the dispatch they come from
# ---------------------------------------------------------------------------

def _dispatched(totals, levels, factors, blocking):
    # Served loads, shape totals.shape + (loads,): each (total, day) pair is
    # dispatched on its own.
    needs = np.multiply.outer(levels, factors)
    counts = np.empty((totals.size, len(levels)), dtype=np.int64)
    engine._dispatch(totals.reshape(-1, 1).copy(),
                     np.tile(needs, totals.shape[0])[:, :, None], blocking, counts)
    return counts.reshape(totals.shape + (len(levels),))


def _assert_thresholds_match_dispatch(levels, factors, blocking, rng):
    # The thresholds' served sets equal the dispatch's at every threshold,
    # one double on either side of it, at 0, at the least double and at
    # random totals; agreement at a threshold and below it proves the
    # threshold is the least double that reaches its served set.
    thresholds, steps = engine._served_thresholds.__wrapped__(
        tuple(levels), tuple(factors), blocking)
    # One column stands for every day when all days share one factor.
    assert thresholds.shape == (len(steps), len(factors) if len(set(factors)) > 1 else 1)
    thresholds = np.broadcast_to(thresholds, (len(steps), len(factors)))
    needs = np.multiply.outer(levels, factors)
    totals = np.vstack((thresholds, np.nextafter(thresholds, 0.0),
                        np.nextafter(thresholds, np.inf),
                        np.zeros(len(factors)), np.full(len(factors), 5e-324),
                        rng.uniform(0.0, 1.2, (20, len(factors)))
                        * (needs.sum(axis=0) + 1.0)))
    predicted = (totals[:, :, None] >= thresholds.T).astype(np.int64) @ steps
    np.testing.assert_array_equal(predicted,
                                  _dispatched(totals, levels, factors, blocking))
    return thresholds, steps


def _random_levels(rng, n):
    levels = rng.uniform(0.0, 3000.0, n)
    levels[rng.random(n) < 0.2] = 0.0
    return levels


@pytest.mark.parametrize("blocking", [False, True])
def test_served_thresholds_match_dispatch_for_random_needs(blocking):
    rng = np.random.default_rng(1618)
    # Fewer draws of the larger networks, whose chains of served sets are longer.
    for n in [1, 2, 3, 4, 5, 6] * 25 + [7, 8, 9, 10] * 6 + list(range(11, 17)) * 2:
        factors = rng.choice([0.0, 1.0, 0.37, 1.9, float(rng.uniform(0.0, 2.0))], 8)
        thresholds, steps = _assert_thresholds_match_dispatch(
            _random_levels(rng, n), factors, blocking, rng)
        # The steps telescope to every load served; blocking only adds loads.
        np.testing.assert_array_equal(steps.sum(axis=0), 1)
        assert len(steps) <= (n if blocking else 2**n - 1)
        assert not blocking or np.all(steps >= 0)


def test_seventy_blocking_loads_step_one_priority_prefix_at_a_time():
    # Served sets are compared as boolean rows, not as integer codes, so no
    # load count overflows them: 70 loads take a row per priority prefix.
    rng = np.random.default_rng(70)
    _, steps = _assert_thresholds_match_dispatch(
        rng.uniform(100.0, 3000.0, 70), [1.0, 0.37, 1.9, 1.0], True, rng)
    np.testing.assert_array_equal(steps, np.eye(70, dtype=np.int64))


@pytest.mark.parametrize("blocking", [False, True])
def test_power_of_two_needs_walk_every_served_set(blocking):
    # With needs 32, 16, ..., 1 (x 100 kW) the served loads are the binary
    # digits of the total, so serve-if-fits walks all 63 nonempty sets.
    _, steps = _assert_thresholds_match_dispatch(
        100.0 * 2.0 ** np.arange(5, -1, -1), [1.0, 0.37, 1.9], blocking,
        np.random.default_rng(64))
    assert len(steps) == (6 if blocking else 63)


@pytest.mark.parametrize("bracket", [0, 2])
def test_served_thresholds_do_not_depend_on_the_bracket(monkeypatch, bracket):
    # A bracket of 0 ulps never holds, so every threshold is bisected from
    # the last one to inf; one of 2 ulps holds only about exact sums.
    rng = np.random.default_rng(2718)
    networks = [(tuple(_random_levels(rng, n)),
                 tuple(rng.choice([0.0, 1.0, 0.37, 1.9], 8)), blocking)
                for n in (1, 3, 5, 8, 12) for blocking in (False, True)]
    expected = [engine._served_thresholds.__wrapped__(*network) for network in networks]
    monkeypatch.setattr(engine, "_THRESHOLD_BRACKET", bracket)
    for network, (taus, steps) in zip(networks, expected):
        got_taus, got_steps = engine._served_thresholds.__wrapped__(*network)
        np.testing.assert_array_equal(got_taus, taus)
        np.testing.assert_array_equal(got_steps, steps)


@pytest.mark.parametrize("blocking", [False, True])
def test_served_thresholds_match_dispatch_for_case4_factors(cases, blocking):
    ctx = engine._context_for(cases["case4"])
    assert len(set(ctx.load_factors)) == 161
    _, steps = _assert_thresholds_match_dispatch(
        np.array(ctx.levels), np.array(ctx.load_factors), blocking,
        np.random.default_rng(5))
    # Blocking serves priority prefixes, one row per load; serve-if-fits
    # reaches 6 of the 15 nonempty served sets of the bundled needs.
    if blocking:
        np.testing.assert_array_equal(steps, np.eye(4, dtype=np.int64))
    else:
        assert len(steps) == 6


@pytest.mark.parametrize("blocking", [False, True])
def test_served_code_is_nondecreasing_in_total(blocking):
    rng = np.random.default_rng(1414)
    for n in [1, 2, 3, 4, 5, 6] * 10:
        levels = _random_levels(rng, n)
        subset_sums = np.array([levels[[j for j in range(n) if m >> j & 1]].sum()
                                for m in range(2**n)])
        totals = np.concatenate((rng.uniform(0.0, 1.2 * levels.sum() + 1.0, 200),
                                 subset_sums, np.nextafter(subset_sums, 0.0),
                                 np.nextafter(subset_sums, np.inf), [0.0, 5e-324]))
        totals = np.sort(totals)[:, None]
        served = _dispatched(totals, levels, [1.0], blocking)[:, 0]
        code = served @ (1 << np.arange(n - 1, -1, -1))
        assert np.all(np.diff(code) >= 0)


# Levels of up to 16 loads in priority order, two of them 0.
_MANY_LEVELS = (500.0, 3000.0, 1000.0, 1000.0, 700.0, 0.0, 300.0, 200.0, 450.0, 120.0,
                0.0, 80.0, 250.0, 60.0, 175.0, 150.0)


@pytest.mark.parametrize("blocking", [False, True])
@pytest.mark.parametrize("n_loads", [7, 10, 16])
def test_block_counts_match_reference_past_the_bundled_needs(cases, n_loads, blocking):
    # case4's per-day load factors, over block lengths that end mid-pass.
    ctx = dataclasses.replace(
        engine._context_for(cases["case4"]), blocking=blocking,
        levels=_MANY_LEVELS[:n_loads], lp_ids=tuple(f"L{j}" for j in range(n_loads)))
    for start_year, n_years in ((0, P + 1), (511, 2 * P - 5)):
        np.testing.assert_array_equal(engine._simulate_block(ctx, start_year, n_years),
                                      reference_block_counts(ctx, start_year, n_years))


def test_a_replaced_context_rebuilds_its_tables(cases):
    # The tables are fields of the context, built from its other fields:
    # a context replaced with other loads and the other rule gets its own.
    ctx = engine._context_for(cases["case4"])
    levels = _MANY_LEVELS[:7]
    other = dataclasses.replace(ctx, blocking=not ctx.blocking, levels=levels,
                                lp_ids=tuple(f"L{j}" for j in range(7)))
    taus, steps = engine._served_thresholds.__wrapped__(levels, ctx.load_factors,
                                                         not ctx.blocking)
    np.testing.assert_array_equal(other.taus, taus)
    np.testing.assert_array_equal(other.steps, steps)
    np.testing.assert_array_equal(other.limits, ctx.bounds.limits(taus))
    assert other.bounds is ctx.bounds  # the same fleet's cached bounds
    assert other.steps.shape[1] == 7 != ctx.steps.shape[1]
    np.testing.assert_array_equal(engine._simulate_block(other, 0, P + 1),
                                  reference_block_counts(other, 0, P + 1))


@pytest.mark.parametrize("blocking", [False, True])
def test_a_total_exactly_at_a_threshold_is_served(cases, blocking):
    # A lone turbine rated at the sum of the needs delivers exactly that sum
    # on every day between rated and cut-out speed: the least total that
    # serves every load, which those days must count.
    ctx = engine._context_for(cases["case2"])
    region = ctx.fleet[0].device.region_id
    turbine = WindTurbineSpec(math.fsum(ctx.levels), 10.0, 3.0, 25.0, region)
    ctx = dataclasses.replace(ctx, fleet=(DgUnit("WTG1", "LP2", turbine),),
                              blocking=blocking)
    counts = engine._simulate_block(ctx, 0, 40)
    np.testing.assert_array_equal(counts, reference_block_counts(ctx, 0, 40))
    assert counts[:, -1].sum() > 0


@pytest.mark.parametrize("name", ["case2", "case3", "case4"])
def test_adding_a_turbine_never_lowers_a_years_counts_under_blocking(cases, name):
    # The extra turbine joins an existing region at the end of the fleet,
    # so every other draw is unchanged and every day's total can only grow.
    # Blocking serves a priority prefix, which grows with the total.
    # Serve-if-fits does not: a larger total can serve a higher-priority
    # load that takes the capacity a lower one had, so there a year's count
    # of that lower load can fall.
    base = dataclasses.replace(cases[name], dispatch=engine.DISPATCH_BLOCKING)
    region = base.fleet[0].device.region_id
    extra = DgUnit("WTG9", "LP6", WindTurbineSpec(1000.0, 14.0, 3.0, 25.0, region))
    bigger = dataclasses.replace(base, fleet=base.fleet + (extra,))
    small = engine._simulate_block(engine._context_for(base), 0, 200)
    grown = engine._simulate_block(engine._context_for(bigger), 0, 200)
    assert np.all(grown >= small)
    assert np.any(grown > small)


# ---------------------------------------------------------------------------
# Block kernel against the whole-block reference
# ---------------------------------------------------------------------------

def _two_specs_per_region(case3):
    # Two turbine specs in region1 (one repeated), two PV specs (one
    # repeated), so some units share a power series and some do not.
    wtg1 = case3.fleet[0].device
    pv = case3.fleet[2].device
    fleet = case3.fleet + (
        DgUnit("WTG5", "LP2", dataclasses.replace(wtg1, p_rated=900.0, v_rated=11.0)),
        DgUnit("WTG6", "LP3", wtg1),
        DgUnit("PV3", "LP4", dataclasses.replace(pv, p_sn=700.0, r_c=120.0)),
    )
    return dataclasses.replace(case3, name="mixed", fleet=fleet)


def _array_named_shared(case3):
    # PV1 renamed "shared", the label of the shared irradiance stream: under
    # independent irradiance PV2 must still read its own stream.
    fleet = tuple(dataclasses.replace(unit, name="shared") if unit.name == "PV1" else unit
                  for unit in case3.fleet)
    return dataclasses.replace(case3, name="named_shared", fleet=fleet)


P = engine._YEARS_PER_PASS
CASE3_VARIANTS = {"mixed": _two_specs_per_region, "named_shared": _array_named_shared}


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("dispatch", [engine.DISPATCH_BLOCKING,
                                      engine.DISPATCH_SERVE_IF_FITS])
@pytest.mark.parametrize("name", ["case2", "case3", "case4", "sweep", "mixed",
                                  "named_shared"])
def test_block_counts_bit_identical_to_whole_block_reference(
        cases, name, dispatch, shared):
    if name in CASE3_VARIANTS:
        base = CASE3_VARIANTS[name](cases["case3"])
    else:
        base = cases[name]
    scenario = dataclasses.replace(
        base, dispatch=dispatch,
        distributions=dataclasses.replace(base.distributions,
                                          shared_irradiance=shared))
    ctx = engine._context_for(scenario)
    # Blocks that start at a sampler group's last year, first or second, and
    # end inside a group, at its end or past it.  A year's counts do not
    # depend on the block, so each block is a slice of a longer reference.
    block = engine._YEARS_PER_BLOCK
    reference = {first: reference_block_counts(ctx, first, years)
                 for first, years in ((0, P + 1 + block), (511, block), (100_000, block))}
    for n_years in (1, P - 1, P, P + 1, block):
        for start_year in (0, P - 1, P, P + 1, 511, 100_000):
            first = max(first for first in reference if first <= start_year)
            np.testing.assert_array_equal(
                engine._simulate_block(ctx, start_year, n_years),
                reference[first][start_year - first:][:n_years],
                err_msg=f"{n_years} years from {start_year}")


def test_each_unit_power_series_is_computed_once_per_block_in_fleet_order(cases,
                                                                         monkeypatch):
    # The open days' totals add every unit's series in fleet order, one
    # call per unit per block, each on all of the block's open days.
    calls = []
    original = engine.unit_power_series

    def counted(unit, resources):
        calls.append((unit.name, resources.n_days))
        return original(unit, resources)

    monkeypatch.setattr(engine, "unit_power_series", counted)
    for scenario, n_years in ((cases["case2"], 2 * P), (_two_specs_per_region(cases["case3"]), P)):
        calls.clear()
        engine._simulate_block(engine._context_for(scenario), 0, n_years)
        assert [name for name, _ in calls] == [unit.name for unit in scenario.fleet]
        assert len({n_days for _, n_days in calls}) == 1 and calls[0][1] > 0


def _adversarial_context(case3, name, dispatch):
    """case3's context with a fleet or loads that stress the PV or wind bounds."""
    ctx = engine._context_for(dataclasses.replace(case3, dispatch=dispatch))
    wind, pv = ctx.fleet[:2], ctx.fleet[2:]
    if name == "wind_flat_top":
        # Between 9 m/s and cut-out the lone turbine delivers exactly the
        # sum of the needs, the least total that serves every load.
        spec = dataclasses.replace(wind[0].device, p_rated=math.fsum(ctx.levels),
                                   v_rated=9.0)
        return dataclasses.replace(ctx, fleet=(DgUnit("WTG1", "LP7", spec),))
    if name == "wind_p_res_near_1":
        spec = WindTurbineSpec(1e6, v_rated=1.0, v_cut_in=0.05, v_cut_out=60.0,
                               region_id="region1")
        return dataclasses.replace(ctx, fleet=(DgUnit("WTG1", "LP7", spec), wind[1]))
    if name == "flat_top":
        # Above g_std (600 < scale_gmax = 850 W/m2) the lone array delivers
        # exactly the sum of the needs, the least total that serves every
        # load, and those days' bounds straddle it.
        spec = PvArraySpec(math.fsum(ctx.levels), g_std=600.0, r_c=150.0)
        return dataclasses.replace(ctx, fleet=(DgUnit("PV1", "LP1", spec),))
    if name in ("pv_only", "pv_only_independent"):
        return dataclasses.replace(ctx, fleet=pv, distributions=dataclasses.replace(
            ctx.distributions, shared_irradiance=name == "pv_only"))
    if name == "zero_load":
        return dataclasses.replace(ctx, levels=(500.0, 0.0, 1000.0, 1000.0))
    if name == "p_res_near_0":
        return dataclasses.replace(ctx, fleet=(DgUnit("PV1", "LP1", PvArraySpec(1.0)),))
    if name == "p_res_near_1":
        return dataclasses.replace(ctx, fleet=wind + (DgUnit("PV1", "LP1", PvArraySpec(1e6)),))
    assert name == "seven_loads"
    levels = (500.0, 3000.0, 1000.0, 1000.0, 700.0, 300.0, 200.0)
    return dataclasses.replace(ctx, levels=levels,
                               lp_ids=tuple(f"L{j}" for j in range(len(levels))))


@pytest.mark.parametrize("dispatch", [engine.DISPATCH_BLOCKING,
                                      engine.DISPATCH_SERVE_IF_FITS])
@pytest.mark.parametrize("name", ["flat_top", "pv_only", "pv_only_independent",
                                  "zero_load", "p_res_near_0", "p_res_near_1",
                                  "seven_loads", "wind_flat_top", "wind_p_res_near_1"])
def test_block_counts_match_reference_where_pv_bounds_are_stressed(cases, name, dispatch):
    ctx = _adversarial_context(cases["case3"], name, dispatch)
    for n_years in (1, P + 1, engine._YEARS_PER_BLOCK):
        counts = engine._simulate_block(ctx, 0, n_years)
        np.testing.assert_array_equal(counts, reference_block_counts(ctx, 0, n_years),
                                      err_msg=f"{n_years} years")
    p_res = counts.sum(axis=0) / (n_years * 365)
    if name in ("flat_top", "wind_flat_top"):
        assert p_res[-1] > 0.05
    if name == "p_res_near_0":
        assert np.all(p_res == 0.0)
    if name in ("p_res_near_1", "wind_p_res_near_1"):
        assert np.all(p_res > 0.95)


def test_few_irradiance_days_reach_the_beta_inverse(cases, monkeypatch):
    # The PV bounds settle all but a few days of bundled case3; each block
    # inverts the irradiance of those few in one call.
    sizes = []
    original = res_models.beta_inverse_cdf

    def counted(params, u, *args, **kwargs):
        sizes.append(np.size(u))
        return original(params, u, *args, **kwargs)

    monkeypatch.setattr(res_models, "beta_inverse_cdf", counted)
    ctx = engine._context_for(cases["case3"])
    years = 2 * engine._YEARS_PER_BLOCK
    for start in range(0, years, engine._YEARS_PER_BLOCK):
        engine._simulate_block(ctx, start, engine._YEARS_PER_BLOCK)
    assert len(sizes) <= 2
    assert sum(sizes) < 0.01 * years * 365


def _fixed_point_context(cases, name):
    if name in ("wind_flat_top", "wind_p_res_near_1"):
        return _adversarial_context(cases["case3"], name, engine.DISPATCH_BLOCKING)
    ctx = engine._context_for(cases["case3"])
    if name == "giant_and_tiny":
        # A 1e6 kW turbine sets the fixed-point step, far above a 0.5 kW
        # array's whole range.
        turbine = WindTurbineSpec(1e6, v_rated=1.0, v_cut_in=0.05, v_cut_out=60.0,
                                  region_id="region1")
        return dataclasses.replace(ctx, fleet=(DgUnit("WTG1", "LP7", turbine),
                                               DgUnit("PV1", "LP1", PvArraySpec(0.5))))
    case, irradiance = name.split("-")
    scenario = cases[case]
    return engine._context_for(dataclasses.replace(
        scenario, distributions=dataclasses.replace(
            scenario.distributions, shared_irradiance=irradiance == "shared")))


def _edge_and_random_words(n_streams: int) -> list[np.ndarray]:
    """Per stream: the first word of every u-cell and the words two uniforms
    either side of it, the greatest word, and 10^5 random words.  The edge
    words sit on different days in each stream, so that every stream's
    edges meet other cells of the rest."""
    edges = np.arange(_BETA_CELLS, dtype=np.uint64) << np.uint64(51)
    near = np.concatenate([edges + np.uint64(k * 2**11 % 2**64) for k in range(-2, 3)]
                          + [np.array([2**64 - 1], dtype=np.uint64)])
    rng = np.random.default_rng(18)
    return [np.concatenate((np.roll(near, 4099 * s),
                            rng.integers(0, 2**64, 10**5, dtype=np.uint64,
                                         endpoint=False)))
            for s in range(n_streams)]



@pytest.mark.parametrize("name", [
    "case2-shared", "case3-shared", "case3-independent", "case4-shared",
    "case4-independent", "wind_flat_top", "wind_p_res_near_1", "giant_and_tiny",
])
def test_fixed_point_stream_bounds_bracket_the_fleet_order_total(cases, name):
    ctx = _fixed_point_context(cases, name)
    dists = ctx.distributions
    bounds = res_models.stream_bounds(dists, ctx.fleet)
    assert bounds.lower.dtype == bounds.upper.dtype == np.int32
    words = dict(zip(bounds.labels, _edge_and_random_words(len(bounds.labels))))
    lower = upper = 0
    for s, label in enumerate(bounds.labels):
        cell = (words[label] >> np.uint64(51)).view(np.intp)  # a word's u-cell
        lower = lower + bounds.lower[s].astype(np.int64)[cell]
        upper = upper + bounds.upper[s].astype(np.int64)[cell]
    # The greatest int32 sum of any day: no sum of int32 entries overflows.
    assert bounds.upper.max(axis=1).sum() <= 2**30
    assert -2**31 < lower.min() and upper.max() < 2**31
    # The exact total, as the engine adds the open days' power in fleet order.
    values = {label: res_models.resource_values(dists, label, w)
              for label, w in words.items()}
    resources = DailyResources(values, lower.size, dists.shared_irradiance)
    total = np.zeros(lower.size)
    for unit in ctx.fleet:
        total += res_models.unit_power_series(unit, resources)
    q = bounds.scale
    assert np.all(lower * q <= total) and np.all(total <= upper * q)
    # Decided days agree with the float comparison, for the served
    # thresholds, totals of the days and their neighbouring doubles, and
    # thresholds past the greatest total, whose limit is capped.
    taus, _ = engine._served_thresholds(ctx.levels, ctx.load_factors, ctx.blocking)
    picked = np.random.default_rng(19).choice(total, 200)
    candidates = np.unique(np.concatenate((
        taus.ravel(), picked, np.nextafter(picked, 0.0), np.nextafter(picked, np.inf),
        [2.0**30 * q, 2.0**31 * q, 2.0**40 * q, np.inf])))
    limits = bounds.limits(candidates)
    assert limits.dtype == np.int32
    for tau, limit in zip(candidates, limits):
        reach = lower >= limit
        assert np.all(total[reach] >= tau)
        assert np.all(total[upper < limit] < tau)
    assert limits[-1] == 2**31 - 1


def test_interleaved_blocks_share_nothing_through_the_pass_buffers(cases):
    # Fleets of two, three and four drawn streams (independent irradiance),
    # and case4, which draws three like case3, run one after another on the
    # buffers the thread keeps; each block equals the whole-block reference,
    # in both orders, and no result shares memory with a buffer.
    contexts = [engine._context_for(cases[name]) for name in ("case2", "case3", "case4")]
    contexts.append(_fixed_point_context(cases, "case3-independent"))
    blocks = [(ctx, start_year, n_years) for n_years in (1, P + 1, engine._YEARS_PER_BLOCK)
              for start_year in (0, 511, 100_000) for ctx in contexts]
    expected = [reference_block_counts(*block) for block in blocks]
    for order in (blocks, blocks[::-1]):
        for block in order:
            counts = engine._simulate_block(*block)
            np.testing.assert_array_equal(counts, expected[blocks.index(block)])
            for space in engine._workspaces.by_streams.values():
                assert not any(np.shares_memory(counts, buffer) for buffer in space)
    assert {2, 3, 4} <= set(engine._workspaces.by_streams)
    for ctx in contexts:
        bounds = res_models.stream_bounds(ctx.distributions, ctx.fleet)
        for space in engine._workspaces.by_streams.values():
            assert not any(np.shares_memory(table, buffer) for buffer in space
                           for table in (bounds.lower, bounds.upper))


@pytest.mark.parametrize("blocking", [False, True])
def test_a_block_without_a_fleet_serves_its_zero_level_loads_every_day(cases, blocking):
    # case1 has no fleet but draws case2's two wind streams, whose block
    # leaves its sums in the buffers first; they would reach these needs.
    engine._simulate_block(engine._context_for(cases["case2"]), 0, P)
    ctx = dataclasses.replace(engine._context_for(cases["case1"]),
                              levels=(0.0, 1e-6, 1e-3, 1.0), blocking=blocking)
    counts = engine._simulate_block(ctx, 0, P + 1)
    np.testing.assert_array_equal(counts, reference_block_counts(ctx, 0, P + 1))
    assert np.all(counts[:, 0] == 365) and not counts[:, 1:].any()


@pytest.mark.parametrize("blocking", [False, True])
def test_a_run_without_a_fleet_counts_like_simulate_year(cases, blocking):
    # case1 has no fleet; its first and third loads in priority order drop
    # to 0 kW.  Both rules serve the first every day; only serve-if-fits
    # reaches the third past the unserved second.
    base = cases["case1"]
    zeroed = base.network.priority_order()[0:3:2]
    network = dataclasses.replace(base.network, load_points=tuple(
        dataclasses.replace(lp, load_level=0.0) if lp.id in zeroed else lp
        for lp in base.network.load_points))
    dispatch = engine.DISPATCH_BLOCKING if blocking else engine.DISPATCH_SERVE_IF_FITS
    scenario = dataclasses.replace(base, network=network, dispatch=dispatch)
    result = run(scenario)
    year = simulate_year(scenario, 0)
    assert result.years_run == 1 and result.converged
    assert {lp: est.supplied_days for lp, est in result.p_res.items()} == year
    assert year[zeroed[0]] == 365 and year[zeroed[1]] == (0 if blocking else 365)
    assert sum(year.values()) == (365 if blocking else 730)


def test_a_warm_block_allocates_no_pass_sized_array(cases):
    # The second 512-year block of case3 reuses the first one's buffers;
    # what it allocates (the open days' evaluation, per-year Philox output,
    # the block's counts) stays below a quarter of a pass's raw words.
    ctx = engine._context_for(cases["case3"])
    engine._simulate_block(ctx, 0, engine._YEARS_PER_BLOCK)
    tracemalloc.start()
    try:
        engine._simulate_block(ctx, engine._YEARS_PER_BLOCK, engine._YEARS_PER_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pass_words = engine._YEARS_PER_PASS * 3 * 365 * 8  # 560 KB
    assert peak < pass_words / 4


# ---------------------------------------------------------------------------
# Analytical combination
# ---------------------------------------------------------------------------

def test_combination_without_supply_reproduces_published_case1_rows():
    net = STUDY_NETWORK
    table = build_contribution_table(net)
    per_lp = combine_analytical(_zero_p_res(), table, net.upstream, p_islanding=1.0)
    for lp_id, (lam, r, u) in TABLE_V_CASE1.items():
        assert per_lp[lp_id].failure_rate == pytest.approx(lam, abs=1e-3)
        assert per_lp[lp_id].repair_time == pytest.approx(r, abs=1e-3)
        assert per_lp[lp_id].unavailability == pytest.approx(u, abs=1e-3)


def test_combination_with_certain_supply_removes_upstream_term():
    net = STUDY_NETWORK
    table = build_contribution_table(net)
    p_res = dict(_zero_p_res(), LP9=1.0)
    per_lp = combine_analytical(p_res, table, net.upstream, p_islanding=1.0)
    assert per_lp["LP9"].failure_rate == pytest.approx(0.156, abs=1e-12)
    assert per_lp["LP9"].unavailability == pytest.approx(1.924, abs=1e-12)


def test_combination_with_zero_islanding_ignores_supply():
    net = STUDY_NETWORK
    table = build_contribution_table(net)
    certain = {lp: 1.0 for lp in _zero_p_res()}
    with_res = combine_analytical(certain, table, net.upstream, p_islanding=0.0)
    without = combine_analytical(_zero_p_res(), table, net.upstream, p_islanding=1.0)
    for lp_id in certain:
        assert with_res[lp_id] == without[lp_id]


def test_combination_accepts_estimates_and_floats():
    net = STUDY_NETWORK
    table = build_contribution_table(net)
    estimates = {lp: PResEstimate(0, 365) for lp in _zero_p_res()}
    assert combine_analytical(estimates, table, net.upstream) == \
        combine_analytical(_zero_p_res(), table, net.upstream)


def test_combination_zero_rate_flags_undefined_repair_time():
    net = NetworkModel(
        load_points=(LoadPoint("L1", 10.0, 1, 1),),
        upstream=ComponentReliability(0.0, 0.0),
        aggregates={"L1": LoadPointAggregate(0.0, 0.0)},
    )
    per_lp = combine_analytical({"L1": 0.0}, build_contribution_table(net),
                                net.upstream)
    assert per_lp["L1"].failure_rate == 0.0
    assert per_lp["L1"].repair_time == 0.0
    assert not per_lp["L1"].repair_time_defined


def test_combination_validates_probabilities():
    net = STUDY_NETWORK
    table = build_contribution_table(net)
    with pytest.raises(ValueError):
        combine_analytical({lp: 1.5 for lp in _zero_p_res()}, table, net.upstream)
    with pytest.raises(ValueError):
        combine_analytical(_zero_p_res(), table, net.upstream, p_islanding=2.0)
    with pytest.raises(KeyError):
        combine_analytical({"LP2": 0.0}, table, net.upstream)


def test_running_ens_is_the_report_formula_at_each_years_p():
    # The convergence rule's running ENS and the report's U_i share one
    # upstream formula.  An upstream link of (0.3, 7.7) is not a power of
    # two, so ((1 - q p) lambda_up) r_up and (1 - q p)(lambda_up r_up) round
    # apart and any second rounding order shows.
    net = dataclasses.replace(STUDY_NETWORK, upstream=ComponentReliability(0.3, 7.7))
    table = build_contribution_table(net)
    lp_ids = net.priority_order()
    counts = np.random.default_rng(11).integers(0, 366, size=(300, len(lp_ids)))
    prior_counts, prior_years, q = np.array([9000, 100, 3650, 0]), 40, 0.9
    running = engine._running_ens_series(counts, lp_ids, net, table, q,
                                         prior_counts=prior_counts,
                                         prior_years=prior_years)
    cumulative = np.cumsum(counts, axis=0, dtype=np.float64) + prior_counts
    unavailability = np.array([
        [combine_analytical(dict(zip(lp_ids, row / (365.0 * (prior_years + y + 1)))),
                            table, net.upstream, q)[lp].unavailability
         for lp in lp_ids]
        for y, row in enumerate(cumulative)])
    levels = np.array([net.load_point(lp).load_level for lp in lp_ids])
    assert np.array_equal(running, unavailability @ levels)


def test_load_point_indices_identity_enforced():
    with pytest.raises(ValueError):
        LoadPointIndices(failure_rate=1.0, unavailability=5.0, repair_time=3.0)
    ok = LoadPointIndices(failure_rate=2.0, unavailability=5.0, repair_time=2.5)
    assert ok.repair_time * ok.failure_rate == pytest.approx(ok.unavailability)


# ---------------------------------------------------------------------------
# System indices
# ---------------------------------------------------------------------------

def _published_case1_per_lp():
    return {
        lp_id: LoadPointIndices(lam, u, u / lam)
        for lp_id, (lam, _, u) in TABLE_V_CASE1.items()
    }


def test_system_indices_close_published_case1_arithmetic():
    net = STUDY_NETWORK
    system = compute_system_indices(_published_case1_per_lp(), net)
    assert system.ens == pytest.approx(42381.0, abs=1e-6)
    assert system.saifi == pytest.approx(0.721, abs=1e-9)
    assert system.saidi == pytest.approx(7.624714285714286, abs=1e-9)
    assert system.aens == pytest.approx(42381.0 / 700.0, abs=1e-9)
    assert system.caidi * system.saifi == pytest.approx(system.saidi, rel=1e-12)


def test_system_indices_require_customers_and_interruptions():
    no_customers = NetworkModel(
        load_points=(LoadPoint("L1", 10.0, 0, 1),),
        upstream=ComponentReliability(0.5, 10.0),
        aggregates={"L1": LoadPointAggregate(0.1, 1.0)},
    )
    with pytest.raises(ZeroDivisionError):
        compute_system_indices(
            {"L1": LoadPointIndices(0.1, 1.0, 10.0)}, no_customers)
    perfect = NetworkModel(
        load_points=(LoadPoint("L1", 10.0, 5, 1),),
        upstream=ComponentReliability(0.0, 0.0),
        aggregates={"L1": LoadPointAggregate(0.0, 0.0)},
    )
    with pytest.raises(ZeroDivisionError):
        compute_system_indices(
            {"L1": LoadPointIndices(0.0, 0.0, 0.0, repair_time_defined=False)},
            perfect)


def test_system_indices_reject_missing_load_point():
    with pytest.raises(KeyError):
        compute_system_indices({"LP2": LoadPointIndices(0.1, 1.0, 10.0)},
                               STUDY_NETWORK)


@pytest.mark.parametrize("name", ["saifi", "saidi", "caidi", "ens", "aens"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_system_indices_must_be_finite_and_non_negative(name, value):
    values = dict(saifi=0.7, saidi=7.6, caidi=10.6, ens=42381.0, aens=60.5)
    engine.SystemIndices(**values)
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        engine.SystemIndices(**{**values, name: value})


# ---------------------------------------------------------------------------
# Yearly simulation
# ---------------------------------------------------------------------------

def test_simulate_year_empty_fleet_serves_nothing(cases):
    counts = simulate_year(cases["case1"], 0)
    assert counts == {"LP9": 0, "LP3": 0, "LP4": 0, "LP2": 0}


def test_simulate_year_oversized_always_on_unit_serves_everything(cases):
    # A PV array whose standard irradiance is absurdly small is pinned at
    # rated output for any positive irradiance draw, making it an always-on
    # source larger than the total load.
    always_on = DgUnit("BIG", "LP1", PvArraySpec(p_sn=6000.0, g_std=1e-20, r_c=1e-21))
    scenario = dataclasses.replace(cases["case3"], fleet=(always_on,))
    counts = simulate_year(scenario, 0)
    assert counts == {"LP9": 365, "LP3": 365, "LP4": 365, "LP2": 365}


def test_simulate_year_is_deterministic(cases):
    assert simulate_year(cases["case3"], 7) == simulate_year(cases["case3"], 7)
    assert simulate_year(cases["case3"], 7) != simulate_year(cases["case3"], 8)


def test_simulate_year_counts_within_bounds(cases):
    counts = simulate_year(cases["case3"], 0)
    assert all(0 <= c <= 365 for c in counts.values())


def test_simulate_year_rejects_negative_year(cases):
    with pytest.raises(ValueError):
        simulate_year(cases["case3"], -1)


def test_priority_dominance_of_top_ranked_load(cases):
    # LP9 is served on any day with at least its own level available, so its
    # estimate dominates every other load point in every run.
    for year in range(20):
        counts = simulate_year(cases["case3"], year)
        assert counts["LP9"] >= max(counts.values())


def test_p_res_estimate_validation():
    with pytest.raises(ValueError):
        PResEstimate(-1, 365)
    with pytest.raises(ValueError):
        PResEstimate(366, 365)
    with pytest.raises(ValueError):
        PResEstimate(0, 0)
    assert PResEstimate(73, 365).p_res == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def test_run_case1_converges_in_one_year_to_published_values(cases):
    result = run(cases["case1"])
    assert result.years_run == 1
    assert result.converged
    for lp_id, (lam, r, u) in TABLE_V_CASE1.items():
        assert result.per_lp[lp_id].failure_rate == pytest.approx(lam, abs=1e-3)
        assert result.per_lp[lp_id].unavailability == pytest.approx(u, abs=1e-3)
    assert result.system.ens == pytest.approx(42381.0, abs=1.0)


def test_run_is_deterministic_for_fixed_seed(cases):
    a = run(cases["case3"])
    b = run(cases["case3"])
    assert a.years_run == b.years_run
    assert a.p_res == b.p_res
    assert a.system == b.system
    np.testing.assert_array_equal(a.running_ens, b.running_ens)


def test_run_seed_changes_results(cases):
    a = run(cases["case3"])
    b = run(dataclasses.replace(cases["case3"], seed=999))
    assert a.p_res != b.p_res


def test_run_worker_count_does_not_change_results(cases):
    # At its own tolerance a study stops at the 1000-year floor, two blocks;
    # a forced 3000-year horizon is six, two for each of three processes, so
    # forked workers reuse their pass buffers.  running_ens and statistic are
    # what `run --trace` prints.
    for name in ("case3", "case4"):
        for scenario in (cases[name], dataclasses.replace(
                cases[name], max_years=3000, tolerance=1e-300)):
            inline = run(scenario, workers=1)
            for workers in (2, 3):
                forked = run(scenario, workers=workers)
                for field in dataclasses.fields(engine.RunResult):
                    np.testing.assert_equal(
                        getattr(forked, field.name), getattr(inline, field.name),
                        err_msg=f"{name}, {scenario.max_years} years, "
                                f"{workers} workers: {field.name}")


def test_run_respects_max_years_and_reports_nonconvergence(cases):
    scenario = dataclasses.replace(cases["case3"], max_years=300)
    result = run(scenario)
    assert result.years_run == 300
    assert not result.converged


def test_one_year_cap_runs_one_year_without_converging(cases):
    result = run(dataclasses.replace(cases["case3"], max_years=1))
    assert result.years_run == 1
    assert not result.converged
    assert all(p.total_days == engine.DAYS_PER_YEAR for p in result.p_res.values())


def test_fleet_that_never_reaches_cut_in_supplies_nothing(cases):
    base = cases["case2"]
    fleet = tuple(
        dataclasses.replace(unit, device=dataclasses.replace(
            unit.device, v_cut_in=200.0, v_rated=210.0, v_cut_out=250.0))
        for unit in base.fleet)
    result = run(dataclasses.replace(base, fleet=fleet, max_years=600))
    assert result.years_run == 600
    assert {lp: p.p_res for lp, p in result.p_res.items()} == dict.fromkeys(
        engine._context_for(base).lp_ids, 0.0)


def test_run_convergence_floor(cases):
    result = run(cases["case3"])
    assert result.converged
    assert result.years_run >= engine.MIN_CONVERGENCE_YEARS


def test_run_statistic_trace_shape(cases):
    result = run(cases["case3"])
    assert result.running_ens.size == result.years_run
    assert result.statistic.size == result.years_run
    window = engine.CONVERGENCE_WINDOW_YEARS
    assert np.all(np.isnan(result.statistic[: 2 * window - 1]))
    assert np.isfinite(result.statistic[2 * window :]).all()


def test_adding_a_unit_never_hurts_under_blocking(cases):
    # Blocking dispatch serves load i exactly when the day's generation
    # covers the priority prefix through i, so extra generation can only
    # help; with paired per-year substreams the comparison is day-by-day.
    base = cases["case3"]
    extra_unit = DgUnit(
        "WTG9", "LP6",
        WindTurbineSpec(1000.0, 14.0, 3.0, 25.0, "region1"),
    )
    bigger = dataclasses.replace(base, fleet=base.fleet + (extra_unit,))
    small = run(base)
    grown = run(bigger)
    for lp_id in small.p_res:
        assert grown.p_res[lp_id].supplied_days >= small.p_res[lp_id].supplied_days
        assert grown.per_lp[lp_id].failure_rate <= small.per_lp[lp_id].failure_rate
        assert grown.per_lp[lp_id].unavailability <= small.per_lp[lp_id].unavailability
    assert grown.system.ens <= small.system.ens


def test_disjoint_half_runs_agree_within_sampling_error(cases):
    # Two disjoint 10000-year estimates are Bernoulli proportions over
    # 3.65e6 day trials each and must agree to within 3 standard errors.
    scenario = cases["case3"]
    ctx = engine._context_for(scenario)
    half_years = 10_000
    first = engine._simulate_block(ctx, 0, half_years).sum(axis=0)
    second = engine._simulate_block(ctx, half_years, half_years).sum(axis=0)
    n = half_years * 365
    for i, lp_id in enumerate(ctx.lp_ids):
        p1 = first[i] / n
        p2 = second[i] / n
        pooled = (first[i] + second[i]) / (2 * n)
        se = math.sqrt(max(pooled * (1.0 - pooled), 1e-12) * 2.0 / n)
        assert abs(p1 - p2) <= 3.0 * se, f"{lp_id}: {p1} vs {p2} (se {se})"


def _recorded_statistic_calls(monkeypatch):
    calls = []
    original = engine._convergence_statistic

    def recording(running_ens, window, head=None):
        statistic = original(running_ens, window, head)
        calls.append((running_ens, statistic))
        return statistic

    monkeypatch.setattr(engine, "_convergence_statistic", recording)
    return calls


def _full_series(scenario, counts):
    # What a recomputation over every year so far gives.
    ctx = engine._context_for(scenario)
    running = engine._running_ens_series(
        counts, ctx.lp_ids, scenario.network,
        build_contribution_table(scenario.network), scenario.p_islanding,
    )
    return running, engine._convergence_statistic(
        running, engine.CONVERGENCE_WINDOW_YEARS)


@pytest.mark.parametrize("max_years, workers",
                         [(1000, 1), (1000, 2), (3000, 1), (3000, 2), (3000, 3)])
def test_wave_bookkeeping_is_bit_identical_to_full_recompute(
        cases, monkeypatch, max_years, workers):
    scenario = dataclasses.replace(cases["case3"], max_years=max_years,
                                   tolerance=1e-300)
    calls = _recorded_statistic_calls(monkeypatch)
    result = run(scenario, workers=workers)
    counts = engine._simulate_block(engine._context_for(scenario), 0, max_years)

    # Every recorded call is a wave; the oracle below records its own calls.
    waves = list(calls)
    wave_years = [running.size for running, _ in waves]
    assert sum(wave_years) == max_years
    assert max(wave_years) <= engine._YEARS_PER_BLOCK * workers
    end = 0
    for running, statistic in waves:
        start, end = end, end + running.size
        full_running, full_statistic = _full_series(scenario, counts[:end])
        np.testing.assert_array_equal(running, full_running[start:])
        np.testing.assert_array_equal(statistic, full_statistic[start:])

    full_running, full_statistic = _full_series(scenario, counts)
    assert result.years_run == max_years and not result.converged
    np.testing.assert_array_equal(result.running_ens, full_running)
    np.testing.assert_array_equal(result.statistic, full_statistic)


def test_lone_last_year_matches_full_recompute(cases, monkeypatch):
    # With 6 * 512 + 1 years the last wave holds one year; its running ENS
    # must round like the matrix-vector product over all years does.  A
    # record takes no year past its stop year, so no year may meet the rule.
    scenario = dataclasses.replace(cases["case3"], tolerance=1e-300)
    lp_ids = engine._context_for(scenario).lp_ids
    table = build_contribution_table(scenario.network)
    calls = _recorded_statistic_calls(monkeypatch)
    rng = np.random.default_rng(12)
    for _ in range(20):
        counts = rng.integers(0, 366, size=(6 * 512 + 1, len(lp_ids)))
        convergence = engine._Convergence(scenario, lp_ids, table)
        for start in range(0, counts.shape[0], 512):
            convergence.add(counts[start:start + 512])
        lone_year, _ = calls[-1]
        full, _ = _full_series(scenario, counts)
        assert lone_year.size == 1 and lone_year[0] == full[-1]


@pytest.mark.parametrize("workers", [1, 2])
def test_stop_year_matches_full_recompute(cases, workers):
    scenario = cases["case3"]
    result = run(scenario, workers=workers)
    ctx = engine._context_for(scenario)
    counts = engine._simulate_block(ctx, 0, 2048)
    running, statistic = _full_series(scenario, counts)
    window = statistic[engine.MIN_CONVERGENCE_YEARS - 1:]
    expected = engine.MIN_CONVERGENCE_YEARS + int(
        np.flatnonzero(window < scenario.tolerance)[0])
    assert result.converged
    assert result.years_run == expected
    # The wave that holds the stop year is cut there, counts and series alike.
    np.testing.assert_array_equal(result.running_ens, running[:expected])
    np.testing.assert_array_equal(result.statistic, statistic[:expected])
    supplied = counts[:expected].sum(axis=0)
    for i, lp_id in enumerate(ctx.lp_ids):
        assert result.p_res[lp_id] == PResEstimate(int(supplied[i]), 365 * expected)


def test_run_rejects_bad_worker_count(cases):
    with pytest.raises(ValueError):
        run(cases["case1"], workers=0)


# ---------------------------------------------------------------------------
# Forked block workers
# ---------------------------------------------------------------------------

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Wrap os.fork so that each fork records the sizes of the beta bracket
    table, served threshold, wind power bounds and stream bounds caches the
    forked worker inherits."""
    records = []
    fork = os.fork

    def recording_fork():
        records.append((res_models._beta_bracket_table.cache_info().currsize,
                        engine._served_thresholds.cache_info().currsize,
                        res_models.wind_power_bounds.cache_info().currsize,
                        res_models._stream_bounds.cache_info().currsize))
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    return records


@pytest.mark.parametrize("max_years, workers, pool_size", [
    (1024, 16, 2), (1025, 16, 3), (1537, 2, 2), (512, 16, None),
    (100, 4, None), (1024, 1, None),
])
def test_pool_is_no_larger_than_the_run_has_blocks(cases, forks,
                                                   max_years, workers, pool_size):
    # The pool is the processes that simulate blocks, the caller among them;
    # None: the caller alone, with nothing forked.
    scenario = dataclasses.replace(cases["case2"], max_years=max_years,
                                   tolerance=1e-300)
    result = run(scenario, workers=workers)
    assert len(forks) + 1 == (pool_size or 1)
    assert result.years_run == max_years
    assert result.p_res == run(scenario, workers=1).p_res
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 3])
def test_a_cap_far_beyond_convergence_costs_nothing(cases, workers):
    # Blocks are made as they run: no list of 10^15 / 512 blocks fits in
    # memory, and the study stops at the same year as under a cap of 100 000.
    expected = run(dataclasses.replace(cases["case3"], max_years=100_000),
                   workers=workers)
    result = run(dataclasses.replace(cases["case3"], max_years=10**15),
                 workers=workers)
    _assert_no_child_left()
    assert result.converged
    for name in (field.name for field in dataclasses.fields(engine.RunResult)):
        np.testing.assert_equal(getattr(result, name), getattr(expected, name))


def test_without_fork_every_block_runs_inline(cases, monkeypatch):
    scenario = dataclasses.replace(cases["case2"], max_years=1537,
                                   tolerance=1e-300)
    expected = run(scenario, workers=1)
    monkeypatch.delattr(os, "fork")
    result = run(scenario, workers=3)
    assert result.p_res == expected.p_res
    np.testing.assert_array_equal(result.running_ens, expected.running_ens)


@pytest.mark.parametrize("case, prebuilt", [("case3", 1), ("case2", 0)])
def test_beta_tables_are_built_before_the_pool_starts(cases, forks,
                                                      case, prebuilt):
    # Forked workers inherit the tables only if the caller has them when it
    # forks; a fleet without PV arrays needs no beta table, but every fleet
    # needs its served thresholds, each distinct turbine its wind power
    # bounds (two in both cases) and the fleet its stream bounds.
    res_models._beta_bracket_table.cache_clear()
    engine._served_thresholds.cache_clear()
    res_models.wind_power_bounds.cache_clear()
    res_models._stream_bounds.cache_clear()
    run(dataclasses.replace(cases[case], max_years=1537), workers=3)
    assert forks == [(prebuilt, 1, 2, 1)] * 2


def _recorded_counts(monkeypatch):
    """Per-year counts as the convergence rule takes them, block by block."""
    blocks = []
    add = engine._Convergence.add

    def recording(self, counts):
        blocks.append(np.array(counts))
        return add(self, counts)

    monkeypatch.setattr(engine._Convergence, "add", recording)
    return blocks


def _run_and_report(monkeypatch, scenario, workers):
    with monkeypatch.context() as patch:
        blocks = _recorded_counts(patch)
        result = run(scenario, workers=workers)
    _assert_no_child_left()
    report = build_report(result, scenario)
    return (np.concatenate(blocks), result.running_ens, result.statistic,
            emit_report(report), emit_report(report, "structured"))


def _seventeen_load_scenario(case2):
    # 17 load points, counted against a long walk's thresholds, and a
    # 512-year block of their counts (69 632 bytes) exceeds a 64 KiB pipe.
    levels = [40.0 * (1 + j % 7) + 10.0 * j for j in range(17)]
    network = NetworkModel(
        load_points=tuple(LoadPoint(f"L{j}", level, 10 + j, j + 1)
                          for j, level in enumerate(levels)),
        upstream=ComponentReliability(0.5, 8.0),
        aggregates={f"L{j}": LoadPointAggregate(0.2 + 0.01 * j, 0.9)
                    for j in range(17)},
    )
    return dataclasses.replace(case2, name="seventeen", network=network)


@pytest.mark.parametrize("dispatch", [engine.DISPATCH_BLOCKING,
                                      engine.DISPATCH_SERVE_IF_FITS])
@pytest.mark.parametrize("name", ["case2", "seventeen"])
def test_counts_and_reports_do_not_depend_on_the_worker_count(
        cases, monkeypatch, name, dispatch):
    base = (_seventeen_load_scenario(cases["case2"]) if name == "seventeen"
            else cases[name])
    # At its own tolerance the study stops at the 1000-year floor; at 1e-300
    # it runs to the cap.
    for max_years, tolerance in itertools.product(
            (1, 511, 512, 513, 1024, 1025, 1537, 2049), (base.tolerance, 1e-300)):
        scenario = dataclasses.replace(base, dispatch=dispatch,
                                       max_years=max_years, tolerance=tolerance)
        inline = _run_and_report(monkeypatch, scenario, 1)
        for workers in (2, 3, 4):
            forked = _run_and_report(monkeypatch, scenario, workers)
            for expected, got in zip(inline, forked):
                np.testing.assert_array_equal(
                    got, expected, err_msg=f"{max_years} years at {workers} "
                                           f"workers, tolerance {tolerance}")


def _failing_block(monkeypatch, failure, when=lambda start: start == 512):
    # Forked workers inherit the patch, so block 1 fails in a worker.
    simulate = engine._simulate_block

    def patched(ctx, start, size):
        if when(start):
            failure()
        return simulate(ctx, start, size)

    monkeypatch.setattr(engine, "_simulate_block", patched)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_workers_exception_reaches_the_caller(cases, monkeypatch, workers):
    def failure():
        raise NumericsError("block 1 failed", 0.25)

    _failing_block(monkeypatch, failure)
    scenario = dataclasses.replace(cases["case2"], max_years=4096, tolerance=1e-300)
    with pytest.raises(NumericsError, match=r"block 1 failed \(worst residual") as info:
        run(scenario, workers=workers)
    assert info.value.residual == 0.25
    _assert_no_child_left()


def test_a_worker_that_exits_early_is_an_error_not_a_hang(cases, monkeypatch):
    _failing_block(monkeypatch, lambda: os._exit(7))
    scenario = dataclasses.replace(cases["case2"], max_years=4096, tolerance=1e-300)
    with pytest.raises(ChildProcessError, match="exited with status 7"):
        run(scenario, workers=2)
    _assert_no_child_left()


def test_a_failed_fork_stops_the_workers_already_forked(cases, monkeypatch):
    fork, calls = os.fork, []

    def second_fork_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(BlockingIOError):
        run(dataclasses.replace(cases["case2"], max_years=4096), workers=3)
    assert len(calls) == 2
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_an_early_stop_does_not_wait_for_running_blocks(cases, monkeypatch,
                                                        workers):
    # case3 stops at the 1000-year floor, so blocks from 1024 on are
    # speculative; a worker that reaches one takes a minute, then exits.
    def sleep_then_exit():
        time.sleep(60)
        os._exit(0)

    _failing_block(monkeypatch, sleep_then_exit, when=lambda start: start >= 1024)
    began = time.perf_counter()
    result = run(cases["case3"], workers=workers)
    assert time.perf_counter() - began < 30
    assert result.converged and result.years_run <= 1024
    _assert_no_child_left()


def test_an_interrupt_in_the_caller_stops_the_workers(cases, monkeypatch):
    caller = os.getpid()

    def interrupt():
        if os.getpid() == caller:
            raise KeyboardInterrupt

    _failing_block(monkeypatch, interrupt, when=lambda start: start == 1024)
    scenario = dataclasses.replace(cases["case2"], max_years=4096, tolerance=1e-300)
    with pytest.raises(KeyboardInterrupt):
        run(scenario, workers=2)
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# Sensitivity sweep
# ---------------------------------------------------------------------------

def test_sweep_indices_are_affine_in_islanding_probability(cases):
    sweep = sensitivity_sweep(cases["sweep"], [1.0, 0.5, 0.0])
    by_p = {p: s for p, s in sweep.rows}
    for attr in ("saifi", "saidi", "caidi", "ens", "aens"):
        lo = getattr(by_p[0.0], attr)
        hi = getattr(by_p[1.0], attr)
        mid = getattr(by_p[0.5], attr)
        if attr == "caidi":
            continue  # a ratio of two affine quantities, not itself affine
        assert abs(mid - 0.5 * (lo + hi)) < 1e-6 * lo


def test_sweep_zero_probability_row_equals_no_dg_case(cases):
    sweep = sensitivity_sweep(cases["sweep"], [0.0])
    baseline = run(cases["case1"])
    zero_row = sweep.rows[0][1]
    assert zero_row.ens == pytest.approx(baseline.system.ens, abs=1e-6)
    assert zero_row.saifi == pytest.approx(baseline.system.saifi, abs=1e-12)
    assert zero_row.saidi == pytest.approx(baseline.system.saidi, abs=1e-12)


def test_sweep_unit_probability_row_equals_base_run(cases):
    sweep = sensitivity_sweep(cases["sweep"], [1.0])
    assert sweep.rows[0][1] == sweep.base.system


def test_sweep_validates_probabilities(cases):
    with pytest.raises(ValueError):
        sensitivity_sweep(cases["sweep"], [1.2])
    with pytest.raises(ValueError):
        sensitivity_sweep(cases["sweep"], [])


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------

def _tiny_scenario(**overrides):
    defaults = dict(
        name="tiny",
        network=STUDY_NETWORK,
        distributions=ResourceDistributions(
            wind_regions={"r": WeibullParams(7.88, 2.62, "r")},
            irradiance=BetaParams(1.03745, 1.38279),
        ),
        fleet=(DgUnit("W", "LP7", WindTurbineSpec(2000.0, 15.0, 3.0, 25.0, "r")),),
        seed=1,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def test_scenario_validates_fields():
    assert _tiny_scenario().dispatch == engine.DISPATCH_SERVE_IF_FITS
    with pytest.raises(ValueError):
        _tiny_scenario(p_islanding=1.5)
    with pytest.raises(ValueError):
        _tiny_scenario(load_factors=(1.0,) * 100)
    with pytest.raises(ValueError):
        _tiny_scenario(load_factors=(-1.0,) + (1.0,) * 364)
    with pytest.raises(ValueError):
        _tiny_scenario(tolerance=0.0)
    with pytest.raises(ValueError):
        _tiny_scenario(max_years=0)
    with pytest.raises(ValueError):
        _tiny_scenario(dispatch="greedy")
    with pytest.raises(ValueError):
        _tiny_scenario(seed=-1)
    with pytest.raises(ValueError):
        _tiny_scenario(sweep_p=(0.5, 1.2))


def test_scenario_rejects_unknown_region_reference():
    with pytest.raises(ValueError):
        _tiny_scenario(
            fleet=(DgUnit("W", "LP7",
                          WindTurbineSpec(2000.0, 15.0, 3.0, 25.0, "elsewhere")),))


def test_scenario_rejects_duplicate_unit_names():
    unit = DgUnit("W", "LP7", WindTurbineSpec(2000.0, 15.0, 3.0, 25.0, "r"))
    with pytest.raises(ValueError):
        _tiny_scenario(fleet=(unit, unit))
