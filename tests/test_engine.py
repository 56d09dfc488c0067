"""Engine tests: dispatch, analytical combination, indices, full runs."""

import dataclasses
import errno
import itertools
import math
import os
import time

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
    LoadPoint,
    LoadPointAggregate,
    NetworkModel,
    UpstreamLink,
    build_contribution_table,
    load_calibrated_dataset,
)
from microrel.res_models import (
    BetaParams,
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
    for n in [1, 2, 3, 4, 5, 6] * 25:
        factors = rng.choice([0.0, 1.0, 0.37, 1.9, float(rng.uniform(0.0, 2.0))], 8)
        thresholds, steps = _assert_thresholds_match_dispatch(
            _random_levels(rng, n), factors, blocking, rng)
        # The steps telescope to every load served; blocking only adds loads.
        np.testing.assert_array_equal(steps.sum(axis=0), 1)
        assert len(steps) <= (n if blocking else 2**n - 1)
        assert not blocking or np.all(steps >= 0)


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


@pytest.mark.parametrize("blocking", [False, True])
@pytest.mark.parametrize("levels", [
    (500.0, 3000.0, 1000.0, 1000.0, 700.0, 300.0, 200.0),  # too many loads
    (3200.0, 1600.0, 800.0, 400.0, 200.0, 100.0),  # 63 served sets
])
def test_block_counts_match_reference_past_the_bundled_needs(cases, levels, blocking):
    ctx = dataclasses.replace(
        engine._context_for(cases["case4"]), blocking=blocking, levels=levels,
        lp_ids=tuple(f"L{j}" for j in range(len(levels))))
    served = engine._served_thresholds(ctx.levels, ctx.load_factors, blocking)
    assert (served is None) == (len(levels) > engine._MAX_THRESHOLD_LOADS)
    np.testing.assert_array_equal(engine._simulate_block(ctx, 0, P + 1),
                                  reference_block_counts(ctx, 0, P + 1))


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


P = engine._YEARS_PER_PASS


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("dispatch", [engine.DISPATCH_BLOCKING,
                                      engine.DISPATCH_SERVE_IF_FITS])
@pytest.mark.parametrize("name", ["case2", "case3", "case4", "sweep", "mixed"])
def test_block_counts_bit_identical_to_whole_block_reference(
        cases, name, dispatch, shared):
    base = _two_specs_per_region(cases["case3"]) if name == "mixed" else cases[name]
    scenario = dataclasses.replace(
        base, dispatch=dispatch,
        distributions=dataclasses.replace(base.distributions,
                                          shared_irradiance=shared))
    ctx = engine._context_for(scenario)
    for n_years in (1, P - 1, P, P + 1, engine._YEARS_PER_BLOCK):
        for start_year in (0, 511, 100_000):
            np.testing.assert_array_equal(
                engine._simulate_block(ctx, start_year, n_years),
                reference_block_counts(ctx, start_year, n_years),
                err_msg=f"{n_years} years from {start_year}")


def test_each_distinct_power_series_is_computed_once_per_pass(cases, monkeypatch):
    # case2's WTG3/WTG4 repeat WTG1/WTG2 in the same regions; the mixed
    # fleet has 5 distinct series among 7 units under shared irradiance.
    calls = []
    original = engine.unit_power_series

    def counted(unit, resources):
        calls.append(unit.name)
        return original(unit, resources)

    monkeypatch.setattr(engine, "unit_power_series", counted)
    engine._simulate_block(engine._context_for(cases["case2"]), 0, 2 * P)
    assert calls == ["WTG1", "WTG2"] * 2
    calls.clear()
    mixed = _two_specs_per_region(cases["case3"])
    engine._simulate_block(engine._context_for(mixed), 0, P)
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# Analytical combination
# ---------------------------------------------------------------------------

def test_combination_without_supply_reproduces_published_case1_rows():
    net = load_calibrated_dataset()
    table = build_contribution_table(net)
    per_lp = combine_analytical(_zero_p_res(), table, net.upstream, p_islanding=1.0)
    for lp_id, (lam, r, u) in TABLE_V_CASE1.items():
        assert per_lp[lp_id].failure_rate == pytest.approx(lam, abs=1e-3)
        assert per_lp[lp_id].repair_time == pytest.approx(r, abs=1e-3)
        assert per_lp[lp_id].unavailability == pytest.approx(u, abs=1e-3)


def test_combination_with_certain_supply_removes_upstream_term():
    net = load_calibrated_dataset()
    table = build_contribution_table(net)
    p_res = dict(_zero_p_res(), LP9=1.0)
    per_lp = combine_analytical(p_res, table, net.upstream, p_islanding=1.0)
    assert per_lp["LP9"].failure_rate == pytest.approx(0.156, abs=1e-12)
    assert per_lp["LP9"].unavailability == pytest.approx(1.924, abs=1e-12)


def test_combination_with_zero_islanding_ignores_supply():
    net = load_calibrated_dataset()
    table = build_contribution_table(net)
    certain = {lp: 1.0 for lp in _zero_p_res()}
    with_res = combine_analytical(certain, table, net.upstream, p_islanding=0.0)
    without = combine_analytical(_zero_p_res(), table, net.upstream, p_islanding=1.0)
    for lp_id in certain:
        assert with_res[lp_id] == without[lp_id]


def test_combination_accepts_estimates_and_floats():
    net = load_calibrated_dataset()
    table = build_contribution_table(net)
    estimates = {lp: PResEstimate(0, 365) for lp in _zero_p_res()}
    assert combine_analytical(estimates, table, net.upstream) == \
        combine_analytical(_zero_p_res(), table, net.upstream)


def test_combination_zero_rate_flags_undefined_repair_time():
    net = NetworkModel(
        load_points=(LoadPoint("L1", 10.0, 1, 1),),
        upstream=UpstreamLink(0.0, 0.0),
        aggregates={"L1": LoadPointAggregate(0.0, 0.0)},
    )
    per_lp = combine_analytical({"L1": 0.0}, build_contribution_table(net),
                                net.upstream)
    assert per_lp["L1"].failure_rate == 0.0
    assert per_lp["L1"].repair_time == 0.0
    assert not per_lp["L1"].repair_time_defined


def test_combination_validates_probabilities():
    net = load_calibrated_dataset()
    table = build_contribution_table(net)
    with pytest.raises(ValueError):
        combine_analytical({lp: 1.5 for lp in _zero_p_res()}, table, net.upstream)
    with pytest.raises(ValueError):
        combine_analytical(_zero_p_res(), table, net.upstream, p_islanding=2.0)
    with pytest.raises(KeyError):
        combine_analytical({"LP2": 0.0}, table, net.upstream)


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
    net = load_calibrated_dataset()
    system = compute_system_indices(_published_case1_per_lp(), net)
    assert system.ens == pytest.approx(42381.0, abs=1e-6)
    assert system.saifi == pytest.approx(0.721, abs=1e-9)
    assert system.saidi == pytest.approx(7.624714285714286, abs=1e-9)
    assert system.aens == pytest.approx(42381.0 / 700.0, abs=1e-9)
    assert system.caidi * system.saifi == pytest.approx(system.saidi, rel=1e-12)


def test_system_indices_require_customers_and_interruptions():
    no_customers = NetworkModel(
        load_points=(LoadPoint("L1", 10.0, 0, 1),),
        upstream=UpstreamLink(0.5, 10.0),
        aggregates={"L1": LoadPointAggregate(0.1, 1.0)},
    )
    with pytest.raises(ZeroDivisionError):
        compute_system_indices(
            {"L1": LoadPointIndices(0.1, 1.0, 10.0)}, no_customers)
    perfect = NetworkModel(
        load_points=(LoadPoint("L1", 10.0, 5, 1),),
        upstream=UpstreamLink(0.0, 0.0),
        aggregates={"L1": LoadPointAggregate(0.0, 0.0)},
    )
    with pytest.raises(ZeroDivisionError):
        compute_system_indices(
            {"L1": LoadPointIndices(0.0, 0.0, 0.0, repair_time_defined=False)},
            perfect)


def test_system_indices_reject_missing_load_point():
    with pytest.raises(KeyError):
        compute_system_indices({"LP2": LoadPointIndices(0.1, 1.0, 10.0)},
                               load_calibrated_dataset())


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
    scenario = cases["case3"]
    inline = run(scenario, workers=1)
    pooled = run(scenario, workers=2)
    assert inline.years_run == pooled.years_run
    assert inline.p_res == pooled.p_res
    assert inline.system == pooled.system


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
                         [(1000, 1), (1000, 2), (3000, 1), (3000, 2)])
def test_wave_bookkeeping_is_bit_identical_to_full_recompute(
        cases, monkeypatch, max_years, workers):
    scenario = dataclasses.replace(cases["case3"], max_years=max_years,
                                   tolerance=1e-300)
    calls = _recorded_statistic_calls(monkeypatch)
    result = run(scenario, workers=workers)
    counts = engine._simulate_block(engine._context_for(scenario), 0, max_years)

    *waves, final = calls
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
    np.testing.assert_array_equal(final[1], full_statistic)


def test_lone_last_year_matches_full_recompute(cases, monkeypatch):
    # With 6 * 512 + 1 years the last wave holds one year; its running ENS
    # must round like the matrix-vector product over all years does.
    scenario = cases["case3"]
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
    counts = engine._simulate_block(engine._context_for(scenario), 0, 2048)
    _, statistic = _full_series(scenario, counts)
    window = statistic[engine.MIN_CONVERGENCE_YEARS - 1:]
    expected = engine.MIN_CONVERGENCE_YEARS + int(
        np.flatnonzero(window < scenario.tolerance)[0])
    assert result.converged
    assert result.years_run == expected


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
    """Wrap os.fork so that each fork records the sizes of the beta table
    and served threshold caches the forked worker inherits."""
    records = []
    fork = os.fork

    def recording_fork():
        records.append((res_models._beta_bracket_table.cache_info().currsize,
                        res_models._beta_poly_table.cache_info().currsize,
                        engine._served_thresholds.cache_info().currsize))
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
    # forks; a fleet without PV arrays needs no beta tables, but every fleet
    # needs its served thresholds.
    res_models._beta_bracket_table.cache_clear()
    res_models._beta_poly_table.cache_clear()
    engine._served_thresholds.cache_clear()
    run(dataclasses.replace(cases[case], max_years=1537), workers=3)
    assert forks == [(prebuilt, prebuilt, 1)] * 2


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
    # 17 load points: dispatched day by day (past the thresholds' limit),
    # and a 512-year block of counts (69 632 bytes) exceeds a 64 KiB pipe.
    levels = [40.0 * (1 + j % 7) + 10.0 * j for j in range(17)]
    network = NetworkModel(
        load_points=tuple(LoadPoint(f"L{j}", level, 10 + j, j + 1)
                          for j, level in enumerate(levels)),
        upstream=UpstreamLink(0.5, 8.0),
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
    assert (engine._served_thresholds(
        engine._context_for(base).levels, base.load_factors, False) is None) \
        == (name == "seventeen")
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
        network=load_calibrated_dataset(),
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
