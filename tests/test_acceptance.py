"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line when it holds
(run with ``pytest tests/test_acceptance.py -v -s``):

  1. Exact reproduction of the no-DG baseline (per-load-point and system
     indices against the published table, analytical path, < 1 s).
  2. Index arithmetic closure: system indices recomputed from the published
     per-load-point values close exactly (ENS 42381, SAIFI 0.721).
  3. Sensitivity sweep: the zero-islanding row equals the baseline, every
     index is affine in the islanding probability (three-point collinearity
     below 1e-6 relative), interior rows within 1.5% of the published table.
  4. Stochastic reproduction of the mixed wind/PV case: 10-seed mean ENS
     within 5% of 37965 kWh/yr, strictly below the baseline with
     non-overlapping 3-sigma bands, wind-only case ordering preserved, and
     a forced 100000-year run under 60 s per case.
  5. The top-priority load point shows the deepest improvement: its
     unavailability drops by more than half and its relative failure-rate
     and unavailability gains dominate every other load point.
  6. Distribution fidelity: 100k wind samples match the Weibull mean within
     1% and pass a 5% KS test; the beta inverse CDF agrees with a
     brute-force integrated-density oracle to 1e-8 across (0, 1).
  7. Power curves are continuous at every breakpoint and stay inside
     [0, rated] on a million random inputs.
  8. Priority dispatch matches subset enumeration on 1000 random instances.
  9. Identical seeds give byte-identical reports at 1, 2 and 8 workers.
 10. Any sub-unity load-factor profile can only reduce ENS under paired
     random numbers (variable-load case property).
"""

import dataclasses
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from microrel.cli import main as cli_main
from microrel.engine import (
    LoadPointIndices,
    compute_system_indices,
    priority_dispatch,
    run,
    sensitivity_sweep,
)
from microrel.res_models import (
    MIN_UNIFORM,
    BetaParams,
    PvArraySpec,
    WeibullParams,
    WindTurbineSpec,
    beta_inverse_cdf,
    pv_power,
    sample_wind_speed,
    wind_power,
)
from microrel.scenario_io import bundled_scenario_path, bundled_scenarios
from oracles import (
    KS_CRITICAL_5PCT,
    BruteForceBetaCdf,
    dispatch_by_enumeration,
    ks_statistic,
    weibull_cdf,
)

TABLE_V_CASE1 = {
    "LP2": (0.726, 11.042, 8.017),
    "LP3": (0.726, 10.823, 7.858),
    "LP4": (0.726, 10.093, 7.328),
    "LP9": (0.656, 10.554, 6.924),
}
TABLE_VI_CASE1 = {"saifi": 0.721, "saidi": 7.624, "caidi": 10.57,
                  "ens": 42381.0, "aens": 60.544}
TABLE_VI_CASE3_ENS = 37965.0
TABLE_VII = {  # islanding probability -> (saidi, ens)
    1.00: (6.949, 37960.0),
    0.75: (7.118, 39062.0),
    0.50: (7.286, 40164.0),
    0.25: (7.456, 41273.0),
    0.00: (7.625, 42381.0),
}

CASES = bundled_scenarios()


def _ok(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


@lru_cache(maxsize=None)
def _ten_seed_mean_ens(case_name: str) -> tuple[float, float]:
    """(mean, std) of converged ENS over ten seeds."""
    values = []
    for seed in range(101, 111):
        scenario = dataclasses.replace(CASES[case_name], seed=seed)
        values.append(run(scenario).system.ens)
    arr = np.array(values)
    return float(arr.mean()), float(arr.std(ddof=1))


@lru_cache(maxsize=None)
def _default_run(case_name: str):
    return run(CASES[case_name])


# ---------------------------------------------------------------------------
# 1. Baseline exact reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_case1_exact_reproduction():
    started = time.perf_counter()
    result = run(CASES["case1"])
    elapsed = time.perf_counter() - started
    for lp_id, (lam, r, u) in TABLE_V_CASE1.items():
        indices = result.per_lp[lp_id]
        assert indices.failure_rate == pytest.approx(lam, abs=1e-3), lp_id
        assert indices.repair_time == pytest.approx(r, abs=1e-3), lp_id
        assert indices.unavailability == pytest.approx(u, abs=1e-3), lp_id
    system = result.system
    assert system.saifi == pytest.approx(TABLE_VI_CASE1["saifi"], abs=1e-3)
    assert system.saidi == pytest.approx(TABLE_VI_CASE1["saidi"], abs=1e-3)
    assert system.caidi == pytest.approx(TABLE_VI_CASE1["caidi"], abs=1e-2)
    assert system.ens == pytest.approx(TABLE_VI_CASE1["ens"], abs=1.0)
    assert system.aens == pytest.approx(TABLE_VI_CASE1["aens"], abs=1e-3)
    assert elapsed < 1.0, f"baseline run took {elapsed:.3f}s"
    _ok("1 baseline exact reproduction")


# ---------------------------------------------------------------------------
# 2. Index arithmetic closure
# ---------------------------------------------------------------------------

def test_criterion_2_index_arithmetic_closure():
    per_lp = {
        lp_id: LoadPointIndices(lam, u, u / lam)
        for lp_id, (lam, _, u) in TABLE_V_CASE1.items()
    }
    system = compute_system_indices(per_lp, CASES["case1"].network)
    assert system.ens == pytest.approx(42381.0, abs=1e-6)
    assert system.saifi == pytest.approx(0.721, abs=1e-9)
    _ok("2 index arithmetic closure")


# ---------------------------------------------------------------------------
# 3. Sensitivity endpoints and affinity
# ---------------------------------------------------------------------------

def test_criterion_3_sensitivity_endpoints_and_affinity():
    sweep = sensitivity_sweep(CASES["sweep"], [1.0, 0.75, 0.5, 0.25, 0.0])
    rows = {p: system for p, system in sweep.rows}

    assert rows[0.0].saidi == pytest.approx(7.625, abs=1e-3)
    assert rows[0.0].ens == pytest.approx(42381.0, abs=1.0)

    collinearity = abs(rows[0.5].ens - 0.5 * (rows[0.0].ens + rows[1.0].ens))
    assert collinearity < 1e-6 * rows[0.0].ens

    for p in (0.75, 0.5, 0.25):
        published = TABLE_VII[p][1]
        assert abs(rows[p].ens - published) / published < 0.015, \
            f"p={p}: ENS {rows[p].ens:.0f} vs published {published:.0f}"
    _ok("3 sensitivity endpoints and affinity")


# ---------------------------------------------------------------------------
# 4. Stochastic reproduction and runtime
# ---------------------------------------------------------------------------

def test_criterion_4_case3_stochastic_reproduction():
    mean3, std3 = _ten_seed_mean_ens("case3")
    assert abs(mean3 - TABLE_VI_CASE3_ENS) / TABLE_VI_CASE3_ENS < 0.05, \
        f"10-seed mean ENS {mean3:.0f} vs published {TABLE_VI_CASE3_ENS:.0f}"

    case1_ens = _default_run("case1").system.ens
    band = 3.0 * std3 / math.sqrt(10.0)
    assert mean3 + band < case1_ens, "DG case must clearly beat the baseline"

    mean2, _ = _ten_seed_mean_ens("case2")
    assert mean2 >= mean3, f"wind-only ENS {mean2:.0f} < mixed-fleet {mean3:.0f}"
    _ok(f"4 stochastic reproduction (mean ENS {mean3:.0f}, wind-only {mean2:.0f})")


@pytest.mark.parametrize("case_name", ["case3", "case2"])
def test_criterion_4_runtime_at_forced_full_horizon(case_name):
    scenario = dataclasses.replace(CASES[case_name], tolerance=1e-300)
    started = time.perf_counter()
    result = run(scenario)
    elapsed = time.perf_counter() - started
    assert result.years_run == 100_000
    assert not result.converged
    assert elapsed < 60.0, f"{case_name}: 100k years took {elapsed:.1f}s"
    _ok(f"4 runtime {case_name} 100k years in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Top-priority load point improvement
# ---------------------------------------------------------------------------

def test_criterion_5_lp9_improvement_pattern():
    base = _default_run("case1").per_lp
    mixed = _default_run("case3").per_lp
    u_drop = {
        lp: (base[lp].unavailability - mixed[lp].unavailability)
        / base[lp].unavailability
        for lp in base
    }
    lam_drop = {
        lp: (base[lp].failure_rate - mixed[lp].failure_rate)
        / base[lp].failure_rate
        for lp in base
    }
    assert u_drop["LP9"] > 0.50, f"LP9 unavailability drop {u_drop['LP9']:.1%}"
    for lp in ("LP2", "LP3", "LP4"):
        assert u_drop["LP9"] > u_drop[lp]
        assert lam_drop["LP9"] > lam_drop[lp]
    _ok(f"5 top-priority improvement (LP9 U drop {u_drop['LP9']:.0%})")


# ---------------------------------------------------------------------------
# 6. Distribution fidelity
# ---------------------------------------------------------------------------

def test_criterion_6_wind_distribution_fidelity():
    region1 = WeibullParams(scale_c=7.88, shape_k=2.62, region_id="region1")
    rng = np.random.Generator(np.random.Philox(key=np.array([2029, 0],
                                                            dtype=np.uint64)))
    u = np.maximum(rng.random(100_000), MIN_UNIFORM)
    v = sample_wind_speed(region1, u)
    analytic_mean = 7.88 * math.gamma(1.0 + 1.0 / 2.62)
    assert abs(v.mean() - analytic_mean) / analytic_mean < 0.01
    d = ks_statistic(v, weibull_cdf(7.88, 2.62, v))
    critical = KS_CRITICAL_5PCT / math.sqrt(v.size)
    assert d < critical, f"KS statistic {d:.5f} vs critical {critical:.5f}"
    _ok(f"6a wind fidelity (mean {v.mean():.3f} vs {analytic_mean:.3f}, KS {d:.5f})")


def test_criterion_6_beta_inverse_against_brute_force_oracle():
    params = BetaParams(alpha=1.03745, beta=1.38279)
    oracle = BruteForceBetaCdf(params.alpha, params.beta)
    u = np.arange(0.001, 0.9995, 0.001)
    x = beta_inverse_cdf(params, u)
    worst = np.abs(oracle.cdf(x) - u).max()
    assert worst <= 1e-8, f"worst oracle residual {worst:.3e}"
    _ok(f"6b beta inverse vs integrated-density oracle (residual {worst:.2e})")


# ---------------------------------------------------------------------------
# 7. Power-curve properties
# ---------------------------------------------------------------------------

def test_criterion_7_curve_continuity_and_range():
    wtg = WindTurbineSpec(p_rated=2000.0, v_rated=15.0, v_cut_in=3.0,
                          v_cut_out=25.0, region_id="region1")
    denominator = 15.0**3 - 3.0**3
    a = 2000.0 / denominator
    b = 3.0**3 / denominator
    assert abs((a * 3.0**3 - b * 2000.0) - 0.0) < 1e-9 * 2000.0
    assert abs((a * 15.0**3 - b * 2000.0) - 2000.0) < 1e-9 * 2000.0

    pv = PvArraySpec(p_sn=2000.0, g_std=1000.0, r_c=150.0)
    quad_at_rc = 2000.0 * 150.0**2 / (1000.0 * 150.0)
    lin_at_rc = 2000.0 * 150.0 / 1000.0
    assert abs(quad_at_rc - lin_at_rc) < 1e-9 * 2000.0
    lin_at_gstd = 2000.0 * 1000.0 / 1000.0
    assert abs(lin_at_gstd - 2000.0) < 1e-9 * 2000.0

    rng = np.random.default_rng(20_29)
    speeds = rng.uniform(0.0, 50.0, 1_000_000)
    powers = wind_power(wtg, speeds)
    assert powers.min() >= 0.0 and powers.max() <= 2000.0 + 1e-9
    irradiance = rng.uniform(0.0, 2000.0, 1_000_000)
    pv_out = pv_power(pv, irradiance)
    assert pv_out.min() >= 0.0 and pv_out.max() <= 2000.0 + 1e-9
    _ok("7 curve continuity and range")


# ---------------------------------------------------------------------------
# 8. Dispatch oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_8_dispatch_matches_enumeration():
    rng = np.random.default_rng(88)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        loads = [(f"L{i}", float(rng.integers(0, 40)) * 25.0) for i in range(n)]
        total = float(rng.integers(0, 60)) * 25.0
        assert priority_dispatch(total, loads) == \
            dispatch_by_enumeration(total, loads)
    _ok("8 dispatch oracle equivalence (1000 instances)")


# ---------------------------------------------------------------------------
# 9. Determinism and parallel invariance
# ---------------------------------------------------------------------------

def test_criterion_9_byte_identical_reports_across_worker_counts(tmp_path):
    scenario_path = str(bundled_scenario_path("case3"))
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"case3_w{workers}.csv"
        code = cli_main(["run", scenario_path, "--out", str(out),
                         "--workers", str(workers)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _ok("9 byte-identical reports at workers 1, 2, 8")


# ---------------------------------------------------------------------------
# 10. Variable-load property
# ---------------------------------------------------------------------------

def test_criterion_10_subunity_load_factors_never_increase_ens():
    base = _default_run("case3")
    rng = np.random.default_rng(4)
    profiles = [
        (0.75,) * 365,
        CASES["case4"].load_factors,
        tuple(rng.uniform(0.5, 1.0, 365).tolist()),
    ]
    for profile in profiles:
        assert sum(profile) / 365.0 < 1.0
        scenario = dataclasses.replace(CASES["case3"], load_factors=profile)
        varied = run(scenario)
        assert varied.system.ens <= base.system.ens + 1e-9
    _ok("10 sub-unity load factors never increase ENS (paired seeds)")
