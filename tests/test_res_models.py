"""Resource-model tests: samplers, power curves, and trace emission."""

import math

import numpy as np
import pytest
from scipy.special import betainc

import microrel.res_models as res_models
from microrel.res_models import (
    _BETA_CELLS,
    _BETA_CHUNK,
    MIN_UNIFORM,
    BetaParams,
    DgUnit,
    NumericsError,
    PvArraySpec,
    ResourceDistributions,
    WeibullParams,
    WindTurbineSpec,
    beta_inverse_cdf,
    emit_trace,
    pv_power,
    sample_daily_resources,
    sample_irradiance,
    sample_wind_speed,
    trace_to_delimited,
    wind_power,
    _BetaTable,
    _beta_bracket_table,
    _beta_cells,
    _beta_poly_table,
    _beta_refine,
    _rekey,
)
from oracles import BruteForceBetaCdf, ks_statistic, KS_CRITICAL_5PCT, weibull_cdf

REGION1 = WeibullParams(scale_c=7.88, shape_k=2.62, region_id="region1")
REGION2 = WeibullParams(scale_c=8.46, shape_k=3.18, region_id="region2")
WTG1 = WindTurbineSpec(p_rated=2000.0, v_rated=15.0, v_cut_in=3.0,
                       v_cut_out=25.0, region_id="region1")
PV_STD = PvArraySpec(p_sn=2000.0, g_std=1000.0, r_c=150.0)
FITTED_BETA = BetaParams(alpha=1.03745, beta=1.38279, scale_gmax=1000.0)

# Median of the fitted beta distribution, frozen from the brute-force
# Simpson-integrated-density oracle (see oracles.BruteForceBetaCdf).
FITTED_BETA_MEDIAN = 0.40641085561832646


@pytest.fixture(scope="module")
def beta_oracle():
    return BruteForceBetaCdf(FITTED_BETA.alpha, FITTED_BETA.beta)


# ---------------------------------------------------------------------------
# Wind-speed sampling
# ---------------------------------------------------------------------------

def test_wind_sample_at_exp_minus_one_returns_scale():
    # -ln(1/e) = 1, so the sample collapses to the scale parameter.
    v = sample_wind_speed(REGION1, math.exp(-1.0))
    assert v == pytest.approx(7.88, rel=1e-12)


def test_wind_sample_median_region2():
    # 8.46 * (ln 2)^(1/3.18), evaluated independently.
    v = sample_wind_speed(REGION2, 0.5)
    assert v == pytest.approx(7.539030088099937, rel=1e-12)


def test_wind_sample_closed_form_inverse_identity():
    u = np.linspace(0.01, 0.99, 99)
    v = sample_wind_speed(REGION1, u)
    # The sampler uses the equivalent-in-law form c*(-ln u)^(1/k), so the
    # CDF of the sample returns the reflected variate 1 - u.
    assert np.abs(weibull_cdf(7.88, 2.62, v) - (1.0 - u)).max() < 1e-12


def test_wind_sample_strictly_decreasing_in_u():
    u = np.linspace(0.001, 0.999, 500)
    v = sample_wind_speed(REGION1, u)
    assert np.all(np.diff(v) < 0.0)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_wind_sample_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
        sample_wind_speed(REGION1, bad)


def test_wind_sample_statistics_match_weibull():
    rng = np.random.Generator(np.random.Philox(key=np.array([77, 0], dtype=np.uint64)))
    u = np.maximum(rng.random(100_000), MIN_UNIFORM)
    v = sample_wind_speed(REGION1, u)
    analytic_mean = 7.88 * math.gamma(1.0 + 1.0 / 2.62)
    assert abs(v.mean() - analytic_mean) / analytic_mean < 0.01
    d = ks_statistic(v, weibull_cdf(7.88, 2.62, v))
    assert d < KS_CRITICAL_5PCT / math.sqrt(v.size)


def test_weibull_params_validation():
    with pytest.raises(ValueError):
        WeibullParams(scale_c=0.0, shape_k=2.0)
    with pytest.raises(ValueError):
        WeibullParams(scale_c=5.0, shape_k=-1.0)


# ---------------------------------------------------------------------------
# Wind power curve
# ---------------------------------------------------------------------------

def test_wind_power_rated_point():
    assert wind_power(WTG1, 15.0) == pytest.approx(2000.0, abs=1e-9)


@pytest.mark.parametrize("v", [0.0, 2.0, 3.0, 25.0, 26.0, 100.0])
def test_wind_power_zero_outside_operating_band(v):
    assert wind_power(WTG1, v) == 0.0


def test_wind_power_cubic_branch_hand_value():
    # a = 2000/3348, b = 27/3348; P(10) = (2000*1000 - 27*2000)/3348.
    assert wind_power(WTG1, 10.0) == pytest.approx(1946000.0 / 3348.0, rel=1e-12)


def test_wind_power_continuity_at_breakpoints():
    denom = 15.0**3 - 3.0**3
    a = 2000.0 / denom
    b = 3.0**3 / denom
    assert abs(a * 3.0**3 - b * 2000.0 - 0.0) < 1e-9 * 2000.0
    assert abs(a * 15.0**3 - b * 2000.0 - 2000.0) < 1e-9 * 2000.0
    eps = 1e-9
    assert abs(wind_power(WTG1, 3.0 + eps) - wind_power(WTG1, 3.0)) < 1e-6 * 2000.0
    assert abs(wind_power(WTG1, 15.0 + eps) - wind_power(WTG1, 15.0)) < 1e-6 * 2000.0


def test_wind_power_range_on_random_inputs():
    rng = np.random.default_rng(11)
    v = rng.uniform(0.0, 40.0, 200_000)
    p = wind_power(WTG1, v)
    assert p.min() >= 0.0
    assert p.max() <= 2000.0 + 1e-9


def test_wind_power_rejects_negative_speed():
    with pytest.raises(ValueError):
        wind_power(WTG1, -0.1)


def test_wind_turbine_spec_validation():
    with pytest.raises(ValueError):
        WindTurbineSpec(p_rated=100.0, v_rated=3.0, v_cut_in=5.0, v_cut_out=25.0)
    with pytest.raises(ValueError):
        WindTurbineSpec(p_rated=-5.0, v_rated=12.0, v_cut_in=3.0, v_cut_out=25.0)


# ---------------------------------------------------------------------------
# Beta inverse CDF and irradiance
# ---------------------------------------------------------------------------

def test_beta_inverse_cdf_endpoints():
    assert beta_inverse_cdf(FITTED_BETA, 0.0) == 0.0
    assert beta_inverse_cdf(FITTED_BETA, 1.0) == 1.0


def test_beta_inverse_cdf_uniform_special_case():
    uniform = BetaParams(alpha=1.0, beta=1.0)
    u = np.linspace(0.0, 1.0, 101)
    x = beta_inverse_cdf(uniform, u)
    assert np.abs(x - u).max() < 1e-9


def test_beta_inverse_cdf_median_matches_brute_force_oracle():
    x = beta_inverse_cdf(FITTED_BETA, 0.5)
    assert x == pytest.approx(FITTED_BETA_MEDIAN, abs=1e-9)


def test_beta_inverse_cdf_against_oracle_grid(beta_oracle):
    u = np.arange(0.01, 1.0, 0.01)
    x = beta_inverse_cdf(FITTED_BETA, u, tol=1e-10)
    assert np.abs(beta_oracle.cdf(x) - u).max() <= 1e-8


def test_beta_inverse_cdf_monotone():
    u = np.sort(np.random.default_rng(5).random(4000))
    x = beta_inverse_cdf(FITTED_BETA, u)
    assert np.all(np.diff(x) >= 0.0)


def test_beta_inverse_cdf_scalar_and_vector_paths_agree():
    # Large arrays take the cached-bracket path; scalars take the cold path.
    u = np.random.default_rng(9).random(5000)
    batch = beta_inverse_cdf(FITTED_BETA, u)
    singles = np.array([beta_inverse_cdf(FITTED_BETA, ui) for ui in u[:32]])
    assert np.abs(batch[:32] - singles).max() < 1e-9


@pytest.mark.parametrize("alpha, beta, u", [
    (0.5, 0.5, 0.9999998646762783),
    (5.0, 0.5, 0.9999994270772085),
])
def test_beta_inverse_cdf_returns_nearest_double_when_none_meets_tol(alpha, beta, u):
    # Near u = 1 with beta < 1, adjacent doubles of x step the CDF by more
    # than 2 * tol, so no double meets tol and the nearest one is returned.
    x = beta_inverse_cdf(BetaParams(alpha, beta), u)
    residual = abs(betainc(alpha, beta, x) - u)
    assert residual > 1e-10
    for neighbour in (np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
        assert residual <= abs(betainc(alpha, beta, neighbour) - u)


def test_beta_inverse_cdf_iteration_cap():
    with pytest.raises(NumericsError):
        beta_inverse_cdf(FITTED_BETA, 0.4321, tol=1e-15, max_iter=1)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_beta_inverse_cdf_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
        beta_inverse_cdf(FITTED_BETA, bad)


def test_beta_inverse_cdf_rejects_bad_tol():
    with pytest.raises(ValueError):
        beta_inverse_cdf(FITTED_BETA, 0.5, tol=0.0)


def test_sample_irradiance_endpoints_and_median():
    assert sample_irradiance(FITTED_BETA, 0.0) == 0.0
    assert sample_irradiance(FITTED_BETA, 1.0) == pytest.approx(1000.0)
    g = sample_irradiance(FITTED_BETA, 0.5)
    assert g == pytest.approx(1000.0 * FITTED_BETA_MEDIAN, abs=1e-6)


def test_beta_params_validation():
    with pytest.raises(ValueError):
        BetaParams(alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        BetaParams(alpha=1.0, beta=1.0, scale_gmax=-10.0)


# ---------------------------------------------------------------------------
# PV power curve
# ---------------------------------------------------------------------------

def test_pv_power_at_standard_irradiance():
    assert pv_power(PV_STD, 1000.0) == pytest.approx(2000.0, abs=1e-9)


def test_pv_power_at_breakpoint_continuity_point():
    # Both adjacent branches evaluate to 0.15 * rated at the breakpoint.
    assert pv_power(PV_STD, 150.0) == pytest.approx(300.0, abs=1e-9)
    quadratic = 2000.0 * 150.0**2 / (1000.0 * 150.0)
    linear = 2000.0 * 150.0 / 1000.0
    assert abs(quadratic - linear) < 1e-9 * 2000.0


def test_pv_power_quadratic_branch_hand_value():
    assert pv_power(PV_STD, 75.0) == pytest.approx(75.0, rel=1e-12)


def test_pv_power_saturates_above_standard():
    assert pv_power(PV_STD, 1500.0) == 2000.0


def test_pv_power_continuity_at_gstd():
    below = 2000.0 * 1000.0 / 1000.0
    assert abs(below - 2000.0) < 1e-9 * 2000.0
    assert abs(pv_power(PV_STD, 1000.0 - 1e-9) - pv_power(PV_STD, 1000.0)) < 1e-5


def test_pv_power_range_on_random_inputs():
    rng = np.random.default_rng(12)
    g = rng.uniform(0.0, 1500.0, 200_000)
    p = pv_power(PV_STD, g)
    assert p.min() >= 0.0
    assert p.max() <= 2000.0 + 1e-9


def test_pv_power_rejects_negative_irradiance():
    with pytest.raises(ValueError):
        pv_power(PV_STD, -1.0)


def test_pv_array_spec_validation():
    with pytest.raises(ValueError):
        PvArraySpec(p_sn=100.0, g_std=100.0, r_c=150.0)
    with pytest.raises(ValueError):
        PvArraySpec(p_sn=0.0)


# ---------------------------------------------------------------------------
# Daily draws and trace emission
# ---------------------------------------------------------------------------

def _two_region_dists(shared: bool = True) -> ResourceDistributions:
    return ResourceDistributions(
        wind_regions={"region1": REGION1, "region2": REGION2},
        irradiance=FITTED_BETA,
        shared_irradiance=shared,
    )


def _mixed_fleet() -> tuple[DgUnit, ...]:
    return (
        DgUnit("WTG1", "LP7", WTG1),
        DgUnit("WTG2", "LP10", WindTurbineSpec(1500.0, 12.0, 3.0, 25.0, "region2")),
        DgUnit("PV1", "LP1", PV_STD),
        DgUnit("PV2", "LP8", PV_STD),
    )


def test_emit_trace_is_deterministic():
    fleet = _mixed_fleet()
    first = emit_trace(fleet, _two_region_dists(), n_days=365, seed=99)
    second = emit_trace(fleet, _two_region_dists(), n_days=365, seed=99)
    for a, b in zip(first, second):
        assert a.unit == b.unit
        np.testing.assert_array_equal(a.resource, b.resource)
        np.testing.assert_array_equal(a.power_kw, b.power_kw)


def test_emit_trace_series_shapes_and_ranges():
    traces = emit_trace(_mixed_fleet(), _two_region_dists(), n_days=400, seed=5)
    assert len(traces) == 4
    for trace in traces:
        assert trace.resource.size == 400
        assert trace.power_kw.size == 400
        assert trace.power_kw.min() >= 0.0
    rated = {"WTG1": 2000.0, "WTG2": 1500.0, "PV1": 2000.0, "PV2": 2000.0}
    for trace in traces:
        assert trace.power_kw.max() <= rated[trace.unit] + 1e-9


def test_emit_trace_power_recomputes_from_resource():
    traces = emit_trace(_mixed_fleet(), _two_region_dists(), n_days=200, seed=17)
    wind = next(t for t in traces if t.unit == "WTG1")
    np.testing.assert_allclose(wind.power_kw, wind_power(WTG1, wind.resource))
    pv = next(t for t in traces if t.unit == "PV1")
    np.testing.assert_allclose(pv.power_kw, pv_power(PV_STD, pv.resource))


def test_shared_irradiance_gives_identical_pv_resource():
    traces = emit_trace(_mixed_fleet(), _two_region_dists(shared=True),
                        n_days=120, seed=3)
    pv1 = next(t for t in traces if t.unit == "PV1")
    pv2 = next(t for t in traces if t.unit == "PV2")
    np.testing.assert_array_equal(pv1.resource, pv2.resource)


def test_independent_irradiance_gives_distinct_pv_resource():
    traces = emit_trace(_mixed_fleet(), _two_region_dists(shared=False),
                        n_days=120, seed=3)
    pv1 = next(t for t in traces if t.unit == "PV1")
    pv2 = next(t for t in traces if t.unit == "PV2")
    assert not np.array_equal(pv1.resource, pv2.resource)


def test_wind_regions_draw_independent_streams():
    resources = sample_daily_resources(_two_region_dists(), _mixed_fleet(),
                                       seed=1, n_days=365)
    assert not np.array_equal(resources.wind_speeds["region1"],
                              resources.wind_speeds["region2"])


def test_adding_turbine_to_existing_region_keeps_streams():
    # The draw layout depends on declared regions and PV units only, so a
    # new turbine in a known region must not disturb any existing series.
    dists = _two_region_dists()
    fleet = _mixed_fleet()
    extra = fleet + (DgUnit("WTG3", "LP5", WTG1),)
    base = sample_daily_resources(dists, fleet, seed=21, n_days=365)
    grown = sample_daily_resources(dists, extra, seed=21, n_days=365)
    for region in ("region1", "region2"):
        np.testing.assert_array_equal(base.wind_speeds[region],
                                      grown.wind_speeds[region])
    np.testing.assert_array_equal(base.irradiance["shared"],
                                  grown.irradiance["shared"])


def test_day_series_prefix_stability():
    dists = _two_region_dists()
    fleet = _mixed_fleet()
    short = sample_daily_resources(dists, fleet, seed=8, n_days=100)
    long = sample_daily_resources(dists, fleet, seed=8, n_days=500)
    np.testing.assert_array_equal(short.wind_speeds["region1"],
                                  long.wind_speeds["region1"][:100])


def test_trace_to_delimited_format():
    traces = emit_trace(_mixed_fleet()[:1], _two_region_dists(), n_days=3, seed=1)
    text = trace_to_delimited(traces[0])
    lines = text.splitlines()
    assert lines[0] == "day_index,resource_value,power_kW"
    assert len(lines) == 4
    day, resource, power = lines[1].split(",")
    assert day == "0"
    assert float(resource) >= 0.0
    assert float(power) >= 0.0


# ---------------------------------------------------------------------------
# Uniform streams: one re-keyed Philox per call
# ---------------------------------------------------------------------------

def _reference_uniforms(seed: int, start_year: int, n_streams: int,
                        n_days: int) -> np.ndarray:
    # A fresh generator per (seed, year).  The key is built as uint64
    # explicitly: a plain list would not hold seed 2**64 - 1 exactly.
    years = -(-n_days // 365)
    chunks = [
        np.random.Generator(np.random.Philox(
            key=np.array([seed, start_year + y], dtype=np.uint64)
        )).random((n_streams, 365))
        for y in range(years)
    ]
    return np.concatenate(chunks, axis=1)[:, :n_days]


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("start_year", [0, 511, 100_000])
def test_daily_draws_equal_fresh_generator_per_year(seed, start_year):
    # Independent irradiance gives four streams: region1, region2, PV1, PV2.
    # 1000 days end with a partial year.
    dists = _two_region_dists(shared=False)
    got = sample_daily_resources(dists, _mixed_fleet(), seed=seed,
                                 n_days=1000, start_year=start_year)
    u = _reference_uniforms(seed, start_year, 4, 1000)
    for row, region in enumerate(("region1", "region2")):
        expected = sample_wind_speed(dists.wind_regions[region],
                                     np.maximum(u[row], MIN_UNIFORM))
        np.testing.assert_array_equal(got.wind_speeds[region], expected)
    for row, unit in ((2, "PV1"), (3, "PV2")):
        np.testing.assert_array_equal(got.irradiance[unit],
                                      sample_irradiance(FITTED_BETA, u[row]))


def test_rekey_leaves_no_state_from_the_previous_year():
    bit_generator = np.random.Philox(key=np.array([3, 4], dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    rng.random(5)
    rng.integers(0, 2**31, size=3, dtype=np.uint32)  # leaves a spare 32-bit half
    assert bit_generator.state["has_uint32"] == 1
    assert bit_generator.state["buffer_pos"] < 4
    _rekey(bit_generator, 2**64 - 1, 7)
    fresh = np.random.Philox(key=np.array([2**64 - 1, 7], dtype=np.uint64))
    got, want = bit_generator.state, fresh.state
    for name in ("counter", "key"):
        np.testing.assert_array_equal(got["state"][name], want["state"][name])
    np.testing.assert_array_equal(got["buffer"], want["buffer"])
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert got[name] == want[name]
    np.testing.assert_array_equal(
        rng.integers(0, 2**31, size=9, dtype=np.uint32),
        np.random.Generator(fresh).integers(0, 2**31, size=9, dtype=np.uint32),
    )


# ---------------------------------------------------------------------------
# The u-indexed beta bracket table
# ---------------------------------------------------------------------------

TABLE_SHAPES = [(FITTED_BETA.alpha, FITTED_BETA.beta)] + [
    (a, b) for a in (0.5, 1.0, 5.0) for b in (0.5, 1.0, 5.0)
]
CELL_EDGES = np.arange(_BETA_CELLS + 1) / _BETA_CELLS


def _assert_brackets_hold(table, u):
    cell = _beta_cells(table, u)
    assert np.all((cell >= 0) & (cell < _BETA_CELLS))
    assert np.all(table.cdf[cell] <= u)
    assert np.all(u <= table.cdf[cell + 1])


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES)
def test_beta_table_brackets_every_cell(alpha, beta):
    table = _beta_bracket_table(alpha, beta)
    assert table.knots[0] == 0.0 and table.knots[-1] == 1.0
    assert np.all(np.diff(table.knots) >= 0.0)
    # The CDF is exact at every knot, so a bracket that holds in the table
    # holds for the distribution.
    np.testing.assert_array_equal(table.cdf, betainc(alpha, beta, table.knots))
    # Knots sit within one cell of their u-edge, which is what lets the
    # neighbour comparison stand in for a search.
    assert np.abs(table.cdf - CELL_EDGES).max() < 1.0 / _BETA_CELLS
    midpoints = (CELL_EDGES[:-1] + CELL_EDGES[1:]) / 2
    _assert_brackets_hold(table, np.concatenate((CELL_EDGES, midpoints)))


def test_beta_cells_search_when_no_neighbour_holds_u():
    # Knots at equal x steps are many cells away from their u-edges for a
    # skewed shape, so most queries need the search fallback.
    knots = np.linspace(0.0, 1.0, _BETA_CELLS + 1)
    cdf = betainc(0.5, 5.0, knots)
    zeros = np.zeros(_BETA_CELLS)
    table = _BetaTable(knots, cdf, zeros, zeros)
    _assert_brackets_hold(table, np.random.default_rng(4).random(20_000))


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES)
def test_beta_inverse_cdf_residual_at_edges_and_extremes(alpha, beta):
    params = BetaParams(alpha, beta)
    tol = 1e-10
    u = np.concatenate(([0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53], CELL_EDGES))
    x = beta_inverse_cdf(params, u, tol=tol)
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.abs(betainc(alpha, beta, x) - u).max() <= tol
    assert x[0] == 0.0 and x[1] == 1.0


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES)
def test_beta_inverse_cdf_agrees_with_oracle_for_each_shape(alpha, beta):
    oracle = BruteForceBetaCdf(alpha, beta)
    u = np.arange(0.005, 1.0, 0.01)
    x = beta_inverse_cdf(BetaParams(alpha, beta), u)
    assert np.abs(oracle.cdf(x) - u).max() <= 1e-8


# ---------------------------------------------------------------------------
# The per-cell CDF polynomials that stand in for betainc
# ---------------------------------------------------------------------------

def _betainc_only_inverse(params: BetaParams, u: np.ndarray,
                          tol: float = 1e-10) -> np.ndarray:
    """The inverse with every start point checked by betainc."""
    table = _beta_bracket_table(params.alpha, params.beta)
    cell = _beta_cells(table, u)
    du = u - table.cdf[cell]
    x = table.knots[cell] + du * (table.slope[cell] + du * table.curve[cell])
    x[u == 1.0] = 1.0
    r = betainc(params.alpha, params.beta, x) - u
    far = np.abs(r) > tol
    x[far] = _beta_refine(params, table, cell[far], u[far], x[far], r[far],
                          tol, 200)
    return x


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES)
def test_beta_inverse_cdf_equals_betainc_only_path(alpha, beta):
    params = BetaParams(alpha, beta)
    midpoints = (CELL_EDGES[:-1] + CELL_EDGES[1:]) / 2
    u = np.concatenate((np.random.default_rng(31).random(10**6),
                        CELL_EDGES, midpoints))
    np.testing.assert_array_equal(beta_inverse_cdf(params, u),
                                  _betainc_only_inverse(params, u))


@pytest.mark.parametrize("alpha, beta", [(FITTED_BETA.alpha, FITTED_BETA.beta),
                                         (0.5, 0.5)])
def test_beta_inverse_cdf_does_not_depend_on_batch_size(alpha, beta):
    params = BetaParams(alpha, beta)
    block = 365 * 512
    u = np.random.default_rng(32).random(block)
    whole = beta_inverse_cdf(params, u)
    for size in (_BETA_CHUNK - 1, _BETA_CHUNK, _BETA_CHUNK + 1, block):
        pieces = [beta_inverse_cdf(params, u[i:i + size])
                  for i in range(0, block, size)]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
    # One at a time, across the first chunk boundary.
    edge = slice(_BETA_CHUNK - 100, _BETA_CHUNK + 100)
    singles = [beta_inverse_cdf(params, ui) for ui in u[edge]]
    np.testing.assert_array_equal(np.array(singles), whole[edge])


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES)
def test_beta_poly_table_keeps_its_bound_at_fresh_points(alpha, beta):
    table = _beta_bracket_table(alpha, beta)
    poly = _beta_poly_table(alpha, beta)
    usable = np.isfinite(poly.bound)
    # Exact-only cells sit at the two ends of the support.
    lead = int(np.argmax(usable))
    trail = int(np.argmax(usable[::-1]))
    assert not usable[:lead].any() and not usable[_BETA_CELLS - trail:].any()
    assert usable[lead:_BETA_CELLS - trail].all()
    assert (~usable).sum() < 0.05 * _BETA_CELLS
    lower = table.knots[:-1][usable]
    width = np.diff(table.knots)[usable]
    for frac in (0.1, 0.3, 0.6, 0.9, 0.99):
        h = frac * width
        estimate = h * (poly.c1[usable] + h * (poly.c2[usable]
                        + h * (poly.c3[usable] + h * poly.c4[usable])))
        exact = betainc(alpha, beta, lower + h) - table.cdf[:-1][usable]
        assert np.all(np.abs(estimate - exact) <= poly.bound[usable])


def test_beta_draws_in_exact_only_cells_reach_betainc(monkeypatch):
    params = FITTED_BETA
    table = _beta_bracket_table(params.alpha, params.beta)
    poly = _beta_poly_table(params.alpha, params.beta)
    exact_only = np.flatnonzero(~np.isfinite(poly.bound))
    u = (table.cdf[exact_only] + table.cdf[exact_only + 1]) / 2
    assert np.all(_beta_cells(table, u) == exact_only)
    seen = []

    def recording_betainc(a, b, x):
        seen.append(np.size(x))
        return betainc(a, b, x)

    monkeypatch.setattr(res_models, "betainc", recording_betainc)
    beta_inverse_cdf(params, u)
    assert seen[0] == u.size
    # Elsewhere the polynomial settles nearly every draw without betainc.
    seen.clear()
    beta_inverse_cdf(params, np.random.default_rng(33).random(100_000))
    assert sum(seen) < 0.1 * 100_000
