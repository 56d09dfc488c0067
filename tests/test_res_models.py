"""Resource-model tests: samplers, power curves, and trace emission."""

import dataclasses
import math

import numpy as np
import pytest

import microrel.res_models as res_models
from microrel import engine
from microrel.res_models import (
    _BETA_CELLS,
    DAYS_PER_YEAR,
    MIN_UNIFORM,
    SHARED_IRRADIANCE_KEY,
    BetaParams,
    DgUnit,
    NumericsError,
    PvArraySpec,
    ResourceDistributions,
    WeibullParams,
    WindTurbineSpec,
    beta_draw_bounds,
    beta_inverse_cdf,
    emit_trace,
    pv_power,
    sample_daily_resources,
    sample_irradiance,
    sample_wind_speed,
    trace_to_delimited,
    wind_power,
    _beta_bracket_table,
    _beta_cells,
    _seek,
)
from microrel.scenario_io import bundled_scenarios
from oracles import (BruteForceBetaCdf, KS_CRITICAL_5PCT, binomial_betainc,
                     closed_form_betainc, ks_statistic, reference_daily_resources,
                     weibull_cdf)

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
    x = beta_inverse_cdf(FITTED_BETA, u)
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
    (0.5, 0.5, 0.9999999735944891),
    (5.0, 0.5, 0.9999994270772085),
])
def test_beta_inverse_cdf_returns_nearest_double_when_none_meets_tol(alpha, beta, u):
    # Near u = 1 with beta < 1, adjacent doubles of x step the CDF by more
    # than 2 * tol, so no double meets tol and the nearest one is returned.
    x = beta_inverse_cdf(BetaParams(alpha, beta), u)
    residual = abs(res_models.betainc(alpha, beta, x) - u)
    assert residual > 1e-10
    for neighbour in (np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
        assert residual <= abs(res_models.betainc(alpha, beta, neighbour) - u)


def test_beta_inverse_cdf_reaches_a_deep_tail_draw_of_a_small_shape():
    # The draw lies some 200 halvings below its knot cell's start point,
    # and every Newton step there would leave the bracket: 214 CDF
    # evaluations, past the 200 that were once the cap.
    u = 1.3900780557552645e-11
    x = beta_inverse_cdf(BetaParams(0.1, 0.1), u)
    assert 0.0 <= x < 1e-90
    assert abs(res_models.betainc(0.1, 0.1, x) - u) <= 1e-10


@pytest.mark.parametrize("alpha, beta", [(0.1, 0.1), (0.1, 2.0), (0.05, 0.5), (0.2, 0.2)])
def test_beta_inverse_cdf_returns_in_both_tails_of_small_shapes(alpha, beta):
    # Each draw meets the bound, or no neighbouring double is closer.
    tail = 10.0 ** np.random.default_rng(41).uniform(-16.0, -4.0, 4000)
    u = np.concatenate((tail, 1.0 - tail))
    x = beta_inverse_cdf(BetaParams(alpha, beta), u)
    assert np.all((x >= 0.0) & (x <= 1.0))
    residual = np.abs(res_models.betainc(alpha, beta, x) - u)
    far = residual > 1e-10
    for end in (0.0, 1.0):
        neighbour = np.nextafter(x[far], end)
        assert np.all(residual[far]
                      <= np.abs(res_models.betainc(alpha, beta, neighbour) - u[far]))


def test_beta_inverse_cdf_iteration_cap(monkeypatch):
    # The bound and the cap are read at call time.
    monkeypatch.setattr(res_models, "_BETA_TOL", 1e-15)
    monkeypatch.setattr(res_models, "_BETA_MAX_ITER", 1)
    with pytest.raises(NumericsError):
        beta_inverse_cdf(FITTED_BETA, 0.4321)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_beta_inverse_cdf_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
        beta_inverse_cdf(FITTED_BETA, bad)


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
# The regularized incomplete beta function
# ---------------------------------------------------------------------------

# x = 0, 1, the smallest subnormal and the largest double below 1.
EDGE_X = np.array([0.0, 1.0, 2.0**-1074, 1.0 - 2.0**-53])


def _betainc_allowance(alpha, beta):
    """Four ulps of 1 per unit of 1 + sqrt(alpha + beta); betainc's measured
    error is at most 2.5."""
    return 0.5 * 8 * 2.0**-52 * (1.0 + math.sqrt(alpha + beta))


def _betainc_points(alpha, beta, n, seed):
    """Points over the support, around the bulk and close to both ends."""
    rng = np.random.default_rng(seed)
    mean = alpha / (alpha + beta)
    sd = math.sqrt(mean * (1.0 - mean) / (alpha + beta + 1.0))
    ends = 10.0 ** -rng.uniform(1.0, 15.0, n)
    return np.clip(np.concatenate((rng.random(n), mean + 3.0 * sd * rng.normal(size=n),
                                   ends, 1.0 - ends)), 0.0, 1.0)


@pytest.mark.parametrize("alpha, beta, n", [
    (1, 1, 200), (1, 2, 200), (2, 1, 200), (2, 3, 200), (5, 5, 200), (1, 5, 200),
    (5, 1, 200), (7, 3, 200), (20, 30, 100), (200, 200, 15),
])
def test_betainc_matches_exact_binomial_sums(alpha, beta, n):
    x = np.concatenate((_betainc_points(alpha, beta, n, seed=alpha * 1000 + beta),
                        EDGE_X))
    exact = np.array([binomial_betainc(alpha, beta, float(v)) for v in x])
    error = np.abs(res_models.betainc(alpha, beta, x) - exact)
    assert error.max() <= _betainc_allowance(alpha, beta)


@pytest.mark.parametrize("alpha, beta", [
    (0.1, 1.0), (0.5, 1.0), (FITTED_BETA.alpha, 1.0), (5.0, 1.0),
    (1.0, 0.1), (1.0, 0.5), (1.0, FITTED_BETA.beta), (1.0, 5.0), (0.5, 0.5),
])
def test_betainc_matches_closed_forms(alpha, beta):
    x = np.concatenate((_betainc_points(alpha, beta, 5000, seed=40), EDGE_X))
    with np.errstate(divide="ignore"):
        exact = closed_form_betainc(alpha, beta, x)
    error = np.abs(res_models.betainc(alpha, beta, x) - exact)
    assert error.max() <= _betainc_allowance(alpha, beta)


@pytest.mark.parametrize("alpha, beta", [(FITTED_BETA.alpha, FITTED_BETA.beta),
                                         (0.5, 5.0), (200.0, 200.0)])
def test_betainc_keeps_the_shape_of_x(alpha, beta):
    grid = _betainc_points(alpha, beta, 30, seed=6).reshape(8, 15)
    flat = res_models.betainc(alpha, beta, grid.ravel())
    got = res_models.betainc(alpha, beta, grid)
    assert got.shape == grid.shape
    np.testing.assert_array_equal(got.ravel(), flat)
    scalar = res_models.betainc(alpha, beta, grid[3, 4])
    assert isinstance(scalar, float) and scalar == got[3, 4]
    assert res_models.betainc(alpha, beta, np.array(grid[3, 4])).shape == ()
    assert res_models.betainc(alpha, beta, np.empty(0)).shape == (0,)
    edges = res_models.betainc(alpha, beta, EDGE_X)
    assert edges[0] == 0.0 and edges[1] == 1.0
    assert 0.0 <= edges[2] < 1e-150 and 1.0 - 1e-7 < edges[3] <= 1.0


@pytest.mark.parametrize("alpha, beta", [(FITTED_BETA.alpha, FITTED_BETA.beta),
                                         (0.5, 0.5), (5.0, 5.0), (200.0, 200.0)])
def test_betainc_value_does_not_depend_on_the_rest_of_x(alpha, beta):
    # The series' term count follows the largest z in a call; an element's
    # value must not, or draws would depend on how queries are batched.
    rng = np.random.default_rng(7)
    x = np.concatenate((0.3 * rng.random(300), 1.0 - 0.3 * rng.random(300),
                        rng.random(300)))
    whole = res_models.betainc(alpha, beta, x)
    np.testing.assert_array_equal(
        whole, [res_models.betainc(alpha, beta, v) for v in x])
    np.testing.assert_array_equal(
        whole, np.concatenate([res_models.betainc(alpha, beta, part)
                               for part in np.array_split(x[::-1], 7)])[::-1])


# Inputs where scipy's betainc is itself wrong, with its value and the
# exact one: at 1 - 2^-53 by 2.8e-9 (it returns (2/pi) asin(sqrt(x)) with
# sqrt(x) rounded to x), and at 0.999999 by 2.8e-14.
SCIPY_WRONG = {
    (0.5, 0.5): {1.0 - 2.0**-53: (0.9999999905136262, 0.9999999932921207),
                 0.999999: (0.9993633801215482, 0.9993633801215199)},
}


@pytest.mark.parametrize("alpha, beta", [
    (FITTED_BETA.alpha, FITTED_BETA.beta), (2.0, 3.0)] + [
    (a, b) for a in (0.5, 1.0, 5.0) for b in (0.5, 1.0, 5.0)])
def test_betainc_agrees_with_scipy(alpha, beta):
    special = pytest.importorskip("scipy.special")
    x = np.concatenate((np.random.default_rng(41).random(2000),
                        np.linspace(0.0, 1.0, 1001), EDGE_X, [1e-6, 0.999999]))
    wrong = SCIPY_WRONG.get((alpha, beta), {})
    for point, (scipy_value, exact) in wrong.items():
        assert special.betainc(alpha, beta, point) == scipy_value
        assert res_models.betainc(alpha, beta, point) == pytest.approx(exact, abs=1e-15)
    x = x[~np.isin(x, list(wrong))]
    np.testing.assert_allclose(res_models.betainc(alpha, beta, x),
                               special.betainc(alpha, beta, x), rtol=0, atol=1e-14)


def test_betainc_raises_where_its_continued_fraction_cannot_converge():
    with pytest.raises(NumericsError, match="did not converge"):
        res_models.betainc(1e14, 1e14, 0.5)


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


# ---------------------------------------------------------------------------
# The in-place kernels: checks and bits
# ---------------------------------------------------------------------------

KERNELS = {
    "sample_wind_speed": lambda x: sample_wind_speed(REGION1, x),
    "wind_power": lambda x: wind_power(WTG1, x),
    "pv_power": lambda x: pv_power(PV_STD, x),
}


def _kernel_inputs(name: str) -> np.ndarray:
    """Random inputs plus every breakpoint of the curve and its neighbours."""
    rng = np.random.default_rng(14)
    if name == "sample_wind_speed":
        return np.concatenate((rng.random(20_000), [MIN_UNIFORM, 0.5, 1.0 - 2.0**-53]))
    edges = (np.array([3.0, 15.0, 25.0]) if name == "wind_power"
             else np.array([150.0, 1000.0]))
    return np.concatenate((rng.uniform(0.0, 1.2 * edges[-1], 20_000), [0.0, -0.0, np.inf],
                           edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)))


def _where_form(name: str, x: np.ndarray) -> np.ndarray:
    """Each kernel written as one expression of nested np.where."""
    if name == "sample_wind_speed":
        return REGION1.scale_c * (-np.log(x)) ** (1.0 / REGION1.shape_k)
    if name == "wind_power":
        s = WTG1
        denom = s.v_rated**3 - s.v_cut_in**3
        cubic = s.p_rated / denom * x**3 - s.v_cut_in**3 / denom * s.p_rated
        return np.where((x <= s.v_cut_in) | (x >= s.v_cut_out), 0.0,
                        np.where(x <= s.v_rated, cubic, s.p_rated))
    s = PV_STD
    return np.where(x < s.r_c, s.p_sn * x * x / (s.g_std * s.r_c),
                    np.where(x <= s.g_std, s.p_sn * x / s.g_std, s.p_sn))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_are_bit_identical_to_their_where_form(name):
    x = _kernel_inputs(name)
    with np.errstate(invalid="ignore", over="ignore"):
        want = _where_form(name, x)
    got = KERNELS[name](x)
    # Compared as bits, so that 0.0 and -0.0 differ.
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan, 0.25]])
def test_kernels_reject_nan(name, bad):
    with pytest.raises(ValueError):
        KERNELS[name](bad)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_accept_empty_arrays(name):
    assert KERNELS[name](np.empty(0)).shape == (0,)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_power_curves_accept_both_zeros(zero):
    assert wind_power(WTG1, zero) == 0.0
    assert pv_power(PV_STD, zero) == 0.0
    np.testing.assert_array_equal(wind_power(WTG1, np.array([zero, 10.0]))[0], 0.0)
    np.testing.assert_array_equal(pv_power(PV_STD, np.array([zero, 10.0]))[0], 0.0)


def test_pv_array_spec_validation():
    with pytest.raises(ValueError):
        PvArraySpec(p_sn=100.0, g_std=100.0, r_c=150.0)
    with pytest.raises(ValueError):
        PvArraySpec(p_sn=0.0)


def test_units_and_distributions_reject_what_the_parser_never_builds():
    # The parser rejects an empty name and builds only these types, so
    # these checks guard direct use of the records.
    with pytest.raises(ValueError, match="DG unit needs a non-empty name"):
        DgUnit("", "LP1", PV_STD)
    with pytest.raises(TypeError, match="unsupported device type"):
        DgUnit("PV1", "LP1", FITTED_BETA)
    with pytest.raises(TypeError, match="region 'region1': expected WeibullParams"):
        ResourceDistributions({"region1": FITTED_BETA}, FITTED_BETA)


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


@pytest.mark.parametrize("shared, pv1_name", [
    pytest.param(True, "PV1", id="True"),
    pytest.param(False, "PV1", id="False"),
    pytest.param(True, "shared", id="True-named-shared"),
    pytest.param(False, "shared", id="False-named-shared"),
])
def test_whole_fleet_trace_is_year_zero_of_a_run(shared, pv1_name):
    # Each unit's trace is the engine's year-0 stream of that unit and its
    # power, so dispatching the traces gives the engine's year-0 counts.
    # An array named "shared", the shared stream's label, still reads its
    # own stream under independent irradiance, and lends it to no other.
    case3 = bundled_scenarios()["case3"]
    fleet = tuple(dataclasses.replace(unit, name=pv1_name) if unit.name == "PV1" else unit
                  for unit in case3.fleet)
    scenario = dataclasses.replace(case3, fleet=fleet, distributions=dataclasses.replace(
        case3.distributions, shared_irradiance=shared))
    dists, fleet = scenario.distributions, scenario.fleet
    traces = emit_trace(fleet, dists, DAYS_PER_YEAR, scenario.seed)
    block = res_models.draw_uniforms(dists, fleet, scenario.seed, 1)
    rows = {label: row for row, label in enumerate(block.labels)}
    days = np.arange(DAYS_PER_YEAR)
    words = res_models.day_words(
        res_models.day_lanes(block.coarse, range(len(rows)), days), scenario.seed,
        len(rows), range(len(rows)), np.zeros_like(days), days)
    total = np.zeros(DAYS_PER_YEAR)
    for unit, trace in zip(fleet, traces, strict=True):
        if isinstance(unit.device, WindTurbineSpec):
            label, curve = ("wind", unit.device.region_id), wind_power
        else:
            key = SHARED_IRRADIANCE_KEY if shared else unit.name
            label, curve = ("irradiance", key), pv_power
        stream = res_models.resource_values(dists, label, words[:, rows[label]])
        assert trace.unit == unit.name
        np.testing.assert_array_equal(trace.resource, stream)
        np.testing.assert_array_equal(trace.power_kw, curve(unit.device, stream))
        total += trace.power_kw
    pv1, pv2 = (t.resource for t in traces if t.unit in (pv1_name, "PV2"))
    assert np.array_equal(pv1, pv2) == shared

    ctx = engine._context_for(scenario)
    counts = np.zeros((1, len(ctx.lp_ids)), dtype=np.int64)
    engine._dispatch(total.reshape(1, DAYS_PER_YEAR),
                     np.multiply.outer(ctx.levels, ctx.load_factors),
                     ctx.blocking, counts)
    assert dict(zip(ctx.lp_ids, counts[0].tolist())) == \
        engine.simulate_year(scenario, 0)


def test_wind_regions_draw_independent_streams():
    resources = sample_daily_resources(_two_region_dists(), _mixed_fleet(),
                                       seed=1, n_days=365)
    assert not np.array_equal(resources.streams[("wind", "region1")],
                              resources.streams[("wind", "region2")])


def test_adding_turbine_to_existing_region_keeps_streams():
    # The draw layout depends on declared regions and PV units only, so a
    # new turbine in a known region must not disturb any existing series.
    dists = _two_region_dists()
    fleet = _mixed_fleet()
    extra = fleet + (DgUnit("WTG3", "LP5", WTG1),)
    base = sample_daily_resources(dists, fleet, seed=21, n_days=365)
    grown = sample_daily_resources(dists, extra, seed=21, n_days=365)
    assert list(base.streams) == list(grown.streams)
    for label in base.streams:
        np.testing.assert_array_equal(base.streams[label], grown.streams[label])


def test_day_series_prefix_stability():
    dists = _two_region_dists()
    fleet = _mixed_fleet()
    short = sample_daily_resources(dists, fleet, seed=8, n_days=100)
    long = sample_daily_resources(dists, fleet, seed=8, n_days=500)
    for label in short.streams:
        np.testing.assert_array_equal(short.streams[label], long.streams[label][:100])


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
# Uniform streams: one Philox per group of 64 years, seeked per pass
# ---------------------------------------------------------------------------

def _reference_words(seed: int, start_year: int, n_streams: int,
                     n_years: int) -> tuple[np.ndarray, np.ndarray]:
    """Coarse words (years, 4C) and fine words (years, 365, F) from the
    documented rule alone, with a fresh Philox per year: year y of group
    g = y // 64 reads its coarse words from word 4C (y % 64) of the Philox
    keyed (seed, g), and its days' fine words from word 256 C + 365 (y % 64)
    F; a Philox at counter c next gives word 4c.  The key is built as uint64
    explicitly: a plain list would not hold seed 2**64 - 1 exactly."""
    c = -(-365 * n_streams // 16)
    f = 4 * -(-n_streams // 4)
    coarse, fine = [], []
    for year in range(start_year, start_year + n_years):
        group, j = divmod(year, 64)
        key = np.array([seed, group], dtype=np.uint64)
        coarse.append(np.random.Philox(key=key, counter=c * j).random_raw(4 * c))
        first = (256 * c + 365 * j * f) // 4
        fine.append(np.random.Philox(key=key, counter=first).random_raw(365 * f)
                    .reshape(365, f))
    return np.array(coarse).reshape(n_years, 4 * c), np.array(fine)


def _reference_uniforms(seed: int, start_year: int, n_streams: int,
                        n_days: int) -> np.ndarray:
    # Lane i = 365 s + d of a year is bits 16 (i mod 4) on of its coarse word
    # i // 4, and u = (lane 2^37 + (f >> 27)) 2^-53 for stream s's fine word f.
    n_years = -(-n_days // 365)
    coarse, fine = _reference_words(seed, start_year, n_streams, n_years)
    lanes = np.stack([(coarse >> np.uint64(16 * k)) & np.uint64(0xFFFF) for k in range(4)],
                     axis=2).reshape(n_years, -1)[:, :365 * n_streams]
    lanes = lanes.reshape(n_years, n_streams, 365).transpose(1, 0, 2)
    low = (fine[:, :, :n_streams] >> np.uint64(27)).transpose(2, 0, 1)
    u = (lanes.astype(np.float64) * 2.0**37 + low.astype(np.float64)) * 2.0**-53
    return u.reshape(n_streams, -1)[:, :n_days]


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("start_year", [0, 511, 100_000, 63, 64, 65])
def test_daily_draws_equal_fresh_generator_per_year(seed, start_year):
    # Independent irradiance gives four streams: region1, region2, PV1, PV2.
    # 1000 days end with a partial year; from start years 63 and 64 on they
    # cross into the next group.
    dists = _two_region_dists(shared=False)
    got = sample_daily_resources(dists, _mixed_fleet(), seed=seed,
                                 n_days=1000, start_year=start_year)
    u = _reference_uniforms(seed, start_year, 4, 1000)
    for row, region in enumerate(("region1", "region2")):
        expected = sample_wind_speed(dists.wind_regions[region],
                                     np.maximum(u[row], MIN_UNIFORM))
        np.testing.assert_array_equal(got.streams[("wind", region)], expected)
    for row, unit in ((2, "PV1"), (3, "PV2")):
        np.testing.assert_array_equal(got.streams[("irradiance", unit)],
                                      sample_irradiance(FITTED_BETA, u[row]))


def _fleet_of(n_streams: int):
    """Dists and a fleet drawing 2 to 5 streams: two wind regions (a third
    for five), then shared irradiance (3) or two independent arrays, the
    first named like the shared stream (4 and 5)."""
    dists, fleet = _two_region_dists(shared=n_streams == 3), _mixed_fleet()
    if n_streams == 2:
        return dists, fleet[:2]
    if n_streams >= 4:
        fleet = (fleet[0], fleet[1], dataclasses.replace(fleet[2], name=SHARED_IRRADIANCE_KEY),
                 fleet[3])
    if n_streams == 5:
        dists = dataclasses.replace(dists, wind_regions={
            **dists.wind_regions, "region3": WeibullParams(3.0, 0.7, "region3")})
        fleet += (DgUnit("WTG3", "LP2", dataclasses.replace(WTG1, region_id="region3")),)
    return dists, fleet


@pytest.mark.parametrize("n_streams", [2, 3, 4, 5])
def test_daily_draws_of_two_to_five_streams_follow_both_oracles(n_streams):
    # Five streams take eight fine words a day (F = 8), three of them unread.
    # The two oracles read the rule differently: a fresh Philox per year,
    # seeked to its words, and one per group read from its first word.
    dists, fleet = _fleet_of(n_streams)
    got = sample_daily_resources(dists, fleet, seed=2**64 - 1, n_days=800,
                                 start_year=63)
    assert len(got.streams) == n_streams
    u = _reference_uniforms(2**64 - 1, 63, n_streams, 800)
    for row, label in enumerate(got.streams):
        kind, key = label
        if kind == "wind":
            expected = sample_wind_speed(dists.wind_regions[key], np.maximum(u[row], MIN_UNIFORM))
        else:
            expected = sample_irradiance(FITTED_BETA, u[row])
        np.testing.assert_array_equal(got.streams[label], expected)
    by_unit = reference_daily_resources(dists, fleet, 2**64 - 1, 800, start_year=63)
    for unit in fleet:
        np.testing.assert_array_equal(
            got.streams[res_models.stream_label(unit, dists.shared_irradiance)],
            by_unit[unit.name])


def test_resource_values_of_any_range_is_a_slice_of_the_whole_series():
    # The engine evaluates only a block's open days, from their own words;
    # every range of days, including ones that start or end inside a year,
    # must give the values the whole-series sampler gives on them.
    dists = _two_region_dists(shared=False)
    whole = sample_daily_resources(dists, _mixed_fleet(), seed=5, n_days=3 * 365,
                                   start_year=62)
    block = res_models.draw_uniforms(dists, _mixed_fleet(), 5, 3, start_year=62)
    assert list(whole.streams) == block.labels
    rows = range(len(block.labels))
    for start, stop in ((0, 1095), (0, 365), (365, 730), (100, 900), (729, 731)):
        days = np.arange(start, stop)
        lanes = res_models.day_lanes(block.coarse, rows, days)
        words = res_models.day_words(lanes, 5, len(rows), rows, 62 + days // 365, days % 365)
        for row, label in enumerate(block.labels):
            np.testing.assert_array_equal(
                res_models.resource_values(dists, label, words[:, row]),
                whole.streams[label][start:stop])


def test_seek_leaves_no_state_from_the_previous_draw():
    generator = _seek(1, 2, 0)  # this thread's one generator
    rng = np.random.Generator(generator)
    rng.random(5)
    rng.integers(0, 2**31, size=3, dtype=np.uint32)  # leaves a spare 32-bit half
    assert generator.state["has_uint32"] == 1
    assert generator.state["buffer_pos"] < 4
    assert _seek(2**64 - 1, 7, 44) is generator  # word 44: counter 11
    fresh = np.random.Philox(key=np.array([2**64 - 1, 7], dtype=np.uint64), counter=11)
    got, want = generator.state, fresh.state
    for name in ("counter", "key"):
        np.testing.assert_array_equal(got["state"][name], want["state"][name])
    np.testing.assert_array_equal(got["buffer"], want["buffer"])
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert got[name] == want[name]
    np.testing.assert_array_equal(
        rng.integers(0, 2**31, size=9, dtype=np.uint32),
        np.random.Generator(fresh).integers(0, 2**31, size=9, dtype=np.uint32),
    )


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("start_year", [0, 511, 100_000])
def test_raw_words_give_the_uniforms_and_cells_of_generator_random(seed, start_year):
    # The coarse words are the raw words whose uniforms Generator.random of
    # a fresh Philox at the year's counter gives, (w >> 11) * 2^-53.  A day's
    # 64-bit word, read the same way, gives the rule's uniform u, and the
    # u-cells of the block are floor(u * 8192): so u_cells of the lanes in
    # bits 48-63 of a coarse word are Generator.random's cells too.  Three
    # years of four streams.
    block = res_models.draw_uniforms(_two_region_dists(shared=False), _mixed_fleet(),
                                     seed, 3, start_year=start_year)
    c4 = res_models.words_per_year(4)
    assert block.coarse.dtype == np.uint64 and block.coarse.shape == (3, c4)
    for y in range(3):
        group, j = divmod(start_year + y, 64)
        fresh = np.random.Philox(key=np.array([seed, group], dtype=np.uint64),
                                 counter=c4 // 4 * j)
        np.testing.assert_array_equal((block.coarse[y] >> np.uint64(11)) * 2.0**-53,
                                      np.random.Generator(fresh).random(c4))
    u = _reference_uniforms(seed, start_year, 4, 3 * 365)
    days = np.arange(3 * 365)
    year, day = np.divmod(days, 365)
    words = res_models.day_words(res_models.day_lanes(block.coarse, range(4), days),
                                 seed, 4, range(4), start_year + year, day)
    np.testing.assert_array_equal((words >> np.uint64(11)) * 2.0**-53, u.T)
    cells = np.stack([res_models.u_cells(block.coarse, row) for row in range(4)])
    expected = np.floor(u * _BETA_CELLS).astype(np.uint64).reshape(4, 3, 365)
    np.testing.assert_array_equal(cells, expected)
    top = (3 - np.arange(4)) % 4  # each stream's days whose lane is in bits 48-63
    for row in range(4):
        lane_day = np.arange(top[row], 365, 4)
        lane_word = (365 * row + lane_day) // 4
        np.testing.assert_array_equal(expected[row][:, lane_day],
                                      block.coarse[:, lane_word] >> np.uint64(51))


def test_lanes_do_not_depend_on_the_byte_order_of_the_words():
    # The same coarse words stored big-endian: equal values, swapped
    # memory, as on a big-endian host.  Every stream's u-cells and the
    # lanes of days across years and the group edge at year 64 are those
    # of the native block.
    native = res_models.draw_uniforms(_two_region_dists(shared=False), _mixed_fleet(),
                                      11, 4, start_year=62).coarse
    swapped = native.astype(">u8")
    np.testing.assert_array_equal(swapped, native)
    assert swapped.tobytes() != native.tobytes()
    for row in range(4):
        np.testing.assert_array_equal(res_models.u_cells(swapped, row),
                                      res_models.u_cells(native, row))
    days = np.array([0, 1, 364, 365, 729, 730, 731, 1000, 4 * 365 - 1])
    np.testing.assert_array_equal(res_models.day_lanes(swapped, range(4), days),
                                  res_models.day_lanes(native, range(4), days))


def test_draws_into_a_buffer_equal_fresh_draws_whatever_came_before():
    # The one generator a thread seeks carries nothing from a draw to the
    # next: each draw below follows one of another seed, years or fleet.
    # Four streams (independent irradiance), then three (shared).
    independent, shared = _two_region_dists(shared=False), _two_region_dists()
    buffer = np.full((5, res_models.words_per_year(4)), 7, dtype=np.uint64)
    draws = [(independent, 0, 0), (shared, 2**64 - 1, 511), (independent, 3, 100_000),
             (shared, 3, 100_000), (independent, 2**64 - 1, 62)]
    for dists, seed, start_year in draws + draws[::-1]:
        streams = 4 if dists is independent else 3
        per_year = res_models.words_per_year(streams)
        out = buffer.reshape(-1)[:5 * per_year].reshape(5, per_year)
        block = res_models.draw_uniforms(dists, _mixed_fleet(), seed, 5, start_year,
                                         out=out)
        assert block.coarse is out
        fresh = res_models.draw_uniforms(dists, _mixed_fleet(), seed, 5, start_year)
        assert not np.shares_memory(fresh.coarse, buffer)
        np.testing.assert_array_equal(block.coarse, fresh.coarse)
        np.testing.assert_array_equal(
            block.coarse, _reference_words(seed, start_year, streams, 5)[0])


@pytest.mark.parametrize("out", [
    np.empty((2, 276), dtype=np.uint64), np.empty((3, 368), dtype=np.uint64),
    np.empty((3, 276), dtype=np.int64), np.empty((3, 552), dtype=np.uint64)[:, ::2],
])
def test_draws_reject_a_buffer_of_another_shape_type_or_layout(out):
    # Three years of the three streams of shared irradiance: 276 words each.
    with pytest.raises(ValueError, match="uint64 array of shape"):
        res_models.draw_uniforms(_two_region_dists(), _mixed_fleet(), 1, 3, out=out)


def test_sample_daily_resources_rejects_zero_days():
    with pytest.raises(ValueError, match="n_days must be >= 1"):
        sample_daily_resources(_two_region_dists(), _mixed_fleet(), seed=1, n_days=0)


# ---------------------------------------------------------------------------
# Fidelity of the engine's own draws
# ---------------------------------------------------------------------------

def _chi_square_holds(values: np.ndarray, bins: int) -> bool:
    """Whether the counts of ``values`` in [0, bins) pass a chi-square test
    of uniformity at the 0.1% level (Wilson-Hilferty quantile)."""
    counts = np.bincount(values.astype(np.intp).ravel(), minlength=bins)
    expected = values.size / bins
    statistic = ((counts - expected) ** 2).sum() / expected
    df = bins - 1
    critical = df * (1.0 - 2.0 / (9 * df) + 3.0902 * math.sqrt(2.0 / (9 * df))) ** 3
    return statistic < critical


def test_daily_resources_follow_the_weibull_and_beta_laws():
    # 10^5 days of each wind region and of the shared irradiance, as the
    # engine and the traces draw them, across a group boundary.
    dists = _two_region_dists()
    got = sample_daily_resources(dists, _mixed_fleet(), seed=2027, n_days=100_000,
                                 start_year=40)
    critical = KS_CRITICAL_5PCT / math.sqrt(100_000)
    for params in (REGION1, REGION2):
        v = got.streams[("wind", params.region_id)]
        assert ks_statistic(v, weibull_cdf(params.scale_c, params.shape_k, v)) < critical
    x = got.streams[("irradiance", SHARED_IRRADIANCE_KEY)] / FITTED_BETA.scale_gmax
    assert ks_statistic(x, res_models.betainc(FITTED_BETA.alpha, FITTED_BETA.beta, x)) < critical


def test_u_cells_and_the_low_bits_of_the_uniforms_are_uniform_and_unshared():
    # 512 years of the four streams of independent irradiance: the u-cells
    # the passes take (8 192 bins), and the top byte of the 37 low bits of
    # every day's uniform, (u 2^53) mod 2^37 >> 29 (256 bins).  Each is
    # uniform per stream, and so is its difference between two streams on
    # one day and between two days of one stream: no two read one lane or
    # one fine word.
    seed, first_year, years = 2**63 + 5, 40, 512
    block = res_models.draw_uniforms(_two_region_dists(shared=False), _mixed_fleet(),
                                     seed, years, start_year=first_year)
    cells = np.stack([res_models.u_cells(block.coarse, row).reshape(-1) for row in range(4)])
    days = np.arange(years * DAYS_PER_YEAR)
    words = res_models.day_words(res_models.day_lanes(block.coarse, range(4), days), seed,
                                 4, range(4), first_year + days // 365, days % 365)
    low = ((words.T >> np.uint64(11)) & np.uint64(2**37 - 1)) >> np.uint64(29)
    for values, bins in ((cells, _BETA_CELLS), (low, 256)):
        values = values.astype(np.int64)
        for s in range(4):
            assert _chi_square_holds(values[s], bins)
            assert _chi_square_holds((values[s, 1:] - values[s, :-1]) % bins, bins)
            for t in range(s + 1, 4):
                assert _chi_square_holds((values[s] - values[t]) % bins, bins)


# ---------------------------------------------------------------------------
# The u-indexed beta bracket table
# ---------------------------------------------------------------------------

TABLE_SHAPES = [(FITTED_BETA.alpha, FITTED_BETA.beta)] + [
    (a, b) for a in (0.5, 1.0, 5.0) for b in (0.5, 1.0, 5.0)
]
# A narrow distribution, where betainc's continued fraction takes ~60 steps
# and its prefactor must be taken about its peak to keep its precision.
LARGE_SHAPE = (1000.0, 2000.0)
CELL_EDGES = np.arange(_BETA_CELLS + 1) / _BETA_CELLS


def _assert_brackets_hold(table, u):
    cell = _beta_cells(table, u)
    assert np.all((cell >= 0) & (cell < _BETA_CELLS))
    assert np.all(table.cdf[cell] <= u)
    assert np.all(u <= table.cdf[cell + 1])


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES + [LARGE_SHAPE, (200.0, 200.0)])
def test_beta_table_brackets_every_cell(alpha, beta):
    table = _beta_bracket_table(alpha, beta)
    assert table.knots[0] == 0.0 and table.knots[-1] == 1.0
    assert np.all(np.diff(table.knots) >= 0.0)
    # The CDF is exact at every knot, so a bracket that holds in the table
    # holds for the distribution.
    np.testing.assert_array_equal(table.cdf,
                                  res_models.betainc(alpha, beta, table.knots))
    assert np.all(np.diff(table.cdf) >= 0.0)
    # Knots sit within one cell of their u-edge, which keeps the PV bounds
    # of each u-cell tight and the quadratic start points good.
    assert np.abs(table.cdf - CELL_EDGES).max() < 1.0 / _BETA_CELLS
    midpoints = (CELL_EDGES[:-1] + CELL_EDGES[1:]) / 2
    _assert_brackets_hold(table, np.concatenate((CELL_EDGES, midpoints)))


def test_beta_cells_search_when_no_neighbour_holds_u():
    # Knots at equal x steps are many cells away from their u-edges for a
    # skewed shape; the search brackets every query all the same.
    knots = np.linspace(0.0, 1.0, _BETA_CELLS + 1)
    cdf = res_models.betainc(0.5, 5.0, knots)
    table = _beta_bracket_table(0.5, 5.0)._replace(knots=knots, cdf=cdf)
    _assert_brackets_hold(table, np.random.default_rng(4).random(20_000))


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES + [LARGE_SHAPE])
def test_beta_inverse_cdf_residual_at_edges_and_extremes(alpha, beta):
    params = BetaParams(alpha, beta)
    tol = 1e-10
    u = np.concatenate(([0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53], CELL_EDGES))
    x = beta_inverse_cdf(params, u)
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.abs(res_models.betainc(alpha, beta, x) - u).max() <= tol
    assert x[0] == 0.0 and x[1] == 1.0


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES)
def test_beta_inverse_cdf_agrees_with_oracle_for_each_shape(alpha, beta):
    oracle = BruteForceBetaCdf(alpha, beta)
    u = np.arange(0.005, 1.0, 0.01)
    x = beta_inverse_cdf(BetaParams(alpha, beta), u)
    assert np.abs(oracle.cdf(x) - u).max() <= 1e-8


# ---------------------------------------------------------------------------
# Every draw meets the inverse's contract, as betainc alone judges it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES + [LARGE_SHAPE])
def test_beta_inverse_cdf_equals_betainc_only_path(alpha, beta):
    # |I_x - u| <= 1e-10, or, where no double meets that, neither
    # neighbouring double of x is closer.
    params = BetaParams(alpha, beta)
    midpoints = (CELL_EDGES[:-1] + CELL_EDGES[1:]) / 2
    u = np.concatenate((np.random.default_rng(31).random(10**6),
                        CELL_EDGES, midpoints))
    x = beta_inverse_cdf(params, u)
    assert np.all((x >= 0.0) & (x <= 1.0))
    residual = np.abs(res_models.betainc(alpha, beta, x) - u)
    far = residual > 1e-10
    for end in (0.0, 1.0):
        neighbour = np.nextafter(x[far], end)
        assert np.all(residual[far]
                      <= np.abs(res_models.betainc(alpha, beta, neighbour) - u[far]))


@pytest.mark.parametrize("alpha, beta", [(FITTED_BETA.alpha, FITTED_BETA.beta),
                                         (0.5, 0.5)])
def test_beta_inverse_cdf_does_not_depend_on_batch_size(alpha, beta):
    params = BetaParams(alpha, beta)
    block = 365 * 512
    u = np.random.default_rng(32).random(block)
    whole = beta_inverse_cdf(params, u)
    for size in (2**15 - 1, 2**15, 2**15 + 1, block):
        pieces = [beta_inverse_cdf(params, u[i:i + size])
                  for i in range(0, block, size)]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
    # One at a time, across the first piece boundary.
    edge = slice(2**15 - 100, 2**15 + 100)
    singles = [beta_inverse_cdf(params, ui) for ui in u[edge]]
    np.testing.assert_array_equal(np.array(singles), whole[edge])


def test_every_beta_draw_reaches_betainc_and_few_are_refined(monkeypatch):
    params = FITTED_BETA
    _beta_bracket_table(params.alpha, params.beta)
    seen = []
    betainc = res_models.betainc

    def recording_betainc(a, b, x):
        seen.append(np.size(x))
        return betainc(a, b, x)

    monkeypatch.setattr(res_models, "betainc", recording_betainc)
    n = 100_000
    beta_inverse_cdf(params, np.random.default_rng(33).random(n))
    assert seen[0] == n
    # The quadratic start points meet tol almost everywhere.
    assert sum(seen) <= 1.05 * n


# ---------------------------------------------------------------------------
# Bounds on beta draws without the inverse
# ---------------------------------------------------------------------------

BOUND_SHAPES = [(FITTED_BETA.alpha, FITTED_BETA.beta), (0.5, 0.5), (0.3, 2.0),
                (2.0, 0.4), (5.0, 7.0), (50.0, 80.0), (300.0, 200.0), (1.0, 1.0),
                (1.0, 3.0)]


def _bounded_draws(alpha, beta):
    """200 000 random u, 2 000 in each tail, every knot's CDF and 1e-13
    either side of it, 0 and 1; and their draws."""
    rng = np.random.default_rng(37)
    cdf = _beta_bracket_table(alpha, beta).cdf
    tail = 1e-5 * rng.random(2000)
    u = np.clip(np.concatenate((rng.random(200_000), tail, 1.0 - tail,
                                cdf, cdf - 1e-13, cdf + 1e-13, [0.0, 1.0])), 0.0, 1.0)
    return u, beta_inverse_cdf(BetaParams(alpha, beta), u)


@pytest.mark.parametrize("alpha, beta", BOUND_SHAPES + [(0.1, 0.1)])
def test_every_beta_draw_lies_inside_its_point_bounds(alpha, beta):
    u, x = _bounded_draws(alpha, beta)
    low, high = beta_draw_bounds(BetaParams(alpha, beta), u, u)
    assert np.all((low <= x) & (x <= high))
    # And tight: most widths are those of the slack, ~4e-10 of u.
    assert np.median(high - low) < 1e-8


def test_without_the_u_slack_some_draws_leave_their_point_bounds(monkeypatch):
    # The draws meet |I_x - u| <= 1e-10, not I_x = u, so bounds taken at u
    # itself miss some of them.
    monkeypatch.setattr(res_models, "_draw_slack", lambda alpha, beta: 0.0)
    u, x = _bounded_draws(FITTED_BETA.alpha, FITTED_BETA.beta)
    low, high = beta_draw_bounds(FITTED_BETA, u, u)
    assert not np.all((low <= x) & (x <= high))


@pytest.mark.parametrize("alpha, beta", BOUND_SHAPES)
def test_every_beta_draw_lies_inside_the_bounds_of_its_u_cell_and_lane(alpha, beta):
    # The 13-bit u-cells of the PV tables and the 16-bit lanes, with each
    # interval's edges and the doubles below them.
    params = BetaParams(alpha, beta)
    edges = np.arange(2**16 + 1) / 2**16
    u = np.concatenate((_bounded_draws(alpha, beta)[0], edges, np.nextafter(edges[1:], 0.0)))
    x = beta_inverse_cdf(params, u)
    for bits in (_BETA_CELLS.bit_length() - 1, 16):
        n = 2**bits
        low, high = beta_draw_bounds(params, edges[:-1:2**16 // n], edges[2**16 // n::2**16 // n])
        interval = np.minimum(u * n, n - 1).astype(np.intp)
        assert np.all((low[interval] <= x) & (x <= high[interval]))


# ---------------------------------------------------------------------------
# Per-cell PV power bounds
# ---------------------------------------------------------------------------

# The bundled array, and one whose breakpoints r_c and g_std both fall inside
# the irradiance support (0 to scale_gmax = 1000 W/m2); at its g_std the
# linear branch rounds to one ulp above the flat p_sn that follows.
BOUNDED_PV = [PV_STD, PvArraySpec(p_sn=500.0, g_std=613.3, r_c=250.0)]


@pytest.mark.parametrize("alpha, beta", TABLE_SHAPES)
def test_beta_draws_and_pv_power_stay_inside_their_cell_bounds(alpha, beta):
    # Both edges of every u-cell, their neighbouring doubles, random points,
    # and every knot's CDF value with its neighbours.
    params = BetaParams(alpha, beta)
    table = _beta_bracket_table(alpha, beta)
    cdf = table.cdf
    lo, hi = CELL_EDGES[:-1], CELL_EDGES[1:]
    fractions = np.random.default_rng(35).random((4, 1))
    u = np.concatenate([np.vstack((lo, hi, lo + fractions * (hi - lo))).ravel()]
                       + [np.nextafter(v, end) for v in (CELL_EDGES, cdf)
                          for end in (0.0, 1.0)] + [cdf])
    u = np.clip(u, 0.0, 1.0)
    x = beta_inverse_cdf(params, u)
    # Within its knot cell, widened by the margin of the cell's upper knot.
    knot = _beta_cells(table, u)
    margin = res_models._CELL_MARGIN * table.knots[knot + 1]
    assert np.all((table.knots[knot] - margin <= x) & (x <= table.knots[knot + 1] + margin))
    # So within the bracket of its u-cell, which holds every such knot cell.
    cell = (u * _BETA_CELLS).astype(np.intp)
    x_low, x_high = res_models._draw_brackets(params)
    assert np.all((x_low[cell] <= x) & (x <= x_high[cell]))
    g = sample_irradiance(params, u)
    for spec in BOUNDED_PV:
        low, high = res_models.pv_power_bounds(spec, params)
        power = pv_power(spec, g)
        assert np.all((low[cell] <= power) & (power <= high[cell]))
        # pv_power is monotone between its breakpoints, so over a cell's
        # widened bracket it is extreme at the bracket's ends or on either
        # side of r_c and g_std, where the rounded branches meet.
        for point in (spec.r_c, spec.g_std):
            for edge in (np.nextafter(point, 0.0), point, np.nextafter(point, np.inf)):
                inside = ((x_low * params.scale_gmax <= edge)
                          & (edge <= x_high * params.scale_gmax))
                power = pv_power(spec, edge)
                assert np.all((low[inside] <= power) & (power <= high[inside]))


# Cut-in, rated and cut-out speeds inside the bulk of the bundled region1
# Weibull, where many cells straddle them; at its rated speed the rounded
# cubic comes out one ulp above p_rated.  And the bundled turbine specs.
BOUNDED_WTG = [
    WindTurbineSpec(p_rated=1500.0, v_rated=5.1, v_cut_in=2.9, v_cut_out=7.3),
    WTG1,
    WindTurbineSpec(1500.0, 12.0, 3.0, 25.0),
]
WIND_SHAPES = [REGION1, REGION2, WeibullParams(scale_c=3.0, shape_k=0.7)]


@pytest.mark.parametrize("params", WIND_SHAPES)
def test_wind_draws_and_power_stay_inside_their_cell_bounds(params):
    # Both edges of every u-cell and the words next to them, random words,
    # and the word of 0, which gives MIN_UNIFORM, and the greatest word.
    dists = ResourceDistributions({"r": params}, FITTED_BETA)
    edges = np.arange(_BETA_CELLS, dtype=np.uint64) << np.uint64(51)
    words = np.concatenate([
        edges, edges + np.uint64(2**11), edges[1:] - np.uint64(2**11),
        np.random.default_rng(36).integers(0, 2**64, 10**6, dtype=np.uint64),
        np.array([0, 2**64 - 1], dtype=np.uint64)])
    speed = res_models.resource_values(dists, ("wind", "r"), words)
    assert speed.max() == sample_wind_speed(params, MIN_UNIFORM)
    cell = (words >> np.uint64(51)).view(np.intp)  # a word's u-cell
    v_low, v_high = res_models._speed_brackets(params)
    assert np.all((v_low[cell] <= speed) & (speed <= v_high[cell]))
    for spec in BOUNDED_WTG:
        low, high = res_models.wind_power_bounds(spec, params)
        assert low.shape == high.shape == (_BETA_CELLS + 1,)
        power = wind_power(spec, speed)
        assert np.all((low[cell] <= power) & (power <= high[cell]))
        # Between its breakpoints the rounded curve is monotone, so over a
        # cell's speeds it is extreme at the bracket's ends or near cut-in,
        # rated and cut-out speed, where the rounded cubic meets 0 and
        # p_rated.
        for point in (spec.v_cut_in, spec.v_rated, spec.v_cut_out):
            for v in point + np.arange(-64, 65) * np.spacing(point):
                inside = (v_low <= v) & (v <= v_high)
                power = wind_power(spec, v)
                assert np.all((low[inside] <= power) & (power <= high[inside]))
        # And tight: their widths add up to the curve's total variation over
        # all speeds, up from 0 to p_rated and down again at cut-out.
        np.testing.assert_allclose((high - low)[:-1].sum(), 2.0 * spec.p_rated,
                                   rtol=1e-6)
