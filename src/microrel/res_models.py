"""Synthetic renewable-resource sampling and conversion to electrical power.

Daily wind speeds follow a two-parameter Weibull distribution and daily solar
irradiance follows a scaled beta distribution.  Both are sampled with the
inverse transformation method: a uniform variate is pushed through the inverse
cumulative distribution function.  Piecewise power curves then convert the
resource value to kW.

All functions are pure: they depend only on their explicit arguments and are
safe to call from any number of concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np
from scipy.special import betainc

__all__ = [
    "NumericsError",
    "WeibullParams",
    "BetaParams",
    "WindTurbineSpec",
    "PvArraySpec",
    "DgUnit",
    "ResourceDistributions",
    "DailyResources",
    "TraceSeries",
    "sample_wind_speed",
    "wind_power",
    "beta_inverse_cdf",
    "sample_irradiance",
    "pv_power",
    "unit_power_series",
    "sample_daily_resources",
    "emit_trace",
    "trace_to_delimited",
]

DAYS_PER_YEAR = 365

# Smallest uniform variate fed to the samplers when drawing from a generator
# whose support is the half-open interval [0, 1).
MIN_UNIFORM = 2.0 ** -53

SHARED_IRRADIANCE_KEY = "shared"


class NumericsError(RuntimeError):
    """An iterative numerical routine failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (worst residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeibullParams:
    """Fitted Weibull wind-speed distribution for one geographic region.

    Attributes:
        scale_c: Scale parameter c (m/s), > 0.
        shape_k: Shape parameter k (dimensionless), > 0.
        region_id: Opaque label used to attach turbines to this region.
    """

    scale_c: float
    shape_k: float
    region_id: str = ""

    def __post_init__(self) -> None:
        if not (self.scale_c > 0.0 and math.isfinite(self.scale_c)):
            raise ValueError(f"scale_c must be positive, got {self.scale_c}")
        if not (self.shape_k > 0.0 and math.isfinite(self.shape_k)):
            raise ValueError(f"shape_k must be positive, got {self.shape_k}")

    @property
    def mean_speed(self) -> float:
        """Analytic distribution mean c*Gamma(1 + 1/k) in m/s."""
        return self.scale_c * math.gamma(1.0 + 1.0 / self.shape_k)


@dataclass(frozen=True)
class BetaParams:
    """Fitted beta distribution of normalized daily solar irradiance.

    The beta sample lives on [0, 1]; ``scale_gmax`` maps it onto physical
    irradiance in W/m2.

    Attributes:
        alpha: First shape parameter, > 0.
        beta: Second shape parameter, > 0.
        scale_gmax: Irradiance (W/m2) corresponding to a unit beta sample.
    """

    alpha: float
    beta: float
    scale_gmax: float = 1000.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "scale_gmax"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class WindTurbineSpec:
    """Wind-turbine power-curve parameters.

    Attributes:
        p_rated: Rated power (kW), > 0.
        v_rated: Rated speed (m/s).
        v_cut_in: Cut-in speed (m/s).
        v_cut_out: Cut-out speed (m/s).  Must satisfy
            0 < v_cut_in < v_rated < v_cut_out.
        region_id: Selects the WeibullParams supplying this turbine's wind.
    """

    p_rated: float
    v_rated: float
    v_cut_in: float
    v_cut_out: float
    region_id: str = ""

    def __post_init__(self) -> None:
        if not self.p_rated > 0.0:
            raise ValueError(f"p_rated must be positive, got {self.p_rated}")
        if not (0.0 < self.v_cut_in < self.v_rated < self.v_cut_out):
            raise ValueError(
                "speeds must satisfy 0 < v_cut_in < v_rated < v_cut_out, got "
                f"cut_in={self.v_cut_in}, rated={self.v_rated}, "
                f"cut_out={self.v_cut_out}"
            )


@dataclass(frozen=True)
class PvArraySpec:
    """Photovoltaic-array power-curve parameters.

    Attributes:
        p_sn: Rated power (kW), > 0.
        g_std: Standard-environment irradiance (W/m2), default 1000.
        r_c: Radiation breakpoint between the quadratic and linear branches
            (W/m2), default 150.  Must satisfy 0 < r_c < g_std.
    """

    p_sn: float
    g_std: float = 1000.0
    r_c: float = 150.0

    def __post_init__(self) -> None:
        if not self.p_sn > 0.0:
            raise ValueError(f"p_sn must be positive, got {self.p_sn}")
        if not (0.0 < self.r_c < self.g_std):
            raise ValueError(
                f"need 0 < r_c < g_std, got r_c={self.r_c}, g_std={self.g_std}"
            )


@dataclass(frozen=True)
class DgUnit:
    """One distributed-generation unit placed somewhere in the microgrid."""

    name: str
    location: str
    device: Union[WindTurbineSpec, PvArraySpec]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("DG unit needs a non-empty name")
        if not isinstance(self.device, (WindTurbineSpec, PvArraySpec)):
            raise TypeError(f"unsupported device type {type(self.device)!r}")


@dataclass(frozen=True)
class ResourceDistributions:
    """The fitted distributions a fleet draws its daily resource values from.

    When ``shared_irradiance`` is true (the default) every PV array consumes
    the same daily irradiance sample, modelling common local weather; when
    false each array gets an independent draw.
    """

    wind_regions: Mapping[str, WeibullParams]
    irradiance: BetaParams
    shared_irradiance: bool = True

    def __post_init__(self) -> None:
        regions = dict(self.wind_regions)
        for region_id, params in regions.items():
            if not isinstance(params, WeibullParams):
                raise TypeError(f"region {region_id!r}: expected WeibullParams")
        object.__setattr__(self, "wind_regions", regions)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    return arr, arr.ndim == 0


def _scalar_or_array(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def sample_wind_speed(params: WeibullParams, u):
    """Invert the Weibull CDF: v = c * (-ln u)**(1/k).

    ``u`` must lie strictly inside (0, 1); the result is strictly decreasing
    in ``u``.  Accepts scalars or arrays.
    """
    arr, scalar = _as_array(u)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("uniform variate must lie strictly inside (0, 1)")
    v = params.scale_c * (-np.log(arr)) ** (1.0 / params.shape_k)
    return _scalar_or_array(v, scalar)


def wind_power(spec: WindTurbineSpec, v):
    """Wind-turbine output (kW) for hub-height speed ``v`` (m/s).

    Zero at or below cut-in and at or beyond cut-out, cubic between cut-in
    and rated speed, flat at rated power between rated and cut-out.  The
    cubic branch is a*v**3 - b*p_rated with
    a = p_rated / (v_rated**3 - v_cut_in**3) and
    b = v_cut_in**3 / (v_rated**3 - v_cut_in**3), which makes the curve
    continuous at both interior breakpoints.
    """
    arr, scalar = _as_array(v)
    if np.any(arr < 0.0):
        raise ValueError("wind speed must be nonnegative")
    denom = spec.v_rated**3 - spec.v_cut_in**3
    a = spec.p_rated / denom
    b = spec.v_cut_in**3 / denom
    cubic = a * arr**3 - b * spec.p_rated
    power = np.where(
        (arr <= spec.v_cut_in) | (arr >= spec.v_cut_out),
        0.0,
        np.where(arr <= spec.v_rated, cubic, spec.p_rated),
    )
    return _scalar_or_array(power, scalar)


# The inverse-CDF table has _BETA_CELLS equal cells in u: a query u falls in
# cell floor(u * _BETA_CELLS), whose two knots sit near the cell's u-edges.
_BETA_CELLS = 2**13
# Coarse CDF grid the knots are interpolated from, in t where x = 3t^2 - 2t^3
# so that the steep or flat ends of the CDF get extra points.
_BETA_COARSE_KNOTS = 1025


class _BetaTable(NamedTuple):
    """Knots at approximate u-quantiles with the exact CDF at every knot.

    ``knots``/``cdf`` hold _BETA_CELLS + 1 entries.  For cell j the start
    point x_j + du * (slope_j + du * curve_j), du = u - cdf_j, meets both
    knots of the cell and the inverse CDF's slope at its lower knot.
    """

    knots: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray
    curve: np.ndarray


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


@lru_cache(maxsize=16)
def _beta_bracket_table(alpha: float, beta: float) -> _BetaTable:
    """The u-indexed knot table used to bracket inverse-CDF queries.

    Costs _BETA_COARSE_KNOTS + _BETA_CELLS + 1 CDF evaluations.  Only the
    knot placement is approximate: the CDF is evaluated exactly at every
    knot, so a cell whose CDF values enclose u is a valid bracket.
    """
    t = np.linspace(0.0, 1.0, _BETA_COARSE_KNOTS)
    coarse_cdf = betainc(alpha, beta, _smoothstep(t))
    knots = _smoothstep(np.interp(np.arange(_BETA_CELLS + 1) / _BETA_CELLS,
                                  coarse_cdf, t))
    knots[0], knots[-1] = 0.0, 1.0
    cdf = betainc(alpha, beta, knots)

    dx = np.diff(knots)
    dc = np.diff(cdf)
    lower = knots[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        secant = dx / dc
        tangent = np.exp(_beta_log_norm(alpha, beta)
                         - (alpha - 1.0) * np.log(lower)
                         - (beta - 1.0) * np.log1p(-lower))
        curve = (dx - dc * tangent) / (dc * dc)
    secant = np.where(np.isfinite(secant), secant, 0.0)
    # Keep the quadratic only where it is finite and monotone across the
    # cell; elsewhere start from the secant.
    quadratic = np.isfinite(curve) & (tangent >= 0.0) & (2.0 * secant >= tangent)
    return _BetaTable(knots, cdf, np.where(quadratic, tangent, secant),
                      np.where(quadratic, curve, 0.0))


def _beta_cells(table: _BetaTable, u: np.ndarray) -> np.ndarray:
    """Cell index j per query with cdf[j] <= u <= cdf[j + 1].

    The cell floor(u * _BETA_CELLS) holds u unless a knot's CDF lands on
    the far side of u; then the neighbour does, as long as the knots are
    within one cell of their u-edges.  A query that neither cell holds is
    searched for.
    """
    cdf = table.cdf
    last = _BETA_CELLS - 1
    cell = np.minimum((u * _BETA_CELLS).astype(np.intp), last)
    below = u < cdf.take(cell)
    above = u > cdf.take(cell + 1)
    off = np.flatnonzero(below | above)
    if off.size:
        u_off = u[off]
        moved = np.clip(cell[off] - below[off] + above[off], 0, last)
        miss = (u_off < cdf.take(moved)) | (u_off > cdf.take(moved + 1))
        if miss.any():
            found = np.searchsorted(cdf, u_off[miss], side="right") - 1
            moved[miss] = np.clip(found, 0, last)
        cell[off] = moved
    return cell


def _beta_log_norm(alpha: float, beta: float) -> float:
    return math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)


# A cell whose polynomial errs by more than this is exact-only; only cells at
# the ends of the support, where the density is steep or singular, do.
_BETA_POLY_MAX_ERROR = 1e-13
# Added to every cell's bound for what the table does not see: betainc's own
# rounding at a point it did not sample, a few ulps of 1 at most.
_BETAINC_ROUNDING = 1e-14
# Queries handled per pass, so the per-query temporaries stay in cache.
_BETA_CHUNK = 2**15


class _BetaPoly(NamedTuple):
    """Degree-4 Taylor polynomial of the CDF about each cell's lower knot.

    For x in cell j, with h = x - knots[j],
    I_x - cdf[j] = h * (c1 + h * (c2 + h * (c3 + h * c4))) to within
    ``bound[j]``; ``bound`` is infinite for an exact-only cell, whose
    queries are always checked with betainc.
    """

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    bound: np.ndarray


@lru_cache(maxsize=16)
def _beta_poly_table(alpha: float, beta: float) -> _BetaPoly:
    """Per-cell CDF polynomials for the cells of ``_beta_bracket_table``.

    The coefficients come from the closed-form density and its first three
    derivatives at the lower knot.  Each cell's error is measured against
    betainc at a quarter, half and three quarters of the cell and at its
    upper knot (3 * _BETA_CELLS CDF evaluations); as the error is only
    sampled, the bound is twice the largest one seen, plus
    _BETAINC_ROUNDING.  A cell with a non-finite
    coefficient or an error above _BETA_POLY_MAX_ERROR is exact-only.
    """
    table = _beta_bracket_table(alpha, beta)
    lower = table.knots[:-1]
    width = np.diff(table.knots)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        density = np.exp((alpha - 1.0) * np.log(lower)
                         + (beta - 1.0) * np.log1p(-lower)
                         - _beta_log_norm(alpha, beta))
        # Derivatives of the log density g = (a-1) ln x + (b-1) ln(1-x).
        p = (alpha - 1.0) / lower
        q = (beta - 1.0) / (1.0 - lower)
        g1 = p - q
        g2 = -p / lower - q / (1.0 - lower)
        g3 = 2.0 * p / (lower * lower) - 2.0 * q / ((1.0 - lower) * (1.0 - lower))
        coef = np.stack((density,
                         density * g1 / 2.0,
                         density * (g2 + g1 * g1) / 6.0,
                         density * (g3 + 3.0 * g1 * g2 + g1 * g1 * g1) / 24.0))
        # Rows: a quarter, half and three quarters of each cell, then the
        # upper knot, whose CDF the bracket table already holds.
        inner = lower + np.array([[0.25], [0.5], [0.75]]) * width
        x = np.vstack((inner, table.knots[1:]))
        cdf_x = np.vstack((betainc(alpha, beta, inner), table.cdf[1:]))
        h = x - lower
        poly = h * (coef[0] + h * (coef[1] + h * (coef[2] + h * coef[3])))
        error = np.abs(poly - (cdf_x - table.cdf[:-1])).max(axis=0)
        usable = np.all(np.isfinite(coef), axis=0) & (error <= _BETA_POLY_MAX_ERROR)
    coef = np.where(usable, coef, 0.0)
    bound = np.where(usable, 2.0 * error + _BETAINC_ROUNDING, np.inf)
    return _BetaPoly(*coef, bound)


def _beta_refine(params: BetaParams, table: _BetaTable, cell: np.ndarray,
                 u: np.ndarray, x: np.ndarray, r: np.ndarray, tol: float,
                 max_iter: int) -> np.ndarray:
    """Refine start points ``x`` whose residuals ``r = I_x - u`` exceed tol.

    Newton steps fall back to bisection whenever a step would leave the
    bracket, which starts as the query's cell.  When the bracket has
    collapsed to two adjacent doubles and neither met tol, the end with the
    smaller residual is returned.
    """
    out = x.copy()
    pending = np.arange(x.size)
    lo = table.knots.take(cell)
    hi = table.knots.take(cell + 1)
    r_lo = table.cdf.take(cell) - u
    r_hi = table.cdf.take(cell + 1) - u
    ln_b = _beta_log_norm(params.alpha, params.beta)
    a_m1 = params.alpha - 1.0
    b_m1 = params.beta - 1.0
    for _ in range(max_iter - 1):
        above = r > 0.0
        hi, r_hi = np.where(above, x, hi), np.where(above, r, r_hi)
        lo, r_lo = np.where(above, lo, x), np.where(above, r_lo, r)
        collapsed = np.nextafter(lo, hi) >= hi
        if collapsed.any():
            nearer = np.where(np.abs(r_lo) <= np.abs(r_hi), lo, hi)
            out[pending[collapsed]] = nearer[collapsed]
            keep = ~collapsed
            pending, u, x, r, lo, hi, r_lo, r_hi = (
                v[keep] for v in (pending, u, x, r, lo, hi, r_lo, r_hi))
            if not pending.size:
                return out
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            density = np.exp(a_m1 * np.log(x) + b_m1 * np.log1p(-x) - ln_b)
            x_new = x - r / density
        reject = ~np.isfinite(x_new) | (x_new <= lo) | (x_new >= hi)
        x = np.where(reject, 0.5 * (lo + hi), x_new)
        r = betainc(params.alpha, params.beta, x) - u
        done = np.abs(r) <= tol
        out[pending[done]] = x[done]
        if done.all():
            return out
        keep = ~done
        pending, u, x, r, lo, hi, r_lo, r_hi = (
            v[keep] for v in (pending, u, x, r, lo, hi, r_lo, r_hi))
    raise NumericsError(
        f"beta inverse CDF did not converge within {max_iter} iterations",
        residual=float(np.abs(r).max()),
    )


def beta_inverse_cdf(params: BetaParams, u, tol: float = 1e-10,
                     max_iter: int = 200):
    """Invert the regularized incomplete beta function.

    Returns x in [0, 1] with ``|I_x(alpha, beta) - u| <= tol`` for each
    element of ``u`` in [0, 1], or the nearest double to the exact inverse
    when no double meets tol.  A cached table indexed by u gives every
    query a bracketing cell and a start point that usually meets ``tol``
    already.  A second cached table holds, per cell, a polynomial of the
    CDF with a measured error bound, which accepts most start points
    without a betainc call; betainc checks the rest, and those outside tol
    are refined by Newton steps that fall back to bisection whenever a step
    would leave the bracket.  A start point is accepted only when betainc
    would accept it too, so the result is that of checking every start
    point with betainc.  ``max_iter`` counts CDF evaluations per query, the
    first one included.

    Raises:
        ValueError: if any ``u`` is outside [0, 1] or ``tol`` is not positive.
        NumericsError: if the iteration cap is hit before convergence.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    arr, scalar = _as_array(u)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("uniform variate must lie in [0, 1]")

    flat = np.atleast_1d(arr).ravel()
    table = _beta_bracket_table(params.alpha, params.beta)
    poly = _beta_poly_table(params.alpha, params.beta)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BETA_CHUNK):
        u_c = flat[start:start + _BETA_CHUNK]
        cell = _beta_cells(table, u_c)
        lower = table.knots.take(cell)
        du = u_c - table.cdf.take(cell)
        x = lower + du * (table.slope.take(cell) + du * table.curve.take(cell))
        x[u_c == 1.0] = 1.0  # u = 0 already lands exactly on the knot x = 0

        h = x - lower
        estimate = h * (poly.c1.take(cell) + h * (poly.c2.take(cell)
                        + h * (poly.c3.take(cell) + h * poly.c4.take(cell))))
        check = np.flatnonzero(np.abs(estimate - du) > tol - poly.bound.take(cell))
        if check.size:
            r = betainc(params.alpha, params.beta, x[check]) - u_c[check]
            far = np.abs(r) > tol
            if far.any():
                idx = check[far]
                x[idx] = _beta_refine(params, table, cell[idx], u_c[idx],
                                      x[idx], r[far], tol, max_iter)
        out[start:start + _BETA_CHUNK] = x

    out = out.reshape(np.atleast_1d(arr).shape)
    if arr.ndim == 0:
        return float(out[0])
    return _scalar_or_array(out, scalar)


def sample_irradiance(params: BetaParams, u, tol: float = 1e-10):
    """Daily irradiance (W/m2): the scaled beta inverse CDF of ``u``."""
    x = beta_inverse_cdf(params, u, tol=tol)
    return params.scale_gmax * x


def pv_power(spec: PvArraySpec, g):
    """Photovoltaic output (kW) for irradiance ``g`` (W/m2).

    Quadratic in g below the breakpoint r_c, linear between r_c and the
    standard irradiance g_std, and flat at rated power above g_std.
    """
    arr, scalar = _as_array(g)
    if np.any(arr < 0.0):
        raise ValueError("irradiance must be nonnegative")
    quadratic = spec.p_sn * arr * arr / (spec.g_std * spec.r_c)
    linear = spec.p_sn * arr / spec.g_std
    power = np.where(
        arr < spec.r_c,
        quadratic,
        np.where(arr <= spec.g_std, linear, spec.p_sn),
    )
    return _scalar_or_array(power, scalar)


# ---------------------------------------------------------------------------
# Daily draws for a fleet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DailyResources:
    """Per-day resource samples for a fleet.

    ``wind_speeds`` maps region id to an (n_days,) speed array;
    ``irradiance`` maps an irradiance stream key (the shared key or a PV
    unit name) to an (n_days,) irradiance array.
    """

    wind_speeds: Mapping[str, np.ndarray]
    irradiance: Mapping[str, np.ndarray]
    n_days: int


def _irradiance_keys(dists: ResourceDistributions,
                     fleet: Sequence[DgUnit]) -> list[str]:
    pv_units = [unit.name for unit in fleet if isinstance(unit.device, PvArraySpec)]
    if not pv_units:
        return []
    if dists.shared_irradiance:
        return [SHARED_IRRADIANCE_KEY]
    return pv_units


def _stream_labels(dists: ResourceDistributions,
                   fleet: Sequence[DgUnit]) -> list[tuple[str, str]]:
    """Fixed draw order: wind regions sorted by id, then irradiance streams.

    The layout depends only on the declared regions and the PV units, so
    adding a turbine to an existing region leaves every stream unchanged.
    """
    labels = [("wind", region) for region in sorted(dists.wind_regions)]
    labels.extend(("irradiance", key) for key in _irradiance_keys(dists, fleet))
    return labels


_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)


def _rekey(bit_generator: np.random.Philox, seed: int, year: int) -> None:
    """Reset ``bit_generator`` to the state of a new Philox keyed by (seed, year).

    Counter-based substream: one Philox key per (seed, year) so results do
    not depend on execution order or worker count.  Setting the state
    skips the entropy draw a new Philox would make only to discard it.
    """
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZEROS,
                  "key": np.array([seed, year], dtype=np.uint64)},
        "buffer": _PHILOX_ZEROS,
        "buffer_pos": _PHILOX_ZEROS.size,
        "has_uint32": 0,
        "uinteger": 0,
    }


def sample_daily_resources(dists: ResourceDistributions,
                           fleet: Sequence[DgUnit],
                           seed: int,
                           n_days: int,
                           start_year: int = 0,
                           tol: float = 1e-10) -> DailyResources:
    """Draw ``n_days`` of wind speeds and irradiance for ``fleet``.

    Days are grouped into 365-day years; each year consumes an independent
    RNG substream derived from (seed, year index), and a full year of
    uniforms is always drawn even when only part of it is used, so a series
    of length n is a prefix of any longer series with the same seed.
    """
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    labels = _stream_labels(dists, fleet)
    n_years = -(-n_days // DAYS_PER_YEAR)
    uniforms = np.empty((n_years, len(labels), DAYS_PER_YEAR))
    if labels:
        bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        rng = np.random.Generator(bit_generator)
        for year_offset in range(n_years):
            _rekey(bit_generator, seed, start_year + year_offset)
            rng.random(out=uniforms[year_offset])

    wind_speeds: dict[str, np.ndarray] = {}
    irradiance: dict[str, np.ndarray] = {}
    for row, (kind, key) in enumerate(labels):
        u = uniforms[:, row].reshape(-1)[:n_days]
        if kind == "wind":
            u = np.maximum(u, MIN_UNIFORM)
            wind_speeds[key] = sample_wind_speed(dists.wind_regions[key], u)
        else:
            irradiance[key] = sample_irradiance(dists.irradiance, u, tol=tol)
    return DailyResources(wind_speeds=wind_speeds, irradiance=irradiance,
                          n_days=n_days)


def _unit_irradiance(unit: DgUnit, resources: DailyResources) -> np.ndarray:
    if SHARED_IRRADIANCE_KEY in resources.irradiance:
        return resources.irradiance[SHARED_IRRADIANCE_KEY]
    return resources.irradiance[unit.name]


def unit_power_series(unit: DgUnit, resources: DailyResources) -> np.ndarray:
    """Per-day output (kW) of one unit given drawn resources."""
    if isinstance(unit.device, WindTurbineSpec):
        speeds = resources.wind_speeds[unit.device.region_id]
        return wind_power(unit.device, speeds)
    return pv_power(unit.device, _unit_irradiance(unit, resources))


# ---------------------------------------------------------------------------
# Trace emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSeries:
    """Per-day (resource, power) series for one unit."""

    unit: str
    resource_kind: str  # "wind_speed_m_s" or "irradiance_w_m2"
    resource: np.ndarray = field(repr=False)
    power_kw: np.ndarray = field(repr=False)


def emit_trace(fleet: Sequence[DgUnit],
               dists: ResourceDistributions,
               n_days: int,
               seed: int) -> list[TraceSeries]:
    """Emit deterministic per-day resource and power series for a fleet.

    The draws use the same (seed, year) substreams as the simulation engine,
    so a 365-day trace reproduces year 0 of a run with the same seed.
    """
    resources = sample_daily_resources(dists, fleet, seed, n_days)
    traces = []
    for unit in fleet:
        if isinstance(unit.device, WindTurbineSpec):
            resource = resources.wind_speeds[unit.device.region_id]
            kind = "wind_speed_m_s"
        else:
            resource = _unit_irradiance(unit, resources)
            kind = "irradiance_w_m2"
        traces.append(TraceSeries(
            unit=unit.name,
            resource_kind=kind,
            resource=resource,
            power_kw=unit_power_series(unit, resources),
        ))
    return traces


def trace_to_delimited(series: TraceSeries) -> str:
    """Render one trace as CSV with columns day_index, resource_value, power_kW."""
    lines = ["day_index,resource_value,power_kW"]
    for day in range(series.resource.size):
        lines.append(
            f"{day},{float(series.resource[day])!r},{float(series.power_kw[day])!r}"
        )
    return "\n".join(lines) + "\n"
