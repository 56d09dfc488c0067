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


def beta_inverse_cdf(params: BetaParams, u, tol: float = 1e-10,
                     max_iter: int = 200):
    """Invert the regularized incomplete beta function.

    Returns x in [0, 1] with ``|I_x(alpha, beta) - u| <= tol`` for each
    element of ``u`` in [0, 1].  A cached table indexed by u gives every
    query a bracketing cell and a start point that usually meets ``tol``
    already; the rest are refined by Newton steps that fall back to
    bisection whenever a step would leave the bracket.  ``max_iter`` counts
    CDF evaluations per query, the first one included.

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
    cell = _beta_cells(table, flat)
    du = flat - table.cdf.take(cell)
    x = table.knots.take(cell) + du * (table.slope.take(cell)
                                       + du * table.curve.take(cell))
    x[flat == 1.0] = 1.0  # u = 0 already lands exactly on the knot x = 0

    # First pass over the whole batch; only the few queries the start point
    # leaves outside tol are gathered for the Newton refinement.
    r = betainc(params.alpha, params.beta, x) - flat
    pending = np.flatnonzero(np.abs(r) > tol)
    if pending.size:
        u_p = flat[pending]
        x_p = x[pending]
        r_p = r[pending]
        lo = table.knots.take(cell[pending])
        hi = table.knots.take(cell[pending] + 1)
        ln_b = _beta_log_norm(params.alpha, params.beta)
        a_m1 = params.alpha - 1.0
        b_m1 = params.beta - 1.0
        for _ in range(max_iter - 1):
            hi = np.where(r_p > 0.0, x_p, hi)
            lo = np.where(r_p <= 0.0, x_p, lo)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                density = np.exp(a_m1 * np.log(x_p) + b_m1 * np.log1p(-x_p) - ln_b)
                x_new = x_p - r_p / density
            reject = ~np.isfinite(x_new) | (x_new <= lo) | (x_new >= hi)
            x_p = np.where(reject, 0.5 * (lo + hi), x_new)
            r_p = betainc(params.alpha, params.beta, x_p) - u_p
            done = np.abs(r_p) <= tol
            x[pending[done]] = x_p[done]
            if done.all():
                break
            keep = ~done
            pending, u_p, x_p, r_p, lo, hi = (
                v[keep] for v in (pending, u_p, x_p, r_p, lo, hi))
        else:
            raise NumericsError(
                f"beta inverse CDF did not converge within {max_iter} iterations",
                residual=float(np.abs(r_p).max()),
            )

    out = x.reshape(np.atleast_1d(arr).shape)
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
