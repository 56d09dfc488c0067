"""Synthetic renewable-resource sampling and conversion to electrical power.

Daily wind speeds follow a two-parameter Weibull distribution and daily solar
irradiance follows a scaled beta distribution.  Both are sampled with the
inverse transformation method: a uniform variate is pushed through the inverse
cumulative distribution function.  Piecewise power curves then convert the
resource value to kW.

Every result depends only on the explicit arguments.  The draws seek one
Philox generator that the process keeps instead of building one per call, so
concurrent workers must be processes, not threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

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
    "beta_draw_bounds",
    "sample_irradiance",
    "pv_power",
    "u_cells",
    "resource_range",
    "power_range",
    "power_bounds",
    "StreamBounds",
    "stream_label",
    "stream_bounds",
    "unit_power_series",
    "UniformBlock",
    "draw_uniforms",
    "day_lanes",
    "day_words",
    "word_uniforms",
    "resource_values",
    "daily_resources",
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
    """``x`` as a float array, a scalar as one element; and whether it was one."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return arr.reshape(1), True
    return arr, False


def _scalar_or_array(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


def sample_wind_speed(params: WeibullParams, u):
    """Invert the Weibull CDF: v = c * (-ln u)**(1/k).

    ``u`` must lie strictly inside (0, 1); the result is strictly decreasing
    in ``u``.  Accepts scalars or arrays.
    """
    arr, scalar = _as_array(u)
    # One min and one max, which a NaN fails and an empty array passes.
    if not (arr.min(initial=0.5) > 0.0 and arr.max(initial=0.5) < 1.0):
        raise ValueError("uniform variate must lie strictly inside (0, 1)")
    v = np.log(arr)
    np.negative(v, out=v)
    with np.errstate(over="ignore"):  # a tiny k overflows to the right limit, inf
        v **= 1.0 / params.shape_k  # the same ufunc as ``v ** (1/k)``
        v *= params.scale_c
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
    if not arr.min(initial=0.0) >= 0.0:
        raise ValueError("wind speed must be nonnegative and not NaN")
    denom = spec.v_rated**3 - spec.v_cut_in**3
    a = spec.p_rated / denom
    b = spec.v_cut_in**3 / denom
    with np.errstate(over="ignore"):  # a speed past cut-out may overflow; it gives 0
        power = np.power(arr, 3)
        power *= a
        power -= b * spec.p_rated
    # putmask and a product with the band mask measured faster than
    # np.where or np.copyto(where=); adding 0.0 turns the -0.0 of a
    # negative cubic value times 0 into the 0.0 that np.where gave.
    np.putmask(power, arr > spec.v_rated, spec.p_rated)
    power *= (arr > spec.v_cut_in) & (arr < spec.v_cut_out)
    power += 0.0
    return _scalar_or_array(power, scalar)


# ---------------------------------------------------------------------------
# The regularized incomplete beta function
# ---------------------------------------------------------------------------

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)) for k = 1..10: the Stirling series of ln Gamma, whose
# truncation error at s >= 8 is below 1e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400)
# I_z(p, q) is summed as a power series where z * max(1, p - 1, q - 1) is at
# most this, so that each term is at most a quarter of the one before.
_SERIES_MAX = 0.25


def _series_terms(ratio: float) -> int:
    """Terms of the series with term ratio ``ratio`` that one value needs.

    The first term left out is below 2^-56 of the first, and so below half
    an ulp of the sum (at least 2/3 of the first term for ratio <= 1/4).
    """
    if ratio <= 0.0:
        return 1
    return math.ceil(-56.0 * math.log(2.0) / math.log(ratio))


_SERIES_TERMS = _series_terms(_SERIES_MAX)
# Continued-fraction iterations allowed: 128 + 4 sqrt(a + b), at most this.
# Around the side switch, where the fraction is slowest, measured needs were
# at most sqrt(a + b) + 66 for shapes 1e-3 to 1e6, and 11 546 at
# a = b = 1e10; the ceiling keeps a call that cannot converge to well under
# a second.
_CF_MAX_ITER = 2**14
_CF_TINY = 1e-300
_ULP = 2.0 ** -52  # one ulp of 1


def _stirling_remainder(s: float) -> float:
    """ln Gamma(s) - ((s - 1/2) ln s - s + ln sqrt(2 pi)).

    Below 8 it steps up by r(s) = r(s + 1) + (s + 1/2) ln(1 + 1/s) - 1,
    whose terms are small, instead of subtracting from ln Gamma(s).
    """
    shift = 0.0
    while s < 8.0:
        shift += (s + 0.5) * math.log1p(1.0 / s) - 1.0
        s += 1.0
    w = 1.0 / (s * s)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * w + c
    return acc / s + shift


class _BetaincShape(NamedTuple):
    """What ``betainc`` needs of one shape pair (a, b), built once."""

    centre: float  # ln of x^a (1-x)^b / B(a, b) at x = a / (a + b)
    ln_beta: float
    z_series: float  # largest z summed as a series
    spread: float  # max(1, a - 1, b - 1): bounds the series' term ratio over z
    coef: np.ndarray  # columns: series coefficients of I_z(a, b) and I_z(b, a)
    exponents: np.ndarray  # (a, b): z^a leads I_z(a, b), z^b I_z(b, a)
    cf_cap: int


def _series_coefficients(p: float, q: float) -> np.ndarray:
    """c_j with I_z(p, q) = z^p / B(p, q) * sum_j c_j z^j."""
    coef = np.empty(_SERIES_TERMS)
    ratio = 1.0  # (1 - q)_j / j!
    for j in range(_SERIES_TERMS):
        coef[j] = ratio / (p + j)
        ratio *= (j + 1 - q) / (j + 1)
    return coef


@lru_cache(maxsize=16)
def _betainc_shape(a: float, b: float) -> _BetaincShape:
    # x^a (1-x)^b / B(a, b) peaks near x0 = a / (a + b).  Its log there,
    # written with the Stirling remainders, has no large terms to cancel,
    # unlike a ln x0 + b ln(1 - x0) - ln B(a, b) for large shapes.
    total = a + b
    centre = (0.5 * math.log(a * b / total) - _LN_SQRT_2PI - _stirling_remainder(a)
              - _stirling_remainder(b) + _stirling_remainder(total))
    ln_beta = -a * math.log1p(b / a) - b * math.log1p(a / b) - centre
    spread = max(1.0, a - 1.0, b - 1.0)
    cf_cap = int(min(_CF_MAX_ITER, 128 + 4 * math.sqrt(total)))
    return _BetaincShape(centre, ln_beta, _SERIES_MAX / spread, spread,
                         np.stack((_series_coefficients(a, b),
                                   _series_coefficients(b, a)), axis=1),
                         np.array([a, b], dtype=np.float64), cf_cap)


def _betainc_series(shape: _BetaincShape, z: np.ndarray, upper: np.ndarray,
                    z_max: float) -> np.ndarray:
    """I_x(a, b) where z = min(x, 1 - x) <= shape.z_series; ``upper`` is x > 1/2.

    For x > 1/2, I_x(a, b) = 1 - I_z(b, a).  The term count is set by the
    largest z, so every element takes the same number of steps.  Terms are
    added one at a time, largest first, so those beyond what an element
    needs on its own leave its sum unchanged: each value is independent of
    the rest of x.
    """
    n = _series_terms(z_max * shape.spread)
    side = upper.astype(np.intp)
    terms = shape.coef[:n].take(side, axis=1)  # row j: c_j of each element's side
    power = z.copy()
    for j in range(1, n):
        terms[j] *= power
        if j + 1 < n:
            power *= z
    total = terms[0]
    for j in range(1, n):
        total += terms[j]
    with np.errstate(divide="ignore"):
        log_z = np.log(z)
    total *= np.exp(shape.exponents.take(side) * log_z - shape.ln_beta)
    return np.where(upper, 1.0 - total, total)


def _betainc_prefactor(a: float, b: float, shape: _BetaincShape,
                       x: np.ndarray) -> np.ndarray:
    """x^a (1-x)^b / B(a, b), accurate for large shapes too.

    With lam = a - (a + b) x, x / x0 = 1 + e and (1-x) / (1-x0) = 1 + f
    for e = -lam / a and f = lam / b, so the log of the prefactor is
    ``shape.centre - a r(e) - b r(f)`` with r(e) = e - ln(1 + e) >= 0.
    Where |e| > 0.6, ln(1 + e) is taken from x itself, which keeps its
    precision as x / x0 tends to 0; likewise for f.
    """
    total = a + b
    y = 1.0 - x  # exact for x >= 1/2, where it matters
    lam = np.where(x <= 0.5, a - total * x, total * y - b)
    with np.errstate(divide="ignore"):
        log_xr = np.log(x * (total / a))
        log_yr = np.log(y * (total / b))
    e = -lam / a
    f = lam / b
    a_part = a * np.where(np.abs(e) <= 0.6, e - np.log1p(e), e - log_xr)
    b_part = b * np.where(np.abs(f) <= 0.6, f - np.log1p(f), f - log_yr)
    return np.exp(shape.centre - a_part - b_part)


def _betainc_fraction(p: float, q: float, x: np.ndarray, cap: int) -> np.ndarray:
    """The continued fraction of p B(p, q) I_x(p, q) / (x^p (1-x)^q).

    Modified Lentz evaluation (Numerical Recipes, section 6.4); elements
    leave once a step changes them by at most one ulp.
    """
    out = np.empty_like(x)
    pending = np.arange(x.size)

    def nonzero(v):
        return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)

    c = np.ones_like(x)
    d = 1.0 / nonzero(1.0 - (p + q) / (p + 1.0) * x)
    h = d
    for m in range(1, cap + 1):
        even = m * (q - m) / ((p + 2 * m - 1.0) * (p + 2 * m)) * x
        d = 1.0 / nonzero(1.0 + even * d)
        c = nonzero(1.0 + even / c)
        h = h * (d * c)
        odd = -(p + m) * (p + q + m) / ((p + 2 * m) * (p + 2 * m + 1.0)) * x
        d = 1.0 / nonzero(1.0 + odd * d)
        c = nonzero(1.0 + odd / c)
        step = d * c
        h = h * step
        done = np.abs(step - 1.0) <= _ULP
        if done.any():
            out[pending[done]] = h[done]
            keep = ~done
            if not keep.any():
                return out
            pending, x, c, d, h = pending[keep], x[keep], c[keep], d[keep], h[keep]
    raise NumericsError(
        f"incomplete beta continued fraction for shapes ({p:g}, {q:g}) did not "
        f"converge within {cap} iterations at x = {float(x[0])!r}")


def betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b), elementwise.

    ``a`` and ``b`` are positive scalars and ``x`` holds values in [0, 1];
    returns an array of x's shape (a numpy scalar for a scalar x), each
    value depending on its own x alone.  With z = min(x, 1 - x), where
    1 - x is exact for x >= 1/2:

    - a power series in z where z * max(1, a - 1, b - 1) <= 1/4, using
      I_x(a, b) = 1 - I_{1-x}(b, a) above 1/2;
    - elsewhere a continued fraction on whichever side of
      (a + 1) / (a + b + 2) it converges quickly on, times x^a (1-x)^b /
      B(a, b) taken about its peak so that large shapes keep their
      precision.

    Against closed forms and exact binomial sums (shapes 0.1 to 3000) the
    error is at most 2.5 ulps of 1 per unit of 1 + sqrt(a + b), as the
    continued fraction takes more steps for larger shapes.  Grounded on
    Numerical Recipes section 6.4 and DiDonato and Morris, ACM TOMS 708.

    Raises:
        NumericsError: if the continued fraction has not converged within
            128 + 4 sqrt(a + b) iterations (2^14 at most).
    """
    shape = _betainc_shape(a, b)
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()
    upper = flat > 0.5
    z = np.where(upper, 1.0 - flat, flat)
    out = np.empty_like(flat)
    series = z <= shape.z_series
    if series.any():
        z_s = z[series]
        out[series] = _betainc_series(shape, z_s, upper[series], z_s.max())
    rest = np.flatnonzero(~series)
    x_r = flat[rest]
    prefactor = _betainc_prefactor(a, b, shape, x_r)
    swap = x_r > (a + 1.0) / (a + b + 2.0)
    direct = ~swap
    value = np.empty_like(x_r)
    if direct.any():
        value[direct] = prefactor[direct] / a * _betainc_fraction(
            a, b, x_r[direct], shape.cf_cap)
    if swap.any():
        value[swap] = 1.0 - prefactor[swap] / b * _betainc_fraction(
            b, a, 1.0 - x_r[swap], shape.cf_cap)
    out[rest] = value
    return out.reshape(arr.shape)[()]


# The inverse-CDF table has _BETA_CELLS knot cells, whose knots sit near the
# u-edges j / _BETA_CELLS; a query u is searched for among the knots' CDF.
_BETA_CELLS = 2**13
# Coarse CDF grid the knots are interpolated from, in t where x = 3t^2 - 2t^3
# so that the steep or flat ends of the CDF get extra points.
_BETA_COARSE_KNOTS = 1025


# A tangent of the inverse CDF serves as a bound only where the terms of
# its slope's exponent add to at most this (``beta_draw_bounds``).
_TANGENT_TERMS_MAX = 2.0**14


class _BetaTable(NamedTuple):
    """The knot table of one beta shape: knots at approximate u-quantiles,
    the exact CDF at each, and the lines of the inverse CDF Q over each
    knot cell.

    ``knots``/``cdf`` hold _BETA_CELLS + 1 entries.  For cell j the start
    point x_j + du * (slope_j + du * curve_j), du = u - cdf_j, meets both
    knots of the cell and Q's slope at its lower knot
    (``beta_inverse_cdf``).  The rest bound Q (``_line_bounds``): row k of
    ``tangent`` holds the point x, c and slope 1/f of Q's tangent at knot
    k, or at its neighbour for an end knot where the slope is infinite
    (slope 0 where no tangent is used).  ``secant`` holds each cell's chord
    slope (0 where not finite), and ``bend`` whether Q is convex (1) or
    concave (-1) over the cell, or neither is known (0).
    """

    knots: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray
    curve: np.ndarray
    tangent: np.ndarray
    secant: np.ndarray
    bend: np.ndarray


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


@lru_cache(maxsize=16)
def _beta_bracket_table(alpha: float, beta: float) -> _BetaTable:
    """The knot table that brackets inverse-CDF queries and bounds Q.

    Costs _BETA_COARSE_KNOTS + _BETA_CELLS + 1 CDF evaluations (twice the
    last for a narrow shape).  Only the knot placement is approximate: the
    CDF is evaluated exactly at every knot, so a cell whose CDF values
    enclose u is a valid bracket.  Q's slope 1/f is computed once at every
    knot, and each cell's secant once; the start points and the bounds
    read both.

    Q has Q'' = -f'/f^3, and f'/f = g(x) / (x (1 - x)) with g(x) =
    (alpha - 1)(1 - x) - (beta - 1) x, linear in x.  So on a cell where g
    is at most 0 at both knots Q is convex: it lies above both tangents and
    below the chord.  Where g is at least 0 at both knots Q is concave, and
    the roles swap.  g is computed within 2^-51 (|alpha - 1| + |beta - 1|),
    so each sign is trusted only beyond twice that.  Either tangent alone
    bounds Q over the cell, so an end cell whose outer slope is infinite or
    unsound takes its inner tangent for both.  A cell whose signs differ
    (the mode's), or with another unsound slope (``beta_draw_bounds``) or
    an infinite secant, keeps its two knots as bounds.
    """
    t = np.linspace(0.0, 1.0, _BETA_COARSE_KNOTS)
    coarse_cdf = betainc(alpha, beta, _smoothstep(t))
    edges = np.arange(_BETA_CELLS + 1) / _BETA_CELLS
    knots = _smoothstep(np.interp(edges, coarse_cdf, t))
    knots[0], knots[-1] = 0.0, 1.0
    cdf = betainc(alpha, beta, knots)
    if np.abs(cdf - edges).max() >= 1.0 / _BETA_CELLS:  # a narrow shape:
        knots = np.interp(edges, cdf, knots)  # re-place from the exact CDF
        knots[0], knots[-1] = 0.0, 1.0
        cdf = betainc(alpha, beta, knots)

    dx = np.diff(knots)
    dc = np.diff(cdf)
    ln_beta = _betainc_shape(alpha, beta).ln_beta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        secant = dx / dc
        log_x = (alpha - 1.0) * np.log(knots)
        log_y = (beta - 1.0) * np.log1p(-knots)
        inv_f = np.exp(ln_beta - log_x - log_y)
        curve = (dx - dc * inv_f[:-1]) / (dc * dc)
    finite = np.isfinite(secant)
    secant = np.where(finite, secant, 0.0)
    # Keep the quadratic only where it is finite and monotone across the
    # cell; elsewhere start from the secant.
    quadratic = np.isfinite(curve) & (inv_f[:-1] >= 0.0) & (2.0 * secant >= inv_f[:-1])

    sound = np.isfinite(inv_f) & (
        np.abs(log_x) + np.abs(log_y) + abs(ln_beta) <= _TANGENT_TERMS_MAX)
    tangent = np.stack((knots, cdf, np.where(sound, inv_f, 0.0)), axis=1)
    # At x = 0 the tangent is vertical for alpha > 1, and at x = 1 for
    # beta > 1.
    for end, inner in ((0, 1), (-1, -2)):
        if not sound[end] and sound[inner]:
            tangent[end], sound[end] = tangent[inner], True
    g = (alpha - 1.0) * (1.0 - knots) - (beta - 1.0) * knots
    tiny = 2.0**-50 * (abs(alpha - 1.0) + abs(beta - 1.0))
    usable = finite & sound[:-1] & sound[1:]
    convex = usable & (g[:-1] <= -tiny) & (g[1:] <= -tiny)
    concave = usable & (g[:-1] >= tiny) & (g[1:] >= tiny) & ~convex
    return _BetaTable(knots, cdf, np.where(quadratic, inv_f[:-1], secant),
                      np.where(quadratic, curve, 0.0), tangent, secant,
                      convex.astype(np.int8) - concave)


def _beta_cells(table: _BetaTable, u: np.ndarray) -> np.ndarray:
    """Cell index j per query u in [0, 1] with cdf[j] <= u <= cdf[j + 1]:
    the last knot whose CDF is at most u, the last cell for u = 1.

    The knots' CDF is nondecreasing from cdf[0] = 0, so the cell is
    nondecreasing in u.
    """
    return np.minimum(np.searchsorted(table.cdf, u, side="right") - 1,
                      _BETA_CELLS - 1)


# The residual bound of the beta inverse CDF, and the CDF evaluations it may
# spend on a query, the first one included.  The cap lets bisection alone
# reach ``_beta_refine``'s collapse rule from any bracket in [0, 1]: each
# halving moves one end to the rounded midpoint, a double strictly inside
# the bracket, which keeps about half of its length, and doubles lie at
# least 2^-1074 apart, so some 1 075 halvings leave two adjacent doubles.
# A small shape can need hundreds: at (0.1, 0.1) the draw of u = 1.4e-11
# lies near 1e-97, some 200 halvings below its start point, and each
# Newton step there would leave the bracket.
_BETA_TOL = 1e-10
_BETA_MAX_ITER = 1100


def _beta_refine(params: BetaParams, table: _BetaTable, cell: np.ndarray,
                 u: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Refine start points ``x`` whose residuals ``r = I_x - u`` exceed
    _BETA_TOL.

    Newton steps fall back to bisection whenever a step would leave the
    bracket, which starts as the query's cell.  When the bracket has
    collapsed to two adjacent doubles and neither met the bound, the end
    with the smaller residual is returned.
    """
    out = x.copy()
    pending = np.arange(x.size)
    lo = table.knots.take(cell)
    hi = table.knots.take(cell + 1)
    r_lo = table.cdf.take(cell) - u
    r_hi = table.cdf.take(cell + 1) - u
    ln_b = _betainc_shape(params.alpha, params.beta).ln_beta
    a_m1 = params.alpha - 1.0
    b_m1 = params.beta - 1.0
    for _ in range(_BETA_MAX_ITER - 1):
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
        done = np.abs(r) <= _BETA_TOL
        out[pending[done]] = x[done]
        if done.all():
            return out
        keep = ~done
        pending, u, x, r, lo, hi, r_lo, r_hi = (
            v[keep] for v in (pending, u, x, r, lo, hi, r_lo, r_hi))
    raise NumericsError(
        f"beta inverse CDF did not converge within {_BETA_MAX_ITER} iterations",
        residual=float(np.abs(r).max()),
    )


def beta_inverse_cdf(params: BetaParams, u):
    """Invert the regularized incomplete beta function.

    Returns x in [0, 1] with ``|I_x(alpha, beta) - u| <= 1e-10`` for each
    element of ``u`` in [0, 1], or the nearest double to the exact inverse
    when no double meets that bound.  A cached knot table, searched by u
    (``_beta_cells``), gives every query a bracketing cell and a quadratic
    start point, which betainc checks; those outside the bound are refined
    by Newton steps that fall back to bisection whenever a step would leave
    the bracket.  For the bundled shape about 1.1% of start points need
    refining.

    Raises:
        ValueError: if any ``u`` is outside [0, 1].
        NumericsError: if a query takes more than _BETA_MAX_ITER (1 100)
            CDF evaluations.
    """
    arr, scalar = _as_array(u)
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=1.0) <= 1.0):
        raise ValueError("uniform variate must lie in [0, 1]")

    flat = arr.ravel()
    table = _beta_bracket_table(params.alpha, params.beta)
    cell = _beta_cells(table, flat)
    du = flat - table.cdf.take(cell)
    x = table.curve.take(cell)
    x *= du
    x += table.slope.take(cell)
    x *= du
    x += table.knots.take(cell)  # knots + du * (slope + du * curve)
    x[flat == 1.0] = 1.0  # u = 0 lands on the knot x = 0, as cdf[1] > 0
    r = betainc(params.alpha, params.beta, x) - flat
    far = np.abs(r) > _BETA_TOL
    if far.any():
        x[far] = _beta_refine(params, table, cell[far], flat[far], x[far], r[far])
    return _scalar_or_array(x.reshape(arr.shape), scalar)


# betainc's documented error, in ulps of 1 per unit of 1 + sqrt(a + b).
_BETAINC_ULPS = 2.5


def _draw_slack(alpha: float, beta: float) -> float:
    """How far ``beta_draw_bounds`` widens u: 2 (_BETA_TOL + 2e), e the
    documented error of betainc at (alpha, beta)."""
    error = _BETAINC_ULPS * _ULP * (1.0 + math.sqrt(alpha + beta))
    return 2.0 * (_BETA_TOL + 2.0 * error)


def _line_bounds(params: BetaParams, v: np.ndarray, lower: bool) -> np.ndarray:
    """The inverse CDF Q at each v in [0, 1] bounded by the lines of v's
    knot cell in ``_beta_bracket_table``: from below (``lower``) by the
    greater tangent of a convex cell, the chord of a concave one or else
    the lower knot; from above by the lesser tangent of a concave cell,
    the chord of a convex one or else the upper knot."""
    table = _beta_bracket_table(params.alpha, params.beta)
    cell = _beta_cells(table, v)
    x0, x1 = table.knots.take(cell), table.knots.take(cell + 1)
    chord = (v - table.cdf.take(cell)) * table.secant.take(cell) + x0
    tangents = []
    for knot in (cell, cell + 1):
        x, c, s = table.tangent.take(knot, axis=0).T
        tangents.append((v - c) * s + x)
    bend = table.bend.take(cell)
    convex, concave = bend > 0, bend < 0
    if lower:
        return np.where(convex, np.maximum(*tangents), np.where(concave, chord, x0))
    return np.where(concave, np.minimum(*tangents), np.where(convex, chord, x1))


def beta_draw_bounds(params: BetaParams, u_low, u_high) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest draw ``beta_inverse_cdf`` can give for any u
    in [u_low, u_high], elementwise (1-D arrays), without evaluating betainc.

    Let Q be the exact inverse CDF and e betainc's documented error at
    (alpha, beta).  A draw x of u either meets |betainc(x) - u| <= tol, so
    its exact CDF is within tol + e of u and Q(u - tol - e) <= x <= Q(u +
    tol + e); or it is one of two adjacent doubles whose computed CDFs
    straddle u, so within one double of [Q(u - e), Q(u + e)].  Q is
    nondecreasing, so the draws of [u_low, u_high] lie within one double of
    [Q(u_low - tol - e), Q(u_high + tol + e)].

    The bounds are taken at v = u_low - d and v = u_high + d, d = 2 (tol +
    2e), from the lines x + (v - c) s of v's knot cell
    (``_line_bounds``): chords, tangents or knots, each a bound on Q
    over the cell.  Each line's computed value, before its last addition
    rounds, is the exact line's at some w near v.  The knots carry
    betainc's CDF, within e of the exact one, which moves w by at most e.
    A tangent's slope 1/f is an exp of terms adding to at most
    _TANGENT_TERMS_MAX, each within a few ulps, so its relative error is
    below 2^-35; with the roundings of v - c, of the secant and of the
    product, a relative error in (v - c) s moves w by that error times
    |v - c| <= 1, so by less than 2^-34 in all.  A w past the cell stays
    bounded: past it, a convex cell's tangents stay below Q (its slope
    keeps growing away from the mode) and a concave cell's above, and the
    knots bound the rest.  So the lower line at v is below Q(v + 2e +
    2^-34) and the upper above Q(v - 2e - 2^-34), and d exceeds the tol +
    3e + 2^-34 that this and the draw's own error need.  The result
    is moved one double outward: a double at most one double past a real
    bound is at most one double past any rounding of a number beyond it,
    which covers the last rounding and the adjacent-doubles case at once.
    Where v is below 0 or above 1 the bound is 0 or 1, the least and
    greatest draw, and so are the bounds' limits.
    """
    slack = _draw_slack(params.alpha, params.beta)
    v_low = np.maximum(np.subtract(u_low, slack), 0.0)
    v_high = np.minimum(np.add(u_high, slack), 1.0)
    low = np.where(v_low > 0.0, _line_bounds(params, v_low, True), 0.0)
    high = np.where(v_high < 1.0, _line_bounds(params, v_high, False), 1.0)
    return (np.nextafter(np.maximum(low, 0.0), 0.0),
            np.nextafter(np.minimum(high, 1.0), 1.0))


def sample_irradiance(params: BetaParams, u):
    """Daily irradiance (W/m2): the scaled beta inverse CDF of ``u``."""
    return params.scale_gmax * beta_inverse_cdf(params, u)


def pv_power(spec: PvArraySpec, g):
    """Photovoltaic output (kW) for irradiance ``g`` (W/m2).

    Quadratic in g below the breakpoint r_c, linear between r_c and the
    standard irradiance g_std, and flat at rated power above g_std.
    """
    arr, scalar = _as_array(g)
    if not arr.min(initial=0.0) >= 0.0:
        raise ValueError("irradiance must be nonnegative and not NaN")
    with np.errstate(over="ignore"):  # an irradiance above g_std may overflow; it gives p_sn
        power = arr * spec.p_sn  # p_sn * g, both branches
        quadratic = power * arr
        quadratic /= spec.g_std * spec.r_c
        power /= spec.g_std
    np.putmask(power, arr < spec.r_c, quadratic)
    np.putmask(power, arr > spec.g_std, spec.p_sn)
    return _scalar_or_array(power, scalar)


# The relative widening of the resource and power ranges for rounding;
# each use says what it covers.
_CELL_MARGIN = 2.0**-40


def resource_range(params: Union[WeibullParams, BetaParams], u_low,
                   u_high) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest resource value ``resource_values`` can give
    any uniform in [u_low, u_high], elementwise (1-D arrays in [0, 1]).

    Weibull: the speed falls as u grows, so an interval's speeds lie
    between those at its ends, u clamped to MIN_UNIFORM as the draws are,
    and 0 at u = 1.  ``np.log`` and ``np.power`` are within a few ulps, and
    a relative error e in -ln u becomes e / k in the speed; the end speeds
    are widened by _CELL_MARGIN * max(1, 1/k), over a thousand times more
    than the error of an end speed and a draw's together.

    Beta: the scaled ``beta_draw_bounds``, which scaling keeps in order.
    """
    if isinstance(params, BetaParams):
        x_low, x_high = beta_draw_bounds(params, u_low, u_high)
        return params.scale_gmax * x_low, params.scale_gmax * x_high
    ends = np.maximum((u_high, u_low), MIN_UNIFORM)
    speeds = np.zeros_like(ends)
    inside = ends < 1.0
    speeds[inside] = sample_wind_speed(params, ends[inside])
    margin = _CELL_MARGIN * max(1.0, 1.0 / params.shape_k)
    return speeds[0] * (1.0 - margin), speeds[1] * (1.0 + margin)


def power_range(device: Union[WindTurbineSpec, PvArraySpec], r_low,
                r_high) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest power of the device for a resource value in
    [r_low, r_high], elementwise.

    PV: pv_power is monotone on each branch; where the branches meet, at
    r_c and g_std, the rounded curve steps back by a few ulps.  The powers
    at the ends are therefore widened by a relative _CELL_MARGIN, which
    covers those steps many times over.

    Turbine: the curve is not monotone, so a range that reaches cut-in or
    cut-out has a least power of 0, and one that reaches [v_rated,
    v_cut_out) a greatest power of p_rated; elsewhere the curve is extreme
    at the range's ends.  The rounded cubic a v^3 - b p_rated is monotone
    only up to a few ulps of its terms, which are at most p_rated (1 + b):
    at v_rated it can come out an ulp above p_rated, and just above cut-in
    it could come out below 0.  Both bounds are widened by _CELL_MARGIN
    times that.
    """
    if isinstance(device, PvArraySpec):
        return (pv_power(device, r_low) * (1.0 - _CELL_MARGIN),
                pv_power(device, r_high) * (1.0 + _CELL_MARGIN))
    low = np.where((r_low > device.v_cut_in) & (r_high < device.v_cut_out),
                   wind_power(device, r_low), 0.0)
    high = np.where(r_high >= device.v_rated, device.p_rated, wind_power(device, r_high))
    high = np.where(r_low >= device.v_cut_out, 0.0, high)
    b = device.v_cut_in**3 / (device.v_rated**3 - device.v_cut_in**3)
    slack = _CELL_MARGIN * device.p_rated * (1.0 + b)
    return low - slack, high + slack


@lru_cache(maxsize=32)
def power_bounds(device: Union[WindTurbineSpec, PvArraySpec],
                 params: Union[WeibullParams, BetaParams]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest power of the device for a draw in each u-cell
    [c, c + 1] / _BETA_CELLS of its resource stream's uniforms, which
    follow ``params``: the ``power_range`` of the cell's
    ``resource_range``.  Entry _BETA_CELLS (u = 1) repeats the last cell.
    """
    edges = np.arange(_BETA_CELLS + 1) / _BETA_CELLS
    low, high = power_range(device, *resource_range(params, edges[:-1], edges[1:]))
    return np.append(low, low[-1]), np.append(high, high[-1])


def _stream_params(dists: ResourceDistributions,
                   label: tuple[str, str]) -> Union[WeibullParams, BetaParams]:
    """The fitted distribution that stream ``label`` draws from."""
    kind, key = label
    return dists.irradiance if kind == "irradiance" else dists.wind_regions[key]


# The int32 stream sums of a day stay at most 2^_FIXED_POINT_BITS, so that
# adding them cannot overflow.
_FIXED_POINT_BITS = 30


class StreamBounds(NamedTuple):
    """Fixed-point bounds on each resource stream's part of a fleet's total.

    ``labels`` are the streams the fleet's units draw from and ``rows``
    their rows in the fleet's ``draw_uniforms`` blocks of ``n_rows``
    streams.  On a day whose stream s has u-cell c, the summed power of the
    units on s lies in [lower[s, c], upper[s, c]] * ``scale`` (int32
    tables, _BETA_CELLS + 1 entries per stream), with room to spare for the
    rounding of the fleet-order total: the day's total lies between the
    int32 sums of its streams' entries times ``scale``.  Those sums are
    exact, being at most 2^30 (``stream_bounds``).
    """

    labels: tuple[tuple[str, str], ...]
    rows: tuple[int, ...]
    n_rows: int
    lower: np.ndarray
    upper: np.ndarray
    scale: float

    def limits(self, taus: np.ndarray) -> np.ndarray:
        """Thresholds as int32 t = ceil(tau / scale), capped at 2^31 - 1.

        T >= tau wherever a day's lower sum reaches t, since T >=
        lower * scale >= t * scale >= tau; and T < tau wherever its upper
        sum is below t, since T <= upper * scale < tau.  A capped t exceeds
        every upper sum, as does a tau above the fleet's greatest total.
        tau is capped at (2^31 - 1) scale before the division, which cannot
        then overflow; scale is a power of two, so the cap is exact and
        gives the same t.
        """
        cap = (2**31 - 1) * self.scale
        return np.ceil(np.minimum(taus, cap) / self.scale).astype(np.int32)


def stream_label(unit: DgUnit, shared_irradiance: bool) -> tuple[str, str]:
    """The label of the resource stream the unit draws from."""
    device = unit.device
    if isinstance(device, WindTurbineSpec):
        return "wind", device.region_id
    return "irradiance", SHARED_IRRADIANCE_KEY if shared_irradiance else unit.name


def stream_bounds(dists: ResourceDistributions,
                  fleet: Sequence[DgUnit]) -> StreamBounds:
    """The fleet's fixed-point stream bounds (cached per stream layout).

    Each stream's float bounds add the ``power_bounds`` of its units, and
    bound their summed power.  Each is then widened by _CELL_MARGIN times
    the fleet's unit count times its greatest total M, the sum of the
    streams' greatest upper entries.  That covers, many times over, the
    rounding of these sums and of the fleet-order total, each of which is
    within (units - 1) 2^-53 M of its exact sum.  The widened lower bounds
    are floored, and the upper ones ceiled, to multiples of scale = 2^e,
    which only widens them; dividing by a power of two is exact.  e is the
    least exponent for which the streams' greatest upper entries add to at
    most 2^30, so no int32 sum of a day's entries can overflow.

    A fleet with PV arrays gets its shape's knot table built too, which its
    open days' bounds and draws read, even if its PV bounds are cached.
    """
    if any(isinstance(unit.device, PvArraySpec) for unit in fleet):
        _beta_bracket_table(dists.irradiance.alpha, dists.irradiance.beta)
    units: dict[tuple[str, str], list] = {
        label: [] for label in _stream_labels(dists, fleet)}
    for unit in fleet:
        label = stream_label(unit, dists.shared_irradiance)
        units[label].append((unit.device, _stream_params(dists, label)))
    return _stream_bounds(tuple((label, tuple(members))
                                for label, members in units.items()))


@lru_cache(maxsize=16)
def _stream_bounds(streams: tuple) -> StreamBounds:
    used = [(row, label, members)
            for row, (label, members) in enumerate(streams) if members]
    lows, highs = [], []
    for _, _, members in used:
        bounds = [power_bounds(device, params) for device, params in members]
        lows.append(sum(low for low, _ in bounds))
        highs.append(sum(high for _, high in bounds))
    shape = (len(used), _BETA_CELLS + 1)
    lows, highs = np.reshape(lows, shape), np.reshape(highs, shape)
    greatest = highs.max(axis=1, initial=0.0)
    margin = _CELL_MARGIN * sum(len(members) for _, _, members in used) * greatest.sum()
    lows -= margin
    highs += margin
    greatest += margin
    # frexp's exponent E has 2^(E-1) <= greatest.sum() < 2^E, so no
    # exponent below the first tried can fit.
    exponent = math.frexp(greatest.sum())[1] - _FIXED_POINT_BITS - 1
    while np.ceil(np.ldexp(greatest, -exponent)).sum() > 2**_FIXED_POINT_BITS:
        exponent += 1
    return StreamBounds(
        labels=tuple(label for _, label, _ in used),
        rows=tuple(row for row, _, _ in used),
        n_rows=len(streams),
        lower=np.floor(np.ldexp(lows, -exponent)).astype(np.int32),
        upper=np.ceil(np.ldexp(highs, -exponent)).astype(np.int32),
        scale=math.ldexp(1.0, exponent),
    )


# ---------------------------------------------------------------------------
# Daily draws for a fleet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DailyResources:
    """Per-day resource values for a fleet, by stream.

    ``streams`` maps each stream label the fleet draws from
    (``stream_label``) to an (n_days,) array: Weibull speeds (m/s) of a
    wind region, scaled beta irradiance (W/m2) of an irradiance stream.
    ``shared_irradiance`` is the fleet's ``ResourceDistributions`` flag,
    which ``stream_label`` needs to find a PV array's stream.
    """

    streams: Mapping[tuple[str, str], np.ndarray]
    n_days: int
    shared_irradiance: bool


def _stream_labels(dists: ResourceDistributions,
                   fleet: Sequence[DgUnit]) -> list[tuple[str, str]]:
    """Fixed draw order: wind regions sorted by id, then irradiance streams
    in the fleet order of their first array.

    The layout depends only on the declared regions and the PV units, so
    adding a turbine to an existing region leaves every stream unchanged.
    """
    labels = [("wind", region) for region in sorted(dists.wind_regions)]
    labels.extend(dict.fromkeys(stream_label(unit, dists.shared_irradiance)
                                for unit in fleet
                                if isinstance(unit.device, PvArraySpec)))
    return labels


# The sampler's rule (README, "Determinism").  Word k of group g is output k
# of a Philox keyed (seed, g) with its counter at 0, and group g holds the
# years y with y // YEARS_PER_GROUP = g.  Philox writes its words four at a
# time, one counter step each, so every year and every day starts a step.
YEARS_PER_GROUP = 64
_WORDS_PER_STEP = 4
_LANES_PER_WORD = 4
_LANE_BITS = 16
# A day's 64-bit word holds its lane above the top _LANE_SHIFT bits of its
# fine word (``day_words``).  resource_values takes the uniform
# (word >> 11) * 2^-53 of it, whose u-cell floor(u * _BETA_CELLS) is the
# lane's top _CELL_BITS bits.
_LANE_SHIFT = 64 - _LANE_BITS
_UNIFORM_SHIFT = 11
_CELL_BITS = _BETA_CELLS.bit_length() - 1
# The most words one random_raw call returns, unless a year has more: a
# pass's coarse words are read in whole years, so that no call allocates an
# array the size of a pass.
_READ_WORDS = 2**13


def words_per_year(n_streams: int) -> int:
    """4C: the coarse words of a year of ``n_streams`` streams, C the Philox
    steps that hold its 365 n_streams lanes, four to a word."""
    lanes_per_step = _WORDS_PER_STEP * _LANES_PER_WORD
    return _WORDS_PER_STEP * -(-n_streams * DAYS_PER_YEAR // lanes_per_step)


# The process's Philox generator, made at its first draw (importing
# numpy.random is not free), and the state dict ``_seek`` sets, of Python
# ints, which the setter reads faster than numpy elements.
_generator: np.random.Philox | None = None
_generator_state: dict = {
    "bit_generator": "Philox",
    "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
    "buffer": (0, 0, 0, 0),
    "buffer_pos": _WORDS_PER_STEP,
    "has_uint32": 0,
    "uinteger": 0,
}


def _seek(seed: int, group: int, first: int) -> np.random.Philox:
    """The process's Philox, whose next output is word ``first`` of group
    ``group``, a multiple of four.

    Setting its whole state, key (seed, group) and counter first / 4 with
    an empty buffer, makes it a new Philox keyed (seed, group) from word
    ``first`` on: no draw depends on an earlier one.
    """
    global _generator
    if _generator is None:
        _generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    state = _generator_state
    state["state"]["key"][:] = seed, group
    state["state"]["counter"][0] = first // _WORDS_PER_STEP
    _generator.state = state
    return _generator


class UniformBlock(NamedTuple):
    """Whole years of coarse Philox words for every stream of a fleet.

    ``coarse[y]`` holds the 4C = ``words_per_year(S)`` coarse words of
    year y of the block, for its S = len(labels) streams.  Lane i = 365 s
    + d, bits 16 (i mod 4) to 16 (i mod 4) + 15 of word i // 4, belongs to
    day d of stream ``labels[s]``, so a stream's lanes are one run of the
    words read as little-endian 16-bit integers (``_lanes``).  ``u_cells``
    takes its u-cells, ``day_lanes`` the lanes of chosen days, and
    ``day_words`` adds those days' fine words.
    """

    labels: list[tuple[str, str]]
    coarse: np.ndarray


def draw_uniforms(dists: ResourceDistributions,
                  fleet: Sequence[DgUnit],
                  seed: int,
                  n_years: int,
                  start_year: int = 0,
                  out: np.ndarray | None = None) -> UniformBlock:
    """Draw the coarse words of ``n_years`` whole years from ``start_year``
    on.

    Year y is words 4Cj to 4C(j + 1) - 1 of group g, for g, j = divmod(y,
    YEARS_PER_GROUP), so a year's words do not depend on the block it is
    drawn in.  The years of one group take one seek of the process's
    Philox, and random_raw calls of whole years, of at most 2^13 words
    unless a year has more.  The words are written to ``out`` when given, a
    C-ordered uint64 array of shape (n_years, 4C), and ``coarse`` is then
    ``out`` itself.
    """
    labels = _stream_labels(dists, fleet)
    per_year = words_per_year(len(labels))
    shape = (n_years, per_year)
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    elif out.shape != shape or out.dtype != np.uint64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-ordered uint64 array of shape {shape}")
    if labels:
        read = max(1, _READ_WORDS // per_year)  # years per random_raw call
        first = 0
        while first < n_years:
            group, year = divmod(start_year + first, YEARS_PER_GROUP)
            last = min(n_years, first + YEARS_PER_GROUP - year)
            generator = _seek(seed, group, year * per_year)
            for start in range(first, last, read):
                years = min(read, last - start)
                out[start:start + years] = generator.random_raw(
                    years * per_year).reshape(years, per_year)
            first = last
    return UniformBlock(labels, out)


def _lanes(coarse: np.ndarray) -> np.ndarray:
    """The lanes of ``coarse``, lane i of year y at [y, i]: the words as little-endian
    values, a free view on a little-endian host and the same lanes on any host."""
    return coarse.astype("<u8", copy=False).view("<u2")


def u_cells(coarse: np.ndarray, row: int, out: np.ndarray | None = None) -> np.ndarray:
    """The u-cells of stream ``row``, the index into the power bounds
    tables, on every day of ``coarse``.

    ``coarse`` holds whole years of a ``UniformBlock``'s coarse words, and
    a day's u-cell is its lane >> 3: one shift of the stream's contiguous
    run of lanes in each year.  The result, (years, 365) intp, is written to
    ``out`` when given.
    """
    if out is None:
        out = np.empty((coarse.shape[0], DAYS_PER_YEAR), dtype=np.intp)
    first = DAYS_PER_YEAR * row
    np.right_shift(_lanes(coarse)[:, first:first + DAYS_PER_YEAR],
                   _LANE_BITS - _CELL_BITS, out=out)
    return out


def day_lanes(coarse: np.ndarray, rows: Sequence[int], days: np.ndarray) -> np.ndarray:
    """The lanes of streams ``rows`` on ``days`` of ``coarse``, each in the
    top 16 bits of a 64-bit word: (days, rows) uint64, the coarse half of
    ``day_words``.  ``days`` are indices y * 365 + d into coarse's years,
    and day y * 365 + d of stream s is lane 365 s + d of year y."""
    year, day = np.divmod(days, DAYS_PER_YEAR)
    lane = DAYS_PER_YEAR * np.asarray(rows, dtype=np.intp) + day[:, None]
    return _lanes(coarse)[year[:, None], lane].astype(np.uint64) << np.uint64(_LANE_SHIFT)


def day_words(lanes: np.ndarray, seed: int, n_streams: int, rows: Sequence[int],
              years: np.ndarray, days: np.ndarray) -> np.ndarray:
    """The 64-bit words of streams ``rows`` on day ``days`` of ``years``,
    whose lanes ``day_lanes`` gave: (days, rows) uint64, each giving
    resource_values its day's uniform.

    Stream s's word is (lane << 48) | (f >> 16), f its fine word: of the F
    = 4 ceil(S / 4) fine words of day d of year j in group g, which start at
    word 64 * 4C + (365 j + d) F of g, word s.  So the uniform is
    (lane 2^37 + (f >> 27)) 2^-53.  Each run of consecutive days within
    one group takes one seek: all the days of a group one, an open day
    mostly its own.
    """
    per_day = _WORDS_PER_STEP * -(-n_streams // _WORDS_PER_STEP)  # F, whole Philox steps
    group, year = np.divmod(years, YEARS_PER_GROUP)
    slot = DAYS_PER_YEAR * year + days  # the day's place in its group
    runs = np.flatnonzero((np.diff(group, prepend=-1) != 0)
                          | (np.diff(slot, prepend=-2) != 1))
    fine_start = YEARS_PER_GROUP * words_per_year(n_streams)
    fine = [_seek(seed, g, fine_start + first * per_day).random_raw(n * per_day)
            for g, first, n in zip(group[runs].tolist(), slot[runs].tolist(),
                                   np.diff(runs, append=slot.size).tolist())]
    fine = np.concatenate(fine or [np.empty(0, dtype=np.uint64)])
    fine = fine.reshape(slot.size, per_day)[:, rows]
    fine >>= _LANE_BITS
    fine |= lanes
    return fine


def word_uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms (word >> 11) * 2^-53 that ``resource_values`` draws
    from raw ``words``."""
    return np.multiply(words >> _UNIFORM_SHIFT, 2.0**-53)  # both steps are exact


def resource_values(dists: ResourceDistributions, label: tuple[str, str],
                    words: np.ndarray) -> np.ndarray:
    """Resource values of stream ``label`` for raw ``words``: Weibull speeds
    of a wind stream, scaled beta draws of an irradiance stream.

    Each value depends only on its own word.
    """
    u = word_uniforms(words)
    params = _stream_params(dists, label)
    if isinstance(params, BetaParams):
        return sample_irradiance(params, u)
    return sample_wind_speed(params, np.maximum(u, MIN_UNIFORM))


def daily_resources(dists: ResourceDistributions, labels: Sequence[tuple[str, str]],
                    words: np.ndarray) -> DailyResources:
    """The ``resource_values`` of raw ``words`` (days x streams), column i
    of stream ``labels[i]``."""
    return DailyResources({label: resource_values(dists, label, words[:, i])
                           for i, label in enumerate(labels)},
                          words.shape[0], dists.shared_irradiance)


def sample_daily_resources(dists: ResourceDistributions,
                           fleet: Sequence[DgUnit],
                           seed: int,
                           n_days: int,
                           start_year: int = 0) -> DailyResources:
    """Draw ``n_days`` of every stream ``fleet`` reads, by stream label.

    Day n is day n % 365 of year start_year + n // 365, drawn by the rule
    of ``draw_uniforms`` and ``day_words``, so a series of length n is a
    prefix of any longer series with the same seed, and a 365-day series
    is a year of the engine's.  Each group of years takes one seek for its
    coarse words and one for its fine words.
    """
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    block = draw_uniforms(dists, fleet, seed, -(-n_days // DAYS_PER_YEAR),
                          start_year)
    rows, days = range(len(block.labels)), np.arange(n_days)
    year, day = np.divmod(days, DAYS_PER_YEAR)
    words = day_words(day_lanes(block.coarse, rows, days), seed, len(rows), rows,
                      start_year + year, day)
    return daily_resources(dists, block.labels, words)


def unit_power_series(unit: DgUnit, resources: DailyResources) -> np.ndarray:
    """Per-day output (kW) of one unit: its device's power curve applied to
    the values of its stream, ``stream_label(unit, shared_irradiance)``."""
    values = resources.streams[stream_label(unit, resources.shared_irradiance)]
    curve = wind_power if isinstance(unit.device, WindTurbineSpec) else pv_power
    return curve(unit.device, values)


# ---------------------------------------------------------------------------
# Trace emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSeries:
    """Per-day (resource, power) series for one unit."""

    unit: str
    resource: np.ndarray = field(repr=False)
    power_kw: np.ndarray = field(repr=False)


def emit_trace(fleet: Sequence[DgUnit],
               dists: ResourceDistributions,
               n_days: int,
               seed: int) -> list[TraceSeries]:
    """Emit deterministic per-day resource and power series for a fleet.

    Each unit's resource is the series of its stream (``stream_label``),
    and its power is ``unit_power_series``.  The draws follow the rule the
    simulation engine reads, so a 365-day trace of a run's whole fleet
    reproduces year 0 of that run with the same seed.
    The stream layout follows the fleet passed in, so for part of a fleet
    with independent irradiance a PV array may get the stream another array
    has in the run.
    """
    resources = sample_daily_resources(dists, fleet, seed, n_days)
    return [TraceSeries(unit.name,
                        resources.streams[stream_label(unit, dists.shared_irradiance)],
                        unit_power_series(unit, resources))
            for unit in fleet]


def trace_to_delimited(series: TraceSeries) -> str:
    """Render one trace as CSV with columns day_index, resource_value, power_kW."""
    lines = ["day_index,resource_value,power_kW"]
    for day in range(series.resource.size):
        lines.append(
            f"{day},{float(series.resource[day])!r},{float(series.power_kw[day])!r}"
        )
    return "\n".join(lines) + "\n"
