"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
implementation under test: the beta CDF is integrated numerically from the
density, dispatch outcomes are found by enumerating subsets, and the KS
statistic is computed from the empirical CDF definition.  The one exception
is the whole-block simulation reference at the end, which reuses the
package's samplers and power curves but draws and lays out the streams
itself, from the documented rule, and organises the block differently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np


class BruteForceBetaCdf:
    """Beta CDF by cumulative Simpson integration of the density.

    The substitution x = 6t^5 - 15t^4 + 10t^3 makes the integrand vanish at
    both support endpoints for every shape parameter above 1/3: near t = 0
    it behaves like t^(3 alpha - 1), near t = 1 like (1 - t)^(3 beta - 1).
    Plain composite Simpson then agrees with the exact CDF to ~1e-12 for
    shapes of 1 and above and to ~3e-10 for a shape of 0.5, whose density
    is infinite at an endpoint.
    """

    def __init__(self, alpha: float, beta: float, panels: int = 2**21):
        ln_norm = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
        t = np.linspace(0.0, 1.0, panels + 1)
        # 1 - x(t) = x(1 - t) stays accurate where x itself rounds to 1.
        x = self._x_of_t(t)
        one_minus_x = self._x_of_t(1.0 - t)
        dx = 30.0 * t * t * (1.0 - t) * (1.0 - t)
        g = np.zeros(panels + 1)
        inner = slice(1, -1)
        g[inner] = dx[inner] * np.exp(
            (alpha - 1.0) * np.log(x[inner])
            + (beta - 1.0) * np.log(one_minus_x[inner])
            - ln_norm
        )
        h = 1.0 / panels
        pair = (h / 3.0) * (g[0:-1:2] + 4.0 * g[1::2] + g[2::2])
        self._cdf_even = np.concatenate(([0.0], np.cumsum(pair)))
        self._t_even = t[::2]

    @staticmethod
    def _x_of_t(t):
        return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))

    @classmethod
    def _t_of_x(cls, x):
        x = np.asarray(x, dtype=float)
        lo = np.zeros_like(x)
        hi = np.ones_like(x)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            # Near t = 1, x(t) rounds to 1 long before t does; compare the
            # distances to 1 there, as 1 - x(t) = x(1 - t).
            below = np.where(mid < 0.5, cls._x_of_t(mid) < x,
                             cls._x_of_t(1.0 - mid) > 1.0 - x)
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def cdf(self, x):
        return np.interp(self._t_of_x(x), self._t_even, self._cdf_even)

    def inverse_by_bisection(self, target: float, iterations: int = 200) -> float:
        lo, hi = 0.0, 1.0
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def binomial_betainc(a: int, b: int, x: float) -> float:
    """I_x(a, b) for integer shapes: P(Binomial(a + b - 1, x) >= a).

    The double x is the dyadic rational m / 2^k, so the binomial sum is done
    in integers over the common denominator 2^(k (a + b - 1)); the only error
    is the final rounding to a double.
    """
    n = a + b - 1
    exact = Fraction(x)
    m, den = exact.numerator, exact.denominator
    r = den - m
    # Horner in r: after step j, total = sum_{i=a}^{j} C(n, i) m^i r^(j-i).
    total, comb, m_pow = 0, math.comb(n, a), m**a
    for j in range(a, n + 1):
        total = total * r + comb * m_pow
        comb = comb * (n - j) // (j + 1)
        m_pow *= m
    return float(Fraction(total, den**n))


def closed_form_betainc(a: float, b: float, x):
    """I_x(a, b) in closed form for (a, 1), (1, b) and (1/2, 1/2).

    Each form is arranged so that 1 - x enters only where it is exact
    (x >= 1/2) or through log1p, so the error is a few ulps of the result.
    """
    x = np.asarray(x, dtype=float)
    if b == 1.0:
        return x**a
    if a == 1.0:
        return -np.expm1(b * np.log1p(-x))
    if a == b == 0.5:
        # I_x = (2/pi) asin(sqrt(x)), and 1 - I_x = (2/pi) asin(sqrt(1 - x)).
        upper = x > 0.5
        low = 2.0 / math.pi * np.arcsin(np.sqrt(np.where(upper, 1.0 - x, x)))
        return np.where(upper, 1.0 - low, low)
    raise ValueError(f"no closed form for shapes ({a}, {b})")


def weibull_cdf(scale_c: float, shape_k: float, v):
    return 1.0 - np.exp(-((np.asarray(v, dtype=float) / scale_c) ** shape_k))


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic from sorted model CDF values."""
    n = samples.size
    order = np.argsort(samples)
    f = np.asarray(cdf_values)[order]
    i = np.arange(1, n + 1)
    return float(max(np.abs(i / n - f).max(), np.abs((i - 1) / n - f).max()))


KS_CRITICAL_5PCT = 1.3581  # asymptotic c(alpha)/sqrt(n) coefficient


def _consistent_serve_if_fits(chosen: frozenset, total: float,
                              loads: Sequence[tuple[str, float]]) -> bool:
    remaining = total
    for lp_id, level in loads:
        if lp_id in chosen:
            if level > remaining:
                return False
            remaining -= level
        else:
            if level <= remaining:
                return False
    return True


def _consistent_blocking(chosen: frozenset, total: float,
                         loads: Sequence[tuple[str, float]]) -> bool:
    remaining = total
    alive = True
    for lp_id, level in loads:
        fits = alive and level <= remaining
        if fits != (lp_id in chosen):
            return False
        if fits:
            remaining -= level
        elif alive:
            alive = False
    return True


def dispatch_by_enumeration(total: float, loads: Sequence[tuple[str, float]],
                            blocking: bool = False) -> set[str]:
    """The unique served subset consistent with the dispatch rule.

    Enumerates all 2^n subsets and checks each against the scan discipline;
    exactly one subset can be consistent, and that uniqueness is asserted.
    """
    check = _consistent_blocking if blocking else _consistent_serve_if_fits
    ids = [lp_id for lp_id, _ in loads]
    matches = []
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            if check(frozenset(combo), total, loads):
                matches.append(set(combo))
    assert len(matches) == 1, f"expected a unique consistent subset, got {matches}"
    return matches[0]


def rule_uniforms(seed: int, n_streams: int, start_year: int, n_days: int) -> np.ndarray:
    """The uniforms of ``n_streams`` streams, (streams, n_days), by the rule
    README documents, one group at a time.

    Group g, the years y with y // 64 = g, reads a fresh Philox keyed
    (seed, g) with its counter at 0; its output k is word k of the group.
    With C = ceil(365 S / 16) and F = 4 ceil(S / 4) for S streams, year
    j = y % 64 has the coarse words 4Cj to 4C(j + 1) - 1, and lane i =
    365 s + d of the year is bits 16 (i mod 4) to 16 (i mod 4) + 15 of its
    coarse word i // 4.  Day d of year j has the F fine words from word
    256 C + (365 j + d) F on, f being word s of them for stream s.  The
    uniform is (lane 2^37 + (f >> 27)) 2^-53.
    """
    c = -(-365 * n_streams // 16)
    f = 4 * -(-n_streams // 4)
    n_years = -(-n_days // 365)
    lanes = np.empty((n_streams, n_years, 365), dtype=np.uint64)
    fine = np.empty((n_streams, n_years, 365), dtype=np.uint64)
    for year in range(start_year, start_year + n_years):
        group, j = divmod(year, 64)
        if year == start_year or j == 0:
            # The key is built as uint64 explicitly: a plain list would not
            # hold seed 2**64 - 1 exactly.
            words = np.random.Philox(key=np.array([seed, group], dtype=np.uint64),
                                     counter=0).random_raw(256 * c + 64 * 365 * f)
        coarse = words[4 * c * j:4 * c * (j + 1)]
        all_lanes = np.stack([(coarse >> np.uint64(16 * k)) & np.uint64(0xFFFF)
                              for k in range(4)], axis=1).reshape(-1)
        lanes[:, year - start_year] = all_lanes[:365 * n_streams].reshape(n_streams, 365)
        first = 256 * c + 365 * j * f
        day_fine = words[first:first + 365 * f].reshape(365, f)
        fine[:, year - start_year] = day_fine[:, :n_streams].T
    u = (lanes.astype(np.float64) * 2.0**37 + (fine >> np.uint64(27)).astype(np.float64))
    return (u * 2.0**-53).reshape(n_streams, -1)[:, :n_days]


def reference_daily_resources(dists, fleet, seed: int, n_days: int,
                              start_year: int = 0) -> dict:
    """Each unit's resource values, by unit name, drawn over all days at once.

    The streams are laid out as README documents them: the wind regions
    sorted by id, then one irradiance stream, "shared" for the whole fleet
    or else one per PV array in fleet order.  Their uniforms follow the
    documented rule (``rule_uniforms``).  A turbine reads its region's
    stream, a PV array the shared stream or its own.
    """
    from microrel import res_models as rm

    regions = sorted(dists.wind_regions)
    arrays = [unit.name for unit in fleet if isinstance(unit.device, rm.PvArraySpec)]
    if dists.shared_irradiance:
        row_of = {name: len(regions) for name in arrays}
        n_streams = len(regions) + bool(arrays)
    else:
        row_of = {name: len(regions) + i for i, name in enumerate(arrays)}
        n_streams = len(regions) + len(arrays)
    uniforms = rule_uniforms(seed, n_streams, start_year, n_days)

    values = {}
    for unit in fleet:
        device = unit.device
        if isinstance(device, rm.WindTurbineSpec):
            u = uniforms[regions.index(device.region_id)]
            values[unit.name] = rm.sample_wind_speed(dists.wind_regions[device.region_id],
                                                     np.maximum(u, rm.MIN_UNIFORM))
        else:
            values[unit.name] = rm.sample_irradiance(dists.irradiance,
                                                     uniforms[row_of[unit.name]])
    return values


def reference_block_counts(ctx, start_year: int, n_years: int) -> np.ndarray:
    """Supplied-day counts of a block computed the straightforward way.

    The whole block is drawn at once, every unit's power curve is applied
    to its own stream's values, and each load's dispatch step builds new
    arrays.  Only the samplers and power curves are shared with the
    package.
    """
    from microrel import res_models as rm

    n_days = n_years * rm.DAYS_PER_YEAR
    values = reference_daily_resources(
        ctx.distributions, ctx.fleet, ctx.seed, n_days, start_year=start_year
    )
    total = np.zeros(n_days)
    for unit in ctx.fleet:
        curve = rm.wind_power if isinstance(unit.device, rm.WindTurbineSpec) else rm.pv_power
        total += curve(unit.device, values[unit.name])
    remaining = total.reshape(n_years, rm.DAYS_PER_YEAR)

    factors = np.asarray(ctx.load_factors)
    counts = np.zeros((n_years, len(ctx.lp_ids)), dtype=np.int64)
    if ctx.blocking:
        alive = np.ones((n_years, rm.DAYS_PER_YEAR), dtype=bool)
    remaining = remaining.copy()
    for column, level in enumerate(ctx.levels):
        need = level * factors  # (365,) broadcast over years
        fits = need <= remaining
        if ctx.blocking:
            fits &= alive
            alive = fits
        counts[:, column] = fits.sum(axis=1)
        remaining = remaining - need * fits
    return counts
