"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and shares no code with the
implementation under test: the beta CDF is integrated numerically from the
density, dispatch outcomes are found by enumerating subsets, and the KS
statistic is computed from the empirical CDF definition.
"""

from __future__ import annotations

import math
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
