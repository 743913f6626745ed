"""Fixed Gauss-Legendre quadrature under the sine map of a bounded interval.

The substitution x = c + h sin(theta), with c and h the midpoint and
half-width of [lo, hi], turns dx into sqrt(d_lo * d_hi) dtheta, where
d_lo = x - lo and d_hi = hi - x.  That factor cancels an inverse square
root at either end, so one 64-node Gauss-Legendre rule in theta integrates
such integrands over [lo, hi], or over any sub-interval of it, to about
1e-12 relative.

Integrands receive, besides the node coordinate, its exact offsets from
both ends.  Integrands with an endpoint singularity must compute the
singular factor from the offset; reconstructing it from the rounded
coordinate flattens the accuracy at ~1e-8 for inverse square roots.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["sine_gauss"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_HALF_PI = 0.5 * math.pi
_SNAP_ULPS = 8  # in ulps of lo or hi

# f(x, d_lo, d_hi) -> values; all three arguments are ndarrays, where
# x = lo + d_lo = hi - d_hi are points strictly inside (lo, hi).
Integrand = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _angle(x: float, lo: float, hi: float) -> float:
    # theta of x, from its offset to the nearer end; asin((x - c) / h) would
    # place an end 1.5e-8 inside -pi/2 or pi/2.  An end beyond lo or hi, or
    # within _SNAP_ULPS inside, lies on it: it is the same extremum computed
    # from another point of the level, and its few ulps of offset would
    # enter the integral through their square root.
    two_h = hi - lo
    d_lo, d_hi = x - lo, hi - x
    if d_lo <= d_hi:
        if d_lo <= _SNAP_ULPS * math.ulp(lo):
            return -_HALF_PI
        return 2.0 * math.asin(math.sqrt(d_lo / two_h)) - _HALF_PI
    if d_hi <= _SNAP_ULPS * math.ulp(hi):
        return _HALF_PI
    return _HALF_PI - 2.0 * math.asin(math.sqrt(d_hi / two_h))


def sine_gauss(f: Integrand, lo: float, hi: float, a: float, b: float) -> float:
    """Integral of ``f`` from ``a`` to ``b``, both taken inside [lo, hi].

    The result is signed: it is negative for a > b.  Ends beyond [lo, hi],
    or within 8 ulps inside it, are snapped onto the nearer end.
    """
    theta_a, theta_b = _angle(a, lo, hi), _angle(b, lo, hi)
    if theta_a == theta_b:
        return 0.0
    half = 0.5 * (theta_b - theta_a)
    theta = 0.5 * (theta_a + theta_b) + half * _NODES
    two_h = hi - lo
    d_lo = two_h * np.sin(0.5 * (theta + _HALF_PI)) ** 2
    d_hi = two_h * np.sin(0.5 * (_HALF_PI - theta)) ** 2
    x = np.where(d_lo <= d_hi, lo + d_lo, hi - d_hi)
    return half * float(np.dot(_WEIGHTS, f(x, d_lo, d_hi) * np.sqrt(d_lo * d_hi)))
