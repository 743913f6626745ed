"""Fixed Gauss-Legendre quadrature under the sine map of a bounded interval.

A point x of [lo, hi] has the phase phi with x = c - h cos(phi), where c
and h are the midpoint and half-width: phi runs from lo to hi over [0, pi]
and back over [pi, 2 pi].  Then dx = h sin(phi) dphi = +-sqrt(d_lo * d_hi)
dphi, with d_lo = x - lo and d_hi = hi - x.  That factor cancels an
inverse square root at either end, so one 64-node Gauss-Legendre rule on
each half [k pi, (k+1) pi] integrates such integrands to about 1e-12
relative.

Integrands receive, besides the node coordinate, its exact offsets from
both ends.  Integrands with an endpoint singularity must compute the
singular factor from the offset; reconstructing it from the rounded
coordinate flattens the accuracy at ~1e-8 for inverse square roots.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["phase", "sine_gauss"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_SNAP_ULPS = 8  # in ulps of lo or hi

# f(x, d_lo, d_hi, half) -> values; all four arguments are ndarrays, where
# x = lo + d_lo = hi - d_hi are points strictly inside (lo, hi), one row per
# half, and the column half, which broadcasts against them, holds the index
# k of each row's half [k pi, (k+1) pi].
Integrand = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def phase(x: float, lo: float, hi: float) -> float:
    """Phase of ``x`` in [0, pi]: x = c - h cos(phase) over [lo, hi].

    The phase is taken from the offset to the nearer end; acos((c - x) / h)
    would place an end 1.5e-8 inside 0 or pi.  An end beyond lo or hi, or
    within 8 ulps inside, lies on it: it is the same extremum computed from
    another point of the level, and its few ulps of offset would enter the
    integral through their square root.
    """
    two_h = hi - lo
    d_lo, d_hi = x - lo, hi - x
    if d_lo <= d_hi:
        if d_lo <= _SNAP_ULPS * math.ulp(lo):
            return 0.0
        return 2.0 * math.asin(math.sqrt(d_lo / two_h))
    if d_hi <= _SNAP_ULPS * math.ulp(hi):
        return math.pi
    return math.pi - 2.0 * math.asin(math.sqrt(d_hi / two_h))


def sine_gauss(f: Integrand, lo: float, hi: float, a: float, b: float) -> float:
    """Integral of ``f`` dx along the phases from ``a`` to ``b`` over [lo, hi].

    dx is positive on even halves, where x grows with the phase, and
    negative on odd ones.  The result is signed: it is negative for a > b.
    """
    if a == b:
        return 0.0
    start, stop = min(a, b), max(a, b)
    halves = range(math.floor(start / math.pi), math.ceil(stop / math.pi))
    edges = np.array([start, *(k * math.pi for k in halves[1:]), stop])
    mid, half_width = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    half_phi = 0.5 * (mid[:, None] + half_width[:, None] * _NODES)
    two_h = hi - lo
    sin_half, cos_half = np.sin(half_phi), np.cos(half_phi)
    d_lo, d_hi = two_h * sin_half ** 2, two_h * cos_half ** 2
    x = np.where(d_lo <= d_hi, lo + d_lo, hi - d_hi)
    values = f(x, d_lo, d_hi, np.array(halves)[:, None])
    # dx / dphi = h sin(phi), negative on odd halves
    total = float(half_width @ ((values * (two_h * sin_half * cos_half)) @ _WEIGHTS))
    return total if a < b else -total
