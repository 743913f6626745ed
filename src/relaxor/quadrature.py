"""Fixed Gauss-Legendre quadrature under the sine map of a log interval.

For 0 < lo < hi, a point x of [lo, hi] has the phase phi with
ln x = c - h cos(phi), where c and h are the midpoint and half-width of
[ln lo, ln hi]: phi runs from lo to hi over [0, pi] and back over
[pi, 2 pi].  Then du = h sin(phi) dphi = +-sqrt(d_lo * d_hi) dphi in
u = ln x, with d_lo = ln x - ln lo and d_hi = ln hi - ln x.  That factor
cancels an inverse square root at either end, and the logarithm takes the
1/x of an integrand dx / x into the variable: no spike is left where lo
is far below hi.  One rule of 40 nodes on each half [k pi, (k+1) pi]
gives the travel times of level orbits whose prey minimum is 1e-9 of the
maximum to about 1e-11 relative.

Integrands receive the exact log offsets of each node from both ends and
return the integrand of du.  Integrands with an endpoint singularity must
compute the singular factor from the offset; reconstructing it from the
rounded coordinate flattens the accuracy at ~1e-8 for inverse square roots.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["phase", "sine_gauss"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(40)
_SNAP_ULPS = 8  # in ulps of lo or hi

# f(d_lo, d_hi, half) -> values of the integrand of du; all three arguments
# are ndarrays, where d_lo = ln x - ln lo and d_hi = ln hi - ln x are the log
# offsets of points x strictly inside (lo, hi), one row per half, and the
# column half, which broadcasts against them, holds the index k of each
# row's half [k pi, (k+1) pi].
Integrand = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def phase(x: float, lo: float, hi: float) -> float:
    """Phase of ``x`` in [0, pi]: ln x = c - h cos(phase) over [ln lo, ln hi].

    The phase is taken from the log offset to the nearer end; acos((c - ln
    x) / h) would place an end 1.5e-8 inside 0 or pi.  An end beyond lo or
    hi, or within 8 ulps of lo or hi inside, lies on it: it is the same
    extremum computed from another point of the level, and its few ulps
    of offset would enter the integral through their square root.  The
    ulps are those of x, not of ln x, which is near 0 at the extrema of a
    level orbit near its centre.
    """
    d_lo, d_hi = x - lo, hi - x
    if d_lo <= _SNAP_ULPS * math.ulp(lo):
        return 0.0
    if d_hi <= _SNAP_ULPS * math.ulp(hi):
        return math.pi
    u_lo, u_hi = math.log1p(d_lo / lo), math.log1p(d_hi / x)
    if u_lo <= u_hi:
        return 2.0 * math.asin(math.sqrt(u_lo / (u_lo + u_hi)))
    return math.pi - 2.0 * math.asin(math.sqrt(u_hi / (u_lo + u_hi)))


def sine_gauss(f: Integrand, lo: float, hi: float, a: float, b: float) -> float:
    """Integral of ``f`` du, u = ln x, along the phases from ``a`` to ``b`` over [lo, hi].

    du is positive on even halves, where x grows with the phase, and
    negative on odd ones.  The result is signed: it is negative for a > b.
    """
    if a == b:
        return 0.0
    start, stop = min(a, b), max(a, b)
    halves = range(math.floor(start / math.pi), math.ceil(stop / math.pi))
    edges = [start, *(k * math.pi for k in halves[1:]), stop]
    # each half's midpoint and half-width of phi / 2, one row per half
    quarter = np.array([(0.25 * (e0 + e1), 0.25 * (e1 - e0)) for e0, e1 in zip(edges, edges[1:])])
    half_phi = quarter[:, :1] + quarter[:, 1:] * _NODES
    two_h = math.log1p((hi - lo) / lo)  # ln hi - ln lo, to a few ulps however close
    sin_half, cos_half = np.sin(half_phi), np.cos(half_phi)
    values = f(two_h * sin_half ** 2, two_h * cos_half ** 2, np.array(halves)[:, None])
    # du / dphi = h sin(phi) = 2h sin(phi/2) cos(phi/2), negative on odd halves,
    # and dphi = 2 quarter[:, 1] per unit of the nodes
    total = 2.0 * two_h * float(quarter[:, 1] @ ((values * sin_half * cos_half) @ _WEIGHTS))
    return total if a < b else -total
