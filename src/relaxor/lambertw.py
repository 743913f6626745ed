"""Real Lambert W function on the two real branches.

Solves ``w * exp(w) = x`` for real ``x``.  The principal branch W0 is
defined on ``x >= -1/e`` and returns ``w >= -1``; the lower branch W-1 is
defined on ``-1/e <= x < 0`` and returns ``w <= -1``.

Both branches are evaluated by scipy's Lambert W away from the branch
point ``x = -1/e``: the compiled ufunc behind ``scipy.special.lambertw``,
called as that wrapper calls it, so the values are bitwise scipy's while
only the one compiled file of ``scipy.special`` is loaded, never the
package.  Close to the branch point scipy is unusable: it returns NaN
at the rounded ``-1/e`` and, at its default tolerance, W-1 is off by up to
1e-4 relative for ``e*x + 1`` near 5e-9.  Below ``s = e*x + 1 = 1e-4`` a
7-term series in ``p = +-sqrt(2*s)`` is used instead; it is exact to about
1e-15 there, and scipy agrees with high-precision references to 1e-14 above.

Everything here accepts scalars or numpy arrays and is pure/thread-safe.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._scipy import scipy_module
from .errors import BranchDomainError

__all__ = ["Branch", "lambert_w", "w_plus_one"]

_E = math.e
# Arguments whose offset from the branch point is below this are snapped onto
# the branch point itself; slightly more negative arguments (rounding noise
# from upstream formulas) are treated the same instead of erroring.
_BRANCH_SNAP = 1e-12
# Offsets s = e*x + 1 below this use the branch-point series, above it scipy.
_SERIES_CUTOFF = 1e-4


class Branch(enum.Enum):
    """Real branch selector: W0 (principal) or W-1 (lower)."""

    PRINCIPAL = 0
    LOWER = -1

    def __str__(self):
        return "W0" if self is Branch.PRINCIPAL else "W-1"


# each branch's scipy index as the C ``long`` the ufunc takes: a scalar call
# with a ready 0-d array skips a conversion
_LONG_INDEX = {b: np.asarray(b.value, dtype=np.dtype("long")) for b in Branch}


def _lambertw_ufunc():
    """The compiled ufunc behind ``scipy.special.lambertw``.

    The loader's cache makes the lookup one dictionary read per call.
    """
    return scipy_module("special._special_ufuncs", "_lambertw")._lambertw


def _scipy_lambertw(x, k):
    """``scipy.special.lambertw(x, k).real``, without the ``scipy.special`` package.

    Calls the ufunc that wrapper calls, with the same arguments: ``k`` as a
    C ``long`` array and its default ``tol = 1e-8``.
    """
    return _lambertw_ufunc()(x, np.asarray(k, dtype=np.dtype("long")), 1e-8).real


def _series_plus_one(lower, s: np.ndarray) -> np.ndarray:
    """Branch-point series for ``W(-(1-s)/e) + 1``, exact to ~1e-15 for s < 1e-4."""
    # Clipping keeps the values finite where the caller selects scipy's instead.
    p = np.sqrt(2.0 * np.minimum(s, _SERIES_CUTOFF))
    return _series_in_p(np.where(lower, -p, p))


def _series_in_p(p):
    # W(-1/e + p^2/(2e)) + 1 = p - p^2/3 + 11 p^3/72 - 43 p^4/540 + ...
    # with p signed: positive for W0, negative for W-1.  The same operations
    # on a float and on an array element give the same bits.
    return p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0
                + p * (-43.0 / 540.0 + p * (769.0 / 17280.0
                + p * (-221.0 / 8505.0 + p * (680863.0 / 43545600.0)))))))


def lambert_w(branch: Branch, x):
    """Evaluate the requested real branch of the Lambert W function.

    Parameters
    ----------
    branch : Branch
        ``Branch.PRINCIPAL`` for W0 or ``Branch.LOWER`` for W-1.
    x : float or array_like
        Argument(s); must lie in the branch domain.

    Returns
    -------
    float or ndarray
        ``w`` with ``w * exp(w) = x`` to relative residual <= 1e-13.

    Raises
    ------
    BranchDomainError
        If any argument lies outside the branch domain (beyond a ~1e-12
        snap tolerance at the branch point).
    """
    if branch not in (Branch.PRINCIPAL, Branch.LOWER):  # pragma: no cover
        raise ValueError(f"unknown branch {branch!r}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    bad = ~np.isfinite(arr)
    if bad.any():
        raise BranchDomainError(branch, float(arr[bad].flat[0]),
                                "non-finite Lambert W argument")
    s = _E * arr + 1.0
    if branch is Branch.PRINCIPAL:
        bad, need = s < -_BRANCH_SNAP, "W0 requires x >= -1/e"
    else:
        bad, need = (s < -_BRANCH_SNAP) | (arr >= 0.0), "W-1 requires -1/e <= x < 0"
    if bad.any():
        raise BranchDomainError(branch, float(arr[bad].flat[0]), need)
    s = np.maximum(s, 0.0)
    w = np.where(s < _SERIES_CUTOFF, _series_plus_one(branch is Branch.LOWER, s) - 1.0,
                 _scipy_lambertw(arr, branch.value))
    w = np.maximum(w, -1.0) if branch is Branch.PRINCIPAL else np.minimum(w, -1.0)
    return float(w[0]) if scalar else w


def w_plus_one(branch, s):
    """``W(-(1-s)/e) + 1`` for ``s >= 0``, accurate for tiny ``s``.

    ``s`` is the scaled offset of the W argument from the branch point
    (``s = e*x + 1``).  Passing the offset instead of ``x`` avoids the
    catastrophic cancellation that makes ``lambert_w(b, x) + 1`` lose all
    precision as ``x`` approaches ``-1/e``; callers that know the offset
    analytically (conserved-level inversions near the orbit extrema) get
    full relative precision for the distance from the branch value -1.

    ``branch`` is a ``Branch`` or an array of scipy branch indices
    (0 for W0, -1 for W-1) broadcast against ``s``.  Positive on the
    principal branch, negative on the lower branch.  A ``Branch`` with a
    float ``s`` in [0, 1) is answered on floats, several times faster
    than through arrays and bitwise the same.
    """
    if isinstance(branch, Branch) and isinstance(s, float) and 0.0 <= s < 1.0:
        return _w_plus_one_float(branch, s)
    k = branch.value if isinstance(branch, Branch) else np.asarray(branch)
    s = np.maximum(np.asarray(s, dtype=float), 0.0)
    # Negative s is clipped above, so only the far end of the domain can be
    # violated: x = (s - 1)/e must stay finite, and below 0 for W-1.  Offsets
    # below 1 (and no NaN) are in the domain of both branches.
    if not s.max(initial=0.0) < 1.0:
        bad = ~(s < np.where(k == Branch.LOWER.value, 1.0, math.inf))
        if bad.any():
            first = np.flatnonzero(bad)[0]
            b = Branch(int(np.broadcast_to(k, bad.shape).flat[first]))
            x = (np.broadcast_to(s, bad.shape).flat[first] - 1.0) / _E
            raise BranchDomainError(b, float(x), f"{b} requires s = e*x + 1 in its domain")
    # Above the cutoff, forming x and adding 1 back costs at most
    # ~1e-16/sqrt(2s) relative.  The series is paid for only when some
    # element needs it; elementwise arithmetic keeps every value bitwise
    # that of a call on the element alone.
    out = _scipy_lambertw((s - 1.0) / _E, k) + 1.0
    near = s < _SERIES_CUTOFF
    if near.any():
        out = np.where(near, _series_plus_one(k == Branch.LOWER.value, s), out)
    return float(out) if np.ndim(out) == 0 else out


def _w_plus_one_float(branch: Branch, s: float) -> float:
    """``w_plus_one`` of one offset in [0, 1), on floats: bitwise the array path.

    The array path's operations, on one element, without its array
    conversions and masks; the ufunc's scalar call runs the same compiled
    loop.
    """
    if s < _SERIES_CUTOFF:
        p = math.sqrt(2.0 * s)
        return _series_in_p(-p if branch is Branch.LOWER else p)
    return float(_lambertw_ufunc()((s - 1.0) / _E, _LONG_INDEX[branch], 1e-8).real) + 1.0
