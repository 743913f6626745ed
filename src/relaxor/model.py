"""Model equations for the fast-slow one-predator/two-prey system.

The rescaled system in the slow time is

    p1' = (1 - q z) p1
    p2' = (r - (1 - q) z) p2
    z'  = (q p1 + (1 - q) p2 - 1) m z
    eps q' = q (1 - q) (p1 - p2)

with free parameters 0 < r < 1 and m > 0.  In the singular limit the
trait q collapses onto the union of three hyperplanes: q = 0 (the
predator eats only prey 2), q = 1 (only prey 1), and the switching plane
p1 = p2.  On q = 0 the pair (p2, z) is a Lotka-Volterra oscillator with
first integral H0 while p1 grows exponentially; on q = 1 the roles of the
prey swap and (p1, z) conserves H1.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import scipy_module
from .errors import ParameterDomainError, SingularScalingError, UnsupportedManifoldError

__all__ = [
    "UnscaledParams", "Params", "State", "ManifoldTag", "ScalingMap",
    "rescale", "vector_field", "full_rhs", "slow_rhs", "fast_heteroclinic",
    "conserved_quantity", "h0", "h1", "full_integral",
    "coexistence_equilibrium", "characteristic_roots",
]


class ManifoldTag(enum.Enum):
    """Branch of the critical manifold."""

    M0 = "M0"    # q = 0
    M1 = "M1"    # q = 1
    MSW = "Msw"  # p1 = p2 (switching plane)


@dataclass(frozen=True)
class Params:
    """Rescaled model parameters."""

    r: float
    m: float

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ParameterDomainError(f"require 0 < r < 1, got r={self.r}")
        if not 0.0 < self.m < math.inf:
            raise ParameterDomainError(f"require finite m > 0, got m={self.m}")


@dataclass(frozen=True)
class UnscaledParams:
    """Parameters of the original (dimensional) model.

    The predation rates are fixed at beta1 = beta2 = 1; adaptive diet
    choice is modeled through the trait, not through the attack rates,
    and a common predation rate can always be scaled into the predator
    density.
    """

    r1: float
    r2: float
    m: float
    e: float
    q2: float
    V: float = 1.0
    eps_raw: float = 0.0
    beta1: float = 1.0
    beta2: float = 1.0

    def __post_init__(self):
        if min(self.r1, self.r2, self.e, self.m) <= 0.0:
            raise ParameterDomainError("r1, r2, e, m must all be positive")
        if not (0.0 <= self.q2 <= 1.0):
            raise ParameterDomainError(f"require q2 in [0, 1], got {self.q2}")
        if self.V <= 0.0:
            raise ParameterDomainError("V must be positive")
        if self.eps_raw < 0.0:
            raise ParameterDomainError("eps_raw must be non-negative")
        if not self.r1 > self.r2:
            raise ParameterDomainError(
                f"prey trade-off requires r1 > r2, got r1={self.r1}, r2={self.r2}")
        if self.beta1 != self.beta2:
            raise ParameterDomainError("beta1 and beta2 must coincide")
        if self.beta1 != 1.0:
            raise ParameterDomainError(
                "predation rates are normalized to 1 (rescale z to absorb them)")


@dataclass(frozen=True)
class State:
    """Point (p1, p2, z, q) of the four-dimensional phase space."""

    p1: float
    p2: float
    z: float
    q: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.p1, self.p2, self.z)):
            raise ParameterDomainError("densities p1, p2, z must be finite and positive")
        if not (0.0 <= self.q <= 1.0):
            raise ParameterDomainError(f"require q in [0, 1], got q={self.q}")

    def to_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.z, self.q], dtype=float)

    @classmethod
    def from_array(cls, y) -> "State":
        p1, p2, z, q = (float(v) for v in y)
        return cls(p1, p2, z, q)


@dataclass(frozen=True)
class ScalingMap:
    """Invertible change of variables between unscaled and rescaled systems.

    rescaled = original / scale for each of (t, p1, p2, z); the trait q is
    untouched.  ``eps`` maps as eps_rescaled = eps_raw / (m_rescaled * V).
    """

    t_scale: float
    p1_scale: float
    p2_scale: float
    z_scale: float
    eps_scale: float

    def to_rescaled_state(self, s: State) -> State:
        return State(s.p1 / self.p1_scale, s.p2 / self.p2_scale,
                     s.z / self.z_scale, s.q)

    def to_unscaled_state(self, s: State) -> State:
        return State(s.p1 * self.p1_scale, s.p2 * self.p2_scale,
                     s.z * self.z_scale, s.q)

    def to_rescaled_time(self, t: float) -> float:
        return t / self.t_scale

    def to_unscaled_time(self, t: float) -> float:
        return t * self.t_scale

    def to_rescaled_eps(self, eps_raw: float) -> float:
        return eps_raw / self.eps_scale

    def to_unscaled_eps(self, eps: float) -> float:
        return eps * self.eps_scale


def rescale(u: UnscaledParams) -> tuple[Params, ScalingMap]:
    """Reduce the unscaled model to the two-parameter form (r, m).

    Applies t -> t/r1, p1 -> (m r1/e) p1, p2 -> (m r1/(e q2)) p2,
    z -> r1 z, m -> r1 m, r2 -> r r1, eps -> eps m V (with m the rescaled
    death rate in the population and eps scales).
    """
    if u.q2 == 0.0:
        raise SingularScalingError("q2 = 0 leaves the p2 scale undefined")
    params = Params(r=u.r2 / u.r1, m=u.m / u.r1)
    # original = scale * rescaled
    scaling = ScalingMap(
        t_scale=1.0 / u.r1,
        p1_scale=params.m * u.r1 / u.e,
        p2_scale=params.m * u.r1 / (u.e * u.q2),
        z_scale=u.r1,
        eps_scale=params.m * u.V,
    )
    return params, scaling


def _as_state4(s) -> np.ndarray:
    if isinstance(s, State):
        return s.to_array()
    y = np.asarray(s, dtype=float)
    if y.shape != (4,):
        raise ParameterDomainError(f"expected a 4-component state, got shape {y.shape}")
    return y


def vector_field(p: Params, eps: float):
    """The full system as ``f(t, y) -> (p1', p2', z', q')`` in slow time.

    This is the one definition of the four equations; ``full_rhs`` checks
    its arguments and evaluates it, and the integrators call it unchecked.
    ``y`` is a float ndarray of shape (4,) or (4, n).  A (4,) state is
    unpacked to Python floats, whose arithmetic is the same IEEE
    arithmetic as on numpy scalars but runs at about half the cost per
    call; a (4, n) array of n states gives four length-n arrays, bitwise
    equal to n stacked (4,) calls.
    """
    r, m = p.r, p.m

    def rhs(t, y):
        p1, p2, z, q = y.tolist() if y.ndim == 1 else y
        return ((1.0 - q * z) * p1,
                (r - (1.0 - q) * z) * p2,
                (q * p1 + (1.0 - q) * p2 - 1.0) * m * z,
                q * (1.0 - q) * (p1 - p2) / eps)

    return rhs


def full_rhs(s, p: Params, eps: float) -> np.ndarray:
    """Time derivative (p1', p2', z', q') of the full system in slow time."""
    if eps == 0.0:
        raise ParameterDomainError(
            "eps = 0 is the singular limit; use slow_rhs on M0/M1 and "
            "fast_heteroclinic for the layer dynamics instead")
    if eps < 0.0:
        raise ParameterDomainError(f"require eps > 0, got {eps}")
    return np.array(vector_field(p, eps)(0.0, _as_state4(s)))


_SLOW_TRAIT = {ManifoldTag.M0: 0.0, ManifoldTag.M1: 1.0}


def slow_rhs(s3, p: Params, man: ManifoldTag) -> np.ndarray:
    """Reduced slow vector field for (p1, p2, z) on M0 or M1.

    The first three components of ``vector_field`` at q = 0 or q = 1,
    where the trait equation vanishes for any eps.
    """
    q = _SLOW_TRAIT.get(man)
    if q is None:
        raise UnsupportedManifoldError(
            "the slow flow is only defined on M0 and M1; the switching plane "
            "carries no reduced dynamics")
    p1, p2, z = (float(v) for v in s3)
    return np.array(vector_field(p, 1.0)(0.0, np.array([p1, p2, z, q]))[:3])


def fast_heteroclinic(tau, p1: float, p2: float):
    """Explicit layer solution q(tau) joining q = 0 and q = 1.

    Solves q' = q (1 - q) (p1 - p2) at frozen slow coordinates, gauged so
    that q(0) = 1/2.  Monotone in tau; for p1 != p2 the limits are 0 and 1.
    """
    # scipy.special.expit itself, from its compiled file alone
    expit = scipy_module("special._special_ufuncs", "expit").expit
    out = expit((p1 - p2) * np.asarray(tau, dtype=float))
    return float(out) if out.ndim == 0 else out


def h0(p2, z, p: Params):
    """First integral of the (p2, z) oscillation on M0."""
    return p.m * np.log(p2) - p.m * p2 + p.r * np.log(z) - z


def h1(p1, z, p: Params):
    """First integral of the (p1, z) oscillation on M1."""
    return p.m * np.log(p1) - p.m * p1 + np.log(z) - z


def full_integral(s, p: Params, eps: float):
    """First integral H_eps of the full system, conserved for every eps > 0.

        H_eps = (p1 - ln p1) + (p2 - ln p2) + (z - (1+r) ln z)/m
                - eps (ln q + r ln(1 - q))

    Along ``vector_field`` the z, p1, p2 and constant terms of dH/dt
    cancel separately.  ``s`` is a State or an array with states along
    its last axis; H_eps is infinite on the invariant planes q = 0, 1.
    """
    y = s.to_array() if isinstance(s, State) else np.asarray(s, dtype=float)
    if y.shape[-1:] != (4,):
        raise ParameterDomainError(f"expected states along a last axis of 4, got shape {y.shape}")
    p1, p2, z, q = np.moveaxis(y, -1, 0)
    r, m = p.r, p.m
    return ((p1 - np.log(p1)) + (p2 - np.log(p2)) + (z - (1.0 + r) * np.log(z)) / m
            - eps * (np.log(q) + r * np.log1p(-q)))


def conserved_quantity(man: ManifoldTag, s3, p: Params) -> float:
    """Evaluate the conserved quantity of the slow flow on M0 or M1."""
    p1, p2, z = (float(v) for v in s3)
    if min(p1, p2, z) <= 0.0:
        raise ParameterDomainError("densities must be positive")
    if man is ManifoldTag.M0:
        return float(h0(p2, z, p))
    if man is ManifoldTag.M1:
        return float(h1(p1, z, p))
    raise UnsupportedManifoldError("no conserved quantity is defined on the switching plane")


def coexistence_equilibrium(p: Params) -> State:
    """Unique interior steady state (1, 1, 1+r, 1/(1+r)) of the full system."""
    return State(1.0, 1.0, 1.0 + p.r, 1.0 / (1.0 + p.r))


def characteristic_roots(p: Params) -> np.ndarray:
    """Eigenvalues at the coexistence equilibrium, in conjugate pairs.

    Roots of lambda^4 + ((m + 2r + m r^2)/(1+r)) lambda^2 + m r = 0 via
    the quadratic formula in lambda^2.  Both lambda^2 roots are real and
    negative for all admissible (r, m), so the four eigenvalues are purely
    imaginary; they are returned as [i w1, -i w1, i w2, -i w2] with
    w1 <= w2 and exactly zero real part.
    """
    b = (p.m + 2.0 * p.r + p.m * p.r ** 2) / (1.0 + p.r)
    c = p.m * p.r
    disc = b * b - 4.0 * c  # = (m (1+r^2) - 2r)^2/(1+r)^2 + 8r^2(...) > 0
    sq = math.sqrt(max(disc, 0.0))
    lam2 = np.array([(-b + sq) / 2.0, (-b - sq) / 2.0])
    omegas = np.sqrt(-lam2)  # lam2 < 0: product c > 0, sum -b < 0
    w1, w2 = np.sort(omegas)
    return np.array([1j * w1, -1j * w1, 1j * w2, -1j * w2])
