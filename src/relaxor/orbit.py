"""Construction of singular periodic orbits.

A singular periodic orbit consists of a slow segment on q = 1 from jump
point A to jump point B, an instantaneous trait drop to q = 0, a slow
segment on q = 0 from B back to A, and an instantaneous trait rise back
to q = 1.  On each slow hyperplane one prey grows exponentially while the
other prey and the predator trace a closed Lotka-Volterra level curve, so
the six slow coordinates of A and B are constrained by four conditions:
two conserved-quantity matches and two travel-time matches between the
exponential prey and the Lotka-Volterra pair.  Generically this leaves a
two-parameter family.

Both Lotka-Volterra charts -- (p1, z) around (1, 1) on q = 1 and (p2, z)
around (1, r) on q = 0 -- share one set of functions that take the
manifold tag; ``_chart`` gives the tag's predator center level ``sigma``
and prey exponent ``mu = m / sigma``.  Level curves are inverted in
closed form with the Lambert W function; travel times are integrals in
log prey with inverse-square-root singularities at the extremal prey
values, evaluated in the flow phase of the level orbit with one fixed
Gauss-Legendre rule per half orbit under the sine map that cancels those
singularities.  In ln p the 1/p factor of dp / p is gone, so the rule
keeps its accuracy on large level orbits, whose prey minimum may be 1e-8
of the maximum.

The pure chart work below the existence residual -- the level-orbit
extrema and each chart's half of the residual -- is memoized in small
bounded caches on private helpers, keyed by the exact input floats; an
exception is not cached, so a domain miss raises again on every call.

The family scan is a predictor-corrector continuation: each grid point
starts from the secant extrapolation of two converged points before it
(Allgower and Georg, "Introduction to Numerical Continuation Methods",
1990).
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchDomainError, DegenerateOrbitError, InadmissibleOrbitError,
    InconsistentEndpointsError, InconsistentJumpPairError, NoSolutionError,
    NonConvergenceError, OffOrbitError, ParameterDomainError, require_positive,
    require_samples,
)
from .lambertw import Branch, w_plus_one
from .model import ManifoldTag, Params, h0, h1, vector_field
from .quadrature import phase, sine_gauss
from .simulate import dop853_samples, solve_ivp  # solve_ivp: perfbench/tracing.py wraps it here

_log = logging.getLogger(__name__)

__all__ = [
    "Anchor", "JumpPair", "SingularOrbit", "FamilyRow", "FamilyTable",
    "lv_branch", "extrema", "eliminate", "travel_time_M1", "travel_time_M0",
    "existence_residual", "solve_jump_points", "scan_family",
    "trait_pressure_balance", "solve_balanced_orbit",
    "assemble_singular_orbit",
]

UNKNOWN_NAMES = ("p1A", "p2A", "zA", "zB")

_LEVEL_TOL = 1e-8        # conserved-level agreement required of segment endpoints
_DEGENERATE_TOL = 1e-12  # branch-point offset below which the level orbit is a point
_SOLVE_TOL = 1e-10       # sup norm of the travel-time residuals at convergence
_MAX_ITER = 60           # Newton steps before the solver gives up
_MAX_TRIALS = 8          # damped trial steps per Newton step (lambda >= 2**-7)
_TWO_PI = 2.0 * math.pi
_EXTREMA_BRANCHES = np.array([Branch.PRINCIPAL.value, Branch.LOWER.value])  # pmin, pmax
# entries kept by the memo of level-orbit extrema (_extrema), and per chart by
# the memo of chart halves (_half); a Newton step under balanced's (zA, zB)
# pins needs 2 per chart to reuse the unmoved half in both Jacobian columns
_MEMO_SIZE = 4


@dataclass(frozen=True)
class Anchor:
    """Point (prey density, predator density) fixing a Lotka-Volterra level."""

    p: float
    z: float

    def __post_init__(self):
        require_positive("anchor densities", (self.p, self.z))


def _dphi(p_end: float, delta):
    # phi(p_end) - phi(p), phi(p) = ln p - p, at the log offset delta =
    # ln p - ln p_end, accurate for tiny offsets
    return p_end * np.expm1(delta) - delta


def _chart(man: ManifoldTag, p: Params) -> tuple[float, float]:
    """(sigma, mu) of the chart on ``man``: prey against predator around (1, sigma).

    mu = m / sigma is the exponent tying the prey factor to the predator factor.
    """
    sigma = man.centre(p)
    return sigma, p.m / sigma


def _g_prey(sigma: float, mu: float, a: Anchor, z: float) -> float:
    """log(e * |W argument|) for the prey inversion at predator level ``z``."""
    ya = a.z / sigma
    yb = z / sigma
    # 1 + phi(a.p) and the predator term as logs less differences, which
    # round no sum to 1 first: near the chart's centre g keeps its relative
    # accuracy, and so do the extrema's offsets from 1
    return (math.log(a.p) - (a.p - 1.0)) + (math.log(ya / yb) - (ya - yb)) / mu


def _prey_root(b: Branch, g, w):
    """Root p on branch ``b`` of ln p - (p - 1) = g <= 0, from w = W_b(-e^(g - 1)) + 1.

    p = 1 - w cancels as the W0 root goes to 0, and inherits the rounding
    of s - 1 as the W-1 root grows.  On W0, p = exp(g - w) shrinks the
    absolute error of 1 - w by the factor p; on W-1 one Newton step on the
    equation mends it, except where p rounds to 1 and the step is 0 / 0.
    Arrays g and w give an array, bitwise the float pairs' roots.
    """
    if isinstance(g, np.ndarray):
        return np.vectorize(_prey_root, otypes=[float], excluded={0})(b, g, w)
    if b is Branch.PRINCIPAL:
        return math.exp(g - w)
    hi = 1.0 - w
    return hi if hi == 1.0 else hi - hi * (math.log(hi) - (hi - 1.0) - g) / (1.0 - hi)


# ---------------------------------------------------------------------------
# public chart operations
# ---------------------------------------------------------------------------

def lv_branch(man: ManifoldTag, prey, a: Anchor, b: Branch, p: Params):
    """Predator level z at the prey value on the chart of ``man`` (M1: p1, M0: p2).

    ``b`` selects the Lotka-Volterra branch: W-1 gives the upper half of
    the closed orbit through the anchor, W0 the lower half.
    """
    sigma, mu = _chart(man, p)
    # z / sigma solves ln y - (y - 1) = g, with g <= 0 on the level orbit.
    # Logs less differences, as in _g_prey: no sum rounds to 1 first
    ya = a.z / sigma
    g = (math.log(ya) - (ya - 1.0)) + mu * (np.log(a.p / prey) - (a.p - prey))
    if np.any(np.asarray(g) > 1e-9):
        raise OffOrbitError(
            f"p={prey} lies outside the extremal range of the level orbit "
            f"through ({a.p}, {a.z})")
    g = np.minimum(g, 0.0)
    return sigma * _prey_root(b, g, w_plus_one(b, -np.expm1(g)))


def extrema(man: ManifoldTag, a: Anchor, p: Params) -> tuple[float, float]:
    """Extremal prey values (min, max) of the level orbit through ``a`` on ``man``."""
    return _extrema(man, a, p)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _extrema(man: ManifoldTag, a: Anchor, p: Params) -> tuple[float, float]:
    sigma, mu = _chart(man, p)
    g = min(_g_prey(sigma, mu, a, sigma), 0.0)
    s = -math.expm1(g)
    if s <= _DEGENERATE_TOL:
        raise DegenerateOrbitError(f"anchor ({a.p}, {a.z}) sits at the center of the "
                                   "chart; the level orbit degenerates to a point")
    w_min, w_max = w_plus_one(_EXTREMA_BRANCHES, s)
    # W-1 has refused s = 1, so g > -38 and pmin > 0
    return (_prey_root(Branch.PRINCIPAL, g, float(w_min)),
            _prey_root(Branch.LOWER, g, float(w_max)))


def eliminate(man: ManifoldTag, a: Anchor, z: float, b: Branch, p: Params) -> float:
    """Prey coordinate on the level orbit through ``a`` on ``man`` at predator level z.

    On M1 this eliminates p1B from (p1A, zA, zB), on M0 p2B from (p2A, zA, zB).
    """
    g = _g_prey(*_chart(man, p), a, z)
    if g > 1e-12:
        raise NoSolutionError(
            f"predator level z={z} is not reached on the level "
            f"orbit through ({a.p}, {a.z})")
    g = min(g, 0.0)
    s = -math.expm1(g)
    if s >= 1.0:  # g < -37: W-1 diverges, and the W0 prey falls below 1e-16
        raise NoSolutionError(
            f"conjugate prey coordinate leaves (0, inf) at z={z} on the "
            f"level orbit through ({a.p}, {a.z})")
    return _prey_root(b, g, w_plus_one(b, s))


def _route_time(man: ManifoldTag, start: tuple[float, float], end: tuple[float, float],
                anchor: Anchor, p: Params) -> float:
    """Time along the first-arrival route on the level orbit through ``anchor``.

    A point's flow phase phi in [0, 2 pi) grows along the flow, with
    ln p = c - h cos(phi) over the log extrema [ln pmin, ln pmax]: the
    lower half (z < sigma, W0) runs over [0, pi] and the upper half (W-1)
    over [pi, 2 pi], so an end at an extremum has one phase whichever half
    it is filed under.  The route runs from the start's phase a up to the
    first phase b of the end; an end less than 1e-12 upstream of the start
    counts as reached.  The time is one integral of du / (sigma w) over
    [a, b] in u = ln p, with w = 1 - z/sigma taken on W0 where sin(phi) > 0
    and on W-1 where sin(phi) < 0.
    """
    sigma, mu = _chart(man, p)
    pmin, pmax = _extrema(man, anchor, p)

    def flow_phase(point: tuple[float, float]) -> float:
        prey, z = point
        phi = phase(prey, pmin, pmax)
        return phi if z < sigma else _TWO_PI - phi

    a = flow_phase(start) % _TWO_PI
    b = a + (flow_phase(end) - a) % _TWO_PI
    if b - a > _TWO_PI - 1e-12:
        b -= _TWO_PI

    def integrand(d_lo, d_hi, half):
        # g vanishes at both extrema; take it from the nearer one
        near_min = d_lo <= d_hi
        g = mu * _dphi(np.where(near_min, pmin, pmax), np.where(near_min, d_lo, -d_hi))
        # w_plus_one clips the few ulps of s < 0 that rounding may leave
        return 1.0 / w_plus_one(-(half % 2), -np.expm1(g))

    return sine_gauss(integrand, pmin, pmax, a, b) / sigma


def _travel_time(man: ManifoldTag, start: tuple[float, float], end: tuple[float, float],
                 p: Params) -> float:
    """Slow time from ``start`` to ``end`` on the chart of ``man``, anchored at the start."""
    p_s, z_s = start
    p_e, z_e = end
    require_positive("travel-time end points", (p_s, z_s, p_e, z_e))
    # in units of the chart's level mu (ln p - p) + ln(z/sigma) - z/sigma
    drift = abs(man.level(p_s, z_s, p) - man.level(p_e, z_e, p)) / man.centre(p)
    if not drift <= _LEVEL_TOL:
        raise InconsistentEndpointsError(
            f"endpoints lie on different conserved levels (drift {drift:.3e})")
    if abs(p_s - p_e) <= 1e-12 * max(p_s, p_e) and abs(z_s - z_e) <= 1e-12 * max(z_s, z_e):
        return 0.0
    return _route_time(man, start, end, Anchor(p_s, z_s), p)


def travel_time_M1(start: tuple[float, float], end: tuple[float, float],
                   p: Params) -> float:
    """Slow time from (p1, z) ``start`` to ``end`` along the q=1 flow."""
    return _travel_time(ManifoldTag.M1, start, end, p)


def travel_time_M0(start: tuple[float, float], end: tuple[float, float],
                   p: Params) -> float:
    """Slow time from (p2, z) ``start`` to ``end`` along the q=0 flow."""
    return _travel_time(ManifoldTag.M0, start, end, p)


# ---------------------------------------------------------------------------
# existence conditions and the jump-point solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpPair:
    """Slow coordinates of the jump points plus the slow travel times."""

    p1a: float
    p2a: float
    za: float
    p1b: float
    p2b: float
    zb: float
    t0: float
    t1: float
    # solver statistics of the solve that accepted the pair: the sup norm
    # of its travel-time residuals, its Newton steps and its residual
    # evaluations; NaN and None for a pair built any other way
    residual: float = field(default=math.nan, init=False, repr=False, compare=False)
    iterations: int | None = field(default=None, init=False, repr=False, compare=False)
    residual_evaluations: int | None = field(default=None, init=False, repr=False,
                                             compare=False)

    @property
    def period(self) -> float:
        return self.t0 + self.t1

    def a_point(self) -> np.ndarray:
        return np.array([self.p1a, self.p2a, self.za])

    def b_point(self) -> np.ndarray:
        return np.array([self.p1b, self.p2b, self.zb])

    def as_dict(self) -> dict:
        return {"p1A": self.p1a, "p2A": self.p2a, "zA": self.za,
                "p1B": self.p1b, "p2B": self.p2b, "zB": self.zb,
                "T0": self.t0, "T1": self.t1}

    @classmethod
    def from_dict(cls, d: dict) -> "JumpPair":
        return cls(d["p1A"], d["p2A"], d["zA"], d["p1B"], d["p2B"], d["zB"],
                   d["T0"], d["T1"])

    def check(self, p: Params) -> None:
        """Raise unless the jump-pair invariants hold."""
        if not (self.p1a > self.p2a and self.p1b < self.p2b):
            raise InadmissibleOrbitError(
                "jump admissibility requires p1 > p2 at A and p1 < p2 at B")
        if not (self.t0 > 0.0 and self.t1 > 0.0):
            raise InadmissibleOrbitError("jump admissibility requires T0 > 0 and T1 > 0")
        dh0 = abs(h0(self.p2a, self.za, p) - h0(self.p2b, self.zb, p))
        dh1 = abs(h1(self.p1a, self.za, p) - h1(self.p1b, self.zb, p))
        if dh0 > _LEVEL_TOL or dh1 > _LEVEL_TOL:
            raise InconsistentEndpointsError(
                f"conserved quantities differ across the jumps "
                f"(dH0={dh0:.3e}, dH1={dh1:.3e})")


@functools.lru_cache(maxsize=2 * _MEMO_SIZE)
def _half(man: ManifoldTag, prey_a: float, zA: float, zB: float,
          p: Params) -> tuple[float, float, float]:
    """(prey at B, growth time, route time) of the chart half on ``man``.

    M1 gives (p1B, T0 = ln(p1A/p1B), q = 1 route time), M0 gives
    (p2B, T1 = ln(p2B/p2A)/r, q = 0 route time).
    """
    # W0 puts p1B left of the predator nullcline on q = 1, W-1 puts p2B
    # right of it on q = 0.  The route runs A -> B on q = 1 and B -> A on
    # q = 0, and the chart's prey grows at rate sigma over the other
    # segment, from the route's end back to its start
    a = Anchor(prey_a, zA)
    on_m1 = man is ManifoldTag.M1
    prey_b = eliminate(man, a, zB, Branch.PRINCIPAL if on_m1 else Branch.LOWER, p)
    start, end = ((prey_a, zA), (prey_b, zB)) if on_m1 else ((prey_b, zB), (prey_a, zA))
    route = _route_time(man, start, end, a, p)
    return prey_b, math.log(start[0] / end[0]) / man.centre(p), route


def _pair_from_unknowns(p1A, p2A, zA, zB, p) -> JumpPair:
    """The one jump-pair builder: B by elimination, T0 and T1 from the exponential prey.

    The M1 half depends only on (p1A, zA, zB) and the M0 half only on
    (p2A, zA, zB); each is memoized, so a Jacobian column that moves one
    half's inputs reuses the other, and the pair at convergence reuses the
    last residual's halves.  Their branches, W0 on q = 1 and W-1 on
    q = 0, give the geometry of a downward jump (p1B < p2B).
    """
    p1B, t0, _ = _half(ManifoldTag.M1, p1A, zA, zB, p)
    p2B, t1, _ = _half(ManifoldTag.M0, p2A, zA, zB, p)
    return JumpPair(p1A, p2A, zA, p1B, p2B, zB, t0=t0, t1=t1)


def existence_residual(p1A: float, p2A: float, zA: float, zB: float,
                       p: Params) -> tuple[float, float]:
    """Residuals of the two travel-time conditions after eliminating B.

    The conserved-quantity conditions are satisfied identically by the
    eliminations; what remains is the agreement between the exponential
    prey growth time and the Lotka-Volterra transit time on each slow
    hyperplane.  Both residuals vanish on the two-parameter orbit family.
    Both transit times follow the travel-time route on the level orbit
    through A; the eliminations put B on that level by construction, so
    the level-drift check of ``_travel_time`` is skipped.
    """
    require_positive("jump coordinates", (p1A, p2A, zA, zB))
    _, t0, route1 = _half(ManifoldTag.M1, p1A, zA, zB, p)
    _, t1, route0 = _half(ManifoldTag.M0, p2A, zA, zB, p)
    return t1 - route1, t0 - route0


def _residual_dzb(p1A: float, p2A: float, zA: float, zB: float,
                  p: Params) -> np.ndarray | None:
    """Column d(existence_residual)/d zB in closed form; None where it is unbounded.

    Moving zB slides B along both level orbits through A, which stay put.
    With z' = m z (prey - 1) at B on each (p1B on q = 1, p2B on q = 0), the
    q = 1 route grows and the q = 0 route shrinks by dzB / z', and T1 and
    T0 follow B's prey along its level, d prey / dz = prey' / z'.  p1B and
    p2B come from the memoized chart halves, so at an iterate whose
    residual was evaluated the column costs no route.  Where p1B or p2B is
    1, z' vanishes: zB is a predator extremum of that level orbit and no
    coordinate along it.
    """
    p1B = _half(ManifoldTag.M1, p1A, zA, zB, p)[0]
    p2B = _half(ManifoldTag.M0, p2A, zA, zB, p)[0]
    rate1 = p.m * zB * (p1B - 1.0)  # z' at B on q = 1
    rate0 = p.m * zB * (p2B - 1.0)  # z' at B on q = 0
    if rate1 == 0.0 or rate0 == 0.0:
        return None
    return np.array([(p.r - zB) / (p.r * rate0) - 1.0 / rate1,
                     (zB - 1.0) / rate1 + 1.0 / rate0])


def solve_jump_points(pinned: dict, guess: dict, p: Params) -> JumpPair:
    """Solve the existence conditions for the two free jump coordinates.

    ``pinned`` fixes two of {p1A, p2A, zA, zB}; ``guess`` seeds the other
    two.  A damped Newton iteration drives the travel-time residuals below
    1e-10 (sup norm) within 60 steps.  Its Jacobian takes the column of a
    free zB in closed form and forward-differences each free coordinate of
    A, one residual evaluation per column.  The returned pair carries the
    sup norm as ``residual``, the Newton steps taken as ``iterations`` and
    the existence-residual evaluations spent as ``residual_evaluations``.
    Each step backtracks over at most 8 step lengths (down to 2**-7 of the
    Newton step): near a fold of the eliminations the iteration creeps, and
    it gives up there instead of paying for ever shorter steps.  An iterate
    outside the domain of the eliminations, the level orbits or the Lambert
    W branches counts as a failed trial step.  Where B sits at a predator
    extremum (p1B or p2B is 1) the zB column is unbounded, and the solve
    gives up with a singular Jacobian.

    Raises NonConvergenceError with the last iterate's diagnostics and the
    evaluations spent if the iteration fails; InadmissibleOrbitError if it
    converges to a point violating the jump directions; ParameterDomainError
    for a pin or guess that is not finite and positive.
    """
    pair = _newton(pinned, guess, p)
    pair.check(p)
    return pair


def _newton(pinned: dict, guess: dict, p: Params) -> JumpPair:
    """Newton core of ``solve_jump_points``: the unchecked pair."""
    pinned_names = tuple(pinned)
    free_names = tuple(n for n in UNKNOWN_NAMES if n not in pinned_names)
    if len(pinned_names) != 2 or len(free_names) != 2 or set(guess) != set(free_names):
        raise ParameterDomainError(
            f"pin exactly two of {UNKNOWN_NAMES} and guess the remaining two; "
            f"got pinned={sorted(pinned)}, guess={sorted(guess)}")
    require_positive("pinned and guessed coordinates", [*pinned.values(), *guess.values()])

    def unknowns(x: np.ndarray) -> list:
        vals = dict(pinned)
        vals.update(zip(free_names, x))
        return [vals[n] for n in UNKNOWN_NAMES]

    evaluations = 0

    def residual(x: np.ndarray):
        nonlocal evaluations
        if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
            return None
        evaluations += 1
        try:
            return np.array(existence_residual(*unknowns(x), p))
        except (NoSolutionError, DegenerateOrbitError, BranchDomainError):
            return None

    x = np.array([guess[n] for n in free_names], dtype=float)
    r = residual(x)
    if r is None:
        raise NonConvergenceError("initial guess is outside the solvable domain", x=x,
                                  evaluations=evaluations)

    for iteration in range(_MAX_ITER):
        norm = np.max(np.abs(r))
        if norm < _SOLVE_TOL:
            pair = _pair_from_unknowns(*unknowns(x), p)
            for name, value in (("residual", float(norm)), ("iterations", iteration),
                                ("residual_evaluations", evaluations)):
                object.__setattr__(pair, name, value)
            return pair

        jac = np.empty((2, 2))
        for k, name in enumerate(free_names):
            if name == "zB":
                column = _residual_dzb(*unknowns(x), p)
                if column is None:
                    raise NonConvergenceError(
                        "singular Jacobian: zB is a predator extremum of a level orbit",
                        residual=norm, iterations=iteration, x=x, evaluations=evaluations)
                jac[:, k] = column
                continue
            h = 1e-7 * max(abs(x[k]), 1.0)
            for step in (h, -h):
                xk = x.copy()
                xk[k] += step
                rk = residual(xk)
                if rk is not None:
                    jac[:, k] = (rk - r) / step
                    break
            else:
                raise NonConvergenceError(
                    "cannot difference the residual at the current iterate",
                    residual=norm, iterations=iteration, x=x, evaluations=evaluations)
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NonConvergenceError("singular Jacobian", residual=norm, iterations=iteration,
                                      x=x, evaluations=evaluations) from None

        lam = 1.0
        for _ in range(_MAX_TRIALS):
            x_new = x + lam * delta
            r_new = residual(x_new)
            if r_new is not None and np.max(np.abs(r_new)) < norm * (1.0 - 1e-4 * lam):
                x, r = x_new, r_new
                break
            lam *= 0.5
        else:
            raise NonConvergenceError("line search stalled", residual=norm,
                                      iterations=iteration, x=x, evaluations=evaluations)

    raise NonConvergenceError("no convergence within the iteration budget",
                              residual=float(np.max(np.abs(r))),
                              iterations=_MAX_ITER, x=x, evaluations=evaluations)


def trait_pressure_balance(j: JumpPair, p: Params) -> tuple[float, float]:
    """Net trait pressure integral of (p1 - p2) over each slow segment.

    While the system rides q = 1, the distance of the trait from 1
    contracts or expands like exp(-integral of (p1 - p2)/eps); the ride
    ends where the net integral since touch-down returns to zero.  A
    family member with both integrals zero is therefore the orbit an
    actual small-eps solution hovers near; the constructed family at
    large carries no such guarantee.

    Along the slow flow H_0 = (p1 - ln p1) + (p2 - ln p2) + (z - (1+r) ln z)/m
    has dH_0/dt = -r (p1 - p2) on q = 1 and p1 - p2 on q = 0.  Adding h0 and
    h1 gives m H_0 = -(h0 + h1) - z, and h0 and h1 each match at A and B, so
    H_0(A) - H_0(B) = (zB - zA)/m: the orbit is balanced iff zA = zB.
    """
    dh = (j.zb - j.za) / p.m  # H_0(A) - H_0(B)
    return dh / p.r, dh


def solve_balanced_orbit(guess: dict, p: Params) -> JumpPair:
    """Solve for a family member with zero net trait pressure.

    The balanced orbits form the one-parameter symmetric sub-family with
    equal predator levels at both jumps (see trait_pressure_balance), so
    the construction pins zA = zB at the level suggested by the guess and
    solves the two travel-time conditions for (p1A, p2A).  ``guess``
    supplies starting values for all of {p1A, p2A, zA, zB}; the two
    predator entries are averaged into the pinned level.

    These are the orbits direct simulation settles onto: a small-eps
    trajectory hugs this sub-family and drifts slowly along it.
    """
    if set(guess) != set(UNKNOWN_NAMES):
        raise ParameterDomainError(f"guess must supply exactly {UNKNOWN_NAMES}")
    z_level = 0.5 * (guess["zA"] + guess["zB"])
    return solve_jump_points({"zA": z_level, "zB": z_level},
                             {"p1A": guess["p1A"], "p2A": guess["p2A"]}, p)


# ---------------------------------------------------------------------------
# family scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyRow:
    r: float
    m: float
    pinned: dict
    jump: JumpPair


@dataclass
class FamilyTable:
    """Converged, admissible jump pairs over a grid of the pinned parameters.

    ``iterations`` and ``residual_evaluations`` total the Newton steps and
    existence-residual evaluations of every solve the scan made, failed
    solves included.
    """

    pin_names: tuple[str, str]
    rows: list[FamilyRow] = field(default_factory=list)
    iterations: int = 0
    residual_evaluations: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    _COORDS = ("p1A", "p2A", "zA", "p1B", "p2B", "zB", "T0", "T1")

    def _row_dict(self, row: FamilyRow) -> dict:
        out = {"r": row.r, "m": row.m}
        out.update({f"pin_{k}": row.pinned[k] for k in self.pin_names})
        out.update(row.jump.as_dict())  # keyed in _COORDS order
        out["residual"] = row.jump.residual
        return out

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([self._row_dict(r) for r in self.rows], fh, indent=1)

    def to_csv(self, path) -> None:
        columns = (["r", "m"] + [f"pin_{k}" for k in self.pin_names]
                   + list(self._COORDS) + ["residual"])
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: repr(v) for k, v in self._row_dict(row).items()})


def scan_family(p: Params, grid: tuple[np.ndarray, np.ndarray], seed_guess: dict,
                pin_names: tuple[str, str] = ("p1A", "zA")) -> FamilyTable:
    """Predictor-corrector continuation of the orbit family over a grid of pinned values.

    Grid points are visited in a serpentine order.  Each point is first
    solved from a predicted guess, the secant extrapolation 2 x1 - x2 of
    the free coordinates of the two points before it in its row's
    visiting order, or else of the two points before it in its column;
    the prediction needs both to have converged and is skipped unless
    positive.  Next come the free coordinates of the point before it in
    its row and of the point beside it in the row before, where these
    converged, then ``seed_guess``.  Each seed is solved exactly as
    ``solve_jump_points`` solves it.  Only converged, admissible jump
    pairs become rows; an empty table is a valid outcome.  Each point
    without a row is logged at INFO with its pins, the number of seeds
    tried and the last error.  Rows are ordered by grid index regardless
    of the visit order, and the table totals the solver work of the
    whole grid.  Invalid input, such as a nonpositive pin or a misnamed
    guess, raises ParameterDomainError instead of dropping grid points.
    """
    free_names = tuple(n for n in UNKNOWN_NAMES if n not in pin_names)
    values1, values2 = (np.asarray(g, dtype=float) for g in grid)
    solved: dict[tuple[int, int], np.ndarray] = {}  # free coordinates of converged points
    table = FamilyTable(pin_names)
    rows: dict[tuple[int, int], FamilyRow] = {}

    def guess_at(x: np.ndarray) -> dict:
        return dict(zip(free_names, x.tolist()))

    def prediction(i: int, j: int, back: int):
        """Secant guess at (i, j), or None."""
        for n1, n2 in (((i, j - back), (i, j - 2 * back)), ((i - 1, j), (i - 2, j))):
            if n1 in solved and n2 in solved:
                x = 2.0 * solved[n1] - solved[n2]
                return guess_at(x) if np.all(x > 0.0) else None
        return None

    for i, v1 in enumerate(values1):
        back = 1 if i % 2 == 0 else -1  # step from a point to the one visited before it
        j_order = range(len(values2)) if back == 1 else reversed(range(len(values2)))
        for j in j_order:
            v2 = values2[j]
            predicted = prediction(i, j, back)
            seeds = [] if predicted is None else [predicted]
            seeds += [guess_at(solved[n]) for n in ((i, j - back), (i - 1, j)) if n in solved]
            seeds.append(dict(seed_guess))
            pinned = {pin_names[0]: float(v1), pin_names[1]: float(v2)}
            for guess in seeds:
                try:
                    pair = _newton(pinned, guess, p)
                    table.iterations += pair.iterations
                    table.residual_evaluations += pair.residual_evaluations
                    pair.check(p)
                except (NonConvergenceError, InadmissibleOrbitError,
                        InconsistentEndpointsError) as err:
                    if isinstance(err, NonConvergenceError):
                        table.iterations += err.iterations or 0
                        table.residual_evaluations += err.evaluations
                    # text, not the error: its traceback would hold this frame
                    last_error = f"{type(err).__name__}: {err}"
                    continue
                rows[(i, j)] = FamilyRow(r=p.r, m=p.m, pinned=pinned, jump=pair)
                d = pair.as_dict()
                solved[(i, j)] = np.array([d[k] for k in free_names])
                break
            else:
                _log.info("scan point %s: no row after %d seeds; last error %s",
                          pinned, len(seeds), last_error)

    table.rows = [row for _, row in sorted(rows.items())]
    return table


# ---------------------------------------------------------------------------
# orbit assembly
# ---------------------------------------------------------------------------

@dataclass
class SingularOrbit:
    """Time-parameterized singular periodic orbit.

    The clock starts at the upward jump: the q=1 segment runs on
    [0, T1] from A to B, the q=0 segment on [T1, T1+T0] from B back to A.
    The trait jumps contribute no slow time.
    """

    params: Params
    jumps: JumpPair
    t_m1: np.ndarray
    y_m1: np.ndarray  # (n, 3) slow coordinates on q = 1
    t_m0: np.ndarray
    y_m0: np.ndarray  # (n, 3) slow coordinates on q = 0

    def __post_init__(self):
        for t, y in ((self.t_m1, self.y_m1), (self.t_m0, self.y_m0)):
            if np.ndim(t) != 1 or len(t) == 0 or np.shape(y) != (len(t), 3):
                raise ParameterDomainError(
                    "each slow segment needs (n, 3) states at its n >= 1 times")

    @property
    def period(self) -> float:
        return self.jumps.period

    @property
    def times(self) -> np.ndarray:
        return np.concatenate([self.t_m1, self.t_m0])

    @property
    def states(self) -> np.ndarray:
        q1 = np.ones((len(self.t_m1), 1))
        q0 = np.zeros((len(self.t_m0), 1))
        return np.vstack([np.hstack([self.y_m1, q1]), np.hstack([self.y_m0, q0])])

    def slow_points(self) -> np.ndarray:
        return np.vstack([self.y_m1, self.y_m0])

    def jump_times(self) -> list[tuple[float, str]]:
        return [(0.0, "up"), (self.jumps.t1, "down"), (self.period, "up")]

    def to_dict(self) -> dict:
        return {
            "kind": "singular_orbit",
            "r": self.params.r, "m": self.params.m,
            "jumps": self.jumps.as_dict(),
            "t_m1": self.t_m1.tolist(), "y_m1": self.y_m1.tolist(),
            "t_m0": self.t_m0.tolist(), "y_m0": self.y_m0.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SingularOrbit":
        orbit = cls(
            params=Params(d["r"], d["m"]),
            jumps=JumpPair.from_dict(d["jumps"]),
            t_m1=np.asarray(d["t_m1"]), y_m1=np.asarray(d["y_m1"]),
            t_m0=np.asarray(d["t_m0"]), y_m0=np.asarray(d["y_m0"]),
        )
        if not np.all(np.diff(orbit.times) > 0.0):  # also refuses NaN times
            raise ParameterDomainError("orbit times must increase strictly across both segments")
        require_positive("orbit times T0, T1 and densities p1, p2, z",
                         [*orbit.jumps.as_dict().values(), *orbit.slow_points().ravel().tolist()])
        return orbit

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict()))

    @classmethod
    def from_json(cls, path) -> "SingularOrbit":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _integrate_slow_segment(y0: np.ndarray, duration: float, man: ManifoldTag,
                            p: Params, samples: int) -> tuple[np.ndarray, np.ndarray]:
    # the full field at q exactly 1 or 0, where q' is exactly 0: q never
    # moves and the first three components are the slow flow of slow_rhs
    times = np.linspace(0.0, duration, samples)

    def failed(t, reason):
        return InconsistentJumpPairError(
            f"slow segment integration failed at t={t:g}: {reason}")

    states, _, _ = dop853_samples(vector_field(p, 1.0), np.append(y0, man.trait),
                                   times, 1e-12, 1e-12, 0.0, failed)
    return times, states[:, :3]


def assemble_singular_orbit(j: JumpPair, p: Params,
                            samples_per_segment: int = 400) -> SingularOrbit:
    """Integrate the two slow segments and concatenate them into an orbit.

    Each segment is stepped once with ``simulate.dop853_samples``, the
    library's one DOP853 driver, on the full ``vector_field`` with q held
    at exactly 1 or 0 (rtol = atol = 1e-12, no step cap) and sampled at
    ``samples_per_segment`` equally spaced times.

    The q=1 segment starts at A and must land on B after time T1 (and the
    q=0 segment back on A after T0) to within 1e-6 per slow coordinate;
    otherwise the jump pair does not close up and an
    InconsistentJumpPairError is raised.  A sample count below 2 or not
    whole, or a T0 or T1 not finite and > 0, raises ParameterDomainError.
    """
    require_samples("samples per slow segment", samples_per_segment)
    require_positive("slow travel times T0, T1", (j.t0, j.t1))
    t1, y1 = _integrate_slow_segment(j.a_point(), j.t1, ManifoldTag.M1, p,
                                     samples_per_segment)
    miss1 = np.max(np.abs(y1[-1] - j.b_point()))
    t0, y0 = _integrate_slow_segment(j.b_point(), j.t0, ManifoldTag.M0, p,
                                     samples_per_segment)
    miss0 = np.max(np.abs(y0[-1] - j.a_point()))
    if max(miss0, miss1) > 1e-6:
        raise InconsistentJumpPairError(
            f"slow segments do not close up (A->B miss {miss1:.3e}, "
            f"B->A miss {miss0:.3e})")
    # drop the duplicated seam sample so the concatenated times increase strictly
    return SingularOrbit(params=p, jumps=j,
                         t_m1=t1, y_m1=y1,
                         t_m0=(j.t1 + t0)[1:], y_m0=y0[1:])
