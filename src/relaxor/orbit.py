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
around (1, r) on q = 0 -- are handled by one engine parameterized by the
center level ``sigma`` of the predator.  Level curves are inverted in
closed form with the Lambert W function; travel times are integrals with
inverse-square-root singularities at the extremal prey values, evaluated
piece by piece between the extrema with one fixed Gauss-Legendre rule
under the sine map that cancels those singularities.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DegenerateOrbitError, InadmissibleOrbitError, InconsistentEndpointsError,
    InconsistentJumpPairError, NoSolutionError, NonConvergenceError,
    OffOrbitError, ParameterDomainError, UnsupportedManifoldError,
)
from .lambertw import Branch, w_plus_one
from .model import ManifoldTag, Params, h0, h1, slow_rhs
from .quadrature import _angle, sine_gauss

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
_HALF_PI, _TWO_PI = 0.5 * math.pi, 2.0 * math.pi
_HALF_BRANCH = (Branch.PRINCIPAL, Branch.LOWER)  # W0 on even halves, W-1 on odd ones


@dataclass(frozen=True)
class Anchor:
    """Point (prey density, predator density) fixing a Lotka-Volterra level."""

    p: float
    z: float

    def __post_init__(self):
        if self.p <= 0.0 or self.z <= 0.0:
            raise ParameterDomainError("anchor densities must be positive")


def _phi(p):
    return np.log(p) - p


def _dphi(p_end: float, offset):
    # phi(p_end) - phi(p_end + offset), accurate for tiny offsets
    return -np.log1p(offset / p_end) + offset


class _LvChart:
    """One Lotka-Volterra slow chart: prey p against predator z around (1, sigma)."""

    def __init__(self, sigma: float, m: float):
        self.sigma = sigma
        self.mu = m / sigma  # exponent tying the prey factor to the predator factor

    # -- level-set bookkeeping -------------------------------------------------

    def level(self, p, z):
        y = z / self.sigma
        return self.mu * _phi(p) + np.log(y) - y

    def g_of(self, p, anchor: Anchor) -> float:
        """log(e * |W argument|) for the z inversion; <= 0 on the level orbit."""
        ya = anchor.z / self.sigma
        return 1.0 + math.log(ya) - ya + self.mu * (_phi(anchor.p) - _phi(p))

    def g_conjugate(self, anchor: Anchor, z_target: float) -> float:
        """Same quantity for the prey inversion at predator level ``z_target``."""
        ya = anchor.z / self.sigma
        yb = z_target / self.sigma
        return 1.0 + _phi(anchor.p) + (math.log(ya / yb) + yb - ya) / self.mu

    # -- closed-form inversions ------------------------------------------------

    def z_on_level(self, p, anchor: Anchor, branch: Branch):
        g = self.g_of(p, anchor)
        if np.any(np.asarray(g) > 1e-9):
            raise OffOrbitError(
                f"p={p} lies outside the extremal range of the level orbit "
                f"through ({anchor.p}, {anchor.z})")
        s = -np.expm1(np.minimum(g, 0.0))
        return self.sigma * (1.0 - w_plus_one(branch, s))

    def extrema(self, anchor: Anchor) -> tuple[float, float]:
        s = -math.expm1(min(self.g_conjugate(anchor, self.sigma), 0.0))
        if s <= _DEGENERATE_TOL:
            raise DegenerateOrbitError(
                f"anchor ({anchor.p}, {anchor.z}) sits at the center of the "
                "chart; the level orbit degenerates to a point")
        pmin = 1.0 - w_plus_one(Branch.PRINCIPAL, s)
        pmax = 1.0 - w_plus_one(Branch.LOWER, s)
        return float(pmin), float(pmax)

    def conjugate_p(self, anchor: Anchor, z_target: float, branch: Branch) -> float:
        """Prey coordinate on the anchor level at predator level ``z_target``."""
        g = self.g_conjugate(anchor, z_target)
        if g > 1e-12:
            raise NoSolutionError(
                f"predator level z={z_target} is not reached on the level "
                f"orbit through ({anchor.p}, {anchor.z})")
        s = -math.expm1(min(g, 0.0))
        if branch is Branch.LOWER and s >= 1.0:  # exp(g) underflowed
            raise NoSolutionError(
                f"conjugate prey coordinate diverges at z={z_target} on the "
                f"level orbit through ({anchor.p}, {anchor.z})")
        return float(1.0 - w_plus_one(branch, s))

    # -- travel-time integrals ---------------------------------------------

    def piece_time(self, pa: float, pb: float, branch: Branch,
                   ext: tuple[float, float]) -> float:
        """Signed time integral along one half between prey values pa and pb.

        ``branch`` selects the half (W0 lower, W-1 upper) and ``ext`` holds
        the extrema (pmin, pmax) of the level orbit.
        """
        pmin, pmax = ext
        sigma, mu = self.sigma, self.mu

        def integrand(x, d_lo, d_hi):
            # g vanishes at both extrema; take it from the nearer one
            g = mu * np.where(d_lo <= d_hi, _dphi(pmin, d_lo), _dphi(pmax, -d_hi))
            s = -np.expm1(np.minimum(g, 0.0))
            return 1.0 / (sigma * w_plus_one(branch, s) * x)

        return sine_gauss(integrand, pmin, pmax, pa, pb)

    # -- route along the flow ------------------------------------------------

    def phase(self, point: tuple[float, float], ext: tuple[float, float]) -> float:
        """Flow phase of ``point`` in [0, 2 pi]: p = c - h cos(phase).

        The phase is 0 at pmin and pi at pmax; the lower half (z < sigma)
        runs over [0, pi] and the upper half over [pi, 2 pi], so an end at
        an extremum has one phase whichever half it is filed under.
        """
        p, z = point
        phi = _angle(p, *ext) + _HALF_PI
        return phi if z < self.sigma else _TWO_PI - phi

    def route_time(self, start: tuple[float, float], end: tuple[float, float],
                   anchor: Anchor) -> float:
        """Time along the first-arrival route on the level orbit through ``anchor``.

        The route runs from the start's phase a up to the first phase b of
        the end; an end less than 1e-12 upstream of the start counts as
        reached.  It is split at the extrema it passes, the multiples of pi,
        into one piece per half [k pi, (k+1) pi], integrated with W0 for
        even k and W-1 for odd k.
        """
        ext = self.extrema(anchor)
        a = self.phase(start, ext) % _TWO_PI
        b = a + (self.phase(end, ext) - a) % _TWO_PI
        if b - a > _TWO_PI - 1e-12:
            b -= _TWO_PI
        half = math.floor(min(a, b) / math.pi)
        time, pa = 0.0, start[0]
        while (half + 1) * math.pi < b:  # the route passes the extremum ending this half
            pb = ext[(half + 1) % 2]
            time += self.piece_time(pa, pb, _HALF_BRANCH[half % 2], ext)
            half, pa = half + 1, pb
        return time + self.piece_time(pa, end[0], _HALF_BRANCH[half % 2], ext)

    def travel_time(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        p_s, z_s = start
        p_e, z_e = end
        drift = abs(self.level(p_s, z_s) - self.level(p_e, z_e))
        if drift > _LEVEL_TOL:
            raise InconsistentEndpointsError(
                f"endpoints lie on different conserved levels (drift {drift:.3e})")
        if abs(p_s - p_e) <= 1e-12 * max(p_s, p_e) and abs(z_s - z_e) <= 1e-12 * max(z_s, z_e):
            return 0.0
        return self.route_time(start, end, Anchor(p_s, z_s))


def _chart(man: ManifoldTag, p: Params) -> _LvChart:
    if man is ManifoldTag.M1:
        return _LvChart(sigma=1.0, m=p.m)
    if man is ManifoldTag.M0:
        return _LvChart(sigma=p.r, m=p.m)
    raise UnsupportedManifoldError(
        "the Lotka-Volterra charts live on M0 and M1; the switching plane has none")


# ---------------------------------------------------------------------------
# public chart operations
# ---------------------------------------------------------------------------

def lv_branch(man: ManifoldTag, prey, a: Anchor, b: Branch, p: Params):
    """Predator level z at the prey value on the chart of ``man`` (M1: p1, M0: p2).

    ``b`` selects the Lotka-Volterra branch: W-1 gives the upper half of
    the closed orbit through the anchor, W0 the lower half.
    """
    return _chart(man, p).z_on_level(prey, a, b)


def extrema(man: ManifoldTag, a: Anchor, p: Params) -> tuple[float, float]:
    """Extremal prey values (min, max) of the level orbit through ``a`` on ``man``."""
    return _chart(man, p).extrema(a)


def eliminate(man: ManifoldTag, a: Anchor, z: float, b: Branch, p: Params) -> float:
    """Prey coordinate on the level orbit through ``a`` on ``man`` at predator level z.

    On M1 this eliminates p1B from (p1A, zA, zB), on M0 p2B from (p2A, zA, zB).
    """
    return _chart(man, p).conjugate_p(a, z, b)


def travel_time_M1(start: tuple[float, float], end: tuple[float, float],
                   p: Params) -> float:
    """Slow time from (p1, z) ``start`` to ``end`` along the q=1 flow."""
    return _chart(ManifoldTag.M1, p).travel_time(start, end)


def travel_time_M0(start: tuple[float, float], end: tuple[float, float],
                   p: Params) -> float:
    """Slow time from (p2, z) ``start`` to ``end`` along the q=0 flow."""
    return _chart(ManifoldTag.M0, p).travel_time(start, end)


# ---------------------------------------------------------------------------
# existence conditions and the jump-point solver
# ---------------------------------------------------------------------------

def _eliminations(p1A: float, p2A: float, zA: float, zB: float,
                  p: Params) -> tuple[float, float]:
    # W0 puts p1B left of the predator nullcline on q = 1 and W-1 puts p2B
    # right of it on q = 0: the geometry of a downward jump (p1B < p2B)
    p2B = _chart(ManifoldTag.M0, p).conjugate_p(Anchor(p2A, zA), zB, Branch.LOWER)
    p1B = _chart(ManifoldTag.M1, p).conjugate_p(Anchor(p1A, zA), zB, Branch.PRINCIPAL)
    return p1B, p2B


def existence_residual(p1A: float, p2A: float, zA: float, zB: float,
                       p: Params) -> tuple[float, float]:
    """Residuals of the two travel-time conditions after eliminating B.

    The conserved-quantity conditions are satisfied identically by the
    eliminations; what remains is the agreement between the exponential
    prey growth time and the Lotka-Volterra transit time on each slow
    hyperplane.  Both residuals vanish on the two-parameter orbit family.
    Both transit times follow the travel-time route on the level orbit
    through A; the eliminations put B on that level by construction, so
    the level-drift check of ``travel_time`` is skipped.
    """
    if min(p1A, p2A, zA, zB) <= 0.0:
        raise ParameterDomainError("jump coordinates must be positive")
    p1B, p2B = _eliminations(p1A, p2A, zA, zB, p)
    t1 = _chart(ManifoldTag.M1, p).route_time((p1A, zA), (p1B, zB), Anchor(p1A, zA))
    t0 = _chart(ManifoldTag.M0, p).route_time((p2B, zB), (p2A, zA), Anchor(p2A, zA))
    res1 = math.log(p2B / p2A) / p.r - t1
    res2 = math.log(p1A / p1B) - t0
    return res1, res2


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
            raise InadmissibleOrbitError("slow travel times must be positive")
        dh0 = abs(h0(self.p2a, self.za, p) - h0(self.p2b, self.zb, p))
        dh1 = abs(h1(self.p1a, self.za, p) - h1(self.p1b, self.zb, p))
        if dh0 > _LEVEL_TOL or dh1 > _LEVEL_TOL:
            raise InconsistentEndpointsError(
                f"conserved quantities differ across the jumps "
                f"(dH0={dh0:.3e}, dH1={dh1:.3e})")


def _pair_from_unknowns(p1A, p2A, zA, zB, p) -> JumpPair:
    p1B, p2B = _eliminations(p1A, p2A, zA, zB, p)
    t1 = math.log(p2B / p2A) / p.r
    t0 = math.log(p1A / p1B)
    return JumpPair(p1A, p2A, zA, p1B, p2B, zB, t0, t1)


def solve_jump_points(pinned: dict, guess: dict, p: Params) -> JumpPair:
    """Solve the existence conditions for the two free jump coordinates.

    ``pinned`` fixes two of {p1A, p2A, zA, zB}; ``guess`` seeds the other
    two.  A damped Newton iteration with a forward-difference Jacobian
    drives the travel-time residuals below 1e-10 (sup norm) within 60 steps.

    Raises NonConvergenceError with the last iterate's diagnostics if the
    iteration fails; InadmissibleOrbitError if it converges to a point
    violating the jump directions.
    """
    pinned_names = tuple(pinned)
    free_names = tuple(n for n in UNKNOWN_NAMES if n not in pinned_names)
    if len(pinned_names) != 2 or len(free_names) != 2 or set(guess) != set(free_names):
        raise ParameterDomainError(
            f"pin exactly two of {UNKNOWN_NAMES} and guess the remaining two; "
            f"got pinned={sorted(pinned)}, guess={sorted(guess)}")

    def unknowns(x: np.ndarray) -> list:
        vals = dict(pinned)
        vals.update(zip(free_names, x))
        return [vals[n] for n in UNKNOWN_NAMES]

    def residual(x: np.ndarray):
        if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
            return None
        try:
            return np.array(existence_residual(*unknowns(x), p))
        except (NoSolutionError, OffOrbitError, DegenerateOrbitError):
            return None

    x = np.array([guess[n] for n in free_names], dtype=float)
    r = residual(x)
    if r is None:
        raise NonConvergenceError("initial guess is outside the solvable domain", x=x)

    for iteration in range(_MAX_ITER):
        norm = np.max(np.abs(r))
        if norm < _SOLVE_TOL:
            pair = _pair_from_unknowns(*unknowns(x), p)
            pair.check(p)
            return pair

        jac = np.empty((2, 2))
        for k in range(2):
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
                    residual=norm, iterations=iteration, x=x)
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NonConvergenceError("singular Jacobian", residual=norm,
                                      iterations=iteration, x=x) from None

        lam = 1.0
        for _ in range(20):
            x_new = x + lam * delta
            r_new = residual(x_new)
            if r_new is not None and np.max(np.abs(r_new)) < norm * (1.0 - 1e-4 * lam):
                x, r = x_new, r_new
                break
            lam *= 0.5
        else:
            raise NonConvergenceError(
                "line search stalled", residual=norm, iterations=iteration, x=x)

    raise NonConvergenceError("no convergence within the iteration budget",
                              residual=float(np.max(np.abs(r))),
                              iterations=_MAX_ITER, x=x)


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
    residual: float


@dataclass
class FamilyTable:
    """Converged, admissible jump pairs over a grid of the pinned parameters."""

    pin_names: tuple[str, str]
    rows: list[FamilyRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    _COORDS = ("p1A", "p2A", "zA", "p1B", "p2B", "zB", "T0", "T1")

    def _row_dict(self, row: FamilyRow) -> dict:
        out = {"r": row.r, "m": row.m}
        out.update({f"pin_{k}": row.pinned[k] for k in self.pin_names})
        out.update(row.jump.as_dict())  # keyed in _COORDS order
        out["residual"] = row.residual
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
    """Continuation scan of the orbit family over a grid of pinned values.

    Grid points are visited in a serpentine order; each solve is seeded
    with the free coordinates of the nearest previously converged
    neighbor (falling back to ``seed_guess``).  Only converged, admissible
    jump pairs become rows; an empty table is a valid outcome.  Rows are
    ordered by grid index regardless of the visit order.  Invalid input,
    such as a nonpositive pin or a misnamed guess, raises
    ParameterDomainError instead of dropping grid points.
    """
    free_names = tuple(n for n in UNKNOWN_NAMES if n not in pin_names)
    values1, values2 = (np.asarray(g, dtype=float) for g in grid)
    solutions: dict[tuple[int, int], JumpPair] = {}

    for i, v1 in enumerate(values1):
        j_order = range(len(values2)) if i % 2 == 0 else reversed(range(len(values2)))
        for j in j_order:
            v2 = values2[j]
            seeds = []
            for ni, nj in ((i, j - 1), (i, j + 1), (i - 1, j)):
                sol = solutions.get((ni, nj))
                if sol is not None:
                    d = sol.as_dict()
                    seeds.append({k: d[k] for k in free_names})
            seeds.append(dict(seed_guess))
            pinned = {pin_names[0]: float(v1), pin_names[1]: float(v2)}
            for guess in seeds:
                try:
                    pair = solve_jump_points(pinned, guess, p)
                except (NonConvergenceError, InadmissibleOrbitError,
                        InconsistentEndpointsError, NoSolutionError,
                        DegenerateOrbitError):
                    continue
                solutions[(i, j)] = pair
                break

    table = FamilyTable(pin_names=pin_names)
    for i in range(len(values1)):
        for j in range(len(values2)):
            pair = solutions.get((i, j))
            if pair is None:
                continue
            res = existence_residual(pair.p1a, pair.p2a, pair.za, pair.zb, p)
            table.rows.append(FamilyRow(
                r=p.r, m=p.m,
                pinned={pin_names[0]: float(values1[i]), pin_names[1]: float(values2[j])},
                jump=pair, residual=float(np.max(np.abs(res)))))
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
        return cls(
            params=Params(d["r"], d["m"]),
            jumps=JumpPair.from_dict(d["jumps"]),
            t_m1=np.asarray(d["t_m1"]), y_m1=np.asarray(d["y_m1"]),
            t_m0=np.asarray(d["t_m0"]), y_m0=np.asarray(d["y_m0"]),
        )

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict()))

    @classmethod
    def from_json(cls, path) -> "SingularOrbit":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _integrate_slow_segment(y0: np.ndarray, duration: float, man: ManifoldTag,
                            p: Params, samples: int) -> tuple[np.ndarray, np.ndarray]:
    sol = solve_ivp(lambda t, y: slow_rhs(y, p, man), (0.0, duration), y0,
                    method="DOP853", rtol=1e-12, atol=1e-12,
                    t_eval=np.linspace(0.0, duration, samples), dense_output=False)
    if not sol.success:
        raise InconsistentJumpPairError(f"slow segment integration failed: {sol.message}")
    return sol.t, sol.y.T


def assemble_singular_orbit(j: JumpPair, p: Params,
                            samples_per_segment: int = 400) -> SingularOrbit:
    """Integrate the two slow segments and concatenate them into an orbit.

    The q=1 segment starts at A and must land on B after time T1 (and the
    q=0 segment back on A after T0) to within 1e-6 per slow coordinate;
    otherwise the jump pair does not close up and an
    InconsistentJumpPairError is raised.
    """
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
