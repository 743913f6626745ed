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
inverse-square-root endpoint singularities at the extremal prey values,
evaluated with tanh-sinh quadrature split exactly at the extrema.
"""

from __future__ import annotations

import csv
import enum
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
from .quadrature import tanh_sinh

__all__ = [
    "Anchor", "BranchChoice", "JumpPair", "SingularOrbit", "FamilyRow", "FamilyTable",
    "lv_branch", "extrema", "eliminate", "travel_time_M1", "travel_time_M0",
    "existence_residual", "solve_jump_points", "scan_family",
    "trait_pressure_balance", "solve_balanced_orbit",
    "assemble_singular_orbit",
]

UNKNOWN_NAMES = ("p1A", "p2A", "zA", "zB")

_LEVEL_TOL = 1e-8        # conserved-level agreement required of segment endpoints
_DEGENERATE_TOL = 1e-12  # branch-point offset below which the level orbit is a point


class Side(enum.Enum):
    """Half of a Lotka-Volterra level curve, split at the prey extrema."""

    LOWER = "lower"  # z < center level; prey increases along the flow
    UPPER = "upper"  # z > center level; prey decreases along the flow


_SIDE_BRANCH = {Side.LOWER: Branch.PRINCIPAL, Side.UPPER: Branch.LOWER}


@dataclass(frozen=True)
class Anchor:
    """Point (prey density, predator density) fixing a Lotka-Volterra level."""

    p: float
    z: float

    def __post_init__(self):
        if self.p <= 0.0 or self.z <= 0.0:
            raise ParameterDomainError("anchor densities must be positive")


@dataclass(frozen=True)
class BranchChoice:
    """Lambert branches used to eliminate the B coordinates.

    The default (W0 for p1B, W-1 for p2B) places B left of the predator
    nullcline on q = 1 and right of it on q = 0, which is the geometry of
    a downward jump (p1B < p2B).
    """

    p1b: Branch = Branch.PRINCIPAL
    p2b: Branch = Branch.LOWER


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

    def g_extremum(self, anchor: Anchor) -> float:
        """Same quantity for the prey-extremum inversion (z at the center level)."""
        ya = anchor.z / self.sigma
        return 1.0 + _phi(anchor.p) + (1.0 + math.log(ya) - ya) / self.mu

    # -- closed-form inversions ------------------------------------------------

    def z_on_level(self, p, anchor: Anchor, side: Side):
        g = self.g_of(p, anchor)
        if np.any(np.asarray(g) > 1e-9):
            raise OffOrbitError(
                f"p={p} lies outside the extremal range of the level orbit "
                f"through ({anchor.p}, {anchor.z})")
        s = -np.expm1(np.minimum(g, 0.0))
        return self.sigma * (1.0 - w_plus_one(_SIDE_BRANCH[side], s))

    def extrema(self, anchor: Anchor) -> tuple[float, float]:
        s = -math.expm1(min(self.g_extremum(anchor), 0.0))
        if s <= _DEGENERATE_TOL:
            raise DegenerateOrbitError(
                f"anchor ({anchor.p}, {anchor.z}) sits at the center of the "
                "chart; the level orbit degenerates to a point")
        pmin = 1.0 - w_plus_one(Branch.PRINCIPAL, s)
        pmax = 1.0 - w_plus_one(Branch.LOWER, s)
        return float(pmin), float(pmax)

    def conjugate_p(self, anchor: Anchor, z_target: float, branch: Branch) -> float:
        """Prey coordinate on the anchor level at predator level ``z_target``."""
        ya = anchor.z / self.sigma
        yb = z_target / self.sigma
        g = 1.0 + _phi(anchor.p) + (math.log(ya / yb) + yb - ya) / self.mu
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

    def piece_time(self, pa: float, pb: float, side: Side, anchor: Anchor) -> float:
        """Signed time integral along one side between prey values pa and pb."""
        if pa == pb:
            return 0.0
        ga = min(self.g_of(pa, anchor), 0.0)
        gb = min(self.g_of(pb, anchor), 0.0)
        direction = 1.0 if pb >= pa else -1.0
        branch = _SIDE_BRANCH[side]
        sigma, mu = self.sigma, self.mu

        def integrand(x, d_lo, d_hi):
            # g at the nodes from the nearer end, accurate for tiny offsets
            g = np.where(d_lo <= d_hi, ga + mu * _dphi(pa, direction * d_lo),
                         gb + mu * _dphi(pb, -direction * d_hi))
            s = -np.expm1(np.minimum(g, 0.0))
            return 1.0 / (sigma * w_plus_one(branch, s) * x)

        return tanh_sinh(integrand, pa, pb)

    # -- path construction ---------------------------------------------------

    def side_of(self, p: float, z: float, pmin: float, pmax: float, role: str) -> Side:
        if z > self.sigma * (1.0 + 1e-9):
            return Side.UPPER
        if z < self.sigma * (1.0 - 1e-9):
            return Side.LOWER
        # at an extremum: starts launch onto the next side, ends arrive
        # from the previous one (the flow runs lower -> pmax -> upper -> pmin)
        at_max = abs(p - pmax) < abs(p - pmin)
        if role == "start":
            return Side.UPPER if at_max else Side.LOWER
        return Side.LOWER if at_max else Side.UPPER

    def path_pieces(self, start: tuple[float, float], end: tuple[float, float],
                    anchor: Anchor) -> list[tuple[float, float, Side]]:
        """First-arrival route from start to end along the flow direction."""
        p_s, z_s = start
        p_e, z_e = end
        pmin, pmax = self.extrema(anchor)
        side_s = self.side_of(p_s, z_s, pmin, pmax, "start")
        side_e = self.side_of(p_e, z_e, pmin, pmax, "end")

        def downstream(side: Side, a: float, b: float) -> bool:
            slack = 1e-12 * max(abs(a), abs(b))
            return b >= a - slack if side is Side.LOWER else b <= a + slack

        if side_s is side_e and downstream(side_s, p_s, p_e):
            return [(p_s, p_e, side_s)]
        if side_s is Side.LOWER and side_e is Side.UPPER:
            return [(p_s, pmax, Side.LOWER), (pmax, p_e, Side.UPPER)]
        if side_s is Side.UPPER and side_e is Side.LOWER:
            return [(p_s, pmin, Side.UPPER), (pmin, p_e, Side.LOWER)]
        if side_s is Side.LOWER:  # same side, upstream: wrap once
            return [(p_s, pmax, Side.LOWER), (pmax, pmin, Side.UPPER),
                    (pmin, p_e, Side.LOWER)]
        return [(p_s, pmin, Side.UPPER), (pmin, pmax, Side.LOWER),
                (pmax, p_e, Side.UPPER)]

    def route_time(self, start: tuple[float, float], end: tuple[float, float],
                   anchor: Anchor) -> float:
        """Time along the first-arrival route on the level orbit through ``anchor``."""
        return sum(self.piece_time(a, b, side, anchor)
                   for a, b, side in self.path_pieces(start, end, anchor))

    def travel_time(self, start: tuple[float, float], end: tuple[float, float],
                    level_tol: float = _LEVEL_TOL) -> float:
        p_s, z_s = start
        p_e, z_e = end
        drift = abs(self.level(p_s, z_s) - self.level(p_e, z_e))
        if drift > level_tol:
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
    side = Side.UPPER if b is Branch.LOWER else Side.LOWER
    return _chart(man, p).z_on_level(prey, a, side)


def extrema(man: ManifoldTag, a: Anchor, p: Params) -> tuple[float, float]:
    """Extremal prey values (min, max) of the level orbit through ``a`` on ``man``."""
    return _chart(man, p).extrema(a)


def eliminate(man: ManifoldTag, a: Anchor, z: float, b: Branch, p: Params) -> float:
    """Prey coordinate on the level orbit through ``a`` on ``man`` at predator level z.

    On M1 this eliminates p1B from (p1A, zA, zB), on M0 p2B from (p2A, zA, zB).
    """
    return _chart(man, p).conjugate_p(a, z, b)


def travel_time_M1(start: tuple[float, float], end: tuple[float, float],
                   p: Params, level_tol: float = _LEVEL_TOL) -> float:
    """Slow time from (p1, z) ``start`` to ``end`` along the q=1 flow."""
    return _chart(ManifoldTag.M1, p).travel_time(start, end, level_tol)


def travel_time_M0(start: tuple[float, float], end: tuple[float, float],
                   p: Params, level_tol: float = _LEVEL_TOL) -> float:
    """Slow time from (p2, z) ``start`` to ``end`` along the q=0 flow."""
    return _chart(ManifoldTag.M0, p).travel_time(start, end, level_tol)


# ---------------------------------------------------------------------------
# existence conditions and the jump-point solver
# ---------------------------------------------------------------------------

def _eliminations(p1A: float, p2A: float, zA: float, zB: float,
                  branches: BranchChoice, p: Params) -> tuple[float, float]:
    p2B = _chart(ManifoldTag.M0, p).conjugate_p(Anchor(p2A, zA), zB, branches.p2b)
    p1B = _chart(ManifoldTag.M1, p).conjugate_p(Anchor(p1A, zA), zB, branches.p1b)
    return p1B, p2B


def existence_residual(p1A: float, p2A: float, zA: float, zB: float,
                       branches: BranchChoice, p: Params) -> tuple[float, float]:
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
    p1B, p2B = _eliminations(p1A, p2A, zA, zB, branches, p)
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

    def check(self, p: Params, tol: float = 1e-8) -> None:
        """Raise unless the jump-pair invariants hold."""
        if not (self.p1a > self.p2a and self.p1b < self.p2b):
            raise InadmissibleOrbitError(
                "jump admissibility requires p1 > p2 at A and p1 < p2 at B")
        if not (self.t0 > 0.0 and self.t1 > 0.0):
            raise InadmissibleOrbitError("slow travel times must be positive")
        dh0 = abs(h0(self.p2a, self.za, p) - h0(self.p2b, self.zb, p))
        dh1 = abs(h1(self.p1a, self.za, p) - h1(self.p1b, self.zb, p))
        if dh0 > tol or dh1 > tol:
            raise InconsistentEndpointsError(
                f"conserved quantities differ across the jumps "
                f"(dH0={dh0:.3e}, dH1={dh1:.3e})")


def _pair_from_unknowns(p1A, p2A, zA, zB, branches, p) -> JumpPair:
    p1B, p2B = _eliminations(p1A, p2A, zA, zB, branches, p)
    t1 = math.log(p2B / p2A) / p.r
    t0 = math.log(p1A / p1B)
    return JumpPair(p1A, p2A, zA, p1B, p2B, zB, t0, t1)


def solve_jump_points(pinned: dict, guess: dict, p: Params,
                      branches: BranchChoice = BranchChoice(),
                      tol: float = 1e-10, max_iter: int = 60) -> JumpPair:
    """Solve the existence conditions for the two free jump coordinates.

    ``pinned`` fixes two of {p1A, p2A, zA, zB}; ``guess`` seeds the other
    two.  A damped Newton iteration with a forward-difference Jacobian
    drives the travel-time residuals below ``tol`` (sup norm).

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

    def unpack(x: np.ndarray) -> dict:
        vals = dict(pinned)
        vals.update(dict(zip(free_names, x)))
        return vals

    def residual(x: np.ndarray):
        if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
            return None
        vals = unpack(x)
        try:
            return np.array(existence_residual(
                vals["p1A"], vals["p2A"], vals["zA"], vals["zB"], branches, p))
        except (NoSolutionError, OffOrbitError, DegenerateOrbitError):
            return None

    x = np.array([guess[n] for n in free_names], dtype=float)
    r = residual(x)
    if r is None:
        raise NonConvergenceError("initial guess is outside the solvable domain", x=x)

    for iteration in range(max_iter):
        norm = np.max(np.abs(r))
        if norm < tol:
            vals = unpack(x)
            pair = _pair_from_unknowns(vals["p1A"], vals["p2A"], vals["zA"],
                                       vals["zB"], branches, p)
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
                              iterations=max_iter, x=x)


def trait_pressure_balance(j: JumpPair, p: Params) -> tuple[float, float]:
    """Net trait pressure integral of (p1 - p2) over each slow segment.

    While the system rides q = 1, the distance of the trait from 1
    contracts or expands like exp(-integral of (p1 - p2)/eps); the ride
    ends where the net integral since touch-down returns to zero.  A
    family member with both integrals zero is therefore the orbit an
    actual small-eps solution hovers near; the constructed family at
    large carries no such guarantee.  Both integrals have closed forms:
    the prey-1 area comes from the predator equation and the prey-2 area
    from the exponential growth law (and vice versa on q = 0).

    Both integrals vanish identically on the symmetric sub-family
    zA = zB: equal predator levels make each B prey coordinate the exact
    mirror conjugate of its A counterpart (same value of log(p) - p), and
    each area reduces to the difference of log(p) - p across the segment.
    """
    on_m1 = math.log(j.zb / j.za) / p.m + j.t1 - (j.p2b - j.p2a) / p.r
    on_m0 = (j.p1a - j.p1b) - math.log(j.za / j.zb) / p.m - j.t0
    return on_m1, on_m0


def solve_balanced_orbit(guess: dict, p: Params,
                         branches: BranchChoice = BranchChoice(),
                         tol: float = 1e-10, max_iter: int = 60) -> JumpPair:
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
    pair = solve_jump_points({"zA": z_level, "zB": z_level},
                             {"p1A": guess["p1A"], "p2A": guess["p2A"]},
                             p, branches, tol=tol, max_iter=max_iter)
    g1, g0 = trait_pressure_balance(pair, p)
    if max(abs(g1), abs(g0)) > 1e-8:
        raise NonConvergenceError(
            f"net trait pressure did not vanish (got {g1:.2e}, {g0:.2e})")
    return pair


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
        out.update({k: row.jump.as_dict()[k] for k in self._COORDS})
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
                pin_names: tuple[str, str] = ("p1A", "zA"),
                branches: BranchChoice = BranchChoice(),
                tol: float = 1e-10) -> FamilyTable:
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
                    pair = solve_jump_points(pinned, guess, p, branches, tol=tol)
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
            d = pair.as_dict()
            res = existence_residual(d["p1A"], d["p2A"], d["zA"], d["zB"], branches, p)
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
