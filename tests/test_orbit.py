import json
import logging

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from relaxor import (
    Anchor, Branch, BranchDomainError, DegenerateOrbitError, InadmissibleOrbitError,
    InconsistentEndpointsError, InconsistentJumpPairError, JumpPair, ManifoldTag,
    NoSolutionError, NonConvergenceError, OffOrbitError, Params, SingularOrbit,
    assemble_singular_orbit, ParameterDomainError, eliminate, existence_residual,
    extrema, lv_branch, scan_family, solve_balanced_orbit, solve_jump_points,
    trait_pressure_balance, UnsupportedManifoldError, travel_time_M0, travel_time_M1,
)
from relaxor.lambertw import w_plus_one
from relaxor.model import h0, h1, slow_rhs
import relaxor.orbit as orbit_module
from relaxor.orbit import _chart, _route_time
from conftest import BALANCED_GUESS, REFERENCE_ORBITS

M0, M1 = ManifoldTag.M0, ManifoldTag.M1


# ------------------------------------------------------------ level inversions

@pytest.mark.parametrize("prey,z", [(0.0, 1.0), (1.0, -0.5)])
def test_anchor_refuses_nonpositive_densities(prey, z):
    with pytest.raises(ParameterDomainError):
        Anchor(prey, z)


def test_lv_branch_m1_returns_anchor_on_its_own_branch():
    p = Params(0.5, 0.4)
    a = Anchor(2.41, 1.18)  # anchor on the upper half (z > 1)
    assert lv_branch(M1, a.p, a, Branch.LOWER, p) == pytest.approx(a.z, abs=1e-12)


def test_lv_branch_m1_lower_value_matches_bisection():
    p = Params(0.5, 1.0)
    a = Anchor(2.41, 1.18)
    level = h1(a.p, a.z, p)
    z_ref = brentq(lambda z: h1(1.0, z, p) - level, 1e-8, 1.0, xtol=1e-14)
    assert lv_branch(M1, 1.0, a, Branch.PRINCIPAL, p) == pytest.approx(z_ref, abs=1e-10)


def test_lv_branch_m1_extrema_meet_at_center_level():
    p = Params(0.5, 0.4)
    a = Anchor(2.41, 1.18)
    pmin, pmax = extrema(M1, a, p)
    for prey in (pmin, pmax):
        for branch in (Branch.PRINCIPAL, Branch.LOWER):
            assert lv_branch(M1, prey, a, branch, p) == pytest.approx(1.0, abs=1e-7)


def test_lv_branch_m0_against_bisection():
    p = Params(0.8, 1.0)
    a = Anchor(2.27, 1.39)
    assert lv_branch(M0, a.p, a, Branch.LOWER, p) == pytest.approx(a.z, abs=1e-12)
    level = h0(a.p, a.z, p)
    z_ref = brentq(lambda z: h0(1.0, z, p) - level, 1e-8, p.r, xtol=1e-15)
    assert lv_branch(M0, 1.0, a, Branch.PRINCIPAL, p) == pytest.approx(z_ref, abs=1e-10)
    p2min, p2max = extrema(M0, a, p)
    assert lv_branch(M0, p2min, a, Branch.LOWER, p) == pytest.approx(p.r, abs=1e-7)


def test_lv_branch_off_orbit_error():
    p = Params(0.5, 0.4)
    a = Anchor(2.41, 1.18)
    _, pmax = extrema(M1, a, p)
    with pytest.raises(OffOrbitError):
        lv_branch(M1, pmax * 1.2, a, Branch.LOWER, p)


def test_chart_calls_reject_switching_plane():
    p = Params(0.5, 0.4)
    a = Anchor(2.41, 1.18)
    with pytest.raises(UnsupportedManifoldError):
        extrema(ManifoldTag.MSW, a, p)
    with pytest.raises(UnsupportedManifoldError):
        lv_branch(ManifoldTag.MSW, a.p, a, Branch.LOWER, p)
    with pytest.raises(UnsupportedManifoldError):
        eliminate(ManifoldTag.MSW, a, 1.0, Branch.LOWER, p)


def test_branch_inversion_level_property(rng):
    p = Params(0.5, 0.4)
    count = 0
    while count < 1000:
        a = Anchor(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.3, 2.5)))
        if abs(a.p - 1.0) < 0.05 and abs(a.z - 1.0) < 0.05:
            continue
        pmin, pmax = extrema(M1, a, p)
        prey = float(rng.uniform(pmin, pmax))
        branch = Branch.PRINCIPAL if rng.random() < 0.5 else Branch.LOWER
        z = lv_branch(M1, prey, a, branch, p)
        assert abs(h1(prey, z, p) - h1(a.p, a.z, p)) < 1e-10
        count += 1


# ------------------------------------------------------------------- extrema

def test_extrema_m1_degenerate_anchor():
    with pytest.raises(DegenerateOrbitError):
        extrema(M1, Anchor(1.0, 1.0), Params(0.5, 0.4))


def test_extrema_m1_level_residual():
    p = Params(0.5, 1.0)
    a = Anchor(2.41, 1.18)
    pmin, pmax = extrema(M1, a, p)
    assert pmin < 1.0 < pmax
    level = h1(a.p, a.z, p)
    assert h1(pmin, 1.0, p) == pytest.approx(level, abs=1e-10)
    assert h1(pmax, 1.0, p) == pytest.approx(level, abs=1e-10)


def test_extrema_m1_anchor_at_extremum_is_fixed_point():
    p = Params(0.5, 0.4)
    pmin, pmax = extrema(M1, Anchor(2.41, 1.18), p)
    again_min, again_max = extrema(M1, Anchor(pmin, 1.0), p)
    assert again_min == pytest.approx(pmin, rel=1e-9)
    assert again_max == pytest.approx(pmax, rel=1e-9)


def test_extrema_m0_level_residual_and_fixed_point():
    p = Params(0.8, 1.0)
    a = Anchor(2.27, 1.39)
    p2min, p2max = extrema(M0, a, p)
    level = h0(a.p, a.z, p)
    assert h0(p2min, p.r, p) == pytest.approx(level, abs=1e-10)
    assert h0(p2max, p.r, p) == pytest.approx(level, abs=1e-10)
    again = extrema(M0, Anchor(p2max, p.r), p)
    assert again[1] == pytest.approx(p2max, rel=1e-9)
    with pytest.raises(DegenerateOrbitError):
        extrema(M0, Anchor(1.0, p.r), p)


# -------------------------------------------------------------- eliminations

def test_eliminate_p2b_identity_case():
    p = Params(0.5, 0.4)
    for p2a in (0.3, 0.8, 1.0):
        out = eliminate(M0, Anchor(p2a, 1.3), 1.3, Branch.PRINCIPAL, p)
        assert out == pytest.approx(p2a, abs=1e-12)


def test_eliminate_p2b_conjugate_root_matches_bisection():
    p = Params(0.5, 0.4)
    p2a = 0.45
    out = eliminate(M0, Anchor(p2a, 1.3), 1.3, Branch.LOWER, p)
    # conjugate solves x*exp(-x) = p2a*exp(-p2a) on the far side of 1
    target = p2a * np.exp(-p2a)
    ref = brentq(lambda x: x * np.exp(-x) - target, 1.0, 50.0, xtol=1e-13)
    assert out == pytest.approx(ref, abs=1e-10)


def test_eliminate_against_reference_values():
    # quoted values carry two-decimal rounding; the conserved-level
    # inversion amplifies the p2A rounding by |dH/dp2A| / |dH/dp2B| ~ 7,
    # so the match is asserted at the propagated tolerance
    p = Params(0.5, 0.4)
    p2b = eliminate(M0, Anchor(0.19, 0.70), 0.85, Branch.LOWER, p)
    assert p2b == pytest.approx(2.69, abs=0.035)
    p1b = eliminate(M1, Anchor(4.27, 0.70), 0.85, Branch.PRINCIPAL, p)
    assert p1b == pytest.approx(0.06, abs=0.02)


def test_eliminate_preserves_conserved_quantity():
    p = Params(0.5, 0.4)
    p2b = eliminate(M0, Anchor(0.19, 0.70), 0.85, Branch.LOWER, p)
    assert h0(p2b, 0.85, p) == pytest.approx(h0(0.19, 0.70, p), abs=1e-10)
    p1b = eliminate(M1, Anchor(4.27, 0.70), 0.85, Branch.PRINCIPAL, p)
    assert h1(p1b, 0.85, p) == pytest.approx(h1(4.27, 0.70, p), abs=1e-10)


def test_eliminate_p1b_identity_and_conjugate():
    p = Params(0.5, 0.4)
    same = eliminate(M1, Anchor(0.7, 1.2), 1.2, Branch.PRINCIPAL, p)
    assert same == pytest.approx(0.7, abs=1e-12)
    conj = eliminate(M1, Anchor(0.7, 1.2), 1.2, Branch.LOWER, p)
    target = 0.7 * np.exp(-0.7)
    ref = brentq(lambda x: x * np.exp(-x) - target, 1.0, 50.0, xtol=1e-13)
    assert conj == pytest.approx(ref, abs=1e-10)


def test_eliminate_no_solution_beyond_reach():
    p = Params(0.5, 0.4)
    with pytest.raises(NoSolutionError):
        eliminate(M0, Anchor(0.19, 0.70), 50.0, Branch.LOWER, p)


# -------------------------------------------------------------- travel times

def _ode_first_arrival(man, p, start, end, t_max=60.0):
    """Event-stopped integration of the planar slow flow (oracle)."""
    if man is ManifoldTag.M1:
        rhs = lambda t, y: [(1 - y[1]) * y[0], (y[0] - 1) * p.m * y[1]]
        flow_at = lambda y: np.array([(1 - y[1]) * y[0], (y[0] - 1) * p.m * y[1]])
    else:
        rhs = lambda t, y: [(p.r - y[1]) * y[0], (y[0] - 1) * p.m * y[1]]
        flow_at = lambda y: np.array([(p.r - y[1]) * y[0], (y[0] - 1) * p.m * y[1]])
    target = np.asarray(end, dtype=float)
    flow = flow_at(target)

    def crossing(t, y):
        # section orthogonal to the flow at the target (transversal there)
        return (y[0] - target[0]) * flow[0] + (y[1] - target[1]) * flow[1]

    crossing.direction = 0.0
    sol = solve_ivp(rhs, (0.0, t_max), np.asarray(start, dtype=float),
                    events=crossing, rtol=1e-12, atol=1e-12, dense_output=True)
    scale = np.linalg.norm(target)
    for t_event, y_event in zip(sol.t_events[0], sol.y_events[0]):
        if t_event > 1e-9 and np.linalg.norm(y_event - target) < 1e-3 * scale:
            return float(t_event)
    raise AssertionError("oracle integration never reached the end point")


def test_travel_time_zero_and_level_mismatch():
    p = Params(0.5, 0.4)
    assert travel_time_M1((2.41, 1.18), (2.41, 1.18), p) == 0.0
    assert travel_time_M0((2.27, 1.39), (2.27, 1.39), p) == 0.0
    with pytest.raises(InconsistentEndpointsError):
        travel_time_M1((2.41, 1.18), (2.41, 1.30), p)
    with pytest.raises(InconsistentEndpointsError):
        travel_time_M0((2.27, 1.39), (2.27, 1.20), p)


def test_travel_time_matches_ode_oracle_on_hybrid_segment(reference_pairs):
    p, pair = reference_pairs["hybrid"]
    t_quad = travel_time_M1((pair.p1a, pair.za), (pair.p1b, pair.zb), p)
    t_ode = _ode_first_arrival(ManifoldTag.M1, p, (pair.p1a, pair.za),
                               (pair.p1b, pair.zb))
    assert t_quad == pytest.approx(t_ode, rel=1e-4)


def test_travel_time_wrap_path_matches_ode_oracle(reference_pairs):
    # the predator-prey-2 geometry wraps around both extremal points
    p, pair = reference_pairs["predp2"]
    t_quad = travel_time_M1((pair.p1a, pair.za), (pair.p1b, pair.zb), p)
    t_ode = _ode_first_arrival(ManifoldTag.M1, p, (pair.p1a, pair.za),
                               (pair.p1b, pair.zb))
    assert t_quad == pytest.approx(t_ode, rel=1e-4)


@pytest.mark.parametrize("name", list(REFERENCE_ORBITS))
def test_travel_time_cross_formula_consistency(reference_pairs, name):
    p, pair = reference_pairs[name]
    t1 = travel_time_M1((pair.p1a, pair.za), (pair.p1b, pair.zb), p)
    assert pair.p2a * np.exp(p.r * t1) == pytest.approx(pair.p2b, abs=1e-8)
    t0 = travel_time_M0((pair.p2b, pair.zb), (pair.p2a, pair.za), p)
    assert pair.p1b * np.exp(t0) == pytest.approx(pair.p1a, abs=1e-8)


@pytest.mark.parametrize("man,anchor", [
    (M1, (1.10, 1.0)), (M1, (1.80, 1.0)), (M1, (0.05, 1.0)),
    (M0, (1.10, 0.5)), (M0, (5.0, 0.5)),
])
def test_half_orbit_time_matches_tight_ode_oracle(man, anchor):
    # the lower half of the level orbit, pmin -> pmax, against DOP853 run to
    # the next crossing of the centre level z = sigma.  The private route
    # keeps the anchor's level.  The public travel time re-derives the
    # extrema from (pmin, sigma), which moves pmax by a few ulps, and must
    # snap the end back onto the extremum: the time to an end near an
    # extremum changes like the square root of such a shift.
    p = Params(0.5, 0.4)
    sigma = 1.0 if man is M1 else p.r
    pmin, pmax = extrema(man, Anchor(*anchor), p)
    t_route = _route_time(man, (pmin, sigma), (pmax, sigma), Anchor(*anchor), p)
    travel_time = travel_time_M1 if man is M1 else travel_time_M0
    t_public = travel_time((pmin, sigma), (pmax, sigma), p)

    def centre_level(t, y):
        return y[1] - sigma

    centre_level.direction = 1.0
    sol = solve_ivp(lambda t, y: [(sigma - y[1]) * y[0], (y[0] - 1) * p.m * y[1]],
                    (0.0, 100.0), [pmin, sigma], method="DOP853",
                    rtol=1e-13, atol=1e-14, events=centre_level)
    t_ode = min(t for t in sol.t_events[0] if t > 1e-6)
    assert t_route == pytest.approx(t_ode, rel=1e-11)
    assert t_public == pytest.approx(t_ode, rel=1e-11)


def _random_level(rng, p):
    """A chart's tag and centre level, a non-degenerate anchor on it and its extrema."""
    man = M1 if rng.random() < 0.5 else M0
    sigma, _ = _chart(man, p)
    while True:
        a = Anchor(float(rng.uniform(0.1, 4.0)), float(sigma * rng.uniform(0.3, 2.5)))
        if abs(a.p - 1.0) > 0.05 or abs(a.z / sigma - 1.0) > 0.05:
            return man, sigma, a, extrema(man, a, p)


def _level_point(man, a, prey, branch, p):
    return prey, float(lv_branch(man, prey, a, branch, p))


def test_route_there_and_back_takes_one_period():
    rng = np.random.default_rng(11)
    p = Params(0.5, 0.4)
    for _ in range(500):
        man, sigma, a, (pmin, pmax) = _random_level(rng, p)
        lo, hi = (pmin, sigma), (pmax, sigma)
        period = _route_time(man, lo, hi, a, p) + _route_time(man, hi, lo, a, p)
        s, e = (_level_point(man, a, float(rng.uniform(pmin, pmax)),
                             (Branch.PRINCIPAL, Branch.LOWER)[int(rng.integers(2))], p)
                for _ in range(2))
        there_and_back = _route_time(man, s, e, a, p) + _route_time(man, e, s, a, p)
        assert there_and_back == pytest.approx(period, rel=1e-9)


def test_route_over_both_extrema_evaluates_lambert_w_once(monkeypatch):
    # the extrema come from one call and the whole route from one more
    p = Params(0.5, 0.4)
    a = Anchor(1.8, 1.0)
    pmin, pmax = extrema(M1, a, p)
    # from the lower half up to pmax, down the upper half to pmin and up again
    start = _level_point(M1, a, 0.5 * (pmin + pmax) + 0.1, Branch.PRINCIPAL, p)
    end = _level_point(M1, a, 0.5 * (pmin + pmax), Branch.PRINCIPAL, p)
    expected = _route_time(M1, start, end, a, p)
    calls = []

    def counted(branch, s):
        calls.append(np.unique(branch).tolist())
        return w_plus_one(branch, s)

    monkeypatch.setattr(orbit_module, "w_plus_one", counted)
    assert extrema(M1, a, p) == (pmin, pmax)
    assert calls == [[-1, 0]]
    calls.clear()
    assert _route_time(M1, start, end, a, p) == expected
    assert calls == [[-1, 0], [-1, 0]]


@pytest.mark.parametrize("man", [M1, M0])
def test_route_from_extremum_to_itself_takes_no_time(man):
    p = Params(0.5, 0.4)
    sigma, _ = _chart(man, p)
    a = Anchor(1.8, sigma)
    for prey in extrema(man, a, p):
        assert _route_time(man, (prey, sigma), (prey, sigma), a, p) == 0.0


def test_route_to_an_end_just_upstream_takes_no_time():
    # an end a few ulps behind the start along the flow counts as reached,
    # not as a full lap away
    rng = np.random.default_rng(12)
    p = Params(0.5, 0.4)
    for _ in range(200):
        man, _, a, ext = _random_level(rng, p)
        branch = (Branch.PRINCIPAL, Branch.LOWER)[int(rng.integers(2))]
        prey = float(rng.uniform(*ext))
        # prey grows along the lower half (W0) and shrinks along the upper one
        upstream = -1.0 if branch is Branch.PRINCIPAL else 1.0
        behind = prey + upstream * int(rng.integers(1, 41)) * np.spacing(prey)
        t = _route_time(man, _level_point(man, a, prey, branch, p),
                        _level_point(man, a, behind, branch, p), a, p)
        assert abs(t) < 1e-12


# ------------------------------------------------------- existence conditions

def test_existence_residual_small_at_consistent_reference_values():
    # the reference tuples are consistent with the conserved quantities;
    # their residuals sit inside the rounding budget
    for name, ((r, m), a, b) in REFERENCE_ORBITS.items():
        res = existence_residual(a[0], a[1], a[2], b[2], Params(r, m))
        assert max(abs(res[0]), abs(res[1])) < 5e-2, name


@pytest.mark.parametrize("p1a,p2a,za,z_center", [
    (2.4, 0.4, 1.3, 1.0),     # B crosses the q=1 chart centre z = 1
    (4.27, 0.19, 0.70, 0.5),  # B crosses the q=0 chart centre z = r
])
def test_existence_residual_continuous_where_b_crosses_chart_centre(
        params_default, p1a, p2a, za, z_center):
    # B sits on a prey extremum at the centre level; the travel-time route
    # switches sides there, and the residual must not jump
    def residual(zb):
        return np.array(existence_residual(p1a, p2a, za, zb, params_default))

    for delta in (1e-9, 1e-6):
        below, above = residual(z_center - delta), residual(z_center + delta)
        assert np.max(np.abs(above - below)) / (2.0 * delta) < 50.0, delta
    # no step at the centre itself: both one-sided differences agree
    delta = 1e-9
    centre = residual(z_center)
    step = (residual(z_center + delta) - centre) - (centre - residual(z_center - delta))
    assert np.max(np.abs(step)) < 1e-12


def test_existence_residual_vanishes_on_converged_pair(reference_pairs):
    for name, (p, pair) in reference_pairs.items():
        res = existence_residual(pair.p1a, pair.p2a, pair.za, pair.zb, p)
        assert max(abs(res[0]), abs(res[1])) < 1e-10, name


# ---------------------------------------------------------------- the solver

def test_solver_at_converged_point_returns_immediately(reference_pairs, monkeypatch):
    # a converged seed costs one residual evaluation and no Newton step
    p, pair = reference_pairs["hybrid"]
    calls = []

    def counted(*args):
        calls.append(args)
        return existence_residual(*args)

    monkeypatch.setattr(orbit_module, "existence_residual", counted)
    again = solve_jump_points({"p1A": pair.p1a, "zA": pair.za},
                              {"p2A": pair.p2a, "zB": pair.zb}, p)
    assert len(calls) == 1
    assert again.p2b == pytest.approx(pair.p2b, rel=1e-10)


@pytest.mark.parametrize("name,tol", [("predpreyprey", 0.02), ("predp2", 0.02),
                                      ("clockwise", 0.02), ("hybrid", 0.02)])
def test_solver_reproduces_consistent_references(reference_pairs, name, tol):
    (r, m), a, b = REFERENCE_ORBITS[name]
    _, pair = reference_pairs[name]
    got = pair.as_dict()
    quoted = dict(zip(("p1A", "p2A", "zA", "p1B", "p2B", "zB"), a + b))
    for key, value in quoted.items():
        assert got[key] == pytest.approx(value, abs=tol), (name, key)


def test_solver_rejects_collapsed_orbits():
    # pinning the prey-2 coordinate above prey 1 funnels the iteration into
    # the zero-travel-time fixed point of the conditions, which is not an orbit
    p = Params(0.5, 0.4)
    with pytest.raises(InadmissibleOrbitError):
        solve_jump_points({"p2A": 1.2, "zA": 1.5}, {"p1A": 2.5, "zB": 1.4}, p)


def test_solver_validates_pinning():
    p = Params(0.5, 0.4)
    with pytest.raises(ParameterDomainError, match="pin exactly two"):
        solve_jump_points({"p1A": 1.8}, {"p2A": 0.5, "zB": 1.4, "zA": 1.3}, p)
    # the balanced solve pins zA = zB itself and needs a guess for all four
    guess = {k: v for k, v in BALANCED_GUESS.items() if k != "zB"}
    with pytest.raises(ParameterDomainError, match="guess must supply exactly"):
        solve_balanced_orbit(guess, p)


@pytest.fixture
def residual_calls(monkeypatch):
    """Arguments of every existence_residual call made through the orbit module."""
    calls = []

    def counted(*args):
        calls.append(args)
        return existence_residual(*args)

    monkeypatch.setattr(orbit_module, "existence_residual", counted)
    return calls


@pytest.mark.parametrize("p2a,miss", [
    (1e-16, NoSolutionError),    # the prey minimum of the level through A underflows to 0
    (3e-17, BranchDomainError),  # the W-1 extremum of that level is out of reach
])
def test_solver_counts_a_domain_miss_as_a_miss(p2a, miss):
    p = Params(0.5, 0.4)
    with pytest.raises(miss):
        existence_residual(1.85, p2a, 1.47, 1.4, p)
    with pytest.raises(NonConvergenceError, match="outside the solvable domain"):
        solve_jump_points({"p1A": 1.85, "zA": 1.47}, {"p2A": p2a, "zB": 1.4}, p)
    # a nonpositive pin is still bad input
    with pytest.raises(ParameterDomainError):
        solve_jump_points({"p1A": -1.85, "zA": 1.47}, {"p2A": p2a, "zB": 1.4}, p)


def test_w0_elimination_refuses_a_prey_that_rounds_to_zero():
    # far out on the q = 1 chart exp(g) underflows and W0 rounds p1B to 0:
    # no B exists, and the jump-pair builder must not reach ln(p1A / p1B)
    p = Params(0.5, 0.4)
    with pytest.raises(NoSolutionError):
        eliminate(M1, Anchor(50.0, 0.5), 0.6, Branch.PRINCIPAL, p)
    with pytest.raises(NoSolutionError):
        existence_residual(50.0, 0.3, 0.5, 0.6, p)
    with pytest.raises(NonConvergenceError, match="outside the solvable domain"):
        solve_jump_points({"p1A": 50.0, "zA": 0.5}, {"p2A": 0.3, "zB": 0.6}, p)


def test_solver_gives_up_at_the_fold_within_its_line_search_budget(residual_calls):
    # from the hybrid guess the iteration creeps toward the fold of the W-1
    # elimination; bounded backtracking stops it after a few Newton steps
    with pytest.raises(NonConvergenceError, match="line search stalled") as err:
        solve_jump_points({"p1A": 1.55, "zA": 1.33}, {"p2A": 0.49, "zB": 1.40},
                          Params(0.5, 0.4))
    assert len(residual_calls) <= 45
    assert err.value.residual > 1e-10 and err.value.iterations >= 1
    assert len(err.value.x) == 2
    for item in ("residual ", "iterations ", "x ["):
        assert item in str(err.value)


def test_jump_pair_check_and_serialization(reference_pairs):
    p, pair = reference_pairs["hybrid"]
    pair.check(p)
    assert pair.period == pytest.approx(pair.t0 + pair.t1)
    round_trip = JumpPair.from_dict(json.loads(json.dumps(pair.as_dict())))
    assert round_trip == pair
    bad = JumpPair(pair.p1a, pair.p2a, pair.za, pair.p1b, pair.p2b,
                   pair.zb * 1.05, pair.t0, pair.t1)
    with pytest.raises(InconsistentEndpointsError):
        bad.check(p)


# --------------------------------------------------------------- family scan

def test_scan_single_point_grid(reference_pairs):
    p, pair = reference_pairs["hybrid"]
    table = scan_family(p, (np.array([pair.p1a]), np.array([pair.za])),
                        {"p2A": pair.p2a, "zB": pair.zb})
    assert len(table) == 1
    assert table.rows[0].jump.p2b == pytest.approx(pair.p2b, rel=1e-9)
    assert table.rows[0].jump.residual < 1e-10


def test_scan_rows_pass_residual_recheck(params_default):
    table = scan_family(params_default,
                        (np.linspace(1.8, 2.2, 3), np.linspace(1.35, 1.55, 3)),
                        {"p2A": 0.49, "zB": 1.40})
    assert len(table) == 9
    for row in table.rows:
        d = row.jump.as_dict()
        res = existence_residual(d["p1A"], d["p2A"], d["zA"], d["zB"], params_default)
        assert max(abs(res[0]), abs(res[1])) < 1e-10
        assert d["p1A"] > d["p2A"] and d["p1B"] < d["p2B"]


def test_scan_work_on_the_benchmark_grid(params_default, residual_calls):
    # a machine-independent work guard: the 4x4 grid of the scan benchmark,
    # with its 4 give-ups, in at most 220 residual evaluations
    table = scan_family(params_default,
                        (np.linspace(1.55, 2.45, 4), np.linspace(1.19, 1.61, 4)),
                        {"p2A": 0.49, "zB": 1.40})
    assert len(table) == 12
    assert len(residual_calls) <= 220
    # the residual column is the one the solver converged on
    for row in table.rows:
        d = row.jump.as_dict()
        res = existence_residual(d["p1A"], d["p2A"], d["zA"], d["zB"], params_default)
        assert row.jump.residual == float(np.max(np.abs(res)))


def test_scan_logs_each_point_without_a_row(caplog, params_default):
    # zA = 1.19 is visited second: the converged neighbour's seed and then
    # the fallback guess both fail there
    with caplog.at_level(logging.INFO, logger="relaxor.orbit"):
        table = scan_family(params_default, (np.array([1.85]), np.array([1.33, 1.19])),
                            {"p2A": 0.49, "zB": 1.40})
    assert [row.pinned for row in table.rows] == [{"p1A": 1.85, "zA": 1.33}]
    [record] = caplog.records
    assert (record.name, record.levelno) == ("relaxor.orbit", logging.INFO)
    message = record.getMessage()
    assert message.startswith("scan point {'p1A': 1.85, 'zA': 1.19}: no row after 2 seeds; "
                              "last error NonConvergenceError: ")
    assert "outside the solvable domain" in message


def test_scan_raises_on_nonpositive_pin(params_default):
    # bad input fails loudly instead of silently dropping the grid point
    with pytest.raises(ParameterDomainError):
        scan_family(params_default, (np.array([-1.0, 1.8]), np.array([1.35])),
                    {"p2A": 0.49, "zB": 1.40})


def test_scan_raises_on_misnamed_guess(params_default):
    with pytest.raises(ParameterDomainError):
        scan_family(params_default, (np.array([1.81]), np.array([1.35])),
                    {"p2A": 0.49, "zBB": 1.40})


def test_family_table_serialization(tmp_path, params_default):
    table = scan_family(params_default, (np.array([1.81]), np.array([1.35])),
                        {"p2A": 0.49, "zB": 1.40})
    json_path = tmp_path / "family.json"
    csv_path = tmp_path / "family.csv"
    table.to_json(json_path)
    table.to_csv(csv_path)
    rows = json.loads(json_path.read_text())
    assert len(rows) == 1
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header == ["r", "m", "pin_p1A", "pin_zA", "p1A", "p2A", "zA",
                      "p1B", "p2B", "zB", "T0", "T1", "residual"]
    assert list(rows[0])[:2] == ["r", "m"]


# ------------------------------------------------------------------- assembly

def test_assemble_singular_orbit_properties(reference_orbits):
    p, pair, orbit = reference_orbits["hybrid"]
    assert orbit.period == pytest.approx(pair.t0 + pair.t1)
    assert np.all(np.diff(orbit.times) > 0.0)
    states = orbit.states
    n1 = len(orbit.t_m1)
    assert np.all(states[:n1, 3] == 1.0)
    assert np.all(states[n1:, 3] == 0.0)
    # segment endpoints match the jump coordinates
    assert np.allclose(orbit.y_m1[0], pair.a_point(), atol=1e-12)
    assert np.allclose(orbit.y_m1[-1], pair.b_point(), atol=1e-6)
    assert np.allclose(orbit.y_m0[-1], pair.a_point(), atol=1e-6)
    # conserved-quantity drift along the sampled segments
    drift1 = np.ptp(h1(orbit.y_m1[:, 0], orbit.y_m1[:, 2], p))
    drift0 = np.ptp(h0(orbit.y_m0[:, 1], orbit.y_m0[:, 2], p))
    assert max(drift0, drift1) < 1e-8


def _solve_ivp_segment(y0, duration, man, p, samples):
    # the oracle: scipy's interpreted DOP853 over the reduced slow field
    sol = solve_ivp(lambda t, y: slow_rhs(y, p, man), (0.0, duration), y0,
                    method="DOP853", rtol=1e-12, atol=1e-12,
                    t_eval=np.linspace(0.0, duration, samples))
    assert sol.success
    return sol.y.T


def test_assembled_presets_match_solve_ivp_over_the_slow_field(preset_orbits):
    for name, (p, pair, orbit) in preset_orbits.items():
        n = len(orbit.t_m1)
        assert np.array_equal(orbit.t_m1, np.linspace(0.0, pair.t1, n))
        assert np.array_equal(orbit.t_m0, (pair.t1 + np.linspace(0.0, pair.t0, n))[1:])
        y1 = _solve_ivp_segment(pair.a_point(), pair.t1, ManifoldTag.M1, p, n)
        y0 = _solve_ivp_segment(pair.b_point(), pair.t0, ManifoldTag.M0, p, n)
        assert np.max(np.abs(orbit.y_m1 - y1)) < 1e-10, name
        assert np.max(np.abs(orbit.y_m0 - y0[1:])) < 1e-10, name


@pytest.mark.parametrize("samples", [0, 1])
def test_assemble_needs_two_samples_per_segment(reference_pairs, samples):
    p, pair = reference_pairs["hybrid"]
    with pytest.raises(ParameterDomainError, match="at least two samples"):
        assemble_singular_orbit(pair, p, samples_per_segment=samples)


def test_assemble_rejects_inconsistent_pair(params_default, reference_pairs):
    _, pair = reference_pairs["hybrid"]
    broken = JumpPair(pair.p1a, pair.p2a, pair.za, pair.p1b, pair.p2b,
                      pair.zb, pair.t0 * 1.2, pair.t1)
    with pytest.raises(InconsistentJumpPairError):
        assemble_singular_orbit(broken, params_default)


def test_singular_orbit_json_round_trip(tmp_path, reference_orbits):
    _, _, orbit = reference_orbits["hybrid"]
    path = tmp_path / "orbit.json"
    orbit.to_json(path)
    back = SingularOrbit.from_json(path)
    assert np.array_equal(back.times, orbit.times)
    assert np.array_equal(back.states, orbit.states)
    assert back.jumps == orbit.jumps


# ----------------------------------------------------- trait-pressure balance

def test_balanced_orbit_solution(params_default):
    pair = solve_balanced_orbit(BALANCED_GUESS, params_default)
    g1, g0 = trait_pressure_balance(pair, params_default)
    assert abs(g1) < 1e-12 and abs(g0) < 1e-12
    res = existence_residual(pair.p1a, pair.p2a, pair.za, pair.zb, params_default)
    assert max(abs(res[0]), abs(res[1])) < 1e-10
    assert pair.za == pair.zb  # pinned symmetric level
    assert pair.p1a == pytest.approx(1.21759144, abs=1e-6)
    # mirror-conjugate endpoints: log(p) - p agrees across each segment
    assert np.log(pair.p1a) - pair.p1a == pytest.approx(
        np.log(pair.p1b) - pair.p1b, abs=1e-10)
    assert np.log(pair.p2a) - pair.p2a == pytest.approx(
        np.log(pair.p2b) - pair.p2b, abs=1e-10)


def test_balanced_orbit_is_reproducible_across_guesses(params_default):
    a = solve_balanced_orbit(BALANCED_GUESS, params_default)
    other = dict(BALANCED_GUESS, p1A=1.4, p2A=0.7)
    b = solve_balanced_orbit(other, params_default)
    assert b.p1a == pytest.approx(a.p1a, abs=1e-9)
    assert b.p2a == pytest.approx(a.p2a, abs=1e-9)


def test_trait_pressure_matches_numerical_quadrature(reference_orbits):
    # closed forms of the net (p1 - p2) areas against trapezoid sums over
    # the densely sampled slow segments
    p, pair, orbit = reference_orbits["hybrid"]
    g1, g0 = trait_pressure_balance(pair, p)
    area1 = np.trapezoid(orbit.y_m1[:, 0] - orbit.y_m1[:, 1], orbit.t_m1)
    # the assembled orbit drops the duplicated seam sample; restore it so
    # the quadrature covers the full q=0 segment
    t0 = np.concatenate([[pair.t1], orbit.t_m0])
    y0 = np.vstack([pair.b_point(), orbit.y_m0])
    area0 = np.trapezoid(y0[:, 0] - y0[:, 1], t0)
    assert g1 == pytest.approx(area1, abs=5e-5)
    assert g0 == pytest.approx(area0, abs=5e-5)


# -------------------------------------------- direct check of all four conditions

@pytest.mark.parametrize("name", list(REFERENCE_ORBITS))
def test_converged_pairs_satisfy_original_conditions(reference_pairs, name):
    p, pair = reference_pairs[name]
    assert h0(pair.p2a, pair.za, p) == pytest.approx(h0(pair.p2b, pair.zb, p), abs=1e-9)
    assert h1(pair.p1a, pair.za, p) == pytest.approx(h1(pair.p1b, pair.zb, p), abs=1e-9)
    t1 = travel_time_M1((pair.p1a, pair.za), (pair.p1b, pair.zb), p)
    assert t1 == pytest.approx(np.log(pair.p2b / pair.p2a) / p.r, abs=1e-9)
    t0 = travel_time_M0((pair.p2b, pair.zb), (pair.p2a, pair.za), p)
    assert t0 == pytest.approx(np.log(pair.p1a / pair.p1b), abs=1e-9)
