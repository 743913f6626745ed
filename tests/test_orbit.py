import csv
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
    trait_pressure_balance, travel_time_M0, travel_time_M1,
)
from relaxor.errors import MAX_SAMPLES
from relaxor.lambertw import w_plus_one
from relaxor.model import h0, h1, slow_rhs
import relaxor.orbit as orbit_module
import relaxor.quadrature as quadrature_module
from relaxor.orbit import _chart, _route_time
from relaxor.cli import SEEDS
from conftest import BALANCED_GUESS, REFERENCE_ORBITS

M0, M1 = ManifoldTag.M0, ManifoldTag.M1


def _clear_memos():
    """Empty the orbit module's memos of chart work."""
    for memo in (orbit_module._extrema, orbit_module._half):
        memo.cache_clear()


# ------------------------------------------------------------ level inversions

@pytest.mark.parametrize("prey,z", [(0.0, 1.0), (1.0, -0.5), (np.nan, 1.0), (1.0, np.inf)])
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


@pytest.mark.parametrize("man", [M1, M0])
def test_extrema_match_high_precision_on_large_and_near_degenerate_levels(man):
    # through (pmax, sigma) up to pmax 30, where pmin is 3e-12 and 1 - (W0 + 1)
    # would cancel, and next to the centre, where the series serves
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    p = Params(0.5, 0.4)
    sigma, mu = _chart(man, p)
    anchors = [Anchor(pmax, sigma) for pmax in (2.0, 5.0, 8.0, 12.0, 20.0, 30.0)]
    anchors += [Anchor(1.0 + 2e-6, sigma), Anchor(1.0, 1.00001 * sigma)]
    for a in anchors:
        ya = mpmath.mpf(a.z) / mpmath.mpf(sigma)
        level = mpmath.log(a.p) - a.p + (mpmath.log(ya) + 1 - ya) / mpmath.mpf(mu)
        # ln p - p = level at both extrema: p = -W(-e^level) on W0 and W-1
        want = [float(-mpmath.lambertw(-mpmath.exp(level), k).real) for k in (0, -1)]
        assert extrema(man, a, p) == pytest.approx(want, rel=1e-14, abs=0.0), a


@pytest.mark.parametrize("man,a,z", [
    # tiny W0 and large W-1 roots, where 1 - (W + 1) cancels or inherits
    # the rounding of s - 1
    (M1, Anchor(12.0, 1.0), 1.0), (M1, Anchor(20.0, 1.0), 1.0),
    (M1, Anchor(30.0, 1.0), 1.0), (M1, Anchor(30.0, 1.0), 0.8),
    (M0, Anchor(1e-9, 0.3), 0.45), (M0, Anchor(0.3, 0.7), 0.6),
])
def test_eliminate_matches_high_precision_on_both_branches(man, a, z):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    p = Params(0.5, 0.4)
    sigma, mu = _chart(man, p)
    ya, yb = mpmath.mpf(a.z) / sigma, mpmath.mpf(z) / sigma
    # the prey solves ln p - (p - 1) = g: p = -W(-e^(g - 1)) on W0 and W-1
    g = mpmath.log(a.p) - (mpmath.mpf(a.p) - 1) + (mpmath.log(ya / yb) - (ya - yb)) / mu
    for b in (Branch.PRINCIPAL, Branch.LOWER):
        want = float(-mpmath.lambertw(-mpmath.exp(g - 1), b.value).real)
        assert eliminate(man, a, z, b, p) == pytest.approx(want, rel=1e-14, abs=0.0), b


@pytest.mark.parametrize("man", [M1, M0])
@pytest.mark.parametrize("prey,rel", [(1.000002, 1e-10), (1.0001, 1e-11)])
def test_lv_branch_offset_matches_high_precision_next_to_the_centre(man, prey, rel):
    # 1 - z/sigma at prey 1 on the level through (prey, sigma): g is a
    # difference of size ~(prey - 1)^2, which no rounded sum may swamp
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    p = Params(0.5, 0.4)
    sigma, mu = _chart(man, p)
    a = Anchor(prey, sigma)
    # z / sigma solves ln y - (y - 1) = g with g = mu (ln prey - (prey - 1))
    g = mpmath.mpf(mu) * (mpmath.log(prey) - (mpmath.mpf(prey) - 1))
    for b in (Branch.PRINCIPAL, Branch.LOWER):
        want = float(1 + mpmath.lambertw(-mpmath.exp(g - 1), b.value).real)
        got = 1.0 - lv_branch(man, 1.0, a, b, p) / sigma
        assert got == pytest.approx(want, rel=rel, abs=0.0), b


@pytest.mark.parametrize("man", [M1, M0])
@pytest.mark.parametrize("z_anchor", [30.0, 20.0])
def test_lv_branch_matches_high_precision_on_both_branches_of_large_levels(man, z_anchor):
    # through (1, z_anchor sigma): a W0 predator down to 1.4e-12 sigma, where
    # 1 - (W + 1) cancels, and a W-1 one up to 30 sigma, where it inherits
    # the rounding of s - 1 (8.2e-6 and 4.5e-8 relative through (1, 30)
    # before _prey_root's forms; under 2e-15 with them)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    p = Params(0.5, 0.4)
    sigma, mu = _chart(man, p)
    a = Anchor(1.0, z_anchor * sigma)
    prey = np.array([1.0, 0.9, 1.1])
    ya = mpmath.mpf(a.z) / sigma
    for b in (Branch.PRINCIPAL, Branch.LOWER):
        got = lv_branch(man, prey, a, b, p)
        for x, z in zip(prey.tolist(), got.tolist()):
            # z / sigma solves ln y - (y - 1) = g: y = -W(-e^(g - 1)) on W0 and W-1
            g = (mpmath.log(ya) - (ya - 1)) + mu * (-mpmath.log(x) - (1 - mpmath.mpf(x)))
            want = float(-mpmath.lambertw(-mpmath.exp(g - 1), b.value).real * sigma)
            assert z == pytest.approx(want, rel=1e-14, abs=0.0), (b, x)
            # an array of prey and each prey alone give the same bits
            assert lv_branch(man, x, a, b, p) == z


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


@pytest.mark.parametrize("man", [M1, M0])
def test_eliminate_at_a_predator_extremum_gives_prey_one(man):
    # through (1, z) the level meets z only at prey 1, where g = 0 and both
    # branches meet: the W-1 Newton step would be 0 / 0 there
    p = Params(0.5, 0.4)
    for b in (Branch.PRINCIPAL, Branch.LOWER):
        assert eliminate(man, Anchor(1.0, 1.3), 1.3, b, p) == 1.0


def test_eliminate_no_solution_beyond_reach():
    p = Params(0.5, 0.4)
    with pytest.raises(NoSolutionError):
        eliminate(M0, Anchor(0.19, 0.70), 50.0, Branch.LOWER, p)


# -------------------------------------------------------------- travel times

def _ode_first_arrival(man, p, start, end, t_max=60.0, **ivp):
    """Event-stopped integration of the planar slow flow (oracle).

    ``ivp`` overrides ``solve_ivp``'s method and tolerances (RK45 at
    rtol = atol = 1e-12).
    """
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
                    events=crossing, dense_output=True,
                    **{"rtol": 1e-12, "atol": 1e-12, **ivp})
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


@pytest.mark.parametrize("travel_time,end", [
    (travel_time_M1, (1.2, np.nan)), (travel_time_M1, (1.3, -1.0)),
    (travel_time_M0, (-1.0, 1.0)), (travel_time_M1, (np.nan, 1.0)),
])
def test_travel_time_refuses_an_end_point_that_is_not_finite_and_positive(travel_time, end):
    with pytest.raises(ParameterDomainError, match="end points must be finite and positive"):
        travel_time((1.2, 1.0), end, Params(0.5, 0.4))


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


# periods of the M1 level orbits through (pmax, 1) at (r, m) = (0.5, 0.4):
# DOP853 in (ln p1, ln z) at rtol = atol = 1e-13
M1_LARGE_PERIODS = {8.0: 15.989508805, 12.0: 20.351877865, 20.0: 29.033364806}


def _period(man, a, p):
    sigma, _ = _chart(man, p)
    pmin, pmax = extrema(man, a, p)
    lo, hi = (pmin, sigma), (pmax, sigma)
    return _route_time(man, lo, hi, a, p) + _route_time(man, hi, lo, a, p)


@pytest.mark.parametrize("pmax", sorted(M1_LARGE_PERIODS))
def test_m1_period_of_a_large_level_orbit_matches_the_ode(pmax):
    # pmin is 2.7e-3, 7.4e-5 and 4.1e-8: a spike of 1/p in prey, none in ln p
    period = _period(M1, Anchor(pmax, 1.0), Params(0.5, 0.4))
    assert period == pytest.approx(M1_LARGE_PERIODS[pmax], rel=1e-10)


@pytest.mark.parametrize("pmax", sorted(M1_LARGE_PERIODS))
def test_m0_period_of_a_large_level_orbit_matches_the_ode(pmax):
    p = Params(0.5, 0.4)
    start = (pmax, p.r)
    # relative error control only: pmin falls to 1e-9 of pmax
    t_ode = _ode_first_arrival(M0, p, start, start, method="DOP853", rtol=1e-13,
                               atol=1e-300)
    assert _period(M0, Anchor(*start), p) == pytest.approx(t_ode, rel=1e-10)


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
    # on a cold memo the extrema come from one call and the whole route
    # from one more; a warm repeat takes the extrema from the memo
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
    _clear_memos()
    assert extrema(M1, a, p) == (pmin, pmax)
    assert calls == [[-1, 0]]
    calls.clear()
    _clear_memos()
    assert _route_time(M1, start, end, a, p) == expected
    assert calls == [[-1, 0], [-1, 0]]
    calls.clear()
    assert extrema(M1, a, p) == (pmin, pmax)
    assert calls == []
    assert _route_time(M1, start, end, a, p) == expected
    assert calls == [[-1, 0]]


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

def test_existence_residual_refuses_a_nan_coordinate():
    with pytest.raises(ParameterDomainError, match="jump coordinates must be finite"):
        existence_residual(1.8, 0.49, 1.35, np.nan, Params(0.5, 0.4))


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
    assert (again.iterations, again.residual_evaluations) == (0, 1)


def test_solver_reports_its_newton_work(residual_calls):
    pair = solve_jump_points(_HYBRID_PIN, _HYBRID_GUESS, Params(0.5, 0.4))
    assert pair.residual_evaluations == len(residual_calls)
    # the guess, then per step one differenced column (p2A; the zB column is
    # closed-form) and one full-length trial
    assert (pair.iterations, pair.residual_evaluations) == (3, 7)
    # a pair built any other way has no statistics, and they are not compared
    built = JumpPair.from_dict(pair.as_dict())
    assert (built.iterations, built.residual_evaluations) == (None, None)
    assert built == pair and "iterations" not in repr(pair)


@pytest.mark.parametrize("name", ["hybrid", "predp2", "clockwise"])
def test_closed_form_zb_column_matches_a_central_difference(reference_pairs, name):
    p, pair = reference_pairs[name]
    h = 1e-5 * pair.zb
    ahead, behind = (np.array(existence_residual(pair.p1a, pair.p2a, pair.za, pair.zb + step, p))
                     for step in (h, -h))
    column = orbit_module._residual_dzb(pair.p1a, pair.p2a, pair.za, pair.zb, p)
    assert column == pytest.approx((ahead - behind) / (2.0 * h), rel=1e-7, abs=0.0)


def test_balanced_preset_differences_both_columns(residual_calls, params_default):
    # pinned at zA = zB, no free unknown has a closed-form column: the
    # guess, then per step two differenced columns and one full-length trial
    seed = SEEDS["balanced"]
    pair = solve_jump_points(seed["pin"], seed["guess"], params_default)
    assert (pair.iterations, pair.residual_evaluations) == (3, 10)
    assert len(residual_calls) == 10


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


def test_solve_reuses_the_chart_half_a_jacobian_column_leaves_alone(monkeypatch,
                                                                   residual_calls):
    # pinned at (p1A, zA), the column in p2A leaves the M1 half's inputs
    # (p1A, zA, zB) unmoved, and the converged pair reuses both halves
    route = orbit_module._route_time
    routes = {M0: 0, M1: 0}

    def counted(man, *args):
        routes[man] += 1
        return route(man, *args)

    monkeypatch.setattr(orbit_module, "_route_time", counted)
    _clear_memos()
    seed = SEEDS["hybrid"]
    solve_jump_points(seed["pin"], seed["guess"], Params(0.5, 0.4))
    assert routes[M1] < len(residual_calls)
    assert routes[M0] == len(residual_calls)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_solve_on_warm_memos_equals_a_cold_solve(name):
    seed = SEEDS[name]
    p = Params(0.5, 0.4)
    _clear_memos()
    cold = solve_jump_points(seed["pin"], seed["guess"], p)
    # the repeat meets its own last iterates in the memos
    warm = solve_jump_points(seed["pin"], seed["guess"], p)
    assert warm == cold and warm.residual == cold.residual
    free = {k: cold.as_dict()[k] for k in seed["guess"]}
    assert solve_jump_points(seed["pin"], free, p) == cold


@pytest.mark.parametrize("p2a,miss", [
    (1e-200, NoSolutionError),   # the W-1 elimination of p2B leaves (0, inf)
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


@pytest.mark.parametrize("guess", [{"p2A": -0.49, "zB": 1.4}, {"p2A": 0.49, "zB": np.nan}])
def test_solver_refuses_a_guess_that_is_not_finite_and_positive(residual_calls, guess):
    # bad input, refused before the first residual
    with pytest.raises(ParameterDomainError, match="guessed coordinates must be finite"):
        solve_jump_points({"p1A": 1.81, "zA": 1.35}, guess, Params(0.5, 0.4))
    assert residual_calls == []


def test_w0_elimination_refuses_a_prey_that_rounds_to_zero():
    # far out on the q = 1 chart s = 1 - exp(g) rounds to 1, where p1B falls
    # below 1e-16: no B is taken, and the jump-pair builder must not reach
    # ln(p1A / p1B)
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
    # 34 measured; 39 while the zB column was differenced as well
    assert len(residual_calls) <= 36
    assert err.value.iterations == 4 and f"{err.value.residual:.3e}" == "2.014e-01"
    assert err.value.evaluations == len(residual_calls)
    assert err.value.residual > 1e-10 and err.value.iterations >= 1
    assert "evaluations" not in str(err.value)
    assert len(err.value.x) == 2
    for item in ("residual ", "iterations ", "x ["):
        assert item in str(err.value)


_HYBRID_PIN, _HYBRID_GUESS = {"p1A": 1.81, "zA": 1.35}, {"p2A": 0.49, "zB": 1.40}


def _assert_gave_up(err, message, residual, iterations, x):
    assert str(err.value).startswith(message + " (")
    assert err.value.residual == residual
    assert err.value.iterations == iterations
    assert np.array_equal(err.value.x, x)


def test_solver_gives_up_on_a_singular_jacobian(monkeypatch):
    # a residual that no unknown moves has a zero difference Jacobian
    monkeypatch.setattr(orbit_module, "existence_residual", lambda *args: (0.5, -0.25))
    with pytest.raises(NonConvergenceError) as err:
        solve_jump_points(_HYBRID_PIN, _HYBRID_GUESS, Params(0.5, 0.4))
    _assert_gave_up(err, "singular Jacobian", 0.5, 0, [0.49, 1.40])


@pytest.mark.parametrize("man", [M0, M1])
def test_solver_gives_up_where_zb_is_a_predator_extremum(monkeypatch, man):
    # p1B or p2B at 1 puts B at a predator extremum of its level orbit, where
    # the closed-form zB column divides by z' = 0
    chart_half = orbit_module._half

    def half_with_prey_one(m, *args):
        half = chart_half(m, *args)
        return (1.0, *half[1:]) if m is man else half

    monkeypatch.setattr(orbit_module, "_half", half_with_prey_one)
    p = Params(0.5, 0.4)
    norm = float(np.max(np.abs(existence_residual(1.81, 0.49, 1.35, 1.40, p))))
    with pytest.raises(NonConvergenceError) as err:
        solve_jump_points(_HYBRID_PIN, _HYBRID_GUESS, p)
    _assert_gave_up(err, "singular Jacobian: zB is a predator extremum of a level orbit",
                    norm, 0, [0.49, 1.40])
    # the guess and the p2A column's difference step
    assert err.value.evaluations == 2


def test_solver_gives_up_when_no_difference_step_is_solvable(monkeypatch):
    # the guess is solvable, but both difference steps of its first column miss
    guess = (1.81, 0.49, 1.35, 1.40)

    def residual_at_the_guess_only(*args):
        if args[:4] != guess:
            raise NoSolutionError("off the guess")
        return (0.5, -0.25)

    monkeypatch.setattr(orbit_module, "existence_residual", residual_at_the_guess_only)
    with pytest.raises(NonConvergenceError) as err:
        solve_jump_points(_HYBRID_PIN, _HYBRID_GUESS, Params(0.5, 0.4))
    _assert_gave_up(err, "cannot difference the residual at the current iterate",
                    0.5, 0, [0.49, 1.40])


def test_solver_gives_up_after_its_iteration_budget(monkeypatch):
    # the hybrid solve needs more than two Newton steps
    monkeypatch.setattr(orbit_module, "_MAX_ITER", 2)
    p = Params(0.5, 0.4)
    with pytest.raises(NonConvergenceError) as err:
        solve_jump_points(_HYBRID_PIN, _HYBRID_GUESS, p)
    p2a, zb = err.value.x
    last = float(np.max(np.abs(existence_residual(1.81, p2a, 1.35, zb, p))))
    assert last > 1e-10
    _assert_gave_up(err, "no convergence within the iteration budget", last, 2, [p2a, zb])


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
    for t0, t1 in ((-pair.t0, pair.t1), (pair.t0, 0.0)):
        backwards = JumpPair(pair.p1a, pair.p2a, pair.za, pair.p1b, pair.p2b,
                             pair.zb, t0, t1)
        with pytest.raises(InadmissibleOrbitError, match="requires T0 > 0 and T1 > 0"):
            backwards.check(p)


# --------------------------------------------------------------- family scan

def test_scan_single_point_grid(reference_pairs):
    p, pair = reference_pairs["hybrid"]
    table = scan_family(p, (np.array([pair.p1a]), np.array([pair.za])),
                        {"p2A": pair.p2a, "zB": pair.zb})
    assert len(table) == 1
    assert table.rows[0].p2b == pytest.approx(pair.p2b, rel=1e-9)
    assert table.rows[0].residual < 1e-10


def test_scan_rows_pass_residual_recheck(params_default):
    table = scan_family(params_default,
                        (np.linspace(1.8, 2.2, 3), np.linspace(1.35, 1.55, 3)),
                        {"p2A": 0.49, "zB": 1.40})
    assert len(table) == 9
    for row in table.rows:
        d = row.as_dict()
        res = existence_residual(d["p1A"], d["p2A"], d["zA"], d["zB"], params_default)
        assert max(abs(res[0]), abs(res[1])) < 1e-10
        assert d["p1A"] > d["p2A"] and d["p1B"] < d["p2B"]


def test_scan_work_on_the_benchmark_grid(params_default, residual_calls):
    # a machine-independent work guard: the 4x4 grid of the scan benchmark,
    # with its 4 give-ups, in at most 150 residual evaluations (148 measured;
    # 146 while a solve could start from its neighbour's Jacobian, 192 while
    # the zB column was differenced, and zeroth-order continuation took 220)
    table = scan_family(params_default,
                        (np.linspace(1.55, 2.45, 4), np.linspace(1.19, 1.61, 4)),
                        {"p2A": 0.49, "zB": 1.40})
    assert len(table) == 12
    assert len(residual_calls) <= 150
    # the table totals every solve, the failed ones included
    assert table.residual_evaluations == len(residual_calls)
    assert 0 < table.iterations < table.residual_evaluations
    # the residual column is the one the solver converged on
    for row in table.rows:
        d = row.as_dict()
        res = existence_residual(d["p1A"], d["p2A"], d["zA"], d["zB"], params_default)
        assert row.residual == float(np.max(np.abs(res)))


_NEWTON = orbit_module._newton


def _recording_newton(monkeypatch):
    """Record each scan solve as (pins, guess, pair or NonConvergenceError)."""
    solves = []

    def recorded(pinned, guess, p):
        solve = [dict(pinned), dict(guess), None]
        solves.append(solve)
        try:
            solve[2] = _NEWTON(pinned, guess, p)
        except NonConvergenceError as err:
            solve[2] = err
            raise
        return solve[2]

    monkeypatch.setattr(orbit_module, "_newton", recorded)
    return solves


def test_scan_seeds_a_row_point_with_the_secant_prediction(params_default, monkeypatch):
    solves = _recording_newton(monkeypatch)
    table = scan_family(params_default, (np.array([2.15]), np.array([1.40, 1.47, 1.54])),
                        {"p2A": 0.49, "zB": 1.40})
    assert len(table) == 3 and len(solves) == 3
    first, second, _ = table.rows
    # the first point starts from the guess, the second from the first's
    # coordinates, the third from 2 x1 - x2
    assert solves[0][1] == {"p2A": 0.49, "zB": 1.40}
    assert solves[1][1] == {"p2A": first.p2a, "zB": first.zb}
    assert solves[2][0] == {"p1A": 2.15, "zA": 1.54}
    assert solves[2][1] == {"p2A": 2.0 * second.p2a - first.p2a,
                            "zB": 2.0 * second.zb - first.zb}
    # each seed is solved as solve_jump_points solves it
    for (pinned, guess, pair), row in zip(solves, table.rows):
        alone = solve_jump_points(pinned, guess, params_default)
        assert alone == pair == row and alone.iterations == pair.iterations


@pytest.mark.parametrize("pin_names,grid,guess,count", [
    # around the balanced preset, with no closed-form Jacobian column; both
    # grids have points where a seed or every seed fails
    (("zA", "zB"), (np.linspace(1.46, 1.51, 3), np.linspace(1.46, 1.51, 3)),
     SEEDS["balanced"]["guess"], 5),
    (("p1A", "zB"), (np.linspace(1.6, 2.2, 4), np.linspace(1.30, 1.50, 4)),
     {"p2A": 0.49, "zA": 1.35}, 12),
], ids=["zA-zB", "p1A-zB"])
def test_scans_under_other_pins_yield_true_rows_and_total_their_solves(
        tmp_path, params_default, monkeypatch, residual_calls, pin_names, grid, guess, count):
    solves = _recording_newton(monkeypatch)
    table = scan_family(params_default, grid, guess, pin_names)
    assert len(table) == count
    # each row sits at its own grid point, and the rows come in grid order
    points = []
    for j in table.rows:
        d = j.as_dict()
        points.append(tuple(values.tolist().index(d[name])
                            for name, values in zip(pin_names, grid)))
        j.check(params_default)
        assert max(map(abs, existence_residual(j.p1a, j.p2a, j.za, j.zb, params_default))) < 1e-10
    assert points == sorted(set(points))
    # the written rows carry the pins as the pair's own coordinates and the
    # table's r and m
    table.to_json(tmp_path / "family.json")
    table.to_csv(tmp_path / "family.csv")
    with open(tmp_path / "family.csv", newline="") as fh:
        cells = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    written = json.loads((tmp_path / "family.json").read_text())
    assert cells == written and len(written) == count
    for row in written:
        assert [row[f"pin_{name}"] for name in pin_names] == [row[name] for name in pin_names]
        assert (row["r"], row["m"]) == (params_default.r, params_default.m)
    # every solve, failed or not, counts toward the table's totals
    assert len(solves) > len(table)
    work = [(s.iterations or 0, s.evaluations) if isinstance(s, NonConvergenceError)
            else (s.iterations, s.residual_evaluations) for _, _, s in solves]
    assert table.iterations == sum(w[0] for w in work)
    assert table.residual_evaluations == sum(w[1] for w in work) == len(residual_calls)


def test_wide_box_scan_yields_only_true_rows(params_default, monkeypatch):
    # p1A up to 12 reaches level orbits with prey minima near 5e-5; every row
    # must still be an orbit under a rule of 4x the nodes
    table = scan_family(params_default, (np.linspace(2.6, 12.0, 10), np.linspace(1.0, 1.68, 6)),
                        SEEDS["hybrid"]["guess"])
    assert len(table) > 50
    nodes, weights = np.polynomial.legendre.leggauss(4 * quadrature_module._NODES.size)
    monkeypatch.setattr(quadrature_module, "_NODES", nodes)
    monkeypatch.setattr(quadrature_module, "_WEIGHTS", weights)
    _clear_memos()
    for j in table.rows:
        assert max(map(abs, existence_residual(j.p1a, j.p2a, j.za, j.zb, params_default))) < 1e-10


def test_scan_logs_each_point_without_a_row(caplog, params_default):
    # zA = 1.19 is visited second: the converged neighbour's seed and then
    # the fallback guess both fail there
    with caplog.at_level(logging.INFO, logger="relaxor.orbit"):
        table = scan_family(params_default, (np.array([1.85]), np.array([1.33, 1.19])),
                            {"p2A": 0.49, "zB": 1.40})
    assert [(row.p1a, row.za) for row in table.rows] == [(1.85, 1.33)]
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
    with pytest.raises(ParameterDomainError, match="finite and positive"):
        scan_family(params_default, (np.array([np.nan, 1.8]), np.array([1.35])),
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
    # every cell is a plain repr that parses back to the row's JSON value,
    # the free coordinates and what is eliminated from them included
    with open(csv_path, newline="") as fh:
        [cells] = csv.DictReader(fh)
    assert {k: float(v) for k, v in cells.items()} == rows[0]


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


@pytest.mark.parametrize("samples", [0, 1, 2.5, np.nan, MAX_SAMPLES + 1])
def test_assemble_needs_two_samples_per_segment(reference_pairs, samples):
    p, pair = reference_pairs["hybrid"]
    with pytest.raises(ParameterDomainError, match="at least two samples"):
        assemble_singular_orbit(pair, p, samples_per_segment=samples)


def test_assemble_takes_a_numpy_integer_sample_count(reference_pairs):
    p, pair = reference_pairs["hybrid"]
    orbit = assemble_singular_orbit(pair, p, samples_per_segment=np.int64(3))
    assert (len(orbit.t_m1), len(orbit.t_m0)) == (3, 2)


@pytest.mark.parametrize("key", ["T0", "T1"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_assemble_refuses_a_travel_time_that_is_not_finite_and_positive(reference_pairs,
                                                                         key, value):
    p, pair = reference_pairs["hybrid"]
    bad = JumpPair.from_dict({**pair.as_dict(), key: value})
    with pytest.raises(ParameterDomainError, match="T0, T1 must be finite and positive"):
        assemble_singular_orbit(bad, p)


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


def test_singular_orbit_from_dict_reads_integers_as_doubles(reference_orbits):
    _, _, orbit = reference_orbits["hybrid"]
    doc = orbit.to_dict()
    doc["y_m1"] = [[1, 2, 1]] * len(doc["y_m1"])  # json reads an integer as an int
    back = SingularOrbit.from_dict(doc)
    assert all(a.dtype == np.float64 for a in (back.t_m1, back.y_m1, back.t_m0, back.y_m0))


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
