"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the measured runtimes.  Tolerances are stated inline; every expected
value is either analytic, produced by an independent oracle coded here,
or frozen from a first verified run.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from relaxor import (
    Anchor, Branch, Params, SimConfig, State, SyncLabel, Orientation,
    assemble_singular_orbit, characteristic_roots, classify_orientation,
    classify_synchronization, closeness_check, coexistence_equilibrium,
    continue_in_eps, detect_jump_events, effective_jump_pair,
    existence_residual, extrema, find_extrema, full_rhs, integrate,
    lambert_w, lv_branch, scan_family, slow_rhs, solve_balanced_orbit,
    solve_jump_points, travel_time_M0, travel_time_M1,
)
from relaxor.model import ManifoldTag, h0, h1

from conftest import CRITERION_9_BOX, PRINTED_PREDPREYPREY_ZB, REFERENCE_ORBITS


@contextmanager
def criterion(number, description, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({description}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({description}): PASS in {elapsed:.2f}s "
          f"(budget {budget:g}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"


def test_criterion_1_equilibrium_and_spectrum():
    with criterion(1, "equilibrium and spectrum", 1.0):
        for r in np.linspace(0.1, 0.9, 9):
            for m in np.linspace(0.1, 2.0, 10):
                p = Params(float(r), float(m))
                eq = coexistence_equilibrium(p)
                assert np.max(np.abs(full_rhs(eq, p, eps=0.1))) < 1e-12
                roots = characteristic_roots(p)
                assert np.max(np.abs(roots.real)) < 1e-12


def test_criterion_2_conservation():
    with criterion(2, "conserved-quantity drift", 5.0):
        p = Params(0.5, 0.4)
        for man, h in ((ManifoldTag.M0, h0), (ManifoldTag.M1, h1)):
            y0 = np.array([1.4, 0.6, 0.9])
            sol = solve_ivp(lambda t, y: slow_rhs(y, p, man), (0.0, 10.0), y0,
                            rtol=1e-10, atol=1e-10,
                            t_eval=np.linspace(0.0, 10.0, 400))
            prey = sol.y[1] if man is ManifoldTag.M0 else sol.y[0]
            values = h(prey, sol.y[2], p)
            assert np.ptp(values) < 1e-8


def test_criterion_3_lambert_w(rng):
    with criterion(3, "Lambert W round trip", 1.0):
        w = rng.uniform(-30.0, 30.0, 10000)
        x = w * np.exp(w)
        upper = w >= -1.0
        back = np.empty_like(w)
        back[upper] = lambert_w(Branch.PRINCIPAL, x[upper])
        back[~upper] = lambert_w(Branch.LOWER, x[~upper])
        residual = np.abs(back * np.exp(back) - x) / np.maximum(np.abs(x), 1e-300)
        assert np.max(residual) <= 1e-10
        assert lambert_w(Branch.PRINCIPAL, -1.0 / np.e) == pytest.approx(-1.0, abs=1e-8)
        assert lambert_w(Branch.LOWER, -1.0 / np.e) == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize("name", list(REFERENCE_ORBITS))
def test_criterion_4_reference_jump_points(name):
    """Each quoted orbit: converge at residual < 1e-10, coordinates within 0.02.

    The predator-prey-prey zB is the corrected 1.14, not the printed 1.39.
    The printed tuple breaks the q=0 first integral h0 by 0.09, and the
    smallest gap anywhere in the +-0.02 box is 0.022 > 0, so no true orbit
    matches it; h0 through the other five coordinates forces zB = 1.14
    (see test_criterion_4_printed_predpreyprey_zb_is_inconsistent).
    """
    with criterion(4, f"reference jump points ({name})", 10.0):
        (r, m), a, b = REFERENCE_ORBITS[name]
        p = Params(r, m)
        pair = solve_jump_points({"p1A": a[0], "zA": a[2]},
                                 {"p2A": a[1], "zB": b[2]}, p)
        res = existence_residual(pair.p1a, pair.p2a, pair.za, pair.zb, p)
        assert max(abs(res[0]), abs(res[1])) < 1e-10
        got = pair.as_dict()
        quoted = dict(zip(("p1A", "p2A", "zA", "p1B", "p2B", "zB"), a + b))
        for key, value in quoted.items():
            assert abs(got[key] - value) <= 0.02, (key, got[key], value)


def test_criterion_4_printed_predpreyprey_zb_is_inconsistent():
    """The printed predator-prey-prey zB = 1.39 cannot be matched by an orbit.

    A and B both lie on orbits of the q=0 slow flow, so h0(p2A, zA) must
    equal h0(p2B, zB).  On the +-0.02 box around the printed values h0
    rises with p2 below 1 and falls with z above r, so the gap
    h0(A) - h0(B) is bounded below by its value at one corner.  That bound
    exceeds 0.02, and keeping the other five values, the root zB > r of
    the gap rounds to the corrected reference entry 1.14.
    """
    (r, m), a, b = REFERENCE_ORBITS["predpreyprey"]
    p = Params(r, m)
    p2a, za, p2b, zb, d = a[1], a[2], b[1], PRINTED_PREDPREYPREY_ZB, 0.02
    # the corner argument needs the box on one side of p2 = 1 and z = r
    assert p2a + d < 1.0 < p2b - d and r < za - d and r < zb - d
    corner_gap = h0(p2a - d, za + d, p) - h0(p2b - d, zb - d, p)
    assert corner_gap > 0.02, corner_gap
    root = brentq(lambda z: h0(p2a, za, p) - h0(p2b, z, p), r, 10.0)
    assert round(root, 2) == b[2] == 1.14, root


@pytest.mark.slow
def test_criterion_5_travel_time_oracle(rng):
    with criterion(5, "travel-time oracle equivalence", 30.0):
        p = Params(0.5, 0.4)
        checked = 0
        while checked < 20:
            man = ManifoldTag.M1 if rng.random() < 0.5 else ManifoldTag.M0
            center = 1.0 if man is ManifoldTag.M1 else p.r
            anchor = Anchor(float(rng.uniform(0.3, 2.8)),
                            float(center * rng.uniform(0.35, 2.4)))
            if abs(anchor.p - 1.0) < 0.1 and abs(anchor.z - center) < 0.1 * center:
                continue
            pmin, pmax = extrema(man, anchor, p)
            margin = 0.02 * (pmax - pmin)
            prey_end = float(rng.uniform(pmin + margin, pmax - margin))
            # W0 picks the lower half of the level orbit, W-1 the upper half
            branch = Branch.PRINCIPAL if rng.random() < 0.5 else Branch.LOWER
            z_end = lv_branch(man, prey_end, anchor, branch, p)
            start, end = (anchor.p, anchor.z), (prey_end, float(z_end))
            if man is ManifoldTag.M1:
                t_quad = travel_time_M1(start, end, p)
                rhs = lambda t, y: [(1 - y[1]) * y[0], (y[0] - 1) * p.m * y[1]]
            else:
                t_quad = travel_time_M0(start, end, p)
                rhs = lambda t, y: [(p.r - y[1]) * y[0], (y[0] - 1) * p.m * y[1]]
            if t_quad < 0.05:  # too short to resolve an event cleanly
                continue
            target = np.asarray(end)
            flow = np.asarray(rhs(0.0, target))

            def section(t, y):
                return (y[0] - target[0]) * flow[0] + (y[1] - target[1]) * flow[1]

            section.direction = 0.0
            sol = solve_ivp(rhs, (0.0, 80.0), np.asarray(start), events=section,
                            rtol=1e-12, atol=1e-12)
            t_ode = None
            for t_event, y_event in zip(sol.t_events[0], sol.y_events[0]):
                near = np.linalg.norm(y_event - target) < 1e-4 * max(1.0, np.linalg.norm(target))
                if t_event > 1e-9 and near:
                    t_ode = float(t_event)
                    break
            assert t_ode is not None, "oracle never reached the end point"
            assert t_quad == pytest.approx(t_ode, rel=1e-4)
            checked += 1


def test_criterion_6_closeness_scaling():
    with criterion(6, "O(eps) closeness to the singular skeleton", 30.0):
        p = Params(0.5, 0.4)
        # the family member with zero net trait pressure on both slow
        # segments: the orbit the documented initial state settles onto
        pair = solve_balanced_orbit({"p1A": 1.218, "p2A": 0.811,
                                     "zA": 1.48624943, "zB": 1.48624943}, p)
        assert pair.p1a == pytest.approx(1.21759144, abs=1e-6)
        orbit = assemble_singular_orbit(pair, p, samples_per_segment=2000)
        s0 = State(1.18, 0.87, 1.50, 0.99)
        distances = {}
        for eps in (0.025, 0.0125):
            tr = integrate(s0, p, SimConfig(eps=eps, t_end=orbit.period,
                                            n_samples=4000))
            distances[eps] = closeness_check(tr, orbit)
            for event in detect_jump_events(tr):
                ref = pair.a_point() if event.direction == "up" else pair.b_point()
                assert np.max(np.abs(event.slow_state() - ref)) <= 0.15
        # frozen from the first verified run, then regression-tested
        assert distances[0.025] == pytest.approx(0.0664, abs=0.005)
        assert distances[0.0125] <= 0.75 * distances[0.025]


@pytest.mark.slow
def test_criterion_7_continuation_persistence():
    with criterion(7, "continuation to eps = 1", 120.0):
        p = Params(0.5, 0.4)
        s0 = State(1.18, 0.87, 1.50, 0.99)
        runs = continue_in_eps(s0, p)
        assert runs[-1].config.eps == pytest.approx(1.0)
        by_eps = {}
        for tr in runs:
            by_eps[round(tr.config.eps, 6)] = tr  # keep the later duplicate
        for eps in (0.2, 0.5, 1.0):
            tr = by_eps[eps]
            events = detect_jump_events(tr)
            ex = find_extrema(tr, events)
            sync = classify_synchronization(ex, effective_jump_pair(events, p), p)
            assert sync.prey_prey_antiphase, eps
            assert sync.label in (SyncLabel.PREY_PREY_ANTIPHASE,
                                  SyncLabel.PREDATOR_PREY_PREY), eps
            assert sync.orientation is Orientation.NEITHER, eps
        assert np.min(by_eps[1.0].states[:, 3]) > 0.0


def test_criterion_8_taxonomy(reference_orbits, antiphase_orbit):
    with criterion(8, "taxonomy reproduction", 30.0):
        expectations = {
            "antiphase": SyncLabel.PREY_PREY_ANTIPHASE,
            "predpreyprey": SyncLabel.PREDATOR_PREY_PREY,
            "predp2": SyncLabel.PREDATOR_PREY2_ALTERNATING,
        }
        cases = dict(reference_orbits)
        cases["antiphase"] = antiphase_orbit
        for name, label in expectations.items():
            p, pair, orbit = cases[name]
            sync = classify_synchronization(find_extrema(orbit), pair, p)
            assert sync.label is label, name
        # clockwise ordering of the predator and prey-1 peaks
        p, pair, orbit = cases["clockwise"]
        sync = classify_synchronization(find_extrema(orbit), pair, p)
        assert sync.orientation is Orientation.CLOCKWISE
        # counterclockwise ordering on pure slow-segment (Lotka-Volterra) data
        from types import SimpleNamespace
        pp = Params(0.5, 0.4)
        sol = solve_ivp(lambda t, y: slow_rhs(y, pp, ManifoldTag.M1),
                        (0.0, 25.0), [2.2, 0.5, 1.0],
                        t_eval=np.linspace(0.0, 25.0, 4000),
                        rtol=1e-11, atol=1e-11)
        states = np.column_stack([sol.y.T, np.ones(len(sol.t))])
        ex = find_extrema(SimpleNamespace(times=sol.t, states=states),
                          jump_times=[], align_tol=0.02)
        assert classify_orientation(ex) is Orientation.COUNTERCLOCKWISE


@pytest.mark.slow
def test_criterion_9_family_scan():
    with criterion(9, "20x20 family scan", 300.0):
        p = Params(0.5, 0.4)
        grid = tuple(np.linspace(lo, hi, n) for _, lo, hi, n in CRITERION_9_BOX)
        table = scan_family(p, grid, {"p2A": 0.49, "zB": 1.40})
        assert len(table) >= 50
        antiphase_rows = 0
        for row in table.rows:
            j = row.jump
            # direct re-evaluation of all four closure conditions
            assert abs(h0(j.p2a, j.za, p) - h0(j.p2b, j.zb, p)) < 1e-9
            assert abs(h1(j.p1a, j.za, p) - h1(j.p1b, j.zb, p)) < 1e-9
            t1 = travel_time_M1((j.p1a, j.za), (j.p1b, j.zb), p)
            assert abs(t1 - np.log(j.p2b / j.p2a) / p.r) < 1e-9
            t0 = travel_time_M0((j.p2b, j.zb), (j.p2a, j.za), p)
            assert abs(t0 - np.log(j.p1a / j.p1b)) < 1e-9
            assert j.p1a > j.p2a and j.p1b < j.p2b
            if j.za > 1.0 and j.zb > 1.0:
                antiphase_rows += 1
                orbit = assemble_singular_orbit(j, p, samples_per_segment=200)
                ex = find_extrema(orbit)
                for extremum in ex.entries["z"]:
                    if extremum.location == "at-jump":
                        assert extremum.kind == "min", row.pinned
                sync = classify_synchronization(ex, j, p)
                assert sync.prey_prey_antiphase, row.pinned
                assert sync.label in (SyncLabel.PREY_PREY_ANTIPHASE,
                                      SyncLabel.PREDATOR_PREY_PREY)
        assert antiphase_rows > 0
