import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relaxor import (
    ExtremaList, Extremum, InsufficientDataError, JumpEvent, ManifoldTag, Orientation,
    ParameterDomainError, SimConfig, State, SyncLabel, Trajectory, classify_orientation,
    classify_synchronization, detect_jump_events, effective_jump_pair, find_extrema,
    classify, integrate, slow_rhs,
)
import relaxor.analysis as analysis_module
from relaxor.analysis import classification_report


def test_antiphase_orbit_extrema_at_jumps(antiphase_orbit):
    p, pair, orbit = antiphase_orbit
    ex = find_extrema(orbit)
    assert {e.kind for e in ex.at_jump("p1", "up")} == {"max"}
    assert {e.kind for e in ex.at_jump("p1", "down")} == {"min"}
    assert {e.kind for e in ex.at_jump("p2", "up")} == {"min"}
    assert {e.kind for e in ex.at_jump("p2", "down")} == {"max"}


def test_predator_jump_extrema_are_minima_only(reference_orbits, antiphase_orbit):
    orbits = [v for v in reference_orbits.values()] + [antiphase_orbit]
    for p, pair, orbit in orbits:
        ex = find_extrema(orbit)
        for e in ex.entries["z"]:
            if e.location == "at-jump":
                assert e.kind == "min"


def test_prey_alignment_only_at_jumps(reference_orbits, antiphase_orbit):
    # interior prey extrema never coincide in time; alignment is possible
    # only at the jump points
    orbits = [v for v in reference_orbits.values()] + [antiphase_orbit]
    for p, pair, orbit in orbits:
        ex = find_extrema(orbit)
        interior1 = [e.time for e in ex.entries["p1"] if e.location == "interior"]
        interior2 = [e.time for e in ex.entries["p2"] if e.location == "interior"]
        for t1 in interior1:
            for t2 in interior2:
                assert abs(t1 - t2) > ex.align_tol


@pytest.mark.parametrize("align_tol", [-1e-3, np.nan, np.inf])
def test_find_extrema_refuses_a_negative_or_non_finite_align_tol(antiphase_orbit, align_tol):
    orbit = antiphase_orbit[2]
    with pytest.raises(ParameterDomainError, match="align_tol"):
        find_extrema(orbit, align_tol=align_tol)
    assert find_extrema(orbit, align_tol=0.0).align_tol == 0.0


def test_kinds_alternate_per_variable(reference_orbits):
    for p, pair, orbit in reference_orbits.values():
        ex = find_extrema(orbit)
        for var in ("p1", "p2", "z"):
            kinds = [e.kind for e in ex.entries[var]]
            assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_monotone_segment_has_no_interior_extrema():
    t = np.linspace(0.0, 5.0, 300)
    states = np.column_stack([np.exp(0.3 * t), np.exp(0.2 * t),
                              1.0 + 0.1 * t, np.full_like(t, 0.5)])
    source = SimpleNamespace(times=t, states=states)
    ex = find_extrema(source, jump_times=[(1.0, "up"), (4.0, "down")], align_tol=0.05)
    assert all(not ex.entries[var] for var in ("p1", "p2", "z"))


def test_insufficient_data_errors():
    t = np.linspace(0.0, 1.0, 50)
    states = np.column_stack([np.exp(t), np.exp(t), np.exp(t), np.full_like(t, 0.5)])
    source = SimpleNamespace(times=t, states=states)
    with pytest.raises(InsufficientDataError):
        find_extrema(source, jump_times=[(0.5, "up")], align_tol=0.01)


@pytest.mark.parametrize("keep_m1,keep_m0,segment", [
    (1, 1, "q = 1"), (1, 5, "q = 1"), (5, 1, "q = 0"), (2, 1, "q = 0")])
def test_short_orbit_segment_is_insufficient_data(reference_orbits, keep_m1, keep_m0,
                                                  segment):
    # the seam slopes take two samples on each side of a jump
    _, _, orbit = reference_orbits["hybrid"]
    cut = dataclasses.replace(orbit, t_m1=orbit.t_m1[-keep_m1:], y_m1=orbit.y_m1[-keep_m1:],
                              t_m0=orbit.t_m0[-keep_m0:], y_m0=orbit.y_m0[-keep_m0:])
    with pytest.raises(InsufficientDataError, match=f"the {segment} segment has 1 sample"):
        find_extrema(cut)


def test_classify_predator_prey_prey(reference_orbits):
    p, pair, orbit = reference_orbits["predpreyprey"]
    sync = classify_synchronization(find_extrema(orbit), pair, p)
    assert sync.label is SyncLabel.PREDATOR_PREY_PREY
    assert sync.prey_prey_antiphase
    assert sync.orientation is Orientation.COUNTERCLOCKWISE


def test_classify_predator_prey2_alternating(reference_orbits):
    p, pair, orbit = reference_orbits["predp2"]
    sync = classify_synchronization(find_extrema(orbit), pair, p)
    assert sync.label is SyncLabel.PREDATOR_PREY2_ALTERNATING
    assert not sync.prey_prey_antiphase
    assert p.r < pair.za < 1.0 and p.r < pair.zb < 1.0


def test_classify_pure_antiphase(antiphase_orbit):
    p, pair, orbit = antiphase_orbit
    sync = classify_synchronization(find_extrema(orbit), pair, p)
    assert sync.label is SyncLabel.PREY_PREY_ANTIPHASE
    assert sync.prey_prey_antiphase and not sync.predator_min_at_jumps


def test_classify_clockwise_orbit(reference_orbits):
    p, pair, orbit = reference_orbits["clockwise"]
    ex = find_extrema(orbit)
    sync = classify_synchronization(ex, pair, p)
    assert sync.label is SyncLabel.UNCLASSIFIED
    assert sync.orientation is Orientation.CLOCKWISE
    # the prey-1 vote specifically carries the clockwise ordering
    assert sync.orientation_votes["p1"]["verdict"] == "clockwise"


def test_classify_hybrid_orbit_neither(reference_orbits):
    # the predator peak sits near the middle of the two prey peaks; at the
    # qualitative tolerance of five percent of the period the verdict is
    # neither orientation
    p, pair, orbit = reference_orbits["hybrid"]
    ex = find_extrema(orbit)
    orientation = classify_orientation(ex, align_tol=0.05 * orbit.period)
    assert orientation is Orientation.NEITHER


def test_lv_segment_is_counterclockwise(params_default):
    # two full revolutions of the q=1 slow flow, with no trait jumps: the
    # prey-1 peak leads the predator peak by about a quarter period
    p = params_default
    y0 = np.array([2.2, 0.5, 1.0])
    sol = solve_ivp(lambda t, y: slow_rhs(y, p, ManifoldTag.M1), (0.0, 25.0), y0,
                    t_eval=np.linspace(0.0, 25.0, 4000), rtol=1e-11, atol=1e-11)
    states = np.column_stack([sol.y.T, np.ones(len(sol.t))])
    source = SimpleNamespace(times=sol.t, states=states)
    ex = find_extrema(source, jump_times=[], align_tol=0.02)
    orientation, votes = analysis_module._orientation_votes(ex, None)
    assert orientation is Orientation.COUNTERCLOCKWISE
    assert votes["p1"]["verdict"] == "counterclockwise"


def test_classification_invariant_under_time_shift_and_rescale(reference_orbits):
    p, pair, orbit = reference_orbits["predpreyprey"]
    times = np.concatenate([orbit.times, orbit.times + orbit.period])
    states = np.vstack([orbit.states, orbit.states])
    jumps = [(0.0, "up"), (pair.t1, "down"), (orbit.period, "up"),
             (orbit.period + pair.t1, "down"), (2 * orbit.period, "up")]

    def classify(scale, shift):
        source = SimpleNamespace(times=times * scale + shift,
                                 states=states)
        ex = find_extrema(source, jump_times=[(t * scale + shift, d) for t, d in jumps],
                          align_tol=1e-3 * orbit.period * scale)
        return classify_synchronization(ex, pair, p)

    base = classify(1.0, 0.0)
    shifted = classify(1.0, 17.3)
    scaled = classify(2.5, -4.0)
    assert base.label is shifted.label is scaled.label
    assert base.orientation is shifted.orientation is scaled.orientation


def test_effective_jump_pair_from_events(params_default):
    tr = integrate(State(1.18, 0.87, 1.50, 0.99), params_default,
                   SimConfig(eps=0.025, t_end=30.0))
    events = detect_jump_events(tr)
    pair = effective_jump_pair(events, params_default)
    assert pair.p1a > pair.p2a and pair.p1b < pair.p2b
    assert pair.t0 > 0.0 and pair.t1 > 0.0
    with pytest.raises(InsufficientDataError):
        effective_jump_pair(events[:1], params_default)


def test_effective_jump_pair_from_one_up_and_one_down_crossing(params_default):
    # with one crossing each way there is no interval between like crossings:
    # the period is twice the up -> down interval, split evenly
    up = JumpEvent(1.0, np.array([1.5, 0.5, 1.2, 0.5]), "up")
    down = JumpEvent(3.5, np.array([0.6, 2.1, 1.3, 0.5]), "down")
    pair = effective_jump_pair([up, down], params_default)
    assert (pair.p1a, pair.p2a, pair.za) == (1.5, 0.5, 1.2)
    assert (pair.p1b, pair.p2b, pair.zb) == (0.6, 2.1, 1.3)
    assert (pair.t1, pair.t0) == (2.5, 2.5)


def test_orientation_of_an_open_path_needs_two_predator_peaks():
    peak = Extremum(time=2.0, value=1.4, kind="max", location="interior")
    ex = ExtremaList(entries={"p1": [], "p2": [], "z": [peak]}, jump_times=[],
                     align_tol=0.1)
    with pytest.raises(InsufficientDataError, match="two predator peaks"):
        classify_orientation(ex)


def test_classification_report_is_json_ready(antiphase_orbit):
    import json

    p, pair, orbit = antiphase_orbit
    ex = find_extrema(orbit)
    sync = classify_synchronization(ex, pair, p)
    doc = classification_report(sync, ex)
    text = json.dumps(doc)
    assert "PreyPreyAntiphase" in text
    assert doc["period"] == pytest.approx(orbit.period)
    # each record holds its dataclass's fields, in declaration order
    assert list(doc["classification"]) == [
        "label", "orientation", "prey_prey_antiphase", "predator_min_at_jumps",
        "jump_extrema", "orientation_votes"]
    assert doc["classification"]["orientation"] == sync.orientation.value
    for var in ("p1", "p2", "z"):
        assert [list(e) for e in doc["extrema"][var]] == \
            [["time", "value", "kind", "location", "jump_direction"]] * len(ex.entries[var])
        assert [Extremum(**e) for e in doc["extrema"][var]] == ex.entries[var]


def test_classify_follows_the_recipe_of_each_source(preset_orbits, params_default):
    # an orbit is judged by its own jumps; a trajectory by its detected
    # crossings and the effective jump pair averaged out of them
    for name, (p, pair, orbit) in preset_orbits.items():
        for align_tol in (None, 0.01):
            ex = find_extrema(orbit, align_tol=align_tol)
            assert classify(orbit, align_tol) == \
                (classify_synchronization(ex, pair, p), ex), name
    for eps in (0.025, 0.01):
        tr = integrate(State(1.18, 0.87, 1.5, 0.99), params_default,
                       SimConfig(eps=eps, t_end=50.0))
        events = detect_jump_events(tr)
        ex = find_extrema(tr, events)
        assert classify(tr) == (classify_synchronization(
            ex, effective_jump_pair(events, params_default), params_default), ex), eps


def _per_sample_turns(y):
    # the sign-change scan as a loop over every sample, the oracle of _turns
    sign = np.sign(np.diff(y))
    return sign, [i for i in range(1, len(sign))
                  if not (sign[i - 1] == 0.0 or sign[i] == 0.0 or sign[i - 1] == sign[i])]


def test_extrema_equal_the_per_sample_scan(monkeypatch, rng, params_default, preset_orbits):
    sources = [integrate(State(1.18, 0.87, 1.5, 0.99), params_default,
                         SimConfig(eps=eps, t_end=50.0)) for eps in (0.025, 0.01)]
    sources += [orbit for _, _, orbit in preset_orbits.values()]
    found = [find_extrema(source) for source in sources]
    # a random walk in steps of -1, 0 and 1: plateaus next to turns, no jumps
    walk = Trajectory(np.arange(500.0), rng.integers(-1, 2, (500, 4)).cumsum(axis=0),
                      params_default, SimConfig(eps=0.1, t_end=499.0))
    walk_extrema = find_extrema(walk, jump_times=[])
    monkeypatch.setattr(analysis_module, "_turns", _per_sample_turns)
    for source, ex in zip(sources, found):
        assert all(ex.entries.values())
        assert ex == find_extrema(source)  # every field of every extremum
    assert walk_extrema == find_extrema(walk, jump_times=[])
