import gc
import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import ode, solve_ivp

import relaxor.simulate
from relaxor._scipy import scipy_module
from relaxor import (
    Params, ParameterDomainError, SimConfig, State, StiffnessError, Trajectory,
    assemble_singular_orbit, closeness_check, coexistence_equilibrium, continue_in_eps,
    default_continuation_schedule, detect_jump_events, full_rhs, integrate,
    iter_continue_in_eps, vector_field,
)

from conftest import numpy_scalar_field


def test_sim_config_validation():
    with pytest.raises(ParameterDomainError):
        SimConfig(eps=0.0, t_end=1.0)
    with pytest.raises(ParameterDomainError):
        SimConfig(eps=0.1, t_end=-1.0)
    with pytest.raises(ParameterDomainError):
        SimConfig(eps=0.1, t_end=1.0, rel_tol=2.0)
    assert SimConfig(eps=0.1, t_end=1.0).resolved_max_step() == pytest.approx(0.05)


def test_equilibrium_is_stationary(params_default):
    eq = coexistence_equilibrium(params_default)
    tr = integrate(eq, params_default, SimConfig(eps=0.1, t_end=10.0))
    assert np.max(np.abs(tr.states - eq.to_array())) < 1e-8


def test_positivity_and_trait_bounds(params_default):
    s0 = State(1.6, 0.5, 1.2, 0.9)
    cfg = SimConfig(eps=0.05, t_end=30.0)
    tr = integrate(s0, params_default, cfg)
    assert np.all(tr.states[:, :3] > 0.0)
    assert np.all(tr.states[:, 3] >= -cfg.abs_tol)
    assert np.all(tr.states[:, 3] <= 1.0 + cfg.abs_tol)


def test_time_reversal_returns_to_start(params_default):
    s0 = State(1.3, 0.8, 1.4, 0.8)
    cfg = SimConfig(eps=0.2, t_end=5.0)
    tr = integrate(s0, params_default, cfg)
    back = solve_ivp(lambda t, y: -full_rhs(y, params_default, cfg.eps),
                     (0.0, cfg.t_end), tr.states[-1], method="DOP853",
                     rtol=cfg.rel_tol, atol=cfg.abs_tol,
                     max_step=cfg.resolved_max_step())
    assert np.max(np.abs(back.y[:, -1] - s0.to_array())) < 100.0 * cfg.rel_tol


def test_tolerance_halving_self_check(params_default):
    s0 = State(1.18, 0.87, 1.50, 0.99)
    base = SimConfig(eps=0.1, t_end=20.0, rel_tol=1e-10, abs_tol=1e-10)
    tight = SimConfig(eps=0.1, t_end=20.0, rel_tol=5e-11, abs_tol=5e-11)
    end1 = integrate(s0, params_default, base).states[-1]
    end2 = integrate(s0, params_default, tight).states[-1]
    assert np.max(np.abs(end1 - end2)) < 10.0 * base.rel_tol * 10.0


def test_documented_continuation_start_looks_periodic(params_default):
    # the documented eps = 0.025 run: bounded oscillations with steady jumps
    tr = integrate(State(1.18, 0.87, 1.50, 0.99), params_default,
                   SimConfig(eps=0.025, t_end=50.0))
    events = detect_jump_events(tr)
    assert len(events) >= 20
    directions = [e.direction for e in events]
    assert all(a != b for a, b in zip(directions, directions[1:]))  # alternation
    assert 0.4 < tr.states[:, 0].min() and tr.states[:, 0].max() < 3.0


def test_detect_jump_events_on_sampled_orbit(reference_orbits):
    p, pair, orbit = reference_orbits["hybrid"]
    # tile two periods so both crossings appear as interior sign changes
    times = np.concatenate([orbit.times, orbit.times + orbit.period])
    states = np.vstack([orbit.states, orbit.states])
    tiled = SimpleNamespace(times=times, states=states)
    events = detect_jump_events(tiled)
    assert [e.direction for e in events] == ["down", "up", "down"]
    assert events[0].time == pytest.approx(pair.t1, abs=2e-3)
    assert events[1].time == pytest.approx(orbit.period, abs=2e-3)
    assert np.allclose(events[0].slow_state(), pair.b_point(), atol=5e-3)
    assert np.allclose(events[1].slow_state(), pair.a_point(), atol=5e-3)


def test_detect_jump_events_constant_trait(params_default):
    eq = coexistence_equilibrium(params_default)
    tr = integrate(eq, params_default, SimConfig(eps=0.1, t_end=5.0))
    assert detect_jump_events(tr) == []


def test_closeness_of_orbit_to_itself(reference_orbits):
    p, pair, orbit = reference_orbits["hybrid"]
    fake = SimpleNamespace(times=orbit.times, states=orbit.states)
    assert closeness_check(fake, orbit) < 1e-12
    with pytest.raises(ParameterDomainError):
        closeness_check(fake, orbit, horizon=2.0 * orbit.period)


def test_trajectory_json_round_trip_is_bit_exact(tmp_path, params_default):
    tr = integrate(State(1.2, 0.9, 1.4, 0.8), params_default,
                   SimConfig(eps=0.1, t_end=3.0, n_samples=500))
    path = tmp_path / "run.json"
    tr.to_json(path)
    back = Trajectory.from_json(path)
    assert np.array_equal(back.times, tr.times)
    assert np.array_equal(back.states, tr.states)
    assert back.config == tr.config
    assert back.params == tr.params
    csv_path = tmp_path / "run.csv"
    tr.to_csv(csv_path)
    assert csv_path.read_text().splitlines()[0] == "t,p1,p2,z,q"


def test_trajectory_refuses_nan_times(params_default):
    cfg = SimConfig(eps=0.1, t_end=1.0)
    with pytest.raises(ParameterDomainError, match="increase strictly"):
        Trajectory([0.0, math.nan, 1.0], np.ones((3, 4)), params_default, cfg)
    doc = Trajectory([0.0, 0.5, 1.0], np.ones((3, 4)), params_default, cfg).to_dict()
    doc["times"][1] = math.nan
    with pytest.raises(ParameterDomainError, match="increase strictly"):
        Trajectory.from_dict(doc)


def test_trajectory_orders_times_whose_gaps_overflow(params_default):
    # the gap from -1e292 to the largest double is beyond float64
    big = np.finfo(float).max
    times = [-9.9792015476736e291, big]
    Trajectory(times, np.ones((2, 4)), params_default, SimConfig(eps=0.1, t_end=1.0))
    with pytest.raises(ParameterDomainError, match="increase strictly"):
        Trajectory(times[::-1], np.ones((2, 4)), params_default, SimConfig(eps=0.1, t_end=1.0))


def _edge_trajectory():
    # values whose shortest repr takes every form: signed zero,
    # subnormal, largest double, exponents, integers, non-finite
    states = np.array([[0.0, -0.0, 5e-324, 1.7976931348623157e308],
                       [1.0, 2.5, -1e-17, 123456789.125],
                       [0.1, 1 / 3, 2 / 3, 1e22],
                       [np.nan, np.inf, -np.inf, 0.999999999999999]])
    return Trajectory(times=[0.0, 1e-9, 0.5, 3.0], states=states,
                      params=Params(0.5, 0.4), config=SimConfig(eps=0.1, t_end=3.0))


def _writer_cases(params):
    integrated = integrate(State(1.2, 0.9, 1.4, 0.8), params,
                           SimConfig(eps=0.1, t_end=3.0, n_samples=500))
    return integrated, _edge_trajectory()


def _assert_writers_match_references(tr, directory):
    """Both writers of ``tr`` against references written here, one number at a time."""
    tr.to_csv(directory / "tr.csv")
    tr.to_json(directory / "tr.json")
    rows = np.column_stack([tr.times, tr.states])
    csv_text = (directory / "tr.csv").read_text()
    assert csv_text == "t,p1,p2,z,q\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows.tolist())
    # every NaN, whatever its sign and payload, is written "nan"
    back = [[float(v) for v in line.split(",")] for line in csv_text.splitlines()[1:]]
    assert (np.array(back).reshape(rows.shape).tobytes()
            == np.where(np.isnan(rows), np.nan, rows).tobytes())
    with open(directory / "tr.ref.json", "w") as fh:
        json.dump(tr.to_dict(), fh)
    assert (directory / "tr.json").read_bytes() == (directory / "tr.ref.json").read_bytes()


def test_to_csv_writes_each_number_as_its_repr(tmp_path, params_default):
    # the CSV and the JSON share one number text, the shortest repr, and each
    # CSV field parses back to the same double bit for bit
    for tr in _writer_cases(params_default):
        _assert_writers_match_references(tr, tmp_path)


def test_writers_format_no_stale_numbers(tmp_path):
    times = np.linspace(0.0, 3.0, 5)
    config, params = SimConfig(eps=0.1, t_end=3.0), Params(0.5, 0.4)
    states = np.arange(20.0).reshape(5, 4)
    # two trajectories on one time grid, with different states
    for scale in (1.0, 0.5):
        _assert_writers_match_references(
            Trajectory(times, scale * states, params, config), tmp_path)
    # states edited in place between two writes
    tr = Trajectory(times, states.copy(), params, config)
    _assert_writers_match_references(tr, tmp_path)
    tr.states[2, 1] = -np.inf
    _assert_writers_match_references(tr, tmp_path)
    # 0.0 and -0.0 compare equal but write differently
    zeros = np.zeros((2, 4))
    for sign in (1.0, -1.0):
        _assert_writers_match_references(
            Trajectory([sign * 0.0, 1.0], sign * zeros, params, config), tmp_path)


@settings(max_examples=200, deadline=None)
@given(times=st.lists(st.floats(allow_nan=False), max_size=6, unique=True),
       values=st.lists(st.floats(), min_size=24, max_size=24))
def test_writers_match_references_on_any_doubles(tmp_path_factory, times, values):
    times = np.sort(times)
    states = np.resize(values, (len(times), 4))
    tr = Trajectory(times, states, Params(0.5, 0.4), SimConfig(eps=0.1, t_end=3.0))
    _assert_writers_match_references(tr, tmp_path_factory.mktemp("writers"))


def test_to_json_bytes_equal_json_dump(tmp_path, params_default, reference_orbits):
    _, _, orbit = reference_orbits["hybrid"]
    for i, doc in enumerate((*_writer_cases(params_default), orbit)):
        doc.to_json(tmp_path / f"{i}.json")
        with open(tmp_path / f"{i}.ref.json", "w") as fh:
            json.dump(doc.to_dict(), fh)
        assert (tmp_path / f"{i}.json").read_bytes() == (tmp_path / f"{i}.ref.json").read_bytes()


def _count_field_calls(monkeypatch, field):
    """Route ``integrate`` through ``field``; returns the ndim of each call's state."""
    ndims = []

    def counted_field(p, eps):
        rhs = field(p, eps)

        def counted(t, y):
            ndims.append(y.ndim)
            return rhs(t, y)

        return counted

    monkeypatch.setattr(relaxor.simulate, "vector_field", counted_field)
    return ndims


def test_integrate_steps_and_samples_bitwise_with_the_numpy_scalar_field(monkeypatch,
                                                                          params_default):
    # the compiled stepper takes the same steps, and the sampler's one pass
    # over the (4, n) array returns the same bits, whether the four equations
    # are evaluated on Python floats or on numpy scalars and arrays
    s0 = State(1.18, 0.87, 1.50, 0.99)
    cfg = SimConfig(eps=0.1, t_end=20.0)
    runs = []
    for field in (vector_field, numpy_scalar_field):
        ndims = _count_field_calls(monkeypatch, field)
        runs.append((integrate(s0, params_default, cfg), ndims))
    (tr, ndims), (reference, reference_ndims) = runs
    assert ndims == reference_ndims
    assert ndims.count(1) == tr.rhs_evals > 0
    assert ndims.count(2) == 12  # one per stage of the sampling step
    assert tr.states.tobytes() == reference.states.tobytes()
    assert tr.times.tobytes() == reference.times.tobytes()


def test_integrate_work_and_statistics_at_eps_one_half(monkeypatch, params_default):
    # a machine-independent work guard: one run steps from 0 to t_end, so
    # at eps = 0.5 the 2,000 samples no longer end a step each (27,986
    # right-hand-side calls when they did; 3,070 in 219 accepted steps now)
    ndims = _count_field_calls(monkeypatch, vector_field)
    tr = integrate(State(1.18, 0.87, 1.50, 0.99), params_default,
                   SimConfig(eps=0.5, t_end=30.0))
    assert ndims.count(1) == tr.rhs_evals <= 3100
    assert ndims.count(2) == 12
    # 12 calls per accepted step, 11 per rejected one, 2 for the first step size
    assert 12 * tr.steps + 2 <= tr.rhs_evals


@pytest.mark.slow
def test_integrate_keeps_no_step_record_alive(params_default):
    # scipy's dop853 wrapper leaks a reference to the step recorder on each
    # run; a record and sample list left filled would stay alive (a kept
    # point for each of the 2,000 steps here, 40 bytes each, and 2,001
    # sample times), an emptied recorder leaves under 1 kB
    s0 = State(1.18, 0.87, 1.50, 0.99)
    cfg = SimConfig(eps=0.01, t_end=10.0)
    integrate(s0, params_default, cfg)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        integrate(s0, params_default, cfg)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            integrate(s0, params_default, cfg)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown / 4 < 20_000


@pytest.mark.slow
def test_integrate_memory_follows_the_samples_not_the_steps(params_default):
    # 20,000 steps for 50 samples: a record of every step point held 800 kB
    # and its array copy another 800 kB; the points samples start from, 2 kB
    s0 = State(1.18, 0.87, 1.50, 0.99)
    cfg = SimConfig(eps=0.01, t_end=100.0, n_samples=50)
    tracemalloc.start()
    try:
        tr = integrate(s0, params_default, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.steps >= 20_000
    assert peak < 200_000


def test_stepper_runs_leave_no_integrator_state_alive(params_default, reference_pairs):
    # scipy's dop853 wrapper leaks a reference to the step recorder of each
    # run; every recorder still alive must hold an empty record and sample list
    def held():
        gc.collect()
        return [cell.cell_contents for f in gc.get_objects()
                if callable(f) and getattr(f, "__qualname__", "") == "dop853_samples.<locals>.keep"
                for cell in f.__closure__ if hasattr(cell.cell_contents, "__len__")]

    for eps in (0.1, 0.2, 0.3):
        integrate(State(1.18, 0.87, 1.5, 0.99), params_default, SimConfig(eps=eps, t_end=1.0))
    p, pair = reference_pairs["hybrid"]
    assemble_singular_orbit(pair, p)
    assert not any(map(len, held()))


def test_sampling_in_blocks_is_bitwise_one_pass(monkeypatch, params_default):
    s0 = State(1.18, 0.87, 1.50, 0.99)
    cfg = SimConfig(eps=0.3, t_end=20.0, n_samples=500)
    one_pass = integrate(s0, params_default, cfg)
    monkeypatch.setattr(relaxor.simulate, "_SAMPLE_BLOCK", 7)
    blocks = integrate(s0, params_default, cfg)
    assert blocks.states.tobytes() == one_pass.states.tobytes()


def test_samples_are_the_linspace_grid_from_the_start_state(params_default):
    s0 = State(1.18, 0.87, 1.50, 0.99)
    cfg = SimConfig(eps=0.05, t_end=7.0, n_samples=301)
    tr = integrate(s0, params_default, cfg)
    assert tr.times.tobytes() == np.linspace(0.0, 7.0, 301).tobytes()
    assert tr.states[0].tobytes() == s0.to_array().tobytes()


def test_two_samples_take_the_whole_run_in_one_call(params_default):
    # 4,000 capped steps between the two samples; the stepper's budget
    # must not end the run
    s0 = State(1.18, 0.87, 1.50, 0.99)
    two = integrate(s0, params_default, SimConfig(eps=0.025, t_end=50.0, n_samples=2))
    full = integrate(s0, params_default, SimConfig(eps=0.025, t_end=50.0))
    assert two.times.tolist() == [0.0, 50.0]
    assert np.max(np.abs(two.states[-1] - full.states[-1])) < 1e-9


def test_stepper_failure_raises_stiffness_error_and_no_warning(params_default):
    # at eps = 1e-300 no step passes the error test; a warning that escaped
    # integrate would be raised here in place of the StiffnessError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError, match=r"t=0 \(eps=1e-300\): dop853: "):
            integrate(State(1.18, 0.87, 1.5, 0.5), params_default,
                      SimConfig(eps=1e-300, t_end=1.0))


def _logit_reference(y0, p, eps, times):
    """Slow coordinates at ``times`` from DOP853 in (ln p1, ln p2, ln z, logit q).

    rtol 1e-13, atol 1e-14, steps capped at eps/20.  Each call of the
    compiled stepper runs to the next point of a grid of spacing at most
    eps/20: the stepper keeps its clock as t += h, and over many steps in
    one call the rounding of that sum shifts the phase by about 1e-11 at
    t = 50.  Agrees with the same system under ``solve_ivp`` to 1.4e-13
    at eps = 0.025.
    """
    r, m = p.r, p.m

    def rhs(t, w):
        p1, p2, z = (math.exp(v) for v in w[:3].tolist())
        q = 0.5 + 0.5 * math.tanh(0.5 * w[3])
        return (1.0 - q * z, r - (1.0 - q) * z,
                (q * p1 + (1.0 - q) * p2 - 1.0) * m, (p1 - p2) / eps)

    sub = math.ceil((times[1] - times[0]) / (eps / 20.0))
    grid = np.linspace(times[0], times[-1], (len(times) - 1) * sub + 1)
    stepper = ode(rhs).set_integrator("dop853", rtol=1e-13, atol=1e-14,
                                      max_step=eps / 20.0, nsteps=10**6)
    stepper.set_initial_value([*np.log(y0[:3]), math.log(y0[3] / (1.0 - y0[3]))])
    out = [y0[:3]]
    for k in range(1, len(grid)):
        w = stepper.integrate(grid[k])
        assert stepper.successful()
        if k % sub == 0:
            out.append(np.exp(w[:3]))
    return np.array(out)


# twice the slow-coordinate error against this reference of the stepper
# that integrate used before: solve_ivp at eps 0.025 and 0.01 (3.70e-12 and
# 2.69e-11); at eps 0.1 and 0.5, where eps/2 exceeds the 0.025 sample
# spacing, the compiled stepper ending a step at every sample (5.98e-13 and
# 7.31e-14)
ORACLE_BOUNDS = {0.025: 7.39e-12, 0.01: 5.37e-11, 0.1: 1.20e-12, 0.5: 1.46e-13}


@pytest.mark.slow
@pytest.mark.parametrize("eps", sorted(ORACLE_BOUNDS))
def test_integrate_matches_tight_logit_reference(params_default, eps):
    s0 = State(1.18, 0.87, 1.5, 0.99)
    cfg = SimConfig(eps=eps, t_end=50.0)
    tr = integrate(s0, params_default, cfg)
    reference = _logit_reference(s0.to_array(), params_default, eps, tr.times)
    error = np.max(np.abs(tr.states[:, :3] - reference))
    assert error <= ORACLE_BOUNDS[eps]
    assert error < cfg.rel_tol
    assert tr.integral_drift() < 1e-12


def test_single_entry_schedule_equals_plain_integrate(params_default):
    s0 = State(1.2, 0.9, 1.4, 0.8)
    runs = continue_in_eps(s0, params_default, [(0.1, 4.0)])
    direct = integrate(s0, params_default, SimConfig(eps=0.1, t_end=4.0))
    assert len(runs) == 1
    assert np.array_equal(runs[0].states, direct.states)


def test_chain_yields_each_run_before_integrating_the_next(monkeypatch, params_default):
    calls = []
    monkeypatch.setattr(relaxor.simulate, "integrate",
                        lambda *args: calls.append(args) or integrate(*args))
    s0 = State(1.2, 0.9, 1.4, 0.8)
    chain = iter_continue_in_eps(s0, params_default, [(0.1, 1.0), (0.2, 1.0)])
    first = next(chain)
    assert len(calls) == 1
    second = next(chain)
    assert calls[1][0] == first.final_state() and second.config.eps == 0.2
    assert next(chain, None) is None


@pytest.mark.parametrize("name,value", [
    ("eps", math.nan), ("eps", math.inf), ("t_end", math.nan), ("t_end", math.inf),
    ("max_step", -1.0), ("max_step", 0.0), ("max_step", math.nan), ("max_step", math.inf),
])
def test_sim_config_requires_finite_positive_values(name, value):
    with pytest.raises(ParameterDomainError, match=f"finite {name} > 0"):
        SimConfig(**{"eps": 0.1, "t_end": 1.0, name: value})


@pytest.mark.parametrize("schedule", [
    [(math.nan, 1.0)], [(0.1, 1.0), (math.inf, 1.0)], [(0.1, 1.0), (0.2, math.nan)],
])
def test_schedule_refuses_non_finite_entries_before_any_run(params_default, monkeypatch,
                                                            schedule):
    runs = []
    monkeypatch.setattr(relaxor.simulate, "integrate", lambda *args: runs.append(args))
    with pytest.raises(ParameterDomainError, match="finite"):
        next(iter_continue_in_eps(State(1.2, 0.9, 1.4, 0.8), params_default, schedule))
    assert runs == []


def test_schedule_validation(params_default):
    s0 = State(1.2, 0.9, 1.4, 0.8)
    with pytest.raises(ParameterDomainError):
        continue_in_eps(s0, params_default, [(0.2, 1.0), (0.1, 1.0)])
    with pytest.raises(ParameterDomainError):
        continue_in_eps(s0, params_default, [(-0.1, 1.0)])


def test_default_schedule_matches_protocol():
    schedule = default_continuation_schedule()
    assert len(schedule) == 30
    eps = [e for e, _ in schedule]
    durations = [d for _, d in schedule]
    assert eps[0] == pytest.approx(0.025)
    assert eps[9] == pytest.approx(0.2)
    assert eps[19] == pytest.approx(0.5)
    assert eps[-1] == pytest.approx(1.0)
    assert all(b >= a for a, b in zip(eps, eps[1:]))
    assert durations[:20] == [50.0] * 20
    assert durations[20:] == [30.0] * 10


@pytest.mark.parametrize("name,needed", [("integrate._no_such_file", "dopri853"),
                                         ("integrate._dop", "no_such_driver"),
                                         ("special._special_ufuncs", "no_such_ufunc")],
                         ids=["file", "attribute", "ufunc"])
def test_a_missing_scipy_part_names_the_scipy_version(name, needed):
    import scipy

    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}; relaxor needs"):
        scipy_module(name, needed)
