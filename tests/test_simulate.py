import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import relaxor.simulate
from relaxor import (
    Params, ParameterDomainError, SimConfig, State, Trajectory,
    closeness_check, coexistence_equilibrium, continue_in_eps,
    default_continuation_schedule, detect_jump_events, full_rhs, integrate,
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


def _edge_trajectory():
    # values whose shortest repr and %.17g text take every form: signed zero,
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


def test_to_csv_bytes_equal_savetxt(tmp_path, params_default):
    for i, tr in enumerate(_writer_cases(params_default)):
        tr.to_csv(tmp_path / f"{i}.csv")
        np.savetxt(tmp_path / f"{i}.ref.csv", np.column_stack([tr.times, tr.states]),
                   delimiter=",", header="t,p1,p2,z,q", comments="", fmt="%.17g")
        assert (tmp_path / f"{i}.csv").read_bytes() == (tmp_path / f"{i}.ref.csv").read_bytes()


def test_to_json_bytes_equal_json_dump(tmp_path, params_default, reference_orbits):
    _, _, orbit = reference_orbits["hybrid"]
    for i, doc in enumerate((*_writer_cases(params_default), orbit)):
        doc.to_json(tmp_path / f"{i}.json")
        with open(tmp_path / f"{i}.ref.json", "w") as fh:
            json.dump(doc.to_dict(), fh)
        assert (tmp_path / f"{i}.json").read_bytes() == (tmp_path / f"{i}.ref.json").read_bytes()


def test_integrate_matches_numpy_scalar_field_bitwise(monkeypatch, params_default):
    solutions = []

    def recording_solve_ivp(*args, **kwargs):
        solutions.append(solve_ivp(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(relaxor.simulate, "solve_ivp", recording_solve_ivp)
    s0 = State(1.18, 0.87, 1.50, 0.99)
    cfg = SimConfig(eps=0.1, t_end=20.0)
    tr = integrate(s0, params_default, cfg)
    reference = solve_ivp(numpy_scalar_field(params_default, cfg.eps), (0.0, cfg.t_end),
                          s0.to_array(), method="DOP853", rtol=cfg.rel_tol,
                          atol=cfg.abs_tol, max_step=cfg.resolved_max_step(),
                          t_eval=np.linspace(0.0, cfg.t_end, cfg.n_samples))
    assert solutions[0].nfev == reference.nfev
    assert tr.states.tobytes() == np.ascontiguousarray(reference.y.T).tobytes()
    assert tr.times.tobytes() == reference.t.tobytes()


def test_single_entry_schedule_equals_plain_integrate(params_default):
    s0 = State(1.2, 0.9, 1.4, 0.8)
    runs = continue_in_eps(s0, params_default, [(0.1, 4.0)])
    direct = integrate(s0, params_default, SimConfig(eps=0.1, t_end=4.0))
    assert len(runs) == 1
    assert np.array_equal(runs[0].states, direct.states)


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
