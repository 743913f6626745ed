"""Direct numerical integration of the full system for eps > 0.

Provides the adaptive integration wrapper, the step-up continuation
protocol in eps, trait-crossing (jump) event detection, and the check
that a trajectory stays close to a singular orbit in the slow
coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.spatial import cKDTree

from .errors import ParameterDomainError, StiffnessError
from .model import Params, State, vector_field
from .orbit import SingularOrbit

__all__ = [
    "SimConfig", "Trajectory", "JumpEvent", "integrate", "continue_in_eps",
    "default_continuation_schedule", "detect_jump_events", "closeness_check",
]


@dataclass(frozen=True)
class SimConfig:
    """Integration settings for one run.

    ``max_step = None`` resolves to half the fast-layer width eps/2,
    which keeps the trait transitions resolved at any tolerance.
    """

    eps: float
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float | None = None
    n_samples: int = 2000

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ParameterDomainError(f"require eps > 0, got {self.eps}")
        if self.t_end <= 0.0:
            raise ParameterDomainError(f"require t_end > 0, got {self.t_end}")
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (0.0 < tol < 1.0):
                raise ParameterDomainError(f"require 0 < {name} < 1, got {tol}")
        if self.n_samples < 2:
            raise ParameterDomainError("need at least two output samples")

    def resolved_max_step(self) -> float:
        return 0.5 * self.eps if self.max_step is None else self.max_step


@dataclass
class Trajectory:
    """Sampled solution of the full system."""

    times: np.ndarray
    states: np.ndarray  # (n, 4): p1, p2, z, q
    params: Params
    config: SimConfig

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise ParameterDomainError("trajectory times must increase strictly")
        if self.states.shape != (len(self.times), 4):
            raise ParameterDomainError("states must be (n, 4) matching times")

    def final_state(self) -> State:
        p1, p2, z, q = self.states[-1]
        return State(p1, p2, float(z), float(min(max(q, 0.0), 1.0)))

    def to_csv(self, path) -> None:
        # one %-format over all rows; the same bytes as np.savetxt(fmt="%.17g")
        rows = np.column_stack([self.times, self.states])
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write("t,p1,p2,z,q\n")
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))

    def to_dict(self) -> dict:
        return {
            "kind": "trajectory",
            "r": self.params.r, "m": self.params.m,
            "config": {
                "eps": self.config.eps, "t_end": self.config.t_end,
                "rel_tol": self.config.rel_tol, "abs_tol": self.config.abs_tol,
                "max_step": self.config.max_step, "n_samples": self.config.n_samples,
            },
            "times": self.times.tolist(),
            "states": self.states.tolist(),
        }

    def to_json(self, path) -> None:
        # json.dumps runs the C encoder; json.dump(obj, fh) never does
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict()))

    @classmethod
    def from_dict(cls, d: dict) -> "Trajectory":
        cfg = SimConfig(**d["config"])
        return cls(times=np.asarray(d["times"]), states=np.asarray(d["states"]),
                   params=Params(d["r"], d["m"]), config=cfg)

    @classmethod
    def from_json(cls, path) -> "Trajectory":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def integrate(s0, p: Params, c: SimConfig) -> Trajectory:
    """Adaptively integrate the full system from ``s0`` over ``c.t_end``.

    Uses an explicit embedded Runge-Kutta pair of order 8(5,3); the fast
    layer is one-dimensional and non-oscillatory, so no implicit solver
    is needed down to the eps values of interest.
    """
    y0 = s0.to_array() if isinstance(s0, State) else np.asarray(s0, dtype=float)
    State.from_array(y0)  # validates positivity and q-range
    t_eval = np.linspace(0.0, c.t_end, c.n_samples)
    sol = solve_ivp(vector_field(p, c.eps), (0.0, c.t_end), y0, method="DOP853",
                    rtol=c.rel_tol, atol=c.abs_tol,
                    max_step=c.resolved_max_step(), t_eval=t_eval)
    if not sol.success:
        raise StiffnessError(
            f"integration stalled at t={sol.t[-1] if len(sol.t) else 0.0:g} "
            f"(eps={c.eps:g}): {sol.message}; lower the eps floor or tighten "
            "max_step")
    return Trajectory(times=sol.t, states=sol.y.T, params=p, config=c)


def default_continuation_schedule() -> list[tuple[float, float]]:
    """Step-up protocol: three sweeps of ten runs each.

    eps is linearly spaced 0.025 -> 0.2 and 0.2 -> 0.5 (50 time units per
    run), then 0.5 -> 1 (30 time units per run); each run starts from the
    final state of the previous one.
    """
    schedule = [(float(e), 50.0) for e in np.linspace(0.025, 0.2, 10)]
    schedule += [(float(e), 50.0) for e in np.linspace(0.2, 0.5, 10)]
    schedule += [(float(e), 30.0) for e in np.linspace(0.5, 1.0, 10)]
    return schedule


def continue_in_eps(s0, p: Params,
                    schedule: list[tuple[float, float]] | None = None) -> list[Trajectory]:
    """Chain integrations along an increasing eps schedule.

    ``schedule`` is a list of (eps, duration) pairs with positive,
    non-decreasing eps values; each run is seeded with the final state of
    the previous one.  Returns one Trajectory per schedule entry.
    """
    if schedule is None:
        schedule = default_continuation_schedule()
    eps_values = [e for e, _ in schedule]
    if any(e <= 0.0 for e in eps_values) or any(
            b < a for a, b in zip(eps_values, eps_values[1:])):
        raise ParameterDomainError("schedule eps values must be positive and non-decreasing")

    trajectories = []
    current = s0
    for index, (eps, duration) in enumerate(schedule):
        try:
            tr = integrate(current, p, SimConfig(eps=eps, t_end=duration))
        except StiffnessError as err:
            raise StiffnessError(f"schedule entry {index} (eps={eps:g}): {err}") from err
        trajectories.append(tr)
        current = tr.final_state()
    return trajectories


@dataclass(frozen=True)
class JumpEvent:
    """Crossing of the trait through q = 1/2."""

    time: float
    state: np.ndarray
    direction: str  # "up" (towards q=1) or "down"

    def slow_state(self) -> np.ndarray:
        return self.state[:3]


def detect_jump_events(tr) -> list[JumpEvent]:
    """Locate crossings of q through 1/2, refined by linear interpolation.

    Accepts anything with ``times`` and ``states`` arrays (trajectories
    and sampled singular orbits alike).  An empty list is a valid result.
    """
    times = np.asarray(tr.times)
    q = np.asarray(tr.states)[:, 3]
    delta = q - 0.5
    events = []
    crossings = np.flatnonzero(delta[:-1] * delta[1:] < 0.0)
    for i in crossings:
        frac = delta[i] / (delta[i] - delta[i + 1])
        t = times[i] + frac * (times[i + 1] - times[i])
        state = tr.states[i] + frac * (tr.states[i + 1] - tr.states[i])
        events.append(JumpEvent(time=float(t), state=np.asarray(state, dtype=float),
                                direction="up" if delta[i + 1] > delta[i] else "down"))
    return events


def closeness_check(tr, orbit: SingularOrbit, horizon: float | None = None) -> float:
    """Largest slow-coordinate distance from the trajectory to the orbit.

    For every sample with time <= ``horizon`` (default: the whole
    trajectory), the minimum Euclidean distance of (p1, p2, z) to the
    orbit's sampled point set is taken; the supremum over samples is
    returned.  The trait coordinate is excluded: it degenerates along the
    fast jumps, where the slow coordinates are the meaningful measure.
    """
    times = np.asarray(tr.times)
    if horizon is None:
        horizon = float(times[-1])
    if horizon > times[-1] + 1e-12:
        raise ParameterDomainError(
            f"horizon {horizon:g} exceeds the trajectory duration {times[-1]:g}")
    mask = times <= horizon
    points = np.asarray(tr.states)[mask, :3]
    tree = cKDTree(orbit.slow_points())
    distances, _ = tree.query(points)
    return float(np.max(distances))
