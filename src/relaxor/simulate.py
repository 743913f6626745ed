"""Direct numerical integration of the full system for eps > 0.

Provides the adaptive integration wrapper, the step-up continuation
protocol in eps, trait-crossing (jump) event detection, and the check
that a trajectory stays close to a singular orbit in the slow
coordinates.
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, ode, solve_ivp  # solve_ivp: perfbench/tracing.py wraps it here
from scipy.spatial import cKDTree

from .errors import ParameterDomainError, StiffnessError
from .model import Params, State, full_integral, vector_field
from .orbit import SingularOrbit

__all__ = [
    "SimConfig", "Trajectory", "JumpEvent", "integrate", "iter_continue_in_eps",
    "continue_in_eps", "default_continuation_schedule", "detect_jump_events",
    "closeness_check",
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


@functools.lru_cache(maxsize=2)
def _repr_lines(data: bytes, width: int) -> str:
    """One line ``repr,repr,...`` for each row of ``width`` float64 numbers in ``data``.

    The one number text of both trajectory writers.  Keyed by the bytes of
    one array, so a trajectory's CSV and JSON format each number once, and
    runs that share a time grid format it once; one string per array keeps
    the memo small.
    """
    values = np.frombuffer(data).tolist()
    return (",".join(["%r"] * width) + "\n") * (len(values) // width) % tuple(values)


@dataclass
class Trajectory:
    """Sampled solution of the full system."""

    times: np.ndarray
    states: np.ndarray  # (n, 4): p1, p2, z, q
    params: Params
    config: SimConfig
    # the stepper's accepted steps and right-hand-side calls; None when read from a file
    steps: int | None = None
    rhs_evals: int | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if not np.all(np.diff(self.times) > 0.0):  # also refuses NaN times
            raise ParameterDomainError("trajectory times must increase strictly")
        if self.states.shape != (len(self.times), 4):
            raise ParameterDomainError("states must be (n, 4) matching times")

    def final_state(self) -> State:
        p1, p2, z, q = self.states[-1]
        return State(p1, p2, float(z), float(min(max(q, 0.0), 1.0)))

    def integral_drift(self) -> float | None:
        """Largest |H_eps(t) - H_eps(0)| over the samples.

        A machine-independent gauge of the integration error.  None when a
        sample lies on (or rounds onto) q = 0 or q = 1, where H_eps is
        infinite.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            h = full_integral(self.states, self.params, self.config.eps)
        if not np.all(np.isfinite(h)):
            return None
        return float(np.max(np.abs(h - h[0])))

    def to_csv(self, path) -> None:
        # each number in its shortest repr, the text of to_json
        times, states = self._number_lines()
        lines = itertools.chain.from_iterable(zip(times.splitlines(), states.splitlines()))
        with open(path, "w") as fh:
            fh.write("t,p1,p2,z,q\n")
            fh.write("%s,%s\n" * len(self.times) % tuple(lines))

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
        # the bytes of json.dump(self.to_dict()), whose last two keys are the
        # numbers: json writes a finite float as its repr
        head = self.to_dict()
        del head["times"], head["states"]
        times, states = self._number_lines()
        rows = states.replace(",", ", ").replace("\n", "], [")  # "a, b], [c, d], ["
        numbers = '"times": [%s], "states": [%s]}' % (
            times.replace("\n", ", ")[:-2], ("[" + rows)[:-3])
        if not (np.isfinite(self.times).all() and np.isfinite(self.states).all()):
            numbers = numbers.replace("nan", "NaN").replace("inf", "Infinity")
        with open(path, "w") as fh:
            fh.write(json.dumps(head)[:-1] + ", " + numbers)

    def _number_lines(self) -> tuple[str, str]:
        return _repr_lines(self.times.tobytes(), 1), _repr_lines(self.states.tobytes(), 4)

    @classmethod
    def from_dict(cls, d: dict) -> "Trajectory":
        try:
            cfg = SimConfig(**d["config"])
        except TypeError as err:  # missing, unknown or non-numeric settings
            raise ParameterDomainError(f"malformed trajectory config: {err}") from err
        return cls(times=np.asarray(d["times"]), states=np.asarray(d["states"]),
                   params=Params(d["r"], d["m"]), config=cfg)

    @classmethod
    def from_json(cls, path) -> "Trajectory":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# the largest step budget the stepper takes (an int32): a run has no step limit
_MAX_STEPS = np.iinfo(np.int32).max

# samples taken per sampling pass; bounds its stage array at 1.5 MB
_SAMPLE_BLOCK = 4096


def integrate(s0, p: Params, c: SimConfig) -> Trajectory:
    """Adaptively integrate the full system from ``s0`` over ``c.t_end``.

    Uses Hairer's compiled DOP853, an explicit embedded Runge-Kutta pair
    of order 8(5,3), which calls back into Python only for the right-hand
    side; the fast layer is one-dimensional and non-oscillatory, so no
    implicit solver is needed down to the eps values of interest.  One
    call steps from 0 to ``t_end``.  The ``n_samples`` equally spaced
    times are then taken together: each sample starts from the last
    accepted step point at or before its time and takes one 12-stage step
    of the stepper's own 8th-order tableau up to it, with ``vector_field``
    evaluated on the (4, n) array of many samples at once.  A sample on a
    step point, such as t = 0 or ``t_end``, is that step point.  Only the
    step points some sample starts from are kept, so memory grows with
    ``n_samples``, not with the number of steps.  The trajectory carries
    the number of accepted steps and of right-hand-side calls the stepper
    made.

    The samples are not step ends, so they carry the stepper's global
    error at ``rel_tol``.  Where eps/2 is longer than the sample spacing
    that error is far above ``rel_tol``: 3.7e-10 at eps = 0.1 and 1.6e-8
    at eps = 0.5 from the default state over t = 50.

    The compiled stepper behind ``scipy.integrate.ode`` is not
    re-entrant: a dop853 integration started inside the right-hand side
    corrupts the outer one, and two threads must not integrate at once.
    Separate calls in sequence, each with its own ``ode`` object, are safe.
    """
    y0 = s0.to_array() if isinstance(s0, State) else np.asarray(s0, dtype=float)
    State.from_array(y0)  # validates positivity and q-range
    field = vector_field(p, c.eps)
    times = np.linspace(0.0, c.t_end, c.n_samples)
    due = [*times.tolist(), math.inf]  # the sample times, then a sentinel
    k = 0  # the first sample at or after the last kept step point
    record = array.array("d")  # t, p1, p2, z, q of each kept step point

    def keep(t, y):
        nonlocal k
        if due[k] >= t:
            del record[-5:]  # no sample starts from the last kept point, if any
        while due[k] < t:
            k += 1
        record.append(t)
        record.frombytes(y.tobytes())  # about 0.1 µs; extend(y) takes 0.9 µs

    stepper = ode(field).set_integrator(
        "dop853", rtol=c.rel_tol, atol=c.abs_tol, max_step=c.resolved_max_step(),
        nsteps=_MAX_STEPS)
    stepper.set_solout(keep)
    stepper.set_initial_value(y0, 0.0)
    try:
        # the stepper reports a failed call through a UserWarning and its return code
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            stepper.integrate(c.t_end)
        if not stepper.successful():
            reason = (caught[-1].message if caught
                      else f"return code {stepper.get_return_code()}")
            raise StiffnessError(
                f"integration stalled at t={stepper.t:g} (eps={c.eps:g}): "
                f"{reason}; lower the eps floor or tighten max_step")
        points = np.array(record).reshape(-1, 5)
    finally:
        # the dop853 integrator sits in a reference cycle that keeps ``keep``,
        # and with it the step record, alive until the next full collection
        del record[:], due[:]
    states = np.empty((c.n_samples, 4))
    for lo in range(0, c.n_samples, _SAMPLE_BLOCK):
        block = slice(lo, lo + _SAMPLE_BLOCK)
        states[block] = _sample(field, points[:, 0], points[:, 1:], times[block])
    # Hairer's IWORK(17) and IWORK(19), the right-hand-side calls and the
    # accepted steps, at these places in scipy 1.17.1's dop853 work array
    rhs_evals, steps = (int(n) for n in stepper._integrator.iwork[[16, 18]])
    return Trajectory(times=times, states=states, params=p, config=c,
                      steps=steps, rhs_evals=rhs_evals)


def _sample(field, step_t, step_y, times):
    """States at ``times``, each one partial DOP853 step from the last step point at or before."""
    i = np.searchsorted(step_t, times, side="right") - 1
    t, y = step_t[i], step_y[i].T
    h = times - t
    k = np.empty((len(DOP853.B), *y.shape))
    for s, (a, c) in enumerate(zip(DOP853.A, DOP853.C)):
        k[s] = field(t + c * h, y + h * np.tensordot(a[:s], k[:s], axes=1))
    return (y + h * np.tensordot(DOP853.B, k, axes=1)).T


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


def iter_continue_in_eps(s0, p: Params,
                         schedule: list[tuple[float, float]] | None = None
                         ) -> Iterator[Trajectory]:
    """Chain integrations along an increasing eps schedule, yielding each run as it ends.

    ``schedule`` is a list of (eps, duration) pairs with positive,
    non-decreasing eps values; each run is seeded with the final state of
    the previous one.  Yields one Trajectory per schedule entry, so a
    caller can use a run while the next one integrates.  The schedule is
    checked when the first run is asked for.
    """
    if schedule is None:
        schedule = default_continuation_schedule()
    eps_values = [e for e, _ in schedule]
    if any(e <= 0.0 for e in eps_values) or any(
            b < a for a, b in zip(eps_values, eps_values[1:])):
        raise ParameterDomainError("schedule eps values must be positive and non-decreasing")

    current = s0
    for index, (eps, duration) in enumerate(schedule):
        try:
            tr = integrate(current, p, SimConfig(eps=eps, t_end=duration))
        except StiffnessError as err:
            raise StiffnessError(f"schedule entry {index} (eps={eps:g}): {err}") from err
        yield tr
        current = tr.final_state()


def continue_in_eps(s0, p: Params,
                    schedule: list[tuple[float, float]] | None = None) -> list[Trajectory]:
    """All runs of ``iter_continue_in_eps``: one Trajectory per schedule entry."""
    return list(iter_continue_in_eps(s0, p, schedule))


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
