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
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np
# submodules by qualified name: scipy imports each on its first use
import scipy

from ._scipy import scipy_module
from .errors import ParameterDomainError, StiffnessError, require_positive, require_samples
from .model import Params, State, field_binder, full_integral

if TYPE_CHECKING:  # orbit imports this module's stepper
    from .orbit import SingularOrbit

__all__ = [
    "SimConfig", "Trajectory", "JumpEvent", "integrate", "iter_continue_in_eps",
    "continue_in_eps", "default_continuation_schedule", "detect_jump_events",
    "closeness_check",
]


# the most steps a run may ask for: a t_end / max_step, the fewest steps the
# run can take, above this is refused before stepping (the longest run of the
# tests, presets and benchmark takes 20,000 steps; 10^7 steps make about
# 1.2e8 right-hand-side calls)
_STEP_BUDGET = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Integration settings for one run.

    ``max_step = None`` resolves to half the fast-layer width eps/2,
    which keeps the trait transitions resolved at any tolerance.  eps,
    t_end and a set max_step must be finite and positive, n_samples a
    whole number of at least 2, and t_end / max_step, the fewest steps the
    run can take, at most 10^7.
    """

    eps: float
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float | None = None
    n_samples: int = 2000

    def __post_init__(self):
        # an unset max_step resolves to eps/2, which passes with eps
        require_positive("eps, t_end and max_step",
                         (self.eps, self.t_end, self.resolved_max_step()))
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (0.0 < tol < 1.0):
                raise ParameterDomainError(f"require 0 < {name} < 1, got {tol}")
        require_samples("output samples", self.n_samples)
        max_step = self.resolved_max_step()
        steps = self.t_end / max_step
        if steps > _STEP_BUDGET:
            raise ParameterDomainError(
                f"t_end {self.t_end:g} at max_step {max_step:g} takes at least "
                f"{steps:.3g} steps, above the budget of {_STEP_BUDGET:.0e}; "
                "raise max_step (eps/2 when unset) or shorten t_end")

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
        if not np.all(self.times[1:] > self.times[:-1]):  # also refuses NaN times
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

    def _head(self) -> dict:
        # the keys of to_dict ahead of the numbers
        return {"kind": "trajectory", "r": self.params.r, "m": self.params.m,
                "config": asdict(self.config)}

    def to_dict(self) -> dict:
        return {**self._head(), "times": self.times.tolist(), "states": self.states.tolist()}

    def to_json(self, path) -> None:
        # the bytes of json.dump(self.to_dict()), whose last two keys are the
        # numbers: json writes a finite float as its repr
        head = self._head()
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
        try:  # a setting missing, unknown, not a number or an integer no double holds
            cfg = SimConfig(**d["config"])
        except (TypeError, OverflowError) as err:
            raise ParameterDomainError(f"malformed trajectory config: {err}") from err
        try:
            tr = cls(times=d["times"], states=d["states"], params=Params(d["r"], d["m"]),
                     config=cfg)
        except OverflowError as err:  # json reads 1e400 as inf, but 10**400 as an int
            raise ParameterDomainError(
                "trajectory holds a number too large for a double") from err
        require_positive("trajectory densities p1, p2, z", tr.states[:, :3].ravel().tolist())
        # q need only be finite: integrate's samples may lie up to abs_tol outside [0, 1]
        if not (np.all(np.isfinite(tr.times)) and np.all(np.isfinite(tr.states[:, 3]))):
            raise ParameterDomainError("trajectory times and traits q must be finite")
        return tr

    @classmethod
    def from_json(cls, path) -> "Trajectory":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# the stepper's own step limit, the largest int32, never ends a run;
# SimConfig holds a run to _STEP_BUDGET before it steps
_MAX_STEPS = np.iinfo(np.int32).max

# samples taken per sampling pass; bounds its stage array at 1.5 MB
_SAMPLE_BLOCK = 4096

# the texts scipy's ``ode`` gives the negative return codes of its dop853
_DOP853_FAILURES = {-1: "input is not consistent", -2: "larger nsteps is needed",
                    -3: "step size becomes too small",
                    -4: "problem is probably stiff (interrupted)"}


def integrate(s0, p: Params, c: SimConfig) -> Trajectory:
    """Adaptively integrate the full system from ``s0`` over ``c.t_end``.

    Steps the full system once with ``dop853_samples``, the library's one
    DOP853 driver (``orbit.assemble_singular_orbit`` steps its slow
    segments with it too): Hairer's compiled DOP853 from scipy, loaded
    without the rest of ``scipy.integrate``, an explicit embedded
    Runge-Kutta pair of order 8(5,3), which calls back into Python only
    for the right-hand side; the fast layer is one-dimensional and
    non-oscillatory, so no implicit solver is needed down to the eps
    values of interest.  Steps are capped at ``resolved_max_step()``, and
    the ``n_samples`` equally spaced times are taken together after the
    one call from 0 to ``t_end``.  The trajectory carries the number of
    accepted steps and of right-hand-side calls the stepper made.

    The samples are not step ends, so they carry the stepper's global
    error at ``rel_tol``.  Where eps/2 is longer than the sample spacing
    that error is far above ``rel_tol``: 3.7e-10 at eps = 0.1 and 1.6e-8
    at eps = 0.5 from the default state over t = 50.
    """
    y0 = s0.to_array() if isinstance(s0, State) else np.asarray(s0, dtype=float)
    State.from_array(y0)  # validates positivity and q-range
    times = np.linspace(0.0, c.t_end, c.n_samples)

    def stalled(t, reason):
        return StiffnessError(
            f"integration stalled at t={t:g} (eps={c.eps:g}): "
            f"{reason}; lower the eps floor or tighten max_step")

    states, steps, rhs_evals = dop853_samples(
        p, c.eps, y0, times, c.rel_tol, c.abs_tol, c.resolved_max_step(), stalled)
    return Trajectory(times=times, states=states, params=p, config=c,
                      steps=steps, rhs_evals=rhs_evals)


def _step_recorder():
    """The stepper's solout ``keep(t, y)`` and ``start(times)``, which resets it in place.

    ``keep`` keeps the accepted step points that some sample of the
    increasing ``times`` starts from; ``start`` empties the record, takes
    ``times`` as the sample times and returns the record, a flat array of
    t, p1, p2, z, q per kept point.
    """
    due = [math.inf]  # the sample times, then a sentinel
    k = 0  # the first sample at or after the last kept step point
    record = array.array("d")

    def keep(t, y):
        nonlocal k
        if due[k] >= t:
            del record[-5:]  # no sample starts from the last kept point, if any
        while due[k] < t:
            k += 1
        record.append(t)
        record.frombytes(y.tobytes())  # about 0.1 µs; extend(y) takes 0.9 µs

    def start(times):
        nonlocal k
        due[:] = [*times, math.inf]
        k = 0
        del record[:]
        return record

    return keep, start


# scipy's compiled dopri853 never releases a callback it is handed, so every
# run steps this one field and records its steps with this one recorder
_bind_field = field_binder()
_keep, _start_record = _step_recorder()


def dop853_samples(p: Params, eps: float, y0, times, rtol: float, atol: float,
                   max_step: float, failure) -> tuple[np.ndarray, int, int]:
    """Step the full system at ``p``, ``eps`` once from ``y0`` at t = 0; sample it at ``times``.

    The library's one DOP853 driver, behind ``integrate`` and
    ``orbit.assemble_singular_orbit``; left out of ``__all__``, so a
    tracer of the public functions charges its time to its caller.

    One call of Hairer's compiled DOP853, scipy's ``_dop.dopri853`` with
    the settings of ``scipy.integrate.ode``'s "dop853", steps from 0 to
    ``times[-1]`` with steps of at most ``max_step`` (0: no cap).  Only
    that extension and the tableau's file are loaded (``scipy_module``),
    never the ``scipy.integrate`` package.  The increasing ``times`` are
    then taken together: each sample starts from the last accepted step
    point at or before its time and takes one 12-stage step of the
    stepper's own 8th-order tableau up to it, with the field evaluated on
    the (4, n) array of many samples at once.  A sample on a step point,
    such as t = 0 or the end, is that step point.  Only the step points
    some sample starts from are kept, so memory grows with the number of
    samples, not with the number of steps.

    The compiled wrapper never releases a callback, so every run in the
    process hands it the same two functions: one ``model.field_binder``
    field, rebound to ``p`` and ``eps`` here, and one step recorder, reset
    in place here and emptied after the run.  A run leaves nothing alive.

    Returns the (n, 4) states, the accepted steps and the right-hand-side
    calls.  A failed stepper call raises ``failure(t, reason)``.

    The compiled stepper is not re-entrant, and neither are the field and
    the recorder all runs share: a dop853 integration started inside the
    right-hand side corrupts the outer one, and two threads must not
    integrate at once.  Separate calls in sequence are safe.
    """
    field = _bind_field(p, eps)
    record = _start_record(times.tolist())
    work = np.zeros(11 * len(y0) + 21)  # Hairer's WORK; a zero entry takes his default
    work[1:4] = 0.9, 0.3, 6.0  # safety factor and step-ratio bounds, as scipy sets them
    work[5] = max_step
    iwork = np.zeros(21, dtype=np.int32)
    try:
        t, _, idid = scipy_module("integrate._dop", "dopri853").dopri853(
            field, 0.0, y0, float(times[-1]), rtol, atol, _keep, 1, work, iwork,
            _MAX_STEPS, -1, ())
        if idid < 0:
            raise failure(t, "dop853: " + _DOP853_FAILURES.get(
                idid, f"Unexpected istate={idid:d}"))
        points = np.array(record).reshape(-1, 5)
    finally:
        _start_record(())  # between runs the recorder holds no samples and no points
    # Hairer's IWORK(17) and IWORK(19): the right-hand-side calls and the accepted steps
    rhs_evals, steps = (int(n) for n in iwork[[16, 18]])
    states = np.empty((len(times), 4))
    for lo in range(0, len(times), _SAMPLE_BLOCK):
        block = slice(lo, lo + _SAMPLE_BLOCK)
        states[block] = _sample(field, points[:, 0], points[:, 1:], times[block])
    return states, steps, rhs_evals


def _sample(field, step_t, step_y, times):
    """States at ``times``, each one partial DOP853 step from the last step point at or before."""
    i = np.searchsorted(step_t, times, side="right") - 1
    t, y = step_t[i], step_y[i].T
    h = times - t
    # the 12 stages of the step, as ``scipy.integrate.DOP853`` takes them
    tableau = scipy_module("integrate._ivp.dop853_coefficients", "N_STAGES", "A", "B", "C")
    n = tableau.N_STAGES
    k = np.empty((n, *y.shape))
    for s, (a, c) in enumerate(zip(tableau.A[:n, :n], tableau.C[:n])):
        k[s] = field(t + c * h, y + h * np.tensordot(a[:s], k[:s], axes=1))
    return (y + h * np.tensordot(tableau.B, k, axes=1)).T


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, loaded on the first call.

    Nothing in the library calls it.  ``perfbench/tracing.py`` wraps this
    binding here and in ``orbit``; it goes when the tracer stops reading it.
    """
    return scipy.integrate.solve_ivp(*args, **kwargs)


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

    ``schedule`` is a list of (eps, duration) pairs of finite positive
    numbers with non-decreasing eps values; each run is seeded with the
    final state of the previous one.  Yields one Trajectory per schedule entry, so a
    caller can use a run while the next one integrates.  The schedule is
    checked when the first run is asked for.
    """
    if schedule is None:
        schedule = default_continuation_schedule()
    require_positive("schedule eps values and durations", itertools.chain.from_iterable(schedule))
    eps_values = [e for e, _ in schedule]
    if any(b < a for a, b in zip(eps_values, eps_values[1:])):
        raise ParameterDomainError("schedule eps values must be non-decreasing")

    configs = [SimConfig(eps=eps, t_end=duration) for eps, duration in schedule]
    current = s0
    for index, c in enumerate(configs):
        try:
            tr = integrate(current, p, c)
        except StiffnessError as err:
            raise StiffnessError(f"schedule entry {index} (eps={c.eps:g}): {err}") from err
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
    fast jumps, where the slow coordinates are the meaningful measure.  A
    horizon outside [times[0], times[-1]] raises ParameterDomainError.
    """
    times = np.asarray(tr.times)
    if horizon is None:
        horizon = float(times[-1])
    if not times[0] <= horizon <= times[-1] + 1e-12:  # also refuses a NaN horizon
        raise ParameterDomainError(
            f"horizon {horizon:g} lies outside the sampled times "
            f"[{times[0]:g}, {times[-1]:g}]")
    mask = times <= horizon
    points = np.asarray(tr.states)[mask, :3]
    tree = scipy.spatial.cKDTree(orbit.slow_points())
    distances, _ = tree.query(points)
    return float(np.max(distances))
