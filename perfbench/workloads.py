"""Workload inputs, CLI command lists and output checks.

Each workload turns a seed into CLI argument lists for one pass and
checks the files those commands wrote.  Seed 0 gives the documented
inputs; any other seed moves them only inside ranges where every check
still holds (see README.md).  An operation is one unit the checks can
pass or fail: a grid point (scan), a schedule entry (continue) or a CLI
command (pipeline).  Import this module with the library's ``src`` on
``sys.path``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relaxor import (Orientation, Params, RelaxorError, SingularOrbit, SyncLabel,
                     Trajectory, classify_synchronization, closeness_check,
                     default_continuation_schedule, detect_jump_events,
                     effective_jump_pair, find_extrema, travel_time_M0, travel_time_M1)
from relaxor.model import h0, h1

R, M = 0.5, 0.4
P = Params(R, M)
STATE = (1.18, 0.87, 1.5, 0.99)
PARAMS = ["--r", repr(R), "--m", repr(M)]

# criterion 9's pinned-coordinate box
BOX_P1A = (1.4, 2.6)
BOX_ZA = (1.12, 1.68)
SCAN_N = 4
# the seed moves the grid by at most this share of a cell in each direction
SCAN_SHIFT = 0.05
# grid points where the solver gives up on every seed tried; each point
# unsolved beyond these fails
SCAN_GIVE_UPS = 4
CLOSURE_TOL = 1e-9

CHECKED_EPS = (0.2, 0.5, 1.0)
# Criterion 7's eps = 1 classification flips for about a third of start
# states moved by 1e-4 and for some moved by 1e-6; at 1e-8 it held on 40
# of 40 seeds.
CONTINUE_JITTER = 1e-8

SIM_T_END = 50.0
SIM_SAMPLES = 2000
SIM_EPS = (0.025, 0.01)
CLOSENESS_RATIO = 0.75
PIPELINE_JITTER = 0.005

# what a check may raise on a wrong or unreadable output; the operation fails
OUTPUT_ERRORS = (RelaxorError, OSError, ValueError, KeyError, TypeError, IndexError)


@dataclass
class Command:
    op: str
    argv: list[str]


@dataclass
class CommandResult:
    op: str
    argv: list[str]
    rc: int | None
    stdout: str
    stderr: str


@dataclass
class Verdict:
    """Outcome of checking one pass.

    ``failed`` counts operations whose output is wrong or whose command
    broke; ``unsolved`` counts the scan grid points, up to
    ``SCAN_GIVE_UPS``, for which the solver gave up, which the scan
    reports by leaving the row out.  Points unsolved beyond those fail.
    """

    attempted: int
    failed: int = 0
    unsolved: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, op: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{op}: {problem}")

    def record(self, op: str, check, *args) -> None:
        """Run one operation's check; a problem or an output error fails it."""
        try:
            problem = check(*args)
        except OUTPUT_ERRORS as err:
            problem = f"{type(err).__name__}: {err}"
        if problem is not None:
            self.fail(op, problem)


def _rng(seed: int):
    return None if seed == 0 else np.random.default_rng(seed)


def jittered_state(seed: int, share: float) -> tuple[float, float, float, float]:
    """The documented start state with each coordinate moved by at most ``share``.

    p1, p2 and z move relatively, q absolutely.
    """
    rng = _rng(seed)
    if rng is None:
        return STATE
    f = share * rng.uniform(-1.0, 1.0, 4)
    p1, p2, z, q = STATE
    return (float(p1 * (1.0 + f[0])), float(p2 * (1.0 + f[1])), float(z * (1.0 + f[2])),
            float(q + f[3]))


def _state_arg(state) -> str:
    return ",".join(repr(v) for v in state)


def _load_json(path: Path):
    return json.loads(path.read_text())


def _trajectory(path: Path) -> Trajectory:
    return Trajectory.from_dict(_load_json(path))


def _truncation(tr: Trajectory, t_end: float) -> str | None:
    if len(tr.times) != SIM_SAMPLES or not math.isclose(tr.times[-1], t_end, rel_tol=1e-12):
        return (f"trajectory covers {len(tr.times)} samples up to t={tr.times[-1]:g}, "
                f"expected {SIM_SAMPLES} up to {t_end:g}")
    return None


def _exit_problem(result: CommandResult) -> str | None:
    if result.rc != 0:
        return f"exited with {result.rc}: {result.stderr.strip()[-500:]}"
    return None


class Scan:
    """Continuation scan over a 4x4 sub-grid of criterion 9's box."""

    name = "scan"

    def __init__(self, seed: int):
        rng = _rng(seed)
        shift = (np.zeros(2) if rng is None
                 else SCAN_SHIFT * rng.uniform(-1.0, 1.0, 2))
        self.specs, self.grids = [], []
        for (name, (lo, hi)), s in zip((("p1A", BOX_P1A), ("zA", BOX_ZA)), shift):
            cell = (hi - lo) / SCAN_N
            first = lo + (0.5 + float(s)) * cell
            last = first + (SCAN_N - 1) * cell
            self.specs.append(f"{name}={first!r}:{last!r}:{SCAN_N}")
            self.grids.append(np.linspace(first, last, SCAN_N))

    def describe(self) -> dict:
        return {"grid": f"{SCAN_N}x{SCAN_N}", "pin1": self.specs[0],
                "pin2": self.specs[1], "guess": "hybrid"}

    def commands(self, passdir: Path) -> list[Command]:
        return [Command("scan", ["scan", *PARAMS, "--pin1", self.specs[0],
                                 "--pin2", self.specs[1], "--seed", "hybrid",
                                 "--out", str(passdir / "scan")])]

    def check(self, passdir: Path, results: list[CommandResult]) -> Verdict:
        points = [(float(a), float(b)) for a in self.grids[0] for b in self.grids[1]]
        verdict = Verdict(attempted=len(points))
        (result,) = results
        try:
            problem = _exit_problem(result)
            rows = [] if problem else _load_json(passdir / "scan" / "scan.family.json")
            if problem is None and json.loads(result.stdout)["rows"] != len(rows):
                problem = "stdout row count disagrees with the table"
        except OUTPUT_ERRORS as err:
            problem = f"{type(err).__name__}: {err}"
        if problem is not None:
            for point in points:
                verdict.fail(f"scan point {point}", problem)
            return verdict
        by_point = {}
        for row in rows:
            pins = (row.get("pin_p1A"), row.get("pin_zA"))
            if pins in by_point or pins not in points:
                # a row the grid did not ask for is one more, wrong, operation
                verdict.attempted += 1
                verdict.fail(f"scan row {pins}", "duplicate row" if pins in by_point
                             else "row off the requested grid")
            else:
                by_point[pins] = row
        missing = [point for point in points if point not in by_point]
        verdict.unsolved = min(len(missing), SCAN_GIVE_UPS)
        for point in missing[SCAN_GIVE_UPS:]:
            verdict.fail(f"scan point {point}",
                         f"no row: {len(missing)} of {len(points)} points unsolved, "
                         f"at most {SCAN_GIVE_UPS} expected")
        for point, row in by_point.items():
            verdict.record(f"scan point {point}", _row_problem, row, point)
        return verdict


def _row_problem(row: dict, point: tuple[float, float]) -> str | None:
    """Criterion 9's closure re-evaluations and admissibility for one row."""
    p1a, p2a, za = row["p1A"], row["p2A"], row["zA"]
    p1b, p2b, zb = row["p1B"], row["p2B"], row["zB"]
    if (p1a, za) != point:
        return "row does not sit on its pins"
    errors = (
        abs(h0(p2a, za, P) - h0(p2b, zb, P)),
        abs(h1(p1a, za, P) - h1(p1b, zb, P)),
        abs(travel_time_M1((p1a, za), (p1b, zb), P) - math.log(p2b / p2a) / P.r),
        abs(travel_time_M0((p2b, zb), (p2a, za), P) - math.log(p1a / p1b)),
    )
    if not max(errors) < CLOSURE_TOL:
        return f"closure misses by {max(errors):.3e}"
    if not (p1a > p2a and p1b < p2b):
        return "violates jump admissibility"
    return None


class Continue:
    """The default 30-run eps schedule from a jittered documented state."""

    name = "continue"

    def __init__(self, seed: int):
        self.state = jittered_state(seed, CONTINUE_JITTER)
        self.schedule = default_continuation_schedule()

    def describe(self) -> dict:
        return {"state": list(self.state), "schedule": "default",
                "schedule_entries": len(self.schedule),
                "model_time": sum(d for _, d in self.schedule)}

    def commands(self, passdir: Path) -> list[Command]:
        return [Command("continue", ["continue", *PARAMS,
                                     "--state", _state_arg(self.state),
                                     "--out", str(passdir / "continue")])]

    def check(self, passdir: Path, results: list[CommandResult]) -> Verdict:
        verdict = Verdict(attempted=len(self.schedule))
        (result,) = results
        problem = _exit_problem(result)
        # criterion 7 classifies the later of two runs at a repeated eps
        classified = {round(eps, 6): index for index, (eps, _) in enumerate(self.schedule)}
        classified = {classified[eps] for eps in CHECKED_EPS}
        start = np.asarray(self.state)
        for index, (eps, duration) in enumerate(self.schedule):
            op = f"entry {index} (eps {eps:g})"
            if problem is not None:
                verdict.fail(op, problem)
                continue
            path = passdir / "continue" / f"continue.{index:02d}.eps{eps:g}.json"
            try:
                tr = _trajectory(path)
            except OUTPUT_ERRORS as err:
                verdict.fail(op, f"{type(err).__name__}: {err}")
                start = None
                continue
            verdict.record(op, _entry_problem, tr, eps, duration, start, index in classified)
            start = tr.final_state().to_array()
        return verdict


def _entry_problem(tr: Trajectory, eps: float, duration: float, start,
                   classify: bool) -> str | None:
    problem = _truncation(tr, duration)
    if problem is not None:
        return problem
    if tr.config.eps != eps:
        return f"ran at eps {tr.config.eps:g}"
    if start is not None and not np.allclose(tr.states[0], start, rtol=1e-12, atol=0.0):
        return "does not start from the previous run's final state"
    if not np.min(tr.states[:, 3]) > 0.0:
        return "trait q reaches 0"
    if classify:
        events = detect_jump_events(tr)
        sync = classify_synchronization(
            find_extrema(tr, events), effective_jump_pair(events, P), P)
        if not (sync.prey_prey_antiphase
                and sync.label in (SyncLabel.PREY_PREY_ANTIPHASE,
                                   SyncLabel.PREDATOR_PREY_PREY)
                and sync.orientation is Orientation.NEITHER):
            return (f"classified {sync.label.value}/{sync.orientation.value}, "
                    "expected prey-prey antiphase with orientation Neither")
    return None


# construct presets and what criterion 8 expects of their classification
PRESETS = ("hybrid", "predp2", "clockwise", "antiphase", "balanced")
EXPECTED = {
    "predp2": ("label", "PredatorPrey2Alternating"),
    "antiphase": ("label", "PreyPreyAntiphase"),
    "clockwise": ("orientation", "Clockwise"),
}


class Pipeline:
    """The interactive paper workflow: construct, simulate, classify."""

    name = "pipeline"

    def __init__(self, seed: int):
        self.state = jittered_state(seed, PIPELINE_JITTER)

    def describe(self) -> dict:
        return {"presets": list(PRESETS), "balanced_samples": SIM_SAMPLES,
                "simulate_eps": list(SIM_EPS), "t_end": SIM_T_END,
                "state": list(self.state), "commands": 2 * len(PRESETS) + 2 * len(SIM_EPS)}

    def commands(self, passdir: Path) -> list[Command]:
        cmds = []
        for preset in PRESETS:
            extra = ["--samples", str(SIM_SAMPLES)] if preset == "balanced" else []
            cmds.append(Command(f"construct:{preset}",
                                ["construct", *PARAMS, "--seed", preset, *extra,
                                 "--out", str(passdir / preset)]))
        for preset in PRESETS:
            cmds.append(Command(f"classify:{preset}",
                                ["classify", "--input",
                                 str(passdir / preset / "construct.orbit.json"),
                                 "--out", str(passdir / preset)]))
        for eps in SIM_EPS:
            cmds.append(Command(f"simulate:{eps:g}",
                                ["simulate", *PARAMS, "--eps", repr(eps),
                                 "--t-end", repr(SIM_T_END),
                                 "--state", _state_arg(self.state),
                                 "--out", str(passdir / f"sim{eps:g}")]))
        for eps in SIM_EPS:
            cmds.append(Command(f"classify:sim{eps:g}",
                                ["classify", "--input",
                                 str(passdir / f"sim{eps:g}" / "simulate.trajectory.json"),
                                 "--out", str(passdir / f"sim{eps:g}")]))
        return cmds

    def check(self, passdir: Path, results: list[CommandResult]) -> Verdict:
        verdict = Verdict(attempted=len(results))
        by_op = {result.op: result for result in results}
        for preset in PRESETS:
            verdict.record(f"construct:{preset}", _orbit_problem,
                           by_op[f"construct:{preset}"], passdir / preset)
        for subdir in (*PRESETS, *(f"sim{eps:g}" for eps in SIM_EPS)):
            verdict.record(f"classify:{subdir}", _report_problem,
                           by_op[f"classify:{subdir}"], passdir / subdir,
                           EXPECTED.get(subdir))
        distances = {}
        for eps in SIM_EPS:
            verdict.record(f"simulate:{eps:g}", _closeness_problem, by_op[f"simulate:{eps:g}"],
                           passdir, eps, distances)
        return verdict


def _orbit_problem(result: CommandResult, outdir: Path) -> str | None:
    problem = _exit_problem(result)
    if problem is None:
        SingularOrbit.from_dict(_load_json(outdir / "construct.orbit.json")).jumps.check(P)
    return problem


def _report_problem(result: CommandResult, outdir: Path, expected) -> str | None:
    problem = _exit_problem(result)
    if problem is not None:
        return problem
    report = _load_json(outdir / "classify.report.json")["classification"]
    printed = json.loads(result.stdout)
    if (printed["label"], printed["orientation"]) != (report["label"], report["orientation"]):
        return "stdout and report disagree"
    if expected is not None and report[expected[0]] != expected[1]:
        return f"{expected[0]} {report[expected[0]]}, expected {expected[1]}"
    return None


def _closeness_problem(result: CommandResult, passdir: Path, eps: float,
                       distances: dict) -> str | None:
    """Closeness to the balanced orbit over one period; the finer eps must be closer."""
    problem = _exit_problem(result)
    if problem is not None:
        return problem
    tr = _trajectory(passdir / f"sim{eps:g}" / "simulate.trajectory.json")
    problem = _truncation(tr, SIM_T_END)
    if problem is not None:
        return problem
    balanced = SingularOrbit.from_dict(_load_json(passdir / "balanced" / "construct.orbit.json"))
    distances[eps] = closeness_check(tr, balanced, horizon=balanced.period)
    coarse = distances.get(SIM_EPS[0])
    if eps == SIM_EPS[1] and coarse is not None and not distances[eps] <= CLOSENESS_RATIO * coarse:
        return (f"closeness {distances[eps]:.4f} is not within {CLOSENESS_RATIO} x "
                f"{coarse:.4f} at eps {SIM_EPS[0]:g}")
    return None


WORKLOADS = {w.name: w for w in (Scan, Continue, Pipeline)}
