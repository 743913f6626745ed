"""Command-line front end.

Subcommands: construct, scan, simulate, continue, classify.  Exit codes:
0 on success, 1 on numerical failure, 2 on invalid input.  Each option's
text comes from its command-line flag > config file ("key = value" lines;
a key that no command knows is invalid) > built-in default, and one parser
per option turns it into a value before the command runs.  Every run
appends an entry to the output directory's manifest, and an output path is
never silently overwritten (pass --force to replace it, which also retires
the old manifest entry); a refused overwrite is reported when the manifest
opens, before the run reads, computes or writes anything.  A run that fails
numerically still appends its entry, with the error in place of outputs.
--verbose shows the library's INFO log records on stderr while the command
runs.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import classification_report, classify
from .errors import MAX_SAMPLES, InvalidInputError, NonConvergenceError, RelaxorError
from .model import Params, State
from .orbit import SingularOrbit, assemble_singular_orbit, scan_family, solve_jump_points
from .simulate import (SimConfig, Trajectory, default_continuation_schedule, integrate,
                       iter_continue_in_eps)
from .svgplot import dual_phase_plane_svg, scatter_plot, time_series_svg

# orbit presets: pinned coordinates and starting guesses for the solver;
# "balanced" pins zA = zB, the zero-trait-pressure member of the family.
SEEDS = {
    "hybrid": {"pin": {"p1A": 1.81, "zA": 1.35}, "guess": {"p2A": 0.49, "zB": 1.40}},
    "predpreyprey": {"pin": {"p1A": 2.41, "zA": 1.18}, "guess": {"p2A": 0.33, "zB": 1.14}},
    "predp2": {"pin": {"p1A": 4.27, "zA": 0.70}, "guess": {"p2A": 0.19, "zB": 0.85}},
    "clockwise": {"pin": {"p1A": 0.97, "zA": 2.00}, "guess": {"p2A": 0.81, "zB": 0.85}},
    "antiphase": {"pin": {"p1A": 0.99, "zA": 1.75}, "guess": {"p2A": 0.9837, "zB": 1.1186}},
    "balanced": {"pin": {"zA": 1.486, "zB": 1.486}, "guess": {"p1A": 1.218, "p2A": 0.811}},
}


def _floats(text: str, count: int, sep: str, form: str) -> list[float]:
    """The ``count`` finite numbers that ``sep`` separates in ``text``.

    Spaces around a number and empty fields are dropped, so "1, 2,3," reads
    as three numbers; a space inside one, as in "1 0", is refused.
    """
    try:
        values = [float(part) for part in text.split(sep) if part.strip()]
    except ValueError:
        values = []
    if len(values) != count or not all(map(math.isfinite, values)):
        raise ValueError(f"expected {form} with finite numbers")
    return values


def _number(text) -> float:
    # a default arrives as a float, whose str is its repr
    value, = _floats(str(text), 1, ",", "NUMBER")
    return value


def _state(text: str) -> list[float]:
    values = _floats(text, 4, ",", "p1,p2,z,q")
    State(*values)  # validates the densities and the trait
    return values


def _grid(text: str) -> tuple[str, float, float, int]:
    name, _, rest = text.partition("=")
    lo, hi, count = _floats(rest, 3, ":", "NAME=LO:HI:N")
    if count < 1 or count != int(count):
        raise ValueError("expected NAME=LO:HI:N with a whole N of at least 1")
    return name.strip(), lo, hi, int(count)


def _schedule(text: str) -> list[tuple[float, float]]:
    if text == "default":
        return default_continuation_schedule()
    return [tuple(_floats(item, 2, ":", "EPS:DURATION,...")) for item in text.split(",")]


def _assignments(items) -> dict:
    """The NAME=VALUE texts of a repeatable flag as {NAME: VALUE}; a repeated NAME is refused."""
    out = {}
    for item in items:
        name, _, value = item.partition("=")
        name = name.strip()
        if name in out:
            raise ValueError(f"repeated name {name!r}")
        out[name], = _floats(value, 1, ",", "NAME=VALUE")
    return out


def _seed(text: str) -> str:
    if text not in SEEDS:
        raise ValueError(f"unknown preset; choose from {sorted(SEEDS)}")
    return text


# each command's options, name -> (parser, default, help): one row is its
# --flag, its config key and its default; _resolve applies the parser once,
# to the text of the flag, else of the config line, else to the default.
# An _assignments row is a repeatable flag with no config key.  Every
# parser returns plain JSON values: the manifest records them as they are.
_PARAMS = {"r": (_number, 0.5, "rescaled prey-2 growth rate"),
           "m": (_number, 0.4, "rescaled predator death rate")}
_STATE = {"state": (_state, "1.18,0.87,1.5,0.99", "initial state p1,p2,z,q")}
_GUESS = {"guess": (_assignments, (), "initial guess for a free coordinate")}
_OPTIONS = {
    "construct": {
        **_PARAMS,
        "seed": (_seed, "hybrid", f"orbit preset: {', '.join(sorted(SEEDS))}"),
        "samples": (int, 400, f"samples per slow segment, 2 to {MAX_SAMPLES:,}"),
        "pin": (_assignments, (), "pinned jump coordinate (twice)"),
        **_GUESS,
    },
    "scan": {
        **_PARAMS,
        "pin1": (_grid, "p1A=1.4:2.6:20", "first pinned grid NAME=LO:HI:N"),
        "pin2": (_grid, "zA=1.12:1.68:20", "second pinned grid NAME=LO:HI:N"),
        "seed": (_seed, "hybrid", "preset supplying the free-coordinate guess"),
        **_GUESS,
    },
    "simulate": {
        **_PARAMS, **_STATE,
        "eps": (_number, 0.025, "time-scale separation"),
        "t_end": (_number, 50.0, "duration"),
        "rel_tol": (_number, SimConfig.rel_tol, "relative error tolerance"),
        "abs_tol": (_number, SimConfig.abs_tol, "absolute error tolerance"),
        "max_step": (_number, None, "largest step (default eps/2)"),
        "samples": (int, SimConfig.n_samples, f"number of output samples, 2 to {MAX_SAMPLES:,}"),
    },
    "continue": {
        **_PARAMS, **_STATE,
        "schedule": (_schedule, "default", "'default' or eps:dur,eps:dur,..."),
    },
    "classify": {
        "input": (str, None, "orbit or trajectory JSON"),
        "align_tol": (_number, None, "extremum/jump alignment tolerance"),
    },
}


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise InvalidInputError(f"cannot read config file {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidInputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key in values:
            raise InvalidInputError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = value
    return values


def _resolve(args: argparse.Namespace, config: dict) -> None:
    """Replace the text of each option of the command by its parsed value.

    The text is the flag's, else the config value, else the default; a
    default of None stays None.  A config key that no command knows is
    refused; one that belongs to another command is ignored, so one file
    can serve every command.
    """
    known = {name for options in _OPTIONS.values()
             for name, (parse, _, _) in options.items() if parse is not _assignments}
    unknown = [key for key in config if key not in known]
    if unknown:
        raise InvalidInputError(
            f"unknown config key {', '.join(map(repr, unknown))} in {args.config}")
    for name, (parse, default, _) in _OPTIONS[args.command].items():
        text, source = getattr(args, name), "--" + name.replace("_", "-")
        if text is None and name in config:
            text, source = config[name], f"{args.config}: {name} ="
        if text is None:
            text, source = default, f"default {name}"
        try:
            setattr(args, name, None if text is None else parse(text))
        except ValueError as err:  # InvalidInputError included
            raise InvalidInputError(f"{source} {text!r}: {err}") from err


class _Manifest:
    """Per-directory record of runs and the files they produced."""

    def __init__(self, args: argparse.Namespace, outputs):
        """Open the manifest of ``args.out`` and start the entry of this run.

        The entry's parameters are the parsed values of the command's
        ``_OPTIONS`` rows, in row order.  ``outputs`` names every file the
        run may write; without --force an existing one is refused here,
        before the run computes.
        """
        self.outdir = Path(args.out)
        self.path = self.outdir / "manifest.json"
        self.force = args.force
        self.doc = {"runs": []}
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
            text = self.path.read_text() if self.path.exists() else None
        except OSError as err:  # --out names a file, or manifest.json a directory
            raise InvalidInputError(f"cannot use --out {self.outdir}: {err}") from err
        if text is not None:
            try:
                self.doc = json.loads(text)
            except ValueError as err:  # undecodable bytes or malformed JSON
                raise InvalidInputError(f"corrupt manifest {self.path}: {err}") from err
            if not isinstance(self.doc, dict) or not isinstance(self.doc.get("runs"), list):
                raise InvalidInputError(f"corrupt manifest {self.path}: no run list")
        self._refuse(outputs)
        self.entry = {
            "command": args.command,
            "parameters": {name: getattr(args, name) for name in _OPTIONS[args.command]},
            "tool_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": [],
        }

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record the wall time of the block under ``elapsed_s[name]``.

        The time is kept as the midpoint of the microsecond it falls in:
        the trailing 5 gives every value from 1e-4 s to 10 s the same
        printed width, so the manifest's size repeats from run to run.
        A numerical failure inside the block is recorded under ``error``,
        and the entry is written before the failure propagates.
        """
        start = time.perf_counter_ns()
        try:
            yield
        except RelaxorError as err:
            if not isinstance(err, InvalidInputError):
                self._record_time(name, start)
                self.entry["error"] = _error_record(err)
                self.finish()
            raise
        self._record_time(name, start)

    def _record_time(self, name: str, start: int) -> None:
        micros = (time.perf_counter_ns() - start) // 1000
        self.entry.setdefault("elapsed_s", {})[name] = float(f"{micros}5e-7")

    def _refuse(self, names) -> None:
        """Refuse, without --force, if any of the output files ``names`` exists."""
        for name in names:
            path = self.outdir / name
            if path.exists() and not self.force:
                raise InvalidInputError(
                    f"refusing to overwrite {path}; pass --force or use a fresh --out")

    def claim(self, *names: str) -> list[Path]:
        """Record the files of one write step; refuse one that appeared since the open."""
        self._refuse(names)
        for run in self.doc["runs"]:
            run["outputs"] = [o for o in run["outputs"] if o not in names]
        self.entry["outputs"] += names
        return [self.outdir / name for name in names]

    def finish(self) -> list[str]:
        """Append the entry to the manifest; return the paths of its outputs."""
        # an entry whose outputs were all replaced is retired; a failed run's stays
        self.doc["runs"] = [r for r in self.doc["runs"] if r["outputs"] or "error" in r]
        self.doc["runs"].append(self.entry)
        self.path.write_text(json.dumps(self.doc, indent=1))
        return [str(self.outdir / name) for name in self.entry["outputs"]]


def _error_record(err: RelaxorError) -> dict:
    """Class and message of a numerical failure, and a solver's last-iterate diagnostics."""
    record = {"class": type(err).__name__, "message": str(err)}
    if isinstance(err, NonConvergenceError):
        record["residual"] = err.residual
        record["iterations"] = err.iterations
        record["residual_evaluations"] = err.evaluations
        record["x"] = None if err.x is None else [float(v) for v in err.x]
    return record


def cmd_construct(args) -> dict:
    params = Params(args.r, args.m)
    if not args.pin and not args.guess:
        args.pin, args.guess = dict(SEEDS[args.seed]["pin"]), dict(SEEDS[args.seed]["guess"])

    names = ("construct.orbit.json", "construct.phase.svg", "construct.timeseries.svg")
    manifest = _Manifest(args, names)
    with manifest.phase("solve"):
        pair = solve_jump_points(args.pin, args.guess, params)
    manifest.entry["newton_iterations"] = pair.iterations
    manifest.entry["residual_evaluations"] = pair.residual_evaluations
    with manifest.phase("assemble"):
        orbit = assemble_singular_orbit(pair, params, samples_per_segment=args.samples)

    with manifest.phase("write"):
        orbit_path, svg_path, ts_path = manifest.claim(*names)
        orbit.to_json(orbit_path)
        svg_path.write_text(dual_phase_plane_svg(orbit))
        ts_path.write_text(time_series_svg(orbit.times, orbit.states))
    return {"jumps": pair.as_dict(), "period": pair.period, "outputs": manifest.finish()}


_PROJECTIONS = (("p1A", "zA"), ("p2A", "zA"), ("p1B", "zB"), ("p2B", "zB"),
                ("p1A", "p2A"), ("p1B", "p2B"))


def cmd_scan(args) -> dict:
    params = Params(args.r, args.m)
    (name1, *grid1), (name2, *grid2) = args.pin1, args.pin2
    if not args.guess:
        args.guess = dict(SEEDS[args.seed]["guess"])

    names = ("scan.family.json", "scan.family.csv",
             *(f"scan.{xk}_{yk}.svg" for xk, yk in _PROJECTIONS))
    manifest = _Manifest(args, names)
    with manifest.phase("scan"):
        table = scan_family(params, (np.linspace(*grid1), np.linspace(*grid2)),
                            args.guess, pin_names=(name1, name2))
    manifest.entry["newton_iterations"] = table.iterations
    manifest.entry["residual_evaluations"] = table.residual_evaluations

    with manifest.phase("write"):
        json_path, csv_path, *svg_paths = manifest.claim(*names)
        table.to_json(json_path)
        table.to_csv(csv_path)
        jumps = [pair.as_dict() for pair in table.rows]
        for (xk, yk), path in zip(_PROJECTIONS, svg_paths):
            path.write_text(scatter_plot([d[xk] for d in jumps], [d[yk] for d in jumps],
                                         xk, yk, title=f"family projection ({xk}, {yk})"))
    return {"rows": len(table), "outputs": manifest.finish()}


def _trajectory_names(stem: str) -> list[str]:
    return [f"{stem}.{ext}" for ext in ("csv", "json", "svg")]


def _write_trajectory(paths: list[Path], tr: Trajectory) -> None:
    """Write ``tr`` as CSV, JSON and SVG to the three ``paths`` of ``_trajectory_names``."""
    csv_path, json_path, svg_path = paths
    tr.to_csv(csv_path)
    tr.to_json(json_path)
    svg_path.write_text(time_series_svg(tr.times, tr.states,
                                        title=f"eps = {tr.config.eps:g}"))


def cmd_simulate(args) -> dict:
    params = Params(args.r, args.m)
    cfg = SimConfig(eps=args.eps, t_end=args.t_end, rel_tol=args.rel_tol,
                    abs_tol=args.abs_tol, max_step=args.max_step, n_samples=args.samples)
    names = _trajectory_names("simulate.trajectory")
    manifest = _Manifest(args, names)
    with manifest.phase("integrate"):
        tr = integrate(args.state, params, cfg)
    manifest.entry["integral_drift"] = tr.integral_drift()
    manifest.entry["steps"] = tr.steps
    manifest.entry["rhs_evals"] = tr.rhs_evals
    with manifest.phase("write"):
        _write_trajectory(manifest.claim(*names), tr)
    return {"final_state": tr.states[-1].tolist(), "outputs": manifest.finish()}


def _wait(writes: list) -> None:
    for write in writes:
        write.result()  # raises what the write raised


def cmd_continue(args) -> dict:
    """Integrate the chain; two forked workers write the runs' files meanwhile.

    Every file name of the schedule is checked when the manifest opens,
    before the first run integrates; each run's files are claimed as it
    ends.  Claims, solver statistics and the manifest stay in this process.
    The manifest is written only once the workers have finished every file
    handed to them, so a chain that fails at entry k records, and keeps,
    the files of the entries before k.
    """
    # imported here: ``import relaxor.cli`` loads no multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    params, state, schedule = Params(args.r, args.m), args.state, args.schedule
    names = [_trajectory_names(f"continue.{i:02d}.eps{eps:g}")
             for i, (eps, _) in enumerate(schedule)]
    manifest = _Manifest(args, [name for run_names in names for name in run_names])
    drift, steps, rhs_evals, writes = [], [], [], []
    writer = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork"))
    try:
        with manifest.phase("integrate"):
            try:
                for i, tr in enumerate(iter_continue_in_eps(state, params, schedule)):
                    writes.append(writer.submit(_write_trajectory,
                                                manifest.claim(*names[i]), tr))
                    drift.append(tr.integral_drift())
                    steps.append(tr.steps)
                    rhs_evals.append(tr.rhs_evals)
            except RelaxorError:
                _wait(writes)  # the failed entry is recorded with its outputs on disk
                raise
        manifest.entry["integral_drift"] = drift
        manifest.entry["steps"] = steps
        manifest.entry["rhs_evals"] = rhs_evals
        with manifest.phase("write"):
            _wait(writes)
    finally:
        # waits for the writes under way; after a failure the queued ones are dropped
        writer.shutdown(cancel_futures=True)
    return {"runs": len(writes),
            "final_eps": tr.config.eps,
            "final_state": tr.states[-1].tolist(),
            "outputs": manifest.finish()}


def _no_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def cmd_classify(args) -> dict:
    if args.input is None:
        raise InvalidInputError("classify requires --input FILE")
    manifest = _Manifest(args, ["classify.report.json"])
    with manifest.phase("read"):
        try:
            doc = json.loads(Path(args.input).read_text(), parse_constant=_no_constant)
        except OSError as err:
            raise InvalidInputError(f"cannot read {args.input}: {err}") from err
        except ValueError as err:  # undecodable bytes, malformed JSON, NaN or Infinity
            raise InvalidInputError(f"{args.input} is not JSON: {err}") from err
        readers = {"singular_orbit": SingularOrbit.from_dict,
                   "trajectory": Trajectory.from_dict}
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if kind not in readers:
            raise InvalidInputError(
                f"{args.input}: expected a trajectory or singular_orbit JSON document")
        try:
            data = readers[kind](doc)
        except KeyError as err:
            raise InvalidInputError(f"{args.input}: {kind} document lacks {err}") from err
        except InvalidInputError as err:
            raise InvalidInputError(f"{args.input}: {err}") from err
        except (TypeError, ValueError) as err:  # a field of the wrong type or shape
            raise InvalidInputError(f"{args.input}: malformed {kind} document: {err}") from err
    with manifest.phase("classify"):
        sync, ex = classify(data, args.align_tol)
        report = classification_report(sync, ex)

    with manifest.phase("write"):
        path, = manifest.claim("classify.report.json")
        path.write_text(json.dumps(report, indent=1))
    return {"label": sync.label.value,
            "orientation": sync.orientation.value,
            "outputs": manifest.finish()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Nothing in it depends on the arguments, and parsing leaves it as it
    was: each parse fills a fresh namespace, every default is None, False
    or ".", and a repeatable flag gets a new list.  So ``main`` can run
    any number of commands in one process on one parser; callers share it
    and must not change it.
    """
    parser = argparse.ArgumentParser(
        prog="relaxor",
        description="Singular periodic orbits and simulations of the "
                    "fast-slow one-predator/two-prey system")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, purpose) in _COMMANDS.items():
        sp = sub.add_parser(command, help=purpose)
        sp.add_argument("--config", help="key = value settings file")
        sp.add_argument("--out", default=".", help="output directory (default .)")
        sp.add_argument("--force", action="store_true",
                        help="allow replacing existing output files")
        sp.add_argument("--verbose", action="store_true",
                        help="show the library's INFO records on stderr")
        for name, (parse, default, text) in _OPTIONS[command].items():
            flag = "--" + name.replace("_", "-")
            if parse is _assignments:
                sp.add_argument(flag, action="append", metavar="NAME=VALUE", help=text)
            else:
                sp.add_argument(flag, help=text if default is None
                                else f"{text} (default {default})")
    return parser


_COMMANDS = {
    "construct": (cmd_construct, "solve and assemble a singular orbit"),
    "scan": (cmd_scan, "continuation scan of the orbit family"),
    "simulate": (cmd_simulate, "integrate the full system once"),
    "continue": (cmd_continue, "chain runs along an eps schedule"),
    "classify": (cmd_classify, "classify an orbit or trajectory file"),
}


@contextlib.contextmanager
def _info_to_stderr():
    """Send the ``relaxor`` logger's INFO records to stderr for the block."""
    logger = logging.getLogger("relaxor")
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.INFO)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _info_to_stderr() if args.verbose else contextlib.nullcontext():
            _resolve(args, _read_config(args.config))
            summary = _COMMANDS[args.command][0](args)
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RelaxorError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
