"""Command-line front end.

Subcommands: construct, scan, simulate, continue, classify.  Exit codes:
0 on success, 1 on numerical failure, 2 on invalid input.  Option values
resolve as command-line flag > config file ("key = value" lines) >
built-in default; every run appends an entry to the output directory's
manifest, and an output path is never silently overwritten (pass --force
to replace it, which also retires the old manifest entry).  A run that
fails numerically still appends its entry, with the error in place of
outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (classify_synchronization, classification_report,
                       effective_jump_pair, find_extrema)
from .errors import InvalidInputError, NonConvergenceError, RelaxorError
from .model import Params, State
from .orbit import (SingularOrbit, assemble_singular_orbit, scan_family,
                    solve_balanced_orbit, solve_jump_points)
from .simulate import (SimConfig, Trajectory, default_continuation_schedule,
                       detect_jump_events, integrate, iter_continue_in_eps)
from .svgplot import dual_phase_plane_svg, scatter_plot, time_series_svg

# orbit presets: pinned coordinates and starting guesses for the solver;
# "balanced" instead seeds the zero-trait-pressure solve.
SEEDS = {
    "hybrid": {"pin": {"p1A": 1.81, "zA": 1.35}, "guess": {"p2A": 0.49, "zB": 1.40}},
    "predpreyprey": {"pin": {"p1A": 2.41, "zA": 1.18}, "guess": {"p2A": 0.33, "zB": 1.14}},
    "predp2": {"pin": {"p1A": 4.27, "zA": 0.70}, "guess": {"p2A": 0.19, "zB": 0.85}},
    "clockwise": {"pin": {"p1A": 0.97, "zA": 2.00}, "guess": {"p2A": 0.81, "zB": 0.85}},
    "antiphase": {"pin": {"p1A": 0.99, "zA": 1.75}, "guess": {"p2A": 0.9837, "zB": 1.1186}},
    "balanced": {"guess": {"p1A": 1.218, "p2A": 0.811, "zA": 1.486, "zB": 1.486}},
}

_DEFAULTS = {
    "r": 0.5, "m": 0.4, "eps": 0.025, "t_end": 50.0,
    "state": "1.18,0.87,1.5,0.99", "seed": "hybrid",
    "schedule": "default",
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
        values[key.replace("-", "_")] = value
    return values


def _resolve(args: argparse.Namespace, config: dict, key: str, cast=float,
             default=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except ValueError as err:
            raise InvalidInputError(f"config value for {key!r}: {err}") from err
    return _DEFAULTS.get(key, default)


def _parse_state(text: str) -> State:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != 4:
        raise InvalidInputError(f"state must be 'p1,p2,z,q', got {text!r}")
    try:
        values = [float(v) for v in parts]
    except ValueError as err:
        raise InvalidInputError(f"state must be 'p1,p2,z,q', got {text!r}") from err
    return State(*values)


def _parse_assignments(pairs, what: str) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise InvalidInputError(f"{what} expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError as err:
            raise InvalidInputError(f"{what} expects name=value, got {item!r}") from err
    return out


def _parse_grid(spec: str) -> tuple[str, np.ndarray]:
    try:
        name, rng = spec.split("=", 1)
        lo, hi, n = rng.split(":")
        lo, hi, count = float(lo), float(hi), int(n)
    except ValueError as err:
        raise InvalidInputError(
            f"grid spec must read name=lo:hi:count, got {spec!r}") from err
    if count < 1:
        raise InvalidInputError(f"grid count must be at least 1, got {spec!r}")
    return name.strip(), np.linspace(lo, hi, count)


def _parse_schedule(text: str) -> list[tuple[float, float]]:
    if text == "default":
        return default_continuation_schedule()
    entries = []
    for item in text.split(","):
        try:
            eps, dur = item.split(":")
            entries.append((float(eps), float(dur)))
        except ValueError as err:
            raise InvalidInputError(
                f"schedule entries read eps:duration, got {item!r}") from err
    return entries


class _Manifest:
    """Per-directory record of runs and the files they produced."""

    def __init__(self, outdir: Path, force: bool):
        self.path = outdir / "manifest.json"
        self.force = force
        self.doc = {"runs": []}
        if self.path.exists():
            try:
                self.doc = json.loads(self.path.read_text())
            except ValueError as err:  # undecodable bytes or malformed JSON
                raise InvalidInputError(f"corrupt manifest {self.path}: {err}") from err
            if not isinstance(self.doc, dict) or not isinstance(self.doc.get("runs"), list):
                raise InvalidInputError(f"corrupt manifest {self.path}: no run list")
        self.entry = None

    def start(self, command: str, parameters: dict) -> None:
        self.entry = {
            "command": command,
            "parameters": parameters,
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

    def claim(self, path: Path) -> Path:
        if path.exists() and not self.force:
            raise InvalidInputError(
                f"refusing to overwrite {path}; pass --force or use a fresh --out")
        for run in self.doc["runs"]:
            run["outputs"] = [o for o in run["outputs"] if o != path.name]
        self.entry["outputs"].append(path.name)
        return path

    def finish(self) -> None:
        # an entry whose outputs were all replaced is retired; a failed run's stays
        self.doc["runs"] = [r for r in self.doc["runs"] if r["outputs"] or "error" in r]
        self.doc["runs"].append(self.entry)
        self.path.write_text(json.dumps(self.doc, indent=1))


def _error_record(err: RelaxorError) -> dict:
    """Class and message of a numerical failure, and a solver's last-iterate diagnostics."""
    record = {"class": type(err).__name__, "message": str(err)}
    if isinstance(err, NonConvergenceError):
        record["residual"] = err.residual
        record["iterations"] = err.iterations
        record["x"] = None if err.x is None else [float(v) for v in err.x]
    return record


def _prepare(args, command: str, parameters: dict) -> tuple[Path, _Manifest]:
    outdir = Path(args.out if args.out is not None else ".")
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(outdir, force=bool(args.force))
    manifest.start(command, parameters)
    return outdir, manifest


def cmd_construct(args, config) -> int:
    r = _resolve(args, config, "r")
    m = _resolve(args, config, "m")
    params = Params(r, m)
    samples = int(_resolve(args, config, "samples", int, default=400))
    pin = _parse_assignments(args.pin, "--pin")
    guess = _parse_assignments(args.guess, "--guess")
    seed_name = None
    if not pin and not guess:
        seed_name = _resolve(args, config, "seed", str)
        if seed_name not in SEEDS:
            raise InvalidInputError(
                f"unknown seed {seed_name!r}; choose from {sorted(SEEDS)}")
        preset = SEEDS[seed_name]
        pin = dict(preset.get("pin", {}))
        guess = dict(preset["guess"])

    outdir, manifest = _prepare(args, "construct", {
        "r": r, "m": m, "seed": seed_name, "pin": pin, "guess": guess,
        "samples": samples})
    with manifest.phase("solve"):
        if pin:
            pair = solve_jump_points(pin, guess, params)
        else:
            pair = solve_balanced_orbit(guess, params)
    with manifest.phase("assemble"):
        orbit = assemble_singular_orbit(pair, params, samples_per_segment=samples)

    with manifest.phase("write"):
        orbit_path = manifest.claim(outdir / "construct.orbit.json")
        orbit.to_json(orbit_path)
        svg_path = manifest.claim(outdir / "construct.phase.svg")
        svg_path.write_text(dual_phase_plane_svg(orbit))
        ts_path = manifest.claim(outdir / "construct.timeseries.svg")
        ts_path.write_text(time_series_svg(orbit.times, orbit.states))
    manifest.finish()
    print(json.dumps({"jumps": pair.as_dict(), "period": pair.period,
                      "outputs": [str(orbit_path), str(svg_path), str(ts_path)]},
                     indent=1))
    return 0


_PROJECTIONS = (("p1A", "zA"), ("p2A", "zA"), ("p1B", "zB"), ("p2B", "zB"),
                ("p1A", "p2A"), ("p1B", "p2B"))


def cmd_scan(args, config) -> int:
    r = _resolve(args, config, "r")
    m = _resolve(args, config, "m")
    params = Params(r, m)
    name1, grid1 = _parse_grid(args.pin1 or config.get("pin1", "p1A=1.4:2.6:20"))
    name2, grid2 = _parse_grid(args.pin2 or config.get("pin2", "zA=1.1:1.7:20"))
    guess = _parse_assignments(args.guess, "--guess")
    if not guess:
        seed_name = _resolve(args, config, "seed", str)
        if seed_name not in SEEDS or "pin" not in SEEDS[seed_name]:
            raise InvalidInputError(f"seed {seed_name!r} has no scan guess")
        guess = dict(SEEDS[seed_name]["guess"])
    free = [n for n in ("p1A", "p2A", "zA", "zB") if n not in (name1, name2)]
    if sorted(guess) != sorted(free):
        raise InvalidInputError(
            f"scan over ({name1}, {name2}) needs a guess for {free}")

    outdir, manifest = _prepare(args, "scan", {
        "r": r, "m": m, "pin1": f"{name1}", "pin2": f"{name2}",
        "grid1": [float(grid1[0]), float(grid1[-1]), len(grid1)],
        "grid2": [float(grid2[0]), float(grid2[-1]), len(grid2)],
        "guess": guess})
    with manifest.phase("scan"):
        table = scan_family(params, (grid1, grid2), guess, pin_names=(name1, name2))

    with manifest.phase("write"):
        json_path = manifest.claim(outdir / "scan.family.json")
        table.to_json(json_path)
        csv_path = manifest.claim(outdir / "scan.family.csv")
        table.to_csv(csv_path)
        outputs = [str(json_path), str(csv_path)]
        jumps = [row.jump.as_dict() for row in table.rows]
        coords = {key: [d[key] for d in jumps]
                  for key in ("p1A", "p2A", "zA", "p1B", "p2B", "zB")}
        for xk, yk in _PROJECTIONS:
            path = manifest.claim(outdir / f"scan.{xk}_{yk}.svg")
            path.write_text(scatter_plot(coords[xk], coords[yk], xk, yk,
                                         title=f"family projection ({xk}, {yk})"))
            outputs.append(str(path))
    manifest.finish()
    print(json.dumps({"rows": len(table), "outputs": outputs}, indent=1))
    return 0


def _claim_trajectory(outdir, manifest, stem: str) -> list[Path]:
    return [manifest.claim(outdir / f"{stem}.{ext}") for ext in ("csv", "json", "svg")]


def _write_trajectory(paths: list[Path], tr: Trajectory) -> None:
    """Write ``tr`` as CSV, JSON and SVG to the three ``paths`` of ``_claim_trajectory``."""
    csv_path, json_path, svg_path = paths
    tr.to_csv(csv_path)
    tr.to_json(json_path)
    svg_path.write_text(time_series_svg(tr.times, tr.states,
                                        title=f"eps = {tr.config.eps:g}"))


def cmd_simulate(args, config) -> int:
    r = _resolve(args, config, "r")
    m = _resolve(args, config, "m")
    params = Params(r, m)
    state = _parse_state(_resolve(args, config, "state", str))
    cfg = SimConfig(
        eps=_resolve(args, config, "eps"),
        t_end=_resolve(args, config, "t_end"),
        rel_tol=_resolve(args, config, "rel_tol", default=SimConfig.rel_tol),
        abs_tol=_resolve(args, config, "abs_tol", default=SimConfig.abs_tol),
        max_step=_resolve(args, config, "max_step"),
        n_samples=int(_resolve(args, config, "samples", int, default=2000)),
    )
    outdir, manifest = _prepare(args, "simulate", {
        "r": r, "m": m, "eps": cfg.eps, "t_end": cfg.t_end,
        "rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol,
        "max_step": cfg.max_step, "state": state.to_array().tolist()})
    with manifest.phase("integrate"):
        tr = integrate(state, params, cfg)
    manifest.entry["integral_drift"] = tr.integral_drift()
    manifest.entry["steps"] = tr.steps
    manifest.entry["rhs_evals"] = tr.rhs_evals
    with manifest.phase("write"):
        paths = _claim_trajectory(outdir, manifest, "simulate.trajectory")
        _write_trajectory(paths, tr)
    manifest.finish()
    print(json.dumps({"final_state": tr.states[-1].tolist(),
                      "outputs": [str(path) for path in paths]}, indent=1))
    return 0


def _wait(writes: list) -> None:
    for write in writes:
        write.result()  # raises what the write raised


def cmd_continue(args, config) -> int:
    """Integrate the chain; one forked worker writes each run's files meanwhile.

    Claims, solver statistics and the manifest stay in this process.  The
    manifest is written only once the worker has finished every file
    handed to it, so a chain that fails at entry k records, and keeps, the
    files of the entries before k.
    """
    # imported here: ``import relaxor.cli`` loads no multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    r = _resolve(args, config, "r")
    m = _resolve(args, config, "m")
    params = Params(r, m)
    state = _parse_state(_resolve(args, config, "state", str))
    schedule = _parse_schedule(_resolve(args, config, "schedule", str))
    outdir, manifest = _prepare(args, "continue", {
        "r": r, "m": m, "state": state.to_array().tolist(),
        "schedule": [[e, d] for e, d in schedule]})
    drift, steps, rhs_evals, outputs, writes = [], [], [], [], []
    writer = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
    try:
        with manifest.phase("integrate"):
            try:
                for i, tr in enumerate(iter_continue_in_eps(state, params, schedule)):
                    paths = _claim_trajectory(outdir, manifest,
                                              f"continue.{i:02d}.eps{tr.config.eps:g}")
                    writes.append(writer.submit(_write_trajectory, paths, tr))
                    outputs += map(str, paths)
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
        # waits for a write under way; after a failure the queued ones are dropped
        writer.shutdown(cancel_futures=True)
    manifest.finish()
    print(json.dumps({"runs": len(writes),
                      "final_eps": tr.config.eps,
                      "final_state": tr.states[-1].tolist(),
                      "outputs": outputs}, indent=1))
    return 0


def cmd_classify(args, config) -> int:
    if args.input is None:
        raise InvalidInputError("classify requires --input FILE")
    align_tol = args.align_tol
    outdir, manifest = _prepare(args, "classify", {
        "input": str(args.input), "align_tol": align_tol})
    with manifest.phase("read"):
        try:
            doc = json.loads(Path(args.input).read_text())
        except OSError as err:
            raise InvalidInputError(f"cannot read {args.input}: {err}") from err
        except ValueError as err:  # undecodable bytes or malformed JSON
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
    with manifest.phase("classify"):
        params = data.params
        if kind == "singular_orbit":
            ex = find_extrema(data, align_tol=align_tol)
            sync = classify_synchronization(ex, data.jumps, params)
        else:
            events = detect_jump_events(data)
            ex = find_extrema(data, events, align_tol=align_tol)
            sync = classify_synchronization(ex, effective_jump_pair(events, params), params)
        report = classification_report(sync, ex)

    with manifest.phase("write"):
        path = manifest.claim(outdir / "classify.report.json")
        path.write_text(json.dumps(report, indent=1))
    manifest.finish()
    print(json.dumps({"label": sync.label.value,
                      "orientation": sync.orientation.value,
                      "outputs": [str(path)]}, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxor",
        description="Singular periodic orbits and simulations of the "
                    "fast-slow one-predator/two-prey system")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key = value settings file")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--force", action="store_true",
                        help="allow replacing existing output files")
        sp.add_argument("--r", type=float, help="rescaled prey-2 growth rate")
        sp.add_argument("--m", type=float, help="rescaled predator death rate")

    sp = sub.add_parser("construct", help="solve and assemble a singular orbit")
    common(sp)
    sp.add_argument("--seed", help=f"orbit preset: {', '.join(sorted(SEEDS))}")
    sp.add_argument("--pin", action="append", metavar="NAME=VALUE",
                    help="pinned jump coordinate (twice)")
    sp.add_argument("--guess", action="append", metavar="NAME=VALUE",
                    help="initial guess for a free coordinate")
    sp.add_argument("--samples", type=int,
                    help="samples per slow segment (default 400)")

    sp = sub.add_parser("scan", help="continuation scan of the orbit family")
    common(sp)
    sp.add_argument("--pin1", metavar="NAME=LO:HI:N", help="first pinned grid")
    sp.add_argument("--pin2", metavar="NAME=LO:HI:N", help="second pinned grid")
    sp.add_argument("--seed", help="preset supplying the free-coordinate guess")
    sp.add_argument("--guess", action="append", metavar="NAME=VALUE")

    sp = sub.add_parser("simulate", help="integrate the full system once")
    common(sp)
    sp.add_argument("--eps", type=float, help="time-scale separation")
    sp.add_argument("--t-end", dest="t_end", type=float, help="duration")
    sp.add_argument("--state", help="initial state p1,p2,z,q")
    sp.add_argument("--rel-tol", dest="rel_tol", type=float)
    sp.add_argument("--abs-tol", dest="abs_tol", type=float)
    sp.add_argument("--max-step", dest="max_step", type=float)
    sp.add_argument("--samples", type=int,
                    help="number of output samples, at least 2 (default 2000)")

    sp = sub.add_parser("continue", help="chain runs along an eps schedule")
    common(sp)
    sp.add_argument("--state", help="initial state p1,p2,z,q")
    sp.add_argument("--schedule", help="'default' or eps:dur,eps:dur,...")

    sp = sub.add_parser("classify", help="classify an orbit or trajectory file")
    common(sp)
    sp.add_argument("--input", help="orbit or trajectory JSON")
    sp.add_argument("--align-tol", dest="align_tol", type=float,
                    help="extremum/jump alignment tolerance")
    return parser


_COMMANDS = {
    "construct": cmd_construct,
    "scan": cmd_scan,
    "simulate": cmd_simulate,
    "continue": cmd_continue,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config)
        return _COMMANDS[args.command](args, config)
    except InvalidInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RelaxorError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
