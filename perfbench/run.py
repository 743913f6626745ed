#!/usr/bin/env python3
"""Benchmark of the relaxor CLI: scan, continue and pipeline workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # table of every workload

Each workload is one closed-loop client in this process: it calls
``relaxor.cli.main(argv)``, the function behind the ``relaxor`` console
script, for one pass of commands, waits for it, and starts the next pass
until ``--seconds`` have gone by.  Every pass writes into a fresh
directory under ``.perfbench_runs/work`` that is checked and removed after
the timed loop.  With ``--trace 0`` the end-to-end metrics are reported,
the pass time both in seconds and in units of a speed probe sampled during
the pass (see ``SpeedProbe``); with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics of the traced passes are
reported.  The last line of standard output is one JSON object; the exit
code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_probe": "probe", "peak_rss_mb": "MB"}
PROBE_INTERVAL_S = 0.1
PROBE_X = np.linspace(0.1, 1.0, 4)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    passdir: Path
    results: list
    tracer: object = None
    probe: SpeedProbe | None = None

    @property
    def work(self) -> float:
        """Pass time in probe units: wall time times the probe's mean speed."""
        return self.wall_s * self.probe.speed()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="scan, continue, pipeline, or all for a table of the three")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the documented inputs")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, workload) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.describe(),
    }


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import relaxor.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import relaxor.cli"], cwd=ROOT, env=env,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def probe_work() -> float:
    """A fixed sliver of the library's kind of work.

    Small numpy operations and interpreted arithmetic; about 0.25 ms on a
    2-core Xeon VM.
    """
    y = PROBE_X
    for _ in range(60):
        y = np.sin(y) + 0.1 * y
    total = 0.0
    for i in range(1500):
        total += i * 0.5
    return total + float(y.sum())


class SpeedProbe:
    """Samples the interpreter's speed every ``PROBE_INTERVAL_S`` of a pass.

    On a shared 2-core Xeon VM the CPU speed changed by up to 2x within
    seconds, and the guest was not told (no steal time). A real-time timer
    signal runs ``probe_work`` in the main thread, between the library's
    bytecodes, and times it. The samples are spread evenly over wall time,
    so the pass's wall time times the mean of 1/sample is its work in
    probe units, with the host's speed changes divided out. One sample is
    taken at the start, so a short pass has one too.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent_s(self) -> float:
        return sum(self.samples)

    def speed(self) -> float:
        """Mean probe speed in probes per second."""
        return statistics.mean(1.0 / sample for sample in self.samples)


def run_pass(workload, main, passdir: Path) -> list:
    """Run one pass of CLI commands; return their results."""
    from workloads import CommandResult
    results = []
    for command in workload.commands(passdir):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(command.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            except Exception:  # a crash fails the operation; keep the traceback
                rc = None
                traceback.print_exc()
        results.append(CommandResult(command.op, command.argv, rc,
                                     out.getvalue(), err.getvalue()))
    return results


def timed_passes(args, workload) -> list[Pass]:
    """Run passes until ``args.seconds`` have gone by (traced runs: at least two).

    Untraced passes run under a ``SpeedProbe``; their ``wall_s`` leaves
    out the time the probe took.
    """
    import relaxor.cli
    import tracing
    work = RUNS / "work"
    work.mkdir(parents=True, exist_ok=True)
    passes = []
    loop_start = time.perf_counter()
    while (time.perf_counter() - loop_start < args.seconds
           or len(passes) < 1 + args.trace):
        traced = args.trace == 1 and len(passes) % 2 == 1
        passdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
        tracer = tracing.Tracer() if traced else None
        probe = SpeedProbe() if args.trace == 0 else None
        main = tracer.wrap("cli.main", relaxor.cli.main) if traced else relaxor.cli.main
        with tracer.installed() if traced else probe or contextlib.nullcontext():
            start = time.perf_counter()
            results = run_pass(workload, main, passdir)
            wall = time.perf_counter() - start
        if probe is not None:
            wall -= probe.spent_s()
        passes.append(Pass(traced, wall, passdir, results, tracer, probe))
    return passes


def layer_report(passes: list[Pass], record: dict) -> dict:
    """Per-layer metrics: counts of the first traced pass, median times."""
    import tracing
    traced = [p for p in passes if p.traced]
    per_pass = [tracing.layer_metrics(p.tracer) for p in traced]
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if tracing.unit(key) == "s":
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                record.setdefault("count_mismatch", []).append(key)
    metrics["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        p.wall_s for p in passes if not p.traced)
    return metrics


def write_spans(args, passes: list[Pass]) -> None:
    """Write the spans of every traced pass, times relative to the pass start."""
    doc = []
    for p in passes:
        if p.traced:
            origin = p.tracer.spans[0][1]
            doc.append([[name, start - origin, end - origin, parent, raised, size]
                        for name, start, end, parent, raised, size in p.tracer.spans])
    spans_dir = RUNS / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    (spans_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"fields": ["name", "start_s", "end_s", "parent", "raised", "size"], "passes": doc}))


def run_workload(args) -> int:
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args, workload)
    setup = measure_setup() if args.trace == 0 else []
    passes = timed_passes(args, workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        verdicts = [workload.check(p.passdir, p.results) for p in passes]
    finally:
        for p in passes:
            shutil.rmtree(p.passdir, ignore_errors=True)

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    unsolved = sum(v.unsolved for v in verdicts)
    problems = [problem for v in verdicts for problem in v.problems]
    failed_fraction = (failed + unsolved) / attempted
    record = {"workload": args.workload, "environment": env,
              "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                          "probe_samples": len(p.probe.samples) if p.probe else 0,
                          "probe_speed": p.probe.speed() if p.probe else None}
                         for p in passes],
              "stdout": {r.op: r.stdout for r in passes[0].results},
              "attempted": attempted, "failed": failed, "unsolved": unsolved,
              "failed_fraction": failed_fraction, "problems": problems[:50]}
    if args.trace == 0:
        metrics = {"setup_s": statistics.median(setup),
                   "wall_probe": statistics.median(p.work for p in passes),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        record["setup_samples_s"] = setup
        record["wall_s"] = statistics.median(p.wall_s for p in passes)
        record["probe_speed"] = statistics.median(p.probe.speed() for p in passes)
    else:
        metrics = layer_report(passes, record)
        units = {key: tracing.unit(key) for key in metrics}
        write_spans(args, passes)
    record["metrics"] = metrics
    results_dir = RUNS / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']!r}, load {env['loadavg_at_start']}, "
          f"commit {env['git_commit']}")
    print(f"  inputs: {json.dumps(env['inputs'])}")
    print("  passes (s, t = traced): " + ", ".join(
        f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in passes))
    shown = dict(metrics)
    if args.trace == 0:
        shown.update(wall_s=record["wall_s"], probe_speed=record["probe_speed"])
        units = dict(units, wall_s="s", probe_speed="probe/s")
    for key, value in shown.items():
        print(f"  {key:28s} {value:>14.6g} {units[key]}")
    print(f"  {'failed_fraction':28s} {failed_fraction:>14.6g} 1  "
          f"({failed} failed, {unsolved} unsolved of {attempted} operations)")
    for problem in problems[:10]:
        print(f"  check failed: {problem}")
    if "count_mismatch" in record:
        print(f"  counts differ between traced passes: {record['count_mismatch']}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 1 if problems else 0


def run_all(args) -> int:
    """Run each workload untraced in its own interpreter and print one table."""
    from workloads import WORKLOADS
    status = 0
    units = dict(END_TO_END_UNITS, wall_s="s", failed_fraction="1")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        status = status or proc.returncode
        path = RUNS / "results" / f"{name}-seed{args.seed}-trace0.json"
        if proc.returncode not in (0, 1) or not path.is_file():
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"{name}: no result")
            continue
        record = json.loads(path.read_text())
        metrics = dict(record["metrics"], wall_s=record["wall_s"],
                       failed_fraction=record["failed_fraction"])
        print(f"{name:9s} " + "  ".join(f"{k} {metrics[k]:.4g} {units[k]}" for k in units)
              + f"  ({record['failed']} failed, {record['unsolved']} unsolved"
                f" of {record['attempted']} operations)")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "relaxor" / "cli.py").is_file():
        print(f"perfbench: no relaxor sources at {SRC / 'relaxor'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relaxor
    from workloads import WORKLOADS

    if not Path(relaxor.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported relaxor from {relaxor.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        if args.trace:
            print("perfbench: --workload all reports end-to-end metrics only",
                  file=sys.stderr)
            return 2
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
