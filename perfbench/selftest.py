#!/usr/bin/env python3
"""Self-test of the benchmark's checks and counters.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It runs one pass of each workload, confirms the checks accept the real
outputs, and then confirms that each check rejects a deliberately
corrupted copy: a perturbed scan row, deleted and duplicated scan rows,
a wrong classification label and truncated trajectories.  It then makes
two traced runs per workload at one seed and requires identical counts,
and confirms that the benchmark refuses to run without the library
sources.  Exits nonzero if any expectation fails.  Takes about two
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src on the path)
from workloads import WORKLOADS, CommandResult  # noqa: E402

TRACE_SEED = 7


def _rewrite_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _truncate(doc: dict) -> None:
    keep = len(doc["times"]) // 2
    doc["times"] = doc["times"][:keep]
    doc["states"] = doc["states"][:keep]


def _corrupt_copy(workload, passdir: Path, results, corrupt) -> int:
    """Failed-operation count of a corrupted copy of one pass's outputs."""
    copy = Path(tempfile.mkdtemp(dir=passdir.parent))
    try:
        shutil.copytree(passdir, copy, dirs_exist_ok=True)
        results = [CommandResult(r.op, r.argv, r.rc, r.stdout, r.stderr) for r in results]
        corrupt(copy, results)
        return workload.check(copy, results).failed
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def _perturbed_row(copy: Path, results) -> None:
    def perturb(rows):
        rows[0]["p2B"] *= 1.0 + 1e-6
    _rewrite_json(copy / "scan" / "scan.family.json", perturb)


def _rewrite_scan(copy: Path, results, change) -> None:
    """Change the scan table and the row count printed with it."""
    _rewrite_json(copy / "scan" / "scan.family.json", change)
    rows = len(json.loads((copy / "scan" / "scan.family.json").read_text()))
    (result,) = results
    result.stdout = json.dumps(dict(json.loads(result.stdout), rows=rows))


def _deleted_rows(copy: Path, results) -> None:
    """Keep one row fewer than the grid must yield."""
    def drop(rows):
        del rows[workloads.SCAN_N ** 2 - workloads.SCAN_GIVE_UPS - 1:]
    _rewrite_scan(copy, results, drop)


def _duplicated_row(copy: Path, results) -> None:
    _rewrite_scan(copy, results, lambda rows: rows.append(rows[0]))


def _truncated_continue_run(copy: Path, results) -> None:
    _rewrite_json(next((copy / "continue").glob("continue.05.*.json")), _truncate)


def _truncated_simulation(copy: Path, results) -> None:
    _rewrite_json(copy / "sim0.01" / "simulate.trajectory.json", _truncate)


def _wrong_label(copy: Path, results) -> None:
    """Relabel the predp2 orbit in both its report and the printed summary."""
    _rewrite_json(copy / "predp2" / "classify.report.json",
                  lambda d: d["classification"].update(label="PreyPreyAntiphase"))
    for r in results:
        if r.op == "classify:predp2":
            r.stdout = json.dumps(dict(json.loads(r.stdout), label="PreyPreyAntiphase"))


CORRUPTIONS = {
    "scan": [("a perturbed row coordinate", _perturbed_row),
             ("deleted rows", _deleted_rows),
             ("a duplicated row", _duplicated_row)],
    "continue": [("a truncated trajectory", _truncated_continue_run)],
    "pipeline": [("a wrong label", _wrong_label),
                 ("a truncated trajectory", _truncated_simulation)],
}


def check_corruptions():
    """Yield (held, expectation) for the real and the corrupted outputs."""
    import relaxor.cli
    work = run.RUNS / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    for name, workload_cls in WORKLOADS.items():
        workload = workload_cls(0)
        passdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
        try:
            results = run.run_pass(workload, relaxor.cli.main, passdir)
            verdict = workload.check(passdir, results)
            yield not verdict.problems, (f"{name}: checks accept the real outputs "
                                         f"{verdict.problems[:3]}")
            for what, corrupt in CORRUPTIONS[name]:
                failed = _corrupt_copy(workload, passdir, results, corrupt)
                yield failed >= 1, f"{name}: checks reject {what} ({failed} failed)"
        finally:
            shutil.rmtree(passdir, ignore_errors=True)


def _traced_counts(name: str) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(TRACE_SEED), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr)
        return None
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] != "s"}


def check_trace_counts():
    for name in WORKLOADS:
        first, second = _traced_counts(name), _traced_counts(name)
        yield (first is not None and first == second,
               f"{name}: two traced runs at seed {TRACE_SEED} give identical counts")


def check_refuses_without_sources():
    bare = Path(tempfile.mkdtemp(dir=run.RUNS))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=180)
        yield (proc.returncode != 0 and not proc.stdout.strip(),
               f"refuses to run without library sources (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    for check in (check_corruptions, check_trace_counts, check_refuses_without_sources):
        for held, what in check():
            print(f"{'PASS' if held else 'FAIL'}: {what}", flush=True)
            failures += not held
    print(f"{failures} self-test expectation(s) failed" if failures
          else "all self-test expectations held")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
