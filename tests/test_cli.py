import argparse
import ast
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy

import relaxor
from relaxor import svgplot
from relaxor.cli import (_COMMANDS, _OPTIONS, _PROJECTIONS, SEEDS, _resolve,
                         _trajectory_names, _write_trajectory, build_parser, main)
from relaxor.errors import MAX_SAMPLES, InvalidInputError
from relaxor.simulate import continue_in_eps
from conftest import CRITERION_9_BOX


def run(*argv):
    return main(list(argv))


# a coarse antiphase orbit (three and two samples per slow segment), enough to classify
_ORBIT_DOC = json.dumps({
    "kind": "singular_orbit", "r": 0.5, "m": 0.4,
    "jumps": {"p1A": 0.99, "p2A": 0.9837, "zA": 1.75, "p1B": 0.3199,
              "p2B": 3.1743, "zB": 1.1186, "T0": 1.1298, "T1": 2.3431},
    "t_m1": [0.0, 1.1715, 2.3431],
    "y_m1": [[0.99, 0.9837, 1.75], [0.4588, 1.7671, 1.5021], [0.3199, 3.1743, 1.1186]],
    "t_m0": [2.9079, 3.4728],
    "y_m0": [[0.5627, 1.9379, 1.5923], [0.99, 0.9837, 1.75]]})


def test_construct_hybrid_outputs_and_manifest(tmp_path, capsys):
    out = tmp_path / "hybrid"
    assert run("construct", "--r", "0.5", "--m", "0.4", "--seed", "hybrid",
               "--out", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jumps"]["p1A"] == pytest.approx(1.81)
    assert payload["jumps"]["p2A"] == pytest.approx(0.486, abs=1e-3)
    for name in ("construct.orbit.json", "construct.phase.svg",
                 "construct.timeseries.svg", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 1
    outputs = manifest["runs"][0]["outputs"]
    assert sorted(outputs) == ["construct.orbit.json", "construct.phase.svg",
                               "construct.timeseries.svg"]
    # every output is referenced by exactly one manifest entry
    assert len(outputs) == len(set(outputs))


def test_construct_rejects_invalid_r(tmp_path, capsys):
    code = run("construct", "--r", "1.2", "--m", "0.4", "--out", str(tmp_path))
    assert code == 2
    assert "r" in capsys.readouterr().err


def test_construct_numerical_failure_exits_1(tmp_path, capsys):
    # this pinning has no admissible orbit; the solver's diagnostics are
    # surfaced and the exit code distinguishes the failure from bad input
    code = run("construct", "--r", "0.5", "--m", "0.4",
               "--pin", "p1A=1.8", "--pin", "zA=1.25",
               "--guess", "p2A=0.49", "--guess", "zB=1.4",
               "--out", str(tmp_path / "fail"))
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


def test_construct_solver_failure_reports_diagnostics(tmp_path, capsys):
    # the hybrid seed does not converge at (r, m) = (0.8, 0.7); the message
    # names the last iterate's residual and iteration count
    code = run("construct", "--r", "0.8", "--m", "0.7", "--seed", "hybrid",
               "--out", str(tmp_path / "fail"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "residual " in err and "iterations " in err


def test_construct_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "dir"
    assert run("construct", "--r", "0.5", "--m", "0.4", "--seed", "hybrid",
               "--out", str(out)) == 0
    assert run("construct", "--r", "0.5", "--m", "0.4", "--seed", "hybrid",
               "--out", str(out)) == 2
    capsys.readouterr()
    assert run("construct", "--r", "0.5", "--m", "0.4", "--seed", "hybrid",
               "--out", str(out), "--force") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    names = [o for run_ in manifest["runs"] for o in run_["outputs"]]
    assert len(names) == len(set(names))
    capsys.readouterr()


@pytest.mark.parametrize("argv,present", [
    (("construct", "--seed", "hybrid", "--samples", "50"), "construct.phase.svg"),
    (("construct", "--seed", "balanced"), "construct.orbit.json"),
    (("scan", "--pin1", "p1A=1.81:1.81:1", "--pin2", "zA=1.35:1.35:1",
      "--guess", "p2A=0.49", "--guess", "zB=1.4"), "scan.p2B_zB.svg"),
    (("continue", "--schedule", "0.1:1,0.2:1"), "continue.01.eps0.2.svg"),
    (("simulate", "--eps", "0.1", "--t-end", "1"), "simulate.trajectory.svg"),
    (("classify", "--input", "{tmp}/absent.json"), "classify.report.json"),
], ids=["construct", "construct-balanced", "scan", "continue", "simulate", "classify"])
def test_refused_overwrite_writes_nothing(tmp_path, capsys, monkeypatch, argv, present):
    # a later output already on disk is refused before any file is written,
    # and before the command solves, scans, integrates or reads its input
    # (classify's input does not exist, so any attempt to read it fails)
    integrate = relaxor.simulate.integrate
    calls = []

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    def unreachable(*args, **kwargs):
        raise AssertionError("solved although an output is refused")

    monkeypatch.setattr(relaxor.simulate, "integrate", counted)
    for name in ("solve_jump_points", "scan_family", "integrate"):
        monkeypatch.setattr(relaxor.cli, name, unreachable)
    (tmp_path / present).write_text("kept")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(*argv, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(
        f"error: refusing to overwrite {tmp_path / present}")
    assert [p.name for p in tmp_path.iterdir()] == [present]
    assert (tmp_path / present).read_text() == "kept"
    assert calls == []


def test_construct_with_one_sample_per_segment_exits_2(tmp_path, capsys):
    assert run("construct", "--seed", "hybrid", "--samples", "1",
               "--out", str(tmp_path)) == 2
    assert "at least two samples per slow segment" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


CLASSIFY_EXPECTATIONS = {
    # seed -> ((r, m), label, orientation or None)
    "hybrid": ((0.5, 0.4), "PredatorPreyPrey", None),
    "predpreyprey": ((0.8, 1.0), "PredatorPreyPrey", "Counterclockwise"),
    "predp2": ((0.5, 0.4), "PredatorPrey2Alternating", None),
    "antiphase": ((0.5, 0.4), "PreyPreyAntiphase", None),
    "clockwise": ((0.5, 0.4), "Unclassified", "Clockwise"),
}


def test_construct_predpreyprey_reference_coordinates(tmp_path, capsys):
    out = tmp_path / "ppp"
    assert run("construct", "--r", "0.8", "--m", "1", "--seed", "predpreyprey",
               "--out", str(out)) == 0
    jumps = json.loads(capsys.readouterr().out)["jumps"]
    assert jumps["p1A"] == pytest.approx(2.41, abs=0.02)
    assert jumps["p2A"] == pytest.approx(0.33, abs=0.02)
    assert jumps["zA"] == pytest.approx(1.18, abs=0.02)


def test_construct_hybrid_reference_coordinates(tmp_path, capsys):
    out = tmp_path / "hyb"
    assert run("construct", "--r", "0.5", "--m", "0.4", "--seed", "hybrid",
               "--out", str(out)) == 0
    jumps = json.loads(capsys.readouterr().out)["jumps"]
    for key, value in (("p1A", 1.81), ("p2A", 0.49), ("zA", 1.35)):
        assert jumps[key] == pytest.approx(value, abs=0.02)


@pytest.mark.parametrize("seed", sorted(CLASSIFY_EXPECTATIONS))
def test_classify_round_trips_construct_labels(tmp_path, capsys, seed):
    (r, m), label, orientation = CLASSIFY_EXPECTATIONS[seed]
    out = tmp_path / seed
    assert run("construct", "--r", str(r), "--m", str(m), "--seed", seed,
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("classify", "--input", str(out / "construct.orbit.json"),
               "--out", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == label
    if orientation is not None:
        assert payload["orientation"] == orientation
    report = json.loads((out / "classify.report.json").read_text())
    assert report["classification"]["label"] == label


def test_classify_orbit_with_one_sample_segment_exits_1(tmp_path, capsys):
    # two samples per segment leave one on q = 0 after the seam sample is
    # dropped; classify names that segment instead of crashing
    out = tmp_path / "coarse"
    assert run("construct", "--seed", "hybrid", "--samples", "2", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("classify", "--input", str(out / "construct.orbit.json"),
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the q = 0 segment has 1 sample")
    assert "Traceback" not in err


def test_simulate_equilibrium_flat_lines(tmp_path, capsys):
    out = tmp_path / "eq"
    assert run("simulate", "--r", "0.5", "--m", "0.4", "--eps", "0.1",
               "--t-end", "5", "--state", "1,1,1.5,0.6666666666666666",
               "--out", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.allclose(payload["final_state"], [1, 1, 1.5, 2 / 3], atol=1e-7)
    rows = (out / "simulate.trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,p1,p2,z,q"
    assert len(rows) >= 2001


def test_simulate_honours_samples(tmp_path, capsys):
    args = ("simulate", "--eps", "0.1", "--t-end", "2", "--state", "1.18,0.87,1.5,0.99")
    out = tmp_path / "few"
    assert run(*args, "--samples", "500", "--out", str(out)) == 0
    rows = (out / "simulate.trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 500
    assert run(*args, "--samples", "1", "--out", str(tmp_path / "one")) == 2
    assert "sample" in capsys.readouterr().err


def test_a_run_the_step_budget_cannot_finish_is_refused(tmp_path, capsys):
    # t_end / max_step, the fewest steps a run can take, above 10^7 is user
    # error before any stepping; a cap of 1e-300 once stepped without end
    out = tmp_path / "refused"
    assert run("simulate", "--eps", "0.1", "--t-end", "1", "--max-step", "1e-300",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: t_end 1 at max_step 1e-300 takes at least 1e+300 steps, above the "
        "budget of 1e+07; raise max_step (eps/2 when unset) or shorten t_end\n")
    assert run("simulate", "--eps", "1e-6", "--t-end", "50", "--out", str(out)) == 2
    assert "takes at least 1e+08 steps" in capsys.readouterr().err
    # a schedule is checked whole before its first run
    assert run("continue", "--schedule", "1e-6:0.001,1e-6:50", "--out", str(out)) == 2
    assert "takes at least 1e+08 steps" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # no manifest entry and no files


def test_simulate_config_file_sets_max_step(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end = 1\nmax_step = 0.001\n")
    out = tmp_path / "capped"
    assert run("simulate", "--config", str(cfg), "--eps", "0.1",
               "--out", str(out)) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"][0]["parameters"]["max_step"] == 0.001
    doc = json.loads((out / "simulate.trajectory.json").read_text())
    assert doc["config"]["max_step"] == 0.001
    assert doc["config"]["t_end"] == 1.0


def test_continue_single_entry(tmp_path, capsys):
    out = tmp_path / "cont"
    assert run("continue", "--r", "0.5", "--m", "0.4",
               "--state", "1.18,0.87,1.5,0.99", "--schedule", "0.1:2.0",
               "--out", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 1
    assert payload["final_eps"] == pytest.approx(0.1)
    assert (out / "continue.00.eps0.1.csv").exists()


def test_every_command_records_versions_and_phase_timings(tmp_path, capsys):
    out = tmp_path / "runs"
    argvs = {
        "construct": ("construct", "--seed", "hybrid", "--samples", "50"),
        "classify": ("classify", "--input", str(out / "construct.orbit.json")),
        "scan": ("scan", "--pin1", "p1A=1.81:1.81:1", "--pin2", "zA=1.35:1.35:1",
                 "--guess", "p2A=0.49", "--guess", "zB=1.4"),
        "simulate": ("simulate", "--eps", "0.1", "--t-end", "2"),
        "continue": ("continue", "--schedule", "0.1:1.0,0.2:1.0"),
    }
    phases = {"construct": ["assemble", "solve", "write"],
              "classify": ["classify", "read", "write"],
              "scan": ["scan", "write"],
              "simulate": ["integrate", "write"],
              "continue": ["integrate", "write"]}
    printed = []
    for argv in argvs.values():
        assert run(*argv, "--out", str(out)) == 0
        printed.append(json.loads(capsys.readouterr().out)["outputs"])
    entries = json.loads((out / "manifest.json").read_text())["runs"]
    assert [e["command"] for e in entries] == list(argvs)
    assert printed == [[str(out / name) for name in e["outputs"]] for e in entries]
    for entry in entries:
        assert entry["numpy_version"] == np.__version__
        assert entry["scipy_version"] == scipy.__version__
        assert sorted(entry["elapsed_s"]) == phases[entry["command"]]
        for v in entry["elapsed_s"].values():
            assert v >= 0.0
            assert round(v * 1e7) % 10 == 5  # microsecond midpoint: fixed printed width
    drift = {e["command"]: e.get("integral_drift") for e in entries}
    assert isinstance(drift["simulate"], float) and 0.0 <= drift["simulate"] < 1e-10
    assert len(drift["continue"]) == 2
    assert all(isinstance(d, float) and 0.0 <= d < 1e-10 for d in drift["continue"])
    assert drift["construct"] is None and drift["scan"] is None


def test_manifest_records_solver_statistics_of_each_run(tmp_path, capsys, monkeypatch):
    # right-hand-side calls counted by a wrapper on the field each run steps with
    runs = []

    def counted_field(p, eps):
        rhs = relaxor.model.vector_field(p, eps)
        calls = []
        runs.append(calls)

        def counted(t, y):
            if y.ndim == 1:
                calls.append(t)
            return rhs(t, y)

        return counted

    monkeypatch.setattr(relaxor.simulate, "_bind_field", counted_field)
    out = tmp_path / "runs"
    assert run("simulate", "--eps", "0.1", "--t-end", "2", "--out", str(out)) == 0
    assert run("continue", "--schedule", "0.1:1.0,0.2:1.0", "--out", str(out)) == 0
    capsys.readouterr()
    simulate, cont = json.loads((out / "manifest.json").read_text())["runs"]
    assert simulate["rhs_evals"] == len(runs[0]) > 0
    assert cont["rhs_evals"] == [len(runs[1]), len(runs[2])]
    direct = relaxor.integrate(relaxor.State(1.18, 0.87, 1.5, 0.99), relaxor.Params(0.5, 0.4),
                               relaxor.SimConfig(eps=0.1, t_end=2.0))
    assert simulate["steps"] == direct.steps and direct.rhs_evals == len(runs[3])
    for steps, rhs_evals in zip([simulate["steps"], *cont["steps"]],
                                [simulate["rhs_evals"], *cont["rhs_evals"]]):
        assert isinstance(steps, int) and 12 * steps + 2 <= rhs_evals


def test_construct_and_scan_manifests_record_the_newton_work(tmp_path, capsys, monkeypatch):
    # existence-residual calls counted by a wrapper on the orbit module's binding
    calls = []
    residual = relaxor.orbit.existence_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(relaxor.orbit, "existence_residual", counted)
    out = tmp_path / "runs"
    assert run("construct", "--seed", "hybrid", "--samples", "20", "--out", str(out)) == 0
    construct_calls = len(calls)
    capsys.readouterr()
    # zA = 1.19 is a give-up: every seed tried there fails
    assert run("scan", "--pin1", "p1A=1.85:1.85:1", "--pin2", "zA=1.33:1.19:2",
               "--out", str(out)) == 0
    scan_calls = len(calls) - construct_calls
    assert json.loads(capsys.readouterr().out)["rows"] == 1
    construct, scan = json.loads((out / "manifest.json").read_text())["runs"]

    p, seed = relaxor.Params(0.5, 0.4), SEEDS["hybrid"]
    pair = relaxor.solve_jump_points(seed["pin"], seed["guess"], p)
    assert construct["residual_evaluations"] == construct_calls == pair.residual_evaluations
    assert construct["newton_iterations"] == pair.iterations > 0
    table = relaxor.scan_family(p, (np.array([1.85]), np.array([1.33, 1.19])), seed["guess"])
    assert scan["residual_evaluations"] == scan_calls == table.residual_evaluations
    assert scan["newton_iterations"] == table.iterations
    # the failed solves at zA = 1.19 are counted too
    [row] = table.rows
    assert row.residual_evaluations < scan_calls


def test_scan_single_point(tmp_path, capsys):
    out = tmp_path / "scan"
    assert run("scan", "--r", "0.5", "--m", "0.4",
               "--pin1", "p1A=1.81:1.81:1", "--pin2", "zA=1.35:1.35:1",
               "--guess", "p2A=0.49", "--guess", "zB=1.4",
               "--out", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == 1
    rows = json.loads((out / "scan.family.json").read_text())
    assert rows[0]["p2A"] == pytest.approx(0.486, abs=1e-3)
    header = (out / "scan.family.csv").read_text().splitlines()[0]
    assert header.startswith("r,m,pin_p1A,pin_zA,p1A")
    assert (out / "scan.p1A_zA.svg").exists()


def test_default_scan_is_the_criterion_9_scan(monkeypatch):
    # the default grids are the box the acceptance scan and the benchmark use
    options = _OPTIONS["scan"]
    assert tuple(options[k][0](options[k][1]) for k in ("pin1", "pin2")) == CRITERION_9_BOX
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    assert [(lo, hi) for _, lo, hi, _ in CRITERION_9_BOX] == [workloads.BOX_P1A,
                                                              workloads.BOX_ZA]


def test_scan_nonpositive_pin_is_input_error(tmp_path, capsys):
    code = run("scan", "--r", "0.5", "--m", "0.4",
               "--pin1", "p1A=-1:1.8:2", "--pin2", "zA=1.35:1.35:1",
               "--guess", "p2A=0.49", "--guess", "zB=1.4",
               "--out", str(tmp_path / "scan"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("pins, named", [
    (("foo=1.4:2.6:2", "zA=1.3:1.4:2"), "['foo', 'zA']"),
    (("zA=1.1:1.2:2", "zA=1.3:1.4:2"), "['zA']"),  # a repeated pin is one pin
])
def test_scan_needs_two_distinct_known_pins(tmp_path, capsys, pins, named):
    # the solver's message states the rule and names the pins and guess it got
    out = tmp_path / "scan"
    assert run("scan", "--pin1", pins[0], "--pin2", pins[1], "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pin exactly two of ('p1A', 'p2A', 'zA', 'zB') "
                          "and guess the remaining two; ")
    assert f"pinned={named}, guess=['p2A', 'zB']" in err
    # --out is opened first, as construct opens it; no run is recorded
    assert out.is_dir() and not (out / "manifest.json").exists()


def test_construct_negative_guess_is_input_error(tmp_path, capsys):
    code = run("construct", "--pin", "p1A=1.81", "--pin", "zA=1.35",
               "--guess", "p2A=-0.49", "--guess", "zB=1.4", "--out", str(tmp_path / "c"))
    assert code == 2
    assert capsys.readouterr().err == (
        "error: pinned and guessed coordinates must be finite and positive\n")
    assert not (tmp_path / "c" / "manifest.json").exists()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 0.8\nm = 1.0\nseed = predpreyprey\n# comment\n")
    out = tmp_path / "cfgtest"
    # --m on the command line beats the config value; r comes from config
    assert run("construct", "--config", str(cfg), "--m", "1.0",
               "--out", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jumps"]["p1A"] == pytest.approx(2.41)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"][0]["parameters"]["r"] == pytest.approx(0.8)
    assert manifest["runs"][0]["parameters"]["m"] == pytest.approx(1.0)


def test_config_file_sets_every_option_of_every_command(tmp_path, capsys):
    # one file serves both commands: each reads its own keys and ignores the other's
    doc = tmp_path / "orbit" / "construct.orbit.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"samples = 50\ninput = {doc}\nalign_tol = 0.5\n")
    assert run("construct", "--config", str(cfg), "--out", str(tmp_path / "orbit")) == 0
    assert run("classify", "--config", str(cfg), "--out", str(tmp_path / "cfg")) == 0
    assert run("classify", "--input", str(doc), "--align-tol", "0.5",
               "--out", str(tmp_path / "flag")) == 0
    capsys.readouterr()
    construct, = json.loads((tmp_path / "orbit" / "manifest.json").read_text())["runs"]
    assert construct["parameters"]["samples"] == 50
    report = (tmp_path / "flag" / "classify.report.json").read_bytes()
    assert (tmp_path / "cfg" / "classify.report.json").read_bytes() == report
    assert json.loads(report)["align_tol"] == 0.5


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("esp = 0.1\n")
    out = tmp_path / "out"
    assert run("simulate", "--config", str(cfg), "--t-end", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key 'esp'")
    assert not out.exists()


def test_repeated_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.1\nt_end = 1\n# the same key, spelled with a dash\nt-end = 2\n")
    out = tmp_path / "out"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}:4: repeated key 't_end'")
    assert not out.exists()


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's relaxor."""
    src = str(Path(relaxor.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv", [
    ["simulate", "--eps", "nan", "--t-end", "1"],
    ["simulate", "--t-end", "inf"],
    ["continue", "--schedule", "nan:1"],
    ["continue", "--schedule", "0.1:nan"],
], ids=["eps-nan", "t-end-inf", "schedule-eps-nan", "schedule-duration-nan"])
def test_non_finite_run_length_exits_2(tmp_path, argv):
    # an unchecked run of this length never ends: the child's timeout turns
    # such a regression into a failure instead of a stalled suite
    done = subprocess.run(
        [sys.executable, "-m", "relaxor.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "finite" in done.stderr


def _fresh_run(argv, cwd) -> tuple[int, set]:
    """Exit code of ``main(argv)`` in a new interpreter, and the modules it loaded.

    ``argv`` None only imports the CLI.  This process has loaded every
    module long ago, so only a new interpreter shows what a command loads.
    """
    script = ("import json, sys\n"
              "from relaxor.cli import main\n"
              f"code = 0 if {argv!r} is None else main({argv!r})\n"
              "print(json.dumps(sorted(sys.modules)))\n"
              "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=cwd, env=_child_env())
    return done.returncode, set(json.loads(done.stdout.splitlines()[-1]))


_SCIPY_PARTS = {"scipy.special", "scipy.integrate", "scipy.spatial", "scipy.optimize"}
# the Lambert W layer loads the compiled file of its ufuncs, not the
# scipy.special package
_UFUNCS = {"scipy.special._special_ufuncs"}
# the stepper loads its two scipy files, not the scipy.integrate package and
# the subpackages its __init__ loads
_STEPPER = {"scipy.integrate._dop", "scipy.integrate._ivp.dop853_coefficients"}
_NOT_BESIDE_THE_STEPPER = {"scipy.special", "scipy.integrate", "scipy.optimize",
                           "scipy.linalg", "scipy.sparse", "scipy.spatial"}
_SCAN_1X1 = ["scan", "--pin1", "p1A=1.81:1.81:1", "--pin2", "zA=1.35:1.35:1",
             "--guess", "p2A=0.49", "--guess", "zB=1.4"]


@pytest.mark.parametrize("argv,needed,unloaded", [
    (None, set(), _SCIPY_PARTS | _UFUNCS),
    (["classify", "--input", "orbit/construct.orbit.json"], set(),
     _SCIPY_PARTS | _UFUNCS),
    (_SCAN_1X1, _UFUNCS, _NOT_BESIDE_THE_STEPPER),
    (["construct"], _STEPPER | _UFUNCS, _NOT_BESIDE_THE_STEPPER),
    (["simulate", "--t-end", "1"], _STEPPER, _NOT_BESIDE_THE_STEPPER),
    (["continue", "--schedule", "0.1:1,0.2:1"], _STEPPER, _NOT_BESIDE_THE_STEPPER),
], ids=["import", "classify", "scan", "construct", "simulate", "continue"])
def test_a_command_loads_only_the_scipy_it_uses(tmp_path, capsys, argv, needed, unloaded):
    # scipy loads a submodule on its first use as an attribute of ``scipy``
    assert run("construct", "--out", str(tmp_path / "orbit")) == 0
    capsys.readouterr()
    code, modules = _fresh_run(argv and [*argv, "--out", "out"], tmp_path)
    assert code == 0
    assert needed <= modules
    assert not unloaded & modules


@pytest.mark.parametrize("argv,present", [
    (["simulate", "--eps", "nan"], None),
    (["simulate"], "simulate.trajectory.json"),
], ids=["eps-nan", "existing-output"])
def test_user_error_exits_before_the_stepper_loads(tmp_path, argv, present):
    if present:
        (tmp_path / present).write_text("kept")
    code, modules = _fresh_run([*argv, "--out", str(tmp_path)], tmp_path)
    assert code == 2
    assert not {"scipy.integrate", "scipy.integrate._dop"} & modules


def test_scipy_integrate_imported_after_the_stepper_shares_its_modules(tmp_path):
    # the stepper registers its two files under their scipy names; the
    # package's own imports of them must find those, not load second copies
    script = ("import math, sys\n"
              "from relaxor.cli import main\n"
              "assert main(['simulate', '--t-end', '1', '--out', 'out']) == 0\n"
              f"loaded = {{name: sys.modules[name] for name in {sorted(_STEPPER)!r}}}\n"
              "assert 'scipy.integrate' not in sys.modules\n"
              "import scipy.integrate\n"
              "assert all(sys.modules[name] is m for name, m in loaded.items())\n"
              "assert scipy.integrate._ode._dop is loaded['scipy.integrate._dop']\n"
              "coefficients = loaded['scipy.integrate._ivp.dop853_coefficients']\n"
              "assert scipy.integrate._ivp.rk.dop853_coefficients is coefficients\n"
              "sol = scipy.integrate.solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0],\n"
              "                                method='DOP853', rtol=1e-10, atol=1e-12)\n"
              "assert sol.success and abs(sol.y[0, -1] - math.exp(-1.0)) < 1e-9\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=_child_env())
    assert done.returncode == 0, done.stderr


def test_scipy_special_imported_after_a_scan_shares_its_ufuncs(tmp_path):
    # the Lambert W layer registers the compiled ufunc file under its scipy
    # name; the package must share it and give the library's values
    script = ("import sys\n"
              "import numpy as np\n"
              "from relaxor.cli import main\n"
              "from relaxor.lambertw import Branch, lambert_w, w_plus_one\n"
              "from relaxor.model import fast_heteroclinic\n"
              f"assert main({[*_SCAN_1X1, '--out', 'out']!r}) == 0\n"
              "loaded = sys.modules['scipy.special._special_ufuncs']\n"
              "assert 'scipy.special' not in sys.modules\n"
              "x, s = np.linspace(-0.35, 2.0, 9), np.linspace(0.01, 0.99, 9)\n"
              "tau = np.linspace(-5.0, 5.0, 9)\n"
              "ours = (lambert_w(Branch.PRINCIPAL, x), w_plus_one(Branch.LOWER, s),\n"
              "        fast_heteroclinic(tau, 1.5, 0.5))\n"
              "import scipy.special\n"
              "assert sys.modules['scipy.special._special_ufuncs'] is loaded\n"
              "assert scipy.special._ufuncs._lambertw is loaded._lambertw\n"
              "assert scipy.special.expit is loaded.expit\n"
              "theirs = (scipy.special.lambertw(x).real,\n"
              "          scipy.special.lambertw((s - 1.0) / np.e, -1).real + 1.0,\n"
              "          scipy.special.expit(tau))\n"
              "again = (lambert_w(Branch.PRINCIPAL, x), w_plus_one(Branch.LOWER, s),\n"
              "         fast_heteroclinic(tau, 1.5, 0.5))\n"
              "assert all(np.array_equal(a, b) and np.array_equal(a, c)\n"
              "           for a, b, c in zip(ours, theirs, again))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=_child_env())
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("flag", ["--r", "--m"])
def test_classify_takes_r_and_m_from_its_document(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        run("classify", "--input", str(tmp_path / "in.json"), flag, "0.9",
            "--out", str(tmp_path))
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_classify_rejects_unknown_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "mystery"}))
    assert run("classify", "--input", str(bad), "--out", str(tmp_path)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,files", [
    (["construct", "--pin", "p1A=abc", "--pin", "zA=1.35",
      "--guess", "p2A=0.49", "--guess", "zB=1.4"], {}),
    (["simulate", "--state", "1,2,x,0.5"], {}),
    (["classify", "--input", "{tmp}/in.json"], {"in.json": "not json"}),
    (["classify", "--input", "{tmp}/in.json"], {"in.json": "[1, 2]"}),
    (["classify", "--input", "{tmp}/in.json"], {"in.json": '{"kind": "trajectory"}'}),
    (["scan", "--pin1", "p1A=1.4:2.6:0"], {}),
    (["construct", "--seed", "hybrid"], {"out/manifest.json": '{"runs": ['}),
    (["classify", "--input", "{tmp}/in.json"], {"in.json": json.dumps(
        {"kind": "trajectory", "config": {}, "times": [], "states": [],
         "r": 0.5, "m": 0.4})}),
    (["classify", "--input", "{tmp}/in.json"], {"in.json": json.dumps(
        {"kind": "singular_orbit", "r": 0.5, "m": 0.4,
         "jumps": {"p1A": 1.81, "p2A": 0.49, "zA": 1.35, "p1B": 0.6,
                   "p2B": 1.9, "zB": 1.4, "T0": 1.1, "T1": 2.7},
         "t_m1": [0.0, 2.7], "y_m1": [], "t_m0": [3.8], "y_m0": []})}),
    (["classify", "--input", "{tmp}/in.json"], {"in.json": json.dumps(
        {"kind": "trajectory", "config": {"eps": 0.1, "t_end": 1.0}, "times": [0.0, 1.0],
         "states": [[1, 1, 1, 0.5]] * 2, "r": "abc", "m": 0.4})}),
    (["classify", "--input", "{tmp}/in.json"], {"in.json": json.dumps(
        {"kind": "trajectory", "config": {"eps": 0.1, "t_end": 1.0}, "times": [0, "a"],
         "states": [[1, 1, 1, 0.5]] * 2, "r": 0.5, "m": 0.4})}),
    (["simulate", "--config", "{tmp}/absent.cfg"], {}),
    (["simulate", "--config", "{tmp}/run.cfg"], {"run.cfg": "eps 0.1\n"}),
    (["simulate", "--config", "{tmp}/run.cfg"], {"run.cfg": "eps = fast\n"}),
    (["simulate", "--state", "1,2,3"], {}),
    (["construct", "--pin", "p1A", "--pin", "zA=1.35",
      "--guess", "p2A=0.49", "--guess", "zB=1.4"], {}),
    (["scan", "--seed", "balanced"], {}),
    (["scan", "--guess", "p2A=0.49", "--guess", "zA=1.4"], {}),
    (["classify"], {}),
    (["classify", "--input", "{tmp}/absent.json"], {}),
    (["construct", "--seed", "hybrid"], {"out/manifest.json": '{"runs": {}}'}),
    (["simulate", "--state", "nan,0.87,1.5,0.99"], {}),
    (["simulate", "--state", "1.18,inf,1.5,0.99"], {}),
    (["simulate", "--t-end", "1", "--max-step", "-1"], {}),
    (["simulate", "--t-end", "1", "--max-step", "0"], {}),
    (["simulate", "--t-end", "1", "--max-step", "nan"], {}),
    (["classify", "--input", "{tmp}/in.json", "--align-tol", "-1"], {"in.json": _ORBIT_DOC}),
    (["classify", "--input", "{tmp}/in.json", "--align-tol", "nan"], {"in.json": _ORBIT_DOC}),
    (["scan", "--pin1", "p1A=nan:2.0:2", "--pin2", "zA=1.3:1.4:2"], {}),
    (["scan", "--pin1", "p1A=1.4:inf:2", "--pin2", "zA=1.3:1.4:2"], {}),
    (["scan", "--pin1", "p1A=1.4:2.6:2", "--pin2", "zA=1.3:1.4:2",
      "--guess", "p2A=inf", "--guess", "zB=1.4"], {}),
    (["construct", "--pin", "p1A=nan", "--pin", "zA=1.35",
      "--guess", "p2A=0.49", "--guess", "zB=1.4"], {}),
    (["construct", "--m", "inf"], {}),
    (["simulate", "--config", "{tmp}/run.cfg", "--t-end", "1"],
     {"run.cfg": "eps = 0.1\neps = 0.2\n"}),
    (["construct", "--seed", "hybrid"], {"out": "x"}),
    (["construct", "--seed", "bogus", "--pin", "p1A=1.81", "--pin", "zA=1.35",
      "--guess", "p2A=0.49", "--guess", "zB=1.4"], {}),
    (["scan", "--seed", "bogus", "--guess", "p2A=0.49", "--guess", "zB=1.4"], {}),
    (["construct", "--pin", "p1A=1.7", "--pin", "p1A=1.81", "--pin", "zA=1.35",
      "--guess", "p2A=0.49", "--guess", "zB=1.4"], {}),
    (["construct", "--pin", "p1A=1.81", "--pin", "zA=1.35",
      "--guess", "p2A=0.3", "--guess", "p2A=0.49", "--guess", "zB=1.4"], {}),
    (["simulate", "--t-end", "1", "--samples", "1" + "0" * 400], {}),
    (["construct", "--seed", "hybrid", "--samples", "1" + "0" * 400], {}),
    (["simulate", "--t-end", "1", "--samples", str(MAX_SAMPLES + 1)], {}),
], ids=["pin-value", "state-value", "not-json", "not-object", "missing-field",
        "empty-grid", "corrupt-manifest", "trajectory-empty-config",
        "orbit-empty-segments", "trajectory-text-parameter", "trajectory-text-time",
        "unreadable-config", "config-line-without-equals", "config-text-value",
        "state-three-values", "pin-without-equals", "scan-seed-without-guess",
        "scan-guess-mismatch", "classify-without-input", "classify-absent-input",
        "manifest-runs-not-list", "state-nan", "state-inf", "max-step-negative",
        "max-step-zero", "max-step-nan", "align-tol-negative", "align-tol-nan",
        "grid-bound-nan", "grid-bound-inf", "guess-inf", "pin-nan", "m-inf",
        "config-repeated-key", "out-is-file", "construct-unknown-seed-with-pins",
        "scan-unknown-seed-with-guess", "pin-repeated-name", "guess-repeated-name",
        "simulate-samples-huge", "construct-samples-huge", "simulate-samples-over-bound"])
def test_malformed_user_input_exits_2(tmp_path, capsys, argv, files):
    # bad input is reported as such, not as a numerical failure or a crash
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_out_blocked_by_a_file_or_directory_exits_2(tmp_path, capsys):
    # manifest.json is a directory, or --out lies under a regular file
    (tmp_path / "dir" / "manifest.json").mkdir(parents=True)
    (tmp_path / "file").write_text("x")
    for out, named in ((tmp_path / "dir", tmp_path / "dir" / "manifest.json"),
                       (tmp_path / "file" / "sub", tmp_path / "file" / "sub")):
        assert run("construct", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(named) in err
    assert list((tmp_path / "dir").iterdir()) == [tmp_path / "dir" / "manifest.json"]


# one quick run of each command, all in one output directory
_ONE_RUN = {
    "construct": ["--samples", "20"],
    "scan": ["--pin1", "p1A=1.81:1.81:1", "--pin2", "zA=1.35:1.35:1"],
    "simulate": ["--t-end", "1", "--samples", "7"],
    "continue": ["--schedule", "0.1:1"],
    "classify": ["--input", "{out}/construct.orbit.json"],
}


@pytest.fixture(scope="module")
def manifest_entries(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    for command, argv in _ONE_RUN.items():
        argv = [a.replace("{out}", str(out)) for a in argv]
        assert run(command, *argv, "--out", str(out)) == 0
    return {e["command"]: e for e in json.loads((out / "manifest.json").read_text())["runs"]}


def test_manifest_parameters_are_the_option_rows_in_order(manifest_entries):
    assert list(manifest_entries) == list(_COMMANDS)
    for command, entry in manifest_entries.items():
        assert list(entry["parameters"]) == list(_OPTIONS[command]), command


def test_simulate_manifest_records_samples(manifest_entries):
    parameters = manifest_entries["simulate"]["parameters"]
    assert parameters["samples"] == 7
    assert parameters["state"] == [1.18, 0.87, 1.5, 0.99]


def test_scan_manifest_records_seed(manifest_entries):
    parameters = manifest_entries["scan"]["parameters"]
    assert parameters["seed"] == "hybrid"
    assert parameters["guess"] == SEEDS["hybrid"]["guess"]
    assert parameters["pin1"] == ["p1A", 1.81, 1.81, 1]


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    assert run("classify", "--out", str(tmp_path)) == 2  # warm-up
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    out = tmp_path / "runs"
    for command, argv in _ONE_RUN.items():
        argv = [a.replace("{out}", str(out)) for a in argv]
        assert run(command, *argv, "--out", str(out)) == 0
    assert built == []
    build_parser.__wrapped__()  # the counter sees the top parser and one per command
    assert len(built) == 1 + len(_COMMANDS)


def test_a_main_call_carries_nothing_into_the_next(tmp_path, capsys):
    # the flags of the first call give hybrid's pins and guess
    runs = {"hybrid": ["--pin", "p1A=1.81", "--pin", "zA=1.35",
                       "--guess", "p2A=0.49", "--guess", "zB=1.4"],
            "balanced": ["--seed", "balanced"]}
    for preset, argv in runs.items():
        assert run("construct", *argv, "--samples", "20", "--out", str(tmp_path / preset)) == 0
    for preset in runs:
        [entry] = json.loads((tmp_path / preset / "manifest.json").read_text())["runs"]
        assert entry["parameters"]["pin"] == SEEDS[preset]["pin"]
        assert entry["parameters"]["guess"] == SEEDS[preset]["guess"]


def test_main_works_after_help_and_after_an_unknown_flag(tmp_path, capsys):
    for argv, code in ((["--help"], 0), (["construct", "--help"], 0),
                       (["simulate", "--bogus", "1"], 2)):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == code
    captured = capsys.readouterr()
    assert "construct" in captured.out and "--pin NAME=VALUE" in captured.out
    assert "unrecognized arguments: --bogus 1" in captured.err
    assert run("simulate", "--t-end", "1", "--samples", "7", "--out", str(tmp_path)) == 0
    [entry] = json.loads((tmp_path / "manifest.json").read_text())["runs"]
    assert entry["parameters"]["eps"] == 0.025
    assert entry["parameters"]["t_end"] == 1.0


# a text for each option whose default is None or not text
_OPTION_TEXT = {"max_step": "0.01", "input": "in.json", "align_tol": "0.5",
                "pin": "p1A=1.81", "guess": "p2A=0.49"}
_ROWS = [(command, name) for command, options in _OPTIONS.items() for name in options]


@pytest.mark.parametrize("command,name", _ROWS, ids=[f"{c}-{n}" for c, n in _ROWS])
def test_each_option_text_parses_once_whatever_its_spelling(tmp_path, command, name):
    # the default, the flag and the config line go through the row's one parser
    parse, default, _ = _OPTIONS[command][name]
    args = build_parser().parse_args([command])
    _resolve(args, {})
    np.testing.assert_equal(getattr(args, name), None if default is None else parse(default))

    text = _OPTION_TEXT.get(name, str(default))
    args = build_parser().parse_args([command, "--" + name.replace("_", "-"), text])
    _resolve(args, {})
    expected = parse([text]) if name in ("pin", "guess") else parse(text)
    np.testing.assert_equal(getattr(args, name), expected)

    args = build_parser().parse_args([command, "--config", str(tmp_path / "run.cfg")])
    if name in ("pin", "guess"):  # flags only
        with pytest.raises(InvalidInputError, match="unknown config key"):
            _resolve(args, {name: text})
    else:
        _resolve(args, {name: text})
        np.testing.assert_equal(getattr(args, name), expected)


@pytest.mark.parametrize("spelling", ["flag", "config"])
@pytest.mark.parametrize("command,name,text", [
    ("simulate", "samples", "x"),
    ("simulate", "state", "1,2,nan,0.5"),
    ("continue", "schedule", "0.1:nan"),
    ("simulate", "eps", "nan"),
    ("construct", "r", "inf"),
    ("continue", "m", "-inf"),
    ("simulate", "eps", "1 0"),
    ("simulate", "state", "1 .18,0.87,1.5,0.99"),
], ids=["samples-text", "state-nan", "schedule-nan", "eps-nan", "r-inf", "m-minus-inf",
        "eps-inner-space", "state-inner-space"])
def test_malformed_option_text_exits_2_in_either_spelling(tmp_path, capsys, spelling,
                                                           command, name, text):
    # the error names the flag or the config line, not only the library's check
    argv = [command, f"--{name}={text}"]
    source = f"--{name}"
    if spelling == "config":
        (tmp_path / "run.cfg").write_text(f"{name} = {text}\n")
        argv = [command, "--config", str(tmp_path / "run.cfg")]
        source = f"{tmp_path / 'run.cfg'}: {name} ="
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"error: {source} {text!r}: ")
    assert not (tmp_path / "out").exists()


def test_balanced_preset_pins_the_balanced_solve(params_default):
    pin, guess = SEEDS["balanced"]["pin"], SEEDS["balanced"]["guess"]
    assert relaxor.solve_jump_points(pin, guess, params_default) == \
        relaxor.solve_balanced_orbit({**pin, **guess}, params_default)


_HUGE = "1" + "0" * 400  # an integer no double holds


@pytest.mark.parametrize("kind,where,number,tail", [
    ("singular_orbit", ("y_m1", 1, 0), "NaN", " is not JSON: NaN is not a finite number"),
    ("trajectory", ("states", 100, 1), "Infinity",
     " is not JSON: Infinity is not a finite number"),
    ("singular_orbit", ("t_m0", -1), "1e999", ": orbit times must be finite"),
    ("trajectory", ("states", 100, 3), "1e999",
     ": trajectory times and traits q must be finite"),
    ("trajectory", ("times", -1), "1e999", ": trajectory times and traits q must be finite"),
    ("singular_orbit", ("y_m0", 0, 1), _HUGE, ": orbit holds a number too large for a double"),
    ("singular_orbit", ("jumps", "p1B"), _HUGE,
     ": orbit times T0, T1 and densities p1, p2, z must be finite and positive"),
    ("trajectory", ("states", 100, 1), _HUGE,
     ": trajectory holds a number too large for a double"),
    ("trajectory", ("config", "eps"), _HUGE,
     ": malformed trajectory config: int too large to convert to float"),
], ids=["singular_orbit-NaN", "trajectory-Infinity", "orbit-time-1e999", "trajectory-q-1e999",
        "trajectory-time-1e999", "orbit-density-huge-int", "orbit-jump-huge-int", "trajectory-density-huge-int",
        "trajectory-eps-huge-int"])
def test_classify_refuses_non_finite_numbers(tmp_path, capsys, kind, where, number, tail):
    # json reads NaN and Infinity, which strict JSON does not have, 1e999 as
    # inf, and a long integer as an int too large for a double
    if kind == "singular_orbit":
        doc = json.loads(_ORBIT_DOC)
    else:
        assert run("simulate", "--eps", "0.1", "--t-end", "10", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "simulate.trajectory.json").read_text())
    *keys, last = where
    target = doc
    for key in keys:
        target = target[key]
    target[last] = "@"
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc).replace('"@"', number))
    capsys.readouterr()
    assert run("classify", "--input", str(path), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {path}{tail}\n"
    assert not (tmp_path / "out" / "classify.report.json").exists()


def _edit_zero_periods(doc):
    doc["jumps"]["T0"] = doc["jumps"]["T1"] = 0.0


def _edit_backward_t_m1(doc):
    doc["t_m1"].reverse()


def _edit_negative_orbit_density(doc):
    doc["y_m0"][0][1] = -1.9379


@pytest.mark.parametrize("edit,message", [
    (_edit_zero_periods, "orbit times T0, T1 and densities p1, p2, z must be finite and positive"),
    (_edit_backward_t_m1, "orbit times must increase strictly across both segments"),
    (_edit_negative_orbit_density,
     "orbit times T0, T1 and densities p1, p2, z must be finite and positive"),
], ids=["zero-periods", "backward-t_m1", "negative-density"])
def test_classify_refuses_an_orbit_the_library_cannot_write(tmp_path, capsys, edit, message):
    doc = json.loads(_ORBIT_DOC)
    edit(doc)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert run("classify", "--input", str(path), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out" / "classify.report.json").exists()


def test_classify_refuses_a_trajectory_with_negative_densities(tmp_path, capsys):
    # an input error, not the numerical failure "need both an up and a down
    # trait crossing" that classifying it would report
    assert run("simulate", "--t-end", "5", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "simulate.trajectory.json").read_text())
    for row in doc["states"]:
        row[0] = -row[0]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("classify", "--input", str(path), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: trajectory densities p1, p2, z must be finite and positive\n")
    assert not (tmp_path / "out" / "classify.report.json").exists()


# a 4x4 grid on which the hybrid guess leaves some points without a row
_GIVE_UP_SCAN = ("scan", "--pin1", "p1A=1.55:2.45:4", "--pin2", "zA=1.19:1.61:4",
                 "--seed", "hybrid")


@pytest.mark.parametrize("verbose", [True, False], ids=["verbose", "quiet"])
def test_verbose_logs_each_scan_point_without_a_row(tmp_path, capsys, verbose):
    logger = logging.getLogger("relaxor")
    assert run(*_GIVE_UP_SCAN, *(["--verbose"] if verbose else []), "--out", str(tmp_path)) == 0
    captured = capsys.readouterr()
    missing = 16 - json.loads(captured.out)["rows"]
    lines = captured.err.splitlines()
    assert len(lines) == (missing if verbose else 0) and missing > 0
    assert all(line.startswith("scan point {") and ": no row after " in line
               for line in lines)
    assert logger.handlers == [] and logger.level == logging.NOTSET
    entry, = json.loads((tmp_path / "manifest.json").read_text())["runs"]
    assert "verbose" not in entry["parameters"]


def test_verbose_leaves_no_handler_after_an_error(tmp_path, capsys):
    logger = logging.getLogger("relaxor")
    assert run("simulate", "--eps", "nan", "--verbose", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: --eps 'nan': ")
    assert logger.handlers == [] and logger.level == logging.NOTSET


def test_scan_without_rows_writes_empty_outputs(tmp_path, capsys):
    # every point of this grid fails to solve; an empty family is an outcome
    out = tmp_path / "empty"
    assert run("scan", "--pin1", "p1A=1.4:2.6:2", "--pin2", "zA=1.3:1.4:2",
               "--guess", "p2A=100", "--guess", "zB=1.4", "--out", str(out)) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 0
    assert json.loads((out / "scan.family.json").read_text()) == []
    assert (out / "scan.family.csv").read_text().splitlines() == [
        "r,m,pin_p1A,pin_zA,p1A,p2A,zA,p1B,p2B,zB,T0,T1,residual"]
    svgs = [f"scan.{xk}_{yk}.svg" for xk, yk in _PROJECTIONS]
    entry, = json.loads((out / "manifest.json").read_text())["runs"]
    assert entry["outputs"] == ["scan.family.json", "scan.family.csv", *svgs]
    for name in svgs:
        svg = ET.fromstring((out / name).read_text())
        assert not list(svg.iter("{http://www.w3.org/2000/svg}circle"))


def test_svg_outputs_are_well_formed_and_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("construct", "--r", "0.5", "--m", "0.4", "--seed", "antiphase",
                   "--out", str(out)) == 0
        capsys.readouterr()
    svg1 = (out1 / "construct.phase.svg").read_text()
    svg2 = (out2 / "construct.phase.svg").read_text()
    assert svg1 == svg2
    ET.fromstring(svg1)  # parses as XML
    ET.fromstring((out1 / "construct.timeseries.svg").read_text())


def test_continue_svgs_equal_per_point_formatting(tmp_path, capsys, monkeypatch):
    # every polyline point formatted on its own by _fmt, the scalar reference
    def reference_points(xs, ys):
        return " ".join(f"{svgplot._fmt(x)},{svgplot._fmt(y)}" for x, y in zip(xs, ys))

    out_fast, out_slow = tmp_path / "fast", tmp_path / "slow"
    argv = ("continue", "--schedule", "0.1:2,0.2:2")
    assert run(*argv, "--out", str(out_fast)) == 0
    monkeypatch.setattr(svgplot, "_points", reference_points)
    assert run(*argv, "--out", str(out_slow)) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out_fast.glob("*.svg"))
    assert names == sorted(p.name for p in out_slow.glob("*.svg")) and len(names) == 2
    for name in names:
        fast = (out_fast / name).read_bytes()
        assert fast == (out_slow / name).read_bytes()
        ET.fromstring(fast)  # parses as XML


def test_failed_runs_record_their_error_in_the_manifest(tmp_path, capsys):
    out = tmp_path / "runs"
    failing = {
        "construct": ("construct", "--r", "0.8", "--m", "0.7", "--seed", "hybrid"),
        # each run's t_end / max_step is inside the step budget, so the
        # stepper itself fails
        "simulate": ("simulate", "--eps", "1e-300", "--t-end", "1", "--max-step", "0.1",
                     "--state", "1.18,0.87,1.5,0.5"),
        "continue": ("continue", "--schedule", "1e-300:1e-300",
                     "--state", "1.18,0.87,1.5,0.5"),
    }
    messages = []
    for argv in failing.values():
        assert run(*argv, "--out", str(out)) == 1
        messages.append(capsys.readouterr().err.removeprefix("numerical failure: ").strip())
    # a user error leaves no entry, and a later success keeps the failed ones
    assert run("construct", "--r", "1.2", "--m", "0.4", "--out", str(out)) == 2
    assert run("construct", "--seed", "hybrid", "--samples", "50", "--out", str(out)) == 0
    capsys.readouterr()
    entries = json.loads((out / "manifest.json").read_text())["runs"]
    assert [e["command"] for e in entries] == [*failing, "construct"]
    construct, simulate, cont, success = entries
    assert "error" not in success and success["outputs"]
    for entry, message in zip(entries, messages):
        assert entry["outputs"] == [] and entry["error"]["message"] == message

    error = construct["error"]
    assert error["class"] == "NonConvergenceError"
    assert isinstance(error["iterations"], int) and error["iterations"] > 0
    assert isinstance(error["residual_evaluations"], int)
    assert error["residual_evaluations"] > 3 * error["iterations"]
    assert len(error["x"]) == 2 and all(isinstance(v, float) for v in error["x"])
    assert f"residual {error['residual']:.3e}" in error["message"]
    assert f"iterations {error['iterations']}" in error["message"]
    assert f"x {error['x']}" in error["message"]
    assert simulate["error"].keys() == cont["error"].keys() == {"class", "message"}
    assert simulate["error"]["class"] == cont["error"]["class"] == "StiffnessError"
    assert cont["error"]["message"].startswith("schedule entry 0 (eps=1e-300): ")
    assert list(construct["elapsed_s"]) == ["solve"]
    assert list(simulate["elapsed_s"]) == list(cont["elapsed_s"]) == ["integrate"]


def test_continue_writes_the_bytes_simulate_writes(tmp_path, capsys):
    assert run("continue", "--schedule", "0.1:2", "--out", str(tmp_path / "c")) == 0
    assert run("simulate", "--eps", "0.1", "--t-end", "2", "--out", str(tmp_path / "s")) == 0
    capsys.readouterr()
    assert multiprocessing.active_children() == []
    for ext in ("csv", "json", "svg"):
        written = (tmp_path / "c" / f"continue.00.eps0.1.{ext}").read_bytes()
        assert written == (tmp_path / "s" / f"simulate.trajectory.{ext}").read_bytes()


def test_continue_failing_at_a_later_entry_keeps_the_earlier_files(tmp_path, capsys,
                                                                   monkeypatch):
    integrate = relaxor.simulate.integrate
    calls = []

    def second_run_stalls(*args):
        calls.append(args)
        if len(calls) == 2:
            raise relaxor.StiffnessError("integration stalled")
        return integrate(*args)

    monkeypatch.setattr(relaxor.simulate, "integrate", second_run_stalls)
    out = tmp_path / "runs"
    assert run("continue", "--schedule", "0.1:1,0.2:1,0.3:1", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("numerical failure: schedule entry 1 (eps=0.2)")
    assert multiprocessing.active_children() == []
    entry, = json.loads((out / "manifest.json").read_text())["runs"]
    files = [f"continue.00.eps0.1.{ext}" for ext in ("csv", "json", "svg")]
    assert entry["outputs"] == files
    assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.json"])
    assert relaxor.Trajectory.from_json(out / files[1]).config.eps == 0.1
    assert entry["error"]["class"] == "StiffnessError"
    assert list(entry["elapsed_s"]) == ["integrate"]


def test_continue_workers_write_the_bytes_of_an_in_process_write(tmp_path, capsys,
                                                                 params_default):
    schedule = [(0.1, 1.0), (0.2, 1.0), (0.3, 1.0), (0.4, 1.0)]
    out, ref = tmp_path / "runs", tmp_path / "ref"
    assert run("continue", "--schedule", ",".join(f"{e}:{d}" for e, d in schedule),
               "--out", str(out)) == 0
    capsys.readouterr()
    assert multiprocessing.active_children() == []
    ref.mkdir()
    parse, default, _ = _OPTIONS["continue"]["state"]
    start = parse(default)
    for i, tr in enumerate(continue_in_eps(start, params_default, schedule)):
        names = _trajectory_names(f"continue.{i:02d}.eps{tr.config.eps:g}")
        _write_trajectory([ref / name for name in names], tr)
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_continue_failing_at_the_last_of_four_entries_keeps_three_runs(tmp_path, capsys,
                                                                      monkeypatch):
    integrate = relaxor.simulate.integrate
    calls = []

    def fourth_run_stalls(*args):
        calls.append(args)
        if len(calls) == 4:
            raise relaxor.StiffnessError("integration stalled")
        return integrate(*args)

    monkeypatch.setattr(relaxor.simulate, "integrate", fourth_run_stalls)
    out = tmp_path / "runs"
    assert run("continue", "--schedule", "0.1:1,0.2:1,0.3:1,0.4:1", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("numerical failure: schedule entry 3 (eps=0.4)")
    assert multiprocessing.active_children() == []
    entry, = json.loads((out / "manifest.json").read_text())["runs"]
    files = [f"continue.{i:02d}.eps{eps:g}.{ext}"
             for i, eps in enumerate((0.1, 0.2, 0.3)) for ext in ("csv", "json", "svg")]
    assert entry["outputs"] == files
    assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.json"])
    for i, eps in enumerate((0.1, 0.2, 0.3)):
        assert relaxor.Trajectory.from_json(out / files[3 * i + 1]).config.eps == eps


def test_continue_write_error_in_the_worker_propagates(tmp_path, capsys, monkeypatch):
    def disk_full(self, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(relaxor.Trajectory, "to_csv", disk_full)  # the fork inherits it
    out = tmp_path / "runs"
    with pytest.raises(OSError, match="No space left on device"):
        run("continue", "--schedule", "0.1:1,0.2:1", "--out", str(out))
    assert multiprocessing.active_children() == []
    assert not (out / "manifest.json").exists()


def test_classify_trajectory_document(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--r", "0.5", "--m", "0.4", "--eps", "0.025",
               "--t-end", "30", "--state", "1.18,0.87,1.5,0.99",
               "--out", str(out)) == 0
    capsys.readouterr()
    assert run("classify", "--input", str(out / "simulate.trajectory.json"),
               "--out", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == "PredatorPreyPrey"


def test_only_the_cli_prints():
    # the library reports through return values, exceptions and logging
    package = Path(relaxor.__file__).parent
    printing = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                printing.append(f"{path.name}:{node.lineno}")
    assert printing == []


def test_no_private_name_crosses_a_module_boundary():
    # a module's underscore names are its own; a shared name is made public
    package = Path(relaxor.__file__).parent
    crossing = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "relaxor"):
                crossing += [f"{path.name}:{node.lineno} {alias.name}"
                             for alias in node.names
                             if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert crossing == []
