import ast
import json
import multiprocessing
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy

import relaxor
from relaxor import svgplot
from relaxor.cli import main


def run(*argv):
    return main(list(argv))


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
    for argv in argvs.values():
        assert run(*argv, "--out", str(out)) == 0
    capsys.readouterr()
    entries = json.loads((out / "manifest.json").read_text())["runs"]
    assert [e["command"] for e in entries] == list(argvs)
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

    monkeypatch.setattr(relaxor.simulate, "vector_field", counted_field)
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


def test_scan_nonpositive_pin_is_input_error(tmp_path, capsys):
    code = run("scan", "--r", "0.5", "--m", "0.4",
               "--pin1", "p1A=-1:1.8:2", "--pin2", "zA=1.35:1.35:1",
               "--guess", "p2A=0.49", "--guess", "zB=1.4",
               "--out", str(tmp_path / "scan"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
], ids=["pin-value", "state-value", "not-json", "not-object", "missing-field",
        "empty-grid", "corrupt-manifest", "trajectory-empty-config",
        "orbit-empty-segments"])
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
        "simulate": ("simulate", "--eps", "1e-300", "--t-end", "1",
                     "--state", "1.18,0.87,1.5,0.5"),
        "continue": ("continue", "--schedule", "1e-300:1", "--state", "1.18,0.87,1.5,0.5"),
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
