import ast
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import relaxor
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


def test_continue_single_entry(tmp_path, capsys):
    out = tmp_path / "cont"
    assert run("continue", "--r", "0.5", "--m", "0.4",
               "--state", "1.18,0.87,1.5,0.99", "--schedule", "0.1:2.0",
               "--out", str(out)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 1
    assert payload["final_eps"] == pytest.approx(0.1)
    assert (out / "continue.00.eps0.1.csv").exists()


def test_simulate_and_continue_record_phase_timings(tmp_path):
    for command, extra in (("simulate", ("--eps", "0.1", "--t-end", "2")),
                           ("continue", ("--schedule", "0.1:1.0,0.2:1.0"))):
        out = tmp_path / command
        assert run(command, "--state", "1.18,0.87,1.5,0.99", *extra,
                   "--out", str(out)) == 0
        entry = json.loads((out / "manifest.json").read_text())["runs"][0]
        assert sorted(entry["elapsed_s"]) == ["integrate", "write"]
        for v in entry["elapsed_s"].values():
            assert v >= 0.0
            assert round(v * 1e7) % 10 == 5  # microsecond midpoint: fixed printed width


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
], ids=["pin-value", "state-value", "not-json", "not-object", "missing-field",
        "empty-grid", "corrupt-manifest"])
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
