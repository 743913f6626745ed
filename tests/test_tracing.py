"""The benchmark's span tracer installs around the CLI and restores every binding."""

import importlib
import pathlib
from pathlib import Path

import relaxor
from relaxor.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings(tracing) -> dict:
    """Every attribute of the namespaces and classes the tracer patches."""
    owners = [importlib.import_module(name) for name in tracing.NAMESPACES]
    owners += [pathlib.Path, relaxor.SingularOrbit, relaxor.FamilyTable, relaxor.Trajectory]
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()}


def test_tracer_spans_construct_and_simulate_and_restores_bindings(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["construct", "--seed", "hybrid", "--out", str(tmp_path / "c")]) == 0
        assert main(["simulate", "--t-end", "1", "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"orbit.assemble_singular_orbit", "simulate.integrate"} <= names
    metrics = tracing.layer_metrics(tracer)
    assert metrics["orbit.assemble.calls"] == 1
    assert metrics["simulate.integrate.calls"] == 1
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
