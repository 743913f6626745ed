"""Span tracer that wraps relaxor's public functions from outside the library.

While installed, every public function of the wrapped modules is replaced,
in every module namespace that binds it, by a wrapper that records a span
(name, start, end, parent, whether it raised, and a size) in memory.  The
library uses ``from .x import y``, so a function is rebound in each
importer as well as at home; the wrappers are matched by identity.
Besides the public functions the tracer wraps:

- the integrand handed to ``tanh_sinh``, to count integrand calls and nodes;
- ``solve_ivp`` as bound in ``relaxor.simulate`` and ``relaxor.orbit``, to
  read ``nfev`` off its result (the right-hand sides themselves run about
  263k times per continue pass and are left alone);
- the writers and readers the CLI uses for its outputs.

``installed()`` restores every original binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import pathlib
import time

import numpy as np

# modules whose public functions are wrapped, by layer name
LAYERS = ("lambertw", "quadrature", "orbit", "simulate", "analysis", "svgplot")
# namespaces that may bind those functions
NAMESPACES = ("relaxor", *(f"relaxor.{layer}" for layer in LAYERS), "relaxor.cli")
# orbit work is split by the orbit entry point it serves
ORBIT_ENTRIES = {"orbit.solve_jump_points": "solve", "orbit.solve_balanced_orbit": "solve",
                 "orbit.scan_family": "scan", "orbit.assemble_singular_orbit": "assemble"}

NAME, START, END, PARENT, RAISED, SIZE = range(6)


def _lambert_w_elements(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _nodes(args, kwargs, result):
    return int(np.size(args[0]))


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _text_length(args, kwargs, result):
    return len(result)


def _written_bytes(args, kwargs, result):
    # methods take (self, path); Path.write_text is the path itself
    target = args[1] if len(args) > 1 and not isinstance(args[0], pathlib.Path) else args[0]
    return os.path.getsize(target)


class Tracer:
    """Keeps the spans of one traced pass in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.trajectories: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if size is not None:
                record[SIZE] = size(args, kwargs, result)
            return result

        return wrapper

    def _wrap_integrator(self, fn):
        wrap = self.wrap

        def tanh_sinh(f, *args, **kwargs):
            return fn(wrap("orbit.integrand", f, _nodes), *args, **kwargs)

        return self.wrap("quadrature.tanh_sinh", functools.wraps(fn)(tanh_sinh))

    def _keep_trajectory(self, args, kwargs, result):
        self.trajectories.append(result)
        return len(result.times)

    def _wrappers(self, modules: dict) -> tuple[dict, list]:
        """Wrappers keyed by id of the original, and per-namespace extras."""
        special = {"lambertw.lambert_w": _lambert_w_elements,
                   "simulate.integrate": self._keep_trajectory}
        by_id = {}
        for layer in LAYERS:
            module = modules[f"relaxor.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "quadrature.tanh_sinh":
                    by_id[id(fn)] = self._wrap_integrator(fn)
                else:
                    size = _text_length if layer == "svgplot" else special.get(name)
                    by_id[id(fn)] = self.wrap(name, fn, size)
        extras = [(modules[f"relaxor.{layer}"], "solve_ivp",
                   self.wrap(f"{layer}.solve_ivp", modules[f"relaxor.{layer}"].solve_ivp,
                             _nfev))
                  for layer in ("simulate", "orbit")]
        return by_id, extras

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        by_id, extras = self._wrappers(modules)
        patches = list(extras)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    patches.append((module, attr, by_id[id(value)]))
        orbit, simulate = modules["relaxor.orbit"], modules["relaxor.simulate"]
        io = [(pathlib.Path, "write_text", "cli.io.write", _written_bytes),
              (pathlib.Path, "read_text", "cli.io.read", _text_length),
              (orbit.SingularOrbit, "to_json", "cli.io.write", _written_bytes),
              (orbit.FamilyTable, "to_json", "cli.io.write", _written_bytes),
              (orbit.FamilyTable, "to_csv", "cli.io.write", _written_bytes),
              (simulate.Trajectory, "to_json", "cli.io.write", _written_bytes),
              (simulate.Trajectory, "to_csv", "cli.io.write", _written_bytes)]
        patches += [(owner, attr, self.wrap(name, vars(owner)[attr], size))
                    for owner, attr, name, size in io]
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def unit(metric: str) -> str:
    """Unit of a per-layer metric."""
    if metric in ("svgplot.bytes", "cli.io.bytes_written"):
        return "B"
    if metric == "orbit.residual_per_solve":
        return "1"
    return "s" if metric.endswith("_s") else "count"


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children.  Orbit spans are charged to the nearest enclosing orbit entry
    point (solve, scan or assemble); in these workloads every orbit call
    runs under one of them.  Jump events are counted, untraced, in the
    trajectories ``integrate`` returned.
    """
    from relaxor.simulate import detect_jump_events
    spans = tracer.spans
    jump_events = sum(len(detect_jump_events(tr)) for tr in tracer.trajectories)
    n = len(spans)
    child = [0.0] * n
    context = [None] * n
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[END] - span[START]
        context[i] = ORBIT_ENTRIES.get(span[NAME], context[parent] if parent >= 0 else None)

    calls, raised, size, layer_self = {}, {}, {}, {}
    outer_svg_bytes = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        own = span[END] - span[START] - child[i]
        calls[name] = calls.get(name, 0) + 1
        raised[name] = raised.get(name, 0) + span[RAISED]
        size[name] = size.get(name, 0) + span[SIZE]
        layer = name.split(".", 1)[0]
        if layer == "orbit":
            layer = f"orbit.{context[i] or 'other'}"
        elif layer == "svgplot":
            parent = span[PARENT]
            if parent < 0 or not spans[parent][NAME].startswith("svgplot."):
                outer_svg_bytes += span[SIZE]
        elif name.startswith("cli.io."):
            layer = name
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def count(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    solves = calls.get("orbit.solve_jump_points", 0)
    residuals = calls.get("orbit.existence_residual", 0)
    return {
        "lambertw.calls": calls.get("lambertw.lambert_w", 0),
        "lambertw.elements": size.get("lambertw.lambert_w", 0),
        "lambertw.w_plus_one.calls": calls.get("lambertw.w_plus_one", 0),
        "lambertw.self_s": layer_self.get("lambertw", 0.0),
        "quadrature.calls": calls.get("quadrature.tanh_sinh", 0),
        "quadrature.integrand_calls": calls.get("orbit.integrand", 0),
        "quadrature.nodes": size.get("orbit.integrand", 0),
        "quadrature.self_s": layer_self.get("quadrature", 0.0),
        "orbit.solve.calls": solves,
        "orbit.solve.failed": raised.get("orbit.solve_jump_points", 0),
        "orbit.residual.calls": residuals,
        "orbit.residual.misses": raised.get("orbit.existence_residual", 0),
        "orbit.residual_per_solve": residuals / solves if solves else 0.0,
        "orbit.solve.self_s": layer_self.get("orbit.solve", 0.0),
        "orbit.scan.self_s": layer_self.get("orbit.scan", 0.0),
        "orbit.assemble.calls": calls.get("orbit.assemble_singular_orbit", 0),
        "orbit.assemble.rhs_evals": size.get("orbit.solve_ivp", 0),
        "orbit.assemble.self_s": layer_self.get("orbit.assemble", 0.0),
        "simulate.integrate.calls": calls.get("simulate.integrate", 0),
        "simulate.rhs_evals": size.get("simulate.solve_ivp", 0),
        "simulate.jump_events": jump_events,
        "simulate.self_s": layer_self.get("simulate", 0.0),
        "analysis.calls": count("analysis."),
        "analysis.self_s": layer_self.get("analysis", 0.0),
        "svgplot.calls": count("svgplot."),
        "svgplot.bytes": outer_svg_bytes,
        "svgplot.self_s": layer_self.get("svgplot", 0.0),
        "cli.io.bytes_written": size.get("cli.io.write", 0),
        "cli.io.files_written": calls.get("cli.io.write", 0),
        "cli.io.write_s": layer_self.get("cli.io.write", 0.0),
        "cli.io.read_s": layer_self.get("cli.io.read", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
    }
