"""In-memory span recorder that wraps the public functions of each oscfree layer.

A span is opened around every call into a layer's public functions.  The
wrapper replaces the function under every name that binds it in every
``oscfree.*`` module namespace, so calls from one package module into
another are seen as well as calls from the benchmark.  Nothing in ``src/``
is edited; ``uninstall`` puts the original functions back.

Each span is ``[id, parent_id, layer, name, start, end, attrs, error]``.
``attrs`` holds the work counts derived from the call's arguments and
result (computed after the span closes, so they are not timed), and
``error`` the exception class that left the span, if any.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "oscillator", "transform", "classical", "analysis", "cli")

# analysis function families whose outermost spans give the inclusive stage times
RESIDUAL_FAMILY = frozenset({
    "free_residual_1d", "free_residual_2d", "oscillator_residual_1d", "oscillator_residual_2d",
    "free_residual_study_1d", "free_residual_study_2d", "oscillator_residual_study_1d",
})
RESIDUAL_KERNELS = frozenset({
    "free_residual_1d", "free_residual_2d", "oscillator_residual_1d", "oscillator_residual_2d",
})
PEAK_FAMILY = frozenset({
    "find_density_maxima", "peak_widths", "peak_trajectory_check", "semiclassical_gap",
})


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _grid_points(grid) -> int:
    axis1 = getattr(grid, "axis1", None)
    if axis1 is not None:
        return axis1.count * grid.axis2.count
    return grid.count


def _hermite_steps(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 0, "n")) * int(np.size(_arg(args, kwargs, 1, "x")))}


def _kummer_steps(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 0, "n")) * int(np.size(_arg(args, kwargs, 2, "z")))}


def _norm2d_key(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    qn = _arg(args, kwargs, 1, "qn")
    return {"key": (params.mass, params.omega, qn.n_radial, abs(qn.l))}


def _points_1d(args, kwargs, result):
    return {"points": int(np.size(_arg(args, kwargs, 2, "y")))}


def _points_2d(args, kwargs, result):
    y1 = _arg(args, kwargs, 2, "y1")
    y2 = _arg(args, kwargs, 3, "y2")
    return {"points": int(np.broadcast(np.asarray(y1), np.asarray(y2)).size)}


def _points_lift(args, kwargs, result):
    dimension = int(_arg(args, kwargs, 2, "dimension"))
    return {"points": int(np.size(_arg(args, kwargs, 3, "y"))) // dimension}


def _points_pull_back(args, kwargs, result):
    dimension = int(_arg(args, kwargs, 2, "dimension"))
    return {"points": int(np.size(_arg(args, kwargs, 3, "x"))) // dimension}


def _residual_points(args, kwargs, result):
    return {"points": _grid_points(_arg(args, kwargs, 1, "grid"))}


def _fft_points(args, kwargs, result):
    return {"points": int(_arg(args, kwargs, 0, "initial").grid.count)}


def _peaks_found(args, kwargs, result):
    return {"found": len(result.positions)}


# work counters, keyed by (layer, function name)
COUNTERS = {
    ("specfun", "hermite"): _hermite_steps,
    ("specfun", "kummer_truncated"): _kummer_steps,
    ("oscillator", "norm_constant_2d"): _norm2d_key,
    ("transform", "lifted_eigenstate_1d"): _points_1d,
    ("transform", "lifted_eigenstate_2d"): _points_2d,
    ("transform", "lift_wavefunction"): _points_lift,
    ("transform", "pull_back_wavefunction"): _points_pull_back,
    ("analysis", "free_residual_1d"): _residual_points,
    ("analysis", "free_residual_2d"): _residual_points,
    ("analysis", "oscillator_residual_1d"): _residual_points,
    ("analysis", "oscillator_residual_2d"): _residual_points,
    ("analysis", "spectral_propagate_free"): _fft_points,
    ("analysis", "find_density_maxima"): _peaks_found,
}


class Recorder:
    """Holds the spans of one run in memory; ``active`` gates recording."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self._patched: list[tuple] = []

    def wrap(self, layer: str, name: str, fn):
        counter = COUNTERS.get((layer, name))
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, layer, name, 0.0, 0.0, None, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc)
                raise
            finally:
                span[5] = perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each layer's public functions in oscfree.*."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"oscfree.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(layer, name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "oscfree" and not modname.startswith("oscfree."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, layer, name, start, end."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, layer, name, start, end, attrs, error in self.spans:
                record = {"id": sid, "parent": parent, "layer": layer, "name": name,
                          "start": start, "end": end}
                if error is not None:
                    record["error"] = error.__name__
                f.write(json.dumps(record) + "\n")


def layer_metrics(spans: list[list], error_base: type) -> dict[str, float]:
    """Per-layer counts and times over the spans of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; a layer's self time sums that over its spans.  Family times
    (``residual_s``, ``peaks_s``) sum the outermost span of the family so
    nested calls are not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])

    def parent(s) -> tuple:
        p = by_id.get(s[1])
        return (None, None) if p is None else (p[2], p[3])

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for key in (
        "specfun.recurrence_steps", "oscillator.norm2d_calls", "transform.points",
        "transform.lift2d_s", "transform.generic_lift_s", "analysis.residual_s",
        "analysis.residual_points", "analysis.spectral_s", "analysis.fft_points",
        "analysis.peaks_s", "analysis.peaks_found", "analysis.errors",
    ):
        m[key] = 0
    norm_keys = set()
    for s in spans:
        sid, _, layer, name, start, end, attrs, error = s
        dur = end - start
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += dur - child_time.get(sid, 0.0)
        if layer == "specfun" and attrs:
            m["specfun.recurrence_steps"] += attrs["steps"]
        elif layer == "oscillator" and name == "norm_constant_2d":
            m["oscillator.norm2d_calls"] += 1
            if attrs:
                norm_keys.add(attrs["key"])
        elif layer == "transform":
            if attrs:
                m["transform.points"] += attrs["points"]
            if name == "lifted_eigenstate_2d":
                m["transform.lift2d_s"] += dur
            elif name == "lift_wavefunction":
                m["transform.generic_lift_s"] += dur
        elif layer == "analysis":
            if name in RESIDUAL_FAMILY and parent(s)[1] not in RESIDUAL_FAMILY:
                m["analysis.residual_s"] += dur
            if name in RESIDUAL_KERNELS:
                m["analysis.residual_points"] += attrs["points"] if attrs else 0
            if name == "spectral_propagate_free":
                m["analysis.spectral_s"] += dur
                m["analysis.fft_points"] += attrs["points"] if attrs else 0
            if name in PEAK_FAMILY and parent(s)[1] not in PEAK_FAMILY:
                m["analysis.peaks_s"] += dur
            if name == "find_density_maxima" and attrs:
                m["analysis.peaks_found"] += attrs["found"]
            if error is not None and issubclass(error, error_base) and parent(s)[0] != layer:
                m["analysis.errors"] += 1
    calls = m["oscillator.norm2d_calls"]
    m["oscillator.norm2d_reuse_ratio"] = 1.0 - len(norm_keys) / calls if calls else 0.0
    return m
