"""Layer-boundary tracing applied from outside the program.

Every ``ngl`` function that one module imports from another is wrapped at
the binding its caller reads: a top-level ``from .surface import f`` binds
``f`` in the importing module, while an import inside a function body reads
``f`` from its defining module at call time.  Each wrapped call is a span
named after its layer (the defining module).  A span's self time is its
duration minus the durations of its child spans.

Counts are computed from each call's inputs and outputs at the boundary;
they model the work a call was asked to do and are labelled as computed in
the benchmark's README.  Spans stay in memory and are written when the run
ends.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import math
import os
import time

LAYERS = ("surface", "eigen", "nodal", "growth", "schrodinger", "tiling",
          "crofton", "harmonic", "carleman", "svg", "cli")

# spectrum-reading commands, for the cache hit/miss counts of ``cli.run``
_SPECTRUM_COMMANDS = ("spectrum", "nodal", "growth", "thm1", "localize",
                      "tile", "rapid")
_ANNULUS_POINTS = 2 * 24 * 512   # two readout annuli per rapid-growth probe


def cross_module_bindings(package_dir):
    """(module holding the binding, name) of every relative import of a
    name from one layer module into another."""
    found = set()
    for layer in LAYERS:
        with open(os.path.join(package_dir, layer + ".py"), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module in LAYERS and node.module != layer):
                continue
            for alias in node.names:
                if id(node) in top_level:
                    found.add((layer, alias.asname or alias.name))
                else:
                    found.add((node.module, alias.name))
    return sorted(found)


# --------------------------------------------------------------------------
# counts computed at the boundary: each maps the bound call arguments to a
# function of the call's result (None when the call raised)


def _disk_lattice_points(radius):
    r = int(math.floor(radius))
    return sum(2 * int(math.floor(math.sqrt(max(radius * radius - i * i, 0.0)))) + 1
               for i in range(-r, r + 1))


def _ring_points(radius):
    m = max(256, math.ceil(8 * math.pi * radius))
    return 8 * ((m + 7) // 8)


def _growth_field(a):
    metric, lam = a["metric"], a["eigenpair"].lam
    k0, m = a["k0"], a["sample_grid_m"]
    r = k0 / math.sqrt(lam)
    alpha = metric.alpha0
    n = metric.grid_n
    if metric.is_flat:
        # lattice disk plus boundary ring, at the outer and the inner radius
        cells = r / math.sqrt(metric.q_plus) * n
        per_center = sum(_disk_lattice_points(rad) + _ring_points(rad)
                         for rad in (cells, alpha * cells))
    else:
        # 4x refined window around the center, scanned for both radii
        half = math.ceil(r / math.sqrt(metric.q_minus) * n) + 3
        per_center = 2 * (8 * half + 1) ** 2
    return lambda res: {"growth.centers": m * m,
                        "growth.sup_points": m * m * per_center}


def _fast_march(a):
    n = a["metric"].grid_n
    w = a["window"]
    cells = n * n if w is None else min(2 * int(w) + 1, n) ** 2
    return lambda res: {"surface.fast_march_calls": 1,
                        "surface.window_cells": cells}


def _solve_spectrum(a):
    n = a["metric"].grid_n
    return lambda res: {"eigen.unknowns": n * n, "eigen.pairs": a["count"]}


def _analytic_spectrum(a):
    n = a["grid_n"]
    return lambda res: {"eigen.unknowns": n * n,
                        "eigen.pairs": 0 if res is None else len(res.pairs)}


def _extract_nodal_set(a):
    n = a["field"].grid_n
    cells = n * n if a["field"].domain == "torus" else (n - 1) ** 2
    return lambda res: {"nodal.cells": cells,
                        "nodal.segments": 0 if res is None else len(res)}


def _classify_rapid(a):
    return lambda res: {"schrodinger.rapid_probes": 1,
                        "schrodinger.spline_points": _ANNULUS_POINTS}


def _count_rapid_disks(a):
    def done(res):
        if res is None:
            return {}
        return {"schrodinger.rapid_probes": res.n_probes,
                "schrodinger.spline_points": res.n_probes * _ANNULUS_POINTS}
    return done


def _planar_grid(a):
    return lambda res: ({} if res is None else
                        {"schrodinger.spline_points": res.field.grid_n ** 2})


def _core_field(a):
    return lambda res: {"schrodinger.spline_points": a["grid_n"] ** 2}


def _run_tiling(a):
    def done(res):
        if res is None:
            return {}
        levels = range(res.level + 1)
        rapid = sum(len(res.rapid_by_level.get(k, [])) for k in levels)
        slow = sum(len(res.slow_by_level.get(k, [])) for k in levels)
        return {"tiling.squares": rapid + slow, "tiling.rapid_squares": rapid,
                "tiling.levels": res.level + 1}
    return done


def _crofton_estimate(a):
    pairs = a["samples"] * len(a["curve"])
    return lambda res: {"crofton.probe_segment_pairs": pairs}


def _growth_vs_signs(a):
    return lambda res: {"harmonic.circle_sups": 2}


def _carleman_check(a):
    return lambda res: {"carleman.fields_checked": 1}


def _read_gfd(a):
    size = os.path.getsize(a["path"])
    return lambda res: {"cli.bytes_read": size}


def _bytes_written_since(root, start_ns):
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            if st.st_mtime_ns >= start_ns:
                total += st.st_size
    return total


def _cli_run(a):
    cfg = a["cfg"]
    out_dir = a["out_dir"] if a["out_dir"] is not None else cfg["output"]["dir"]
    command = a["command"]
    uses_spectrum = command in _SPECTRUM_COMMANDS or (
        command == "crofton" and cfg["crofton"]["curve"] == "eigenfunction")
    cache_root = os.path.join(out_dir, "spectrum_cache")
    hit = os.path.isdir(cache_root) and any(
        os.path.exists(os.path.join(cache_root, key, "index.json"))
        for key in os.listdir(cache_root))
    start_ns = time.time_ns()

    def done(res):
        counts = {"cli.bytes_written": _bytes_written_since(out_dir, start_ns)}
        if uses_spectrum:
            counts["cli.cache_hits" if hit else "cli.cache_misses"] = 1
        return counts
    return done


COUNTERS = {
    "growth.growth_field": _growth_field,
    "surface._fast_march": _fast_march,
    "surface.read_gfd": _read_gfd,
    "eigen.solve_spectrum": _solve_spectrum,
    "eigen.analytic_spectrum": _analytic_spectrum,
    "nodal.extract_nodal_set": _extract_nodal_set,
    "schrodinger.classify_rapid": _classify_rapid,
    "schrodinger.count_rapid_disks": _count_rapid_disks,
    "schrodinger.localize": _planar_grid,
    "schrodinger.planar_field_from_function": _planar_grid,
    "schrodinger.core_field": _core_field,
    "tiling.run_tiling": _run_tiling,
    "crofton.disk_average_length": _crofton_estimate,
    "crofton.circle_count_length": _crofton_estimate,
    "harmonic.growth_vs_signs_check": _growth_vs_signs,
    "carleman.check_subharmonic_inequality": _carleman_check,
    "carleman.carleman_c1_check": _carleman_check,
    "cli.run": _cli_run,
}


class Tracer:
    """Wraps the layer bindings of the loaded ``ngl`` package and records
    one span per wrapped call."""

    def __init__(self):
        self.spans = []          # [iteration, layer, name, parent, start, end]
        self.iteration = -1
        self._stack = []         # [span index, child seconds]
        self._saved = []
        self._reset_totals()

    def _reset_totals(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self.top_level_s = 0.0

    def install(self, entry_points=()):
        """Wrap every cross-module binding plus the ``(module, name)`` entry
        points the benchmark itself calls."""
        import ngl
        package_dir = os.path.dirname(ngl.__file__)
        for holder, name in sorted(set(cross_module_bindings(package_dir))
                                   | set(entry_points)):
            module = importlib.import_module("ngl." + holder)
            fn = getattr(module, name)
            if not inspect.isfunction(fn) or hasattr(fn, "__wrapped__"):
                continue
            layer = fn.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(layer, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved = []

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(f"{layer}.{fn.__name__}")
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                done = counter(bound.arguments)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append([self.iteration, layer, fn.__name__, parent, 0.0, 0.0])
            stack.append([index, 0.0])
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _, child_s = stack.pop()
                span = spans[index]
                span[4], span[5] = start, end
                duration = end - start
                self.self_s[layer] += duration - child_s
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level_s += duration
                if done is not None:
                    for key, val in done(result).items():
                        self.counts[key] = self.counts.get(key, 0) + val
        return wrapper

    def begin_iteration(self, iteration):
        self.iteration = iteration
        self._reset_totals()

    def iteration_totals(self):
        """Self seconds per layer, counts and top-level span seconds of the
        current iteration."""
        return dict(self.self_s), dict(self.counts), self.top_level_s

    def write(self, path, origin):
        """Write every span as one JSON line, times relative to ``origin``."""
        with open(path, "w", encoding="ascii") as f:
            for iteration, layer, name, parent, start, end in self.spans:
                f.write(json.dumps({"iteration": iteration, "layer": layer,
                                    "name": name, "parent": parent,
                                    "start": start - origin,
                                    "end": end - origin}) + "\n")
