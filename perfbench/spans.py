"""In-memory spans around the public functions of the satspread layers.

A span records its name, start, end and the span that was open when it began.
Wrappers replace every binding of a traced function in the ``satspread``
package, so calls through ``from ... import`` names (``dynamics.convolve_field``,
``cli.run``, ``analysis.run``, ``cli.find_c_star``, the CLI writers) and calls
inside the defining module (``find_c_star`` -> ``shoot_profile``,
``run`` -> ``model_rhs``) are all recorded.

Some spans carry counters taken from their arguments or result (a *probe*).
The time a probe takes is stored with the span and removed from its parent's
self time, so counting work does not show up as work of the layer above.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("config", "kernels", "dynamics", "waves", "analysis", "output")

#: Per-step helpers left unwrapped: their time stays in the self time of the
#: span that calls them (``dynamics.model_rhs`` or ``dynamics.run``), which is
#: the granularity the layer metrics use, and wrapping them would add several
#: wrapper calls to every time step.
UNTRACED = frozenset({"dynamics.rhs_singular", "dynamics.rhs_gamma",
                      "dynamics.saturated_mask", "dynamics.discrete_lipschitz"})


def _convolve_probe(args, kwargs, result):
    stencil, values = args[0], np.asarray(args[1])
    return {"macs": values.size * len(stencil.weights),
            "nonzero": int(np.count_nonzero(values)), "cells": values.size}


def _rhs_probe(args, kwargs, result):
    v = args[0].values
    return {"cells": v.size, "active": int(np.count_nonzero((v > 0.0) & (v < 1.0)))}


def _run_probe(args, kwargs, result):
    sat = result.saturation_time
    newly = int(np.count_nonzero(np.isfinite(sat) & (sat > 0.0)))
    snap_bytes = sum(a.nbytes for a in result.snapshots) + sum(
        m.nbytes for m in result.masks)
    return {"cells": args[0].values.size, "new_saturated": newly,
            "snapshot_bytes": snap_bytes}


def _shoot_probe(args, kwargs, result):
    return {"rk4_steps": len(result.s) - 1}


def _c_star_probe(args, kwargs, result):
    return {"bracket_width": result.bracket[1] - result.bracket[0]}


def _front_probe(args, kwargs, result):
    return {"samples": len(result.s)}


def _file_probe(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


PROBES = {
    "kernels.convolve_field": _convolve_probe,
    "dynamics.model_rhs": _rhs_probe,
    "dynamics.run": _run_probe,
    "waves.shoot_profile": _shoot_probe,
    "waves.find_c_star": _c_star_probe,
    "kernels.front_profile": _front_probe,
    "output.write_csv": _file_probe,
    "output.write_json": _file_probe,
}


class Tracer:
    """Collects spans as ``[name, start, end, parent, probe_s, counters]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span that the caller timed itself (such as the import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, 0.0, None])

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                record[5] = probe(args, kwargs, result)
            record[4] = clock() - entered - (record[2] - record[1])
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced layers."""
        package = [m for key, m in sys.modules.items()
                   if key == "satspread" or key.startswith("satspread.")]
        for layer in LAYERS:
            module = sys.modules[f"satspread.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED):
                    continue
                traced = self.wrap(name, fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)


def _quantile_us(durations: list[float], q: float) -> float:
    return float(np.quantile(durations, q)) * 1e6 if durations else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its children's durations and probe times."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1] + s[4]
    return own


def layer_metrics(spans: list[list], main_end: float,
                  spawn: float) -> dict[str, float]:
    """Per-layer metrics from one traced invocation.

    ``busy_s`` of a name sums the spans of that name not nested in another span
    of the same name; ``self_s`` subtracts the time covered by child spans and
    by the probes of those children.
    """
    dur = [s[2] - s[1] for s in spans]
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    outermost = [True] * len(spans)
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        p = s[3]
        while p >= 0:
            if spans[p][0] == s[0]:
                outermost[i] = False
                break
            p = spans[p][3]

    def idx(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(dur[i] for i in idx(name) if outermost[i])

    def self_s(name):
        return sum(own[i] for i in idx(name))

    def counter(name, key):
        return sum(spans[i][5][key] for i in idx(name))

    def children_named(parent_name, name):
        parents = set(idx(parent_name))
        return sum(1 for i in idx(name) if spans[i][3] in parents)

    m: dict[str, float] = {}
    conv = idx("kernels.convolve_field")
    conv_d = [dur[i] for i in conv]
    conv_busy = busy("kernels.convolve_field")
    macs = counter("kernels.convolve_field", "macs")
    conv_cells = counter("kernels.convolve_field", "cells")
    m["kernels.convolve_field.calls"] = len(conv)
    m["kernels.convolve_field.busy_s"] = conv_busy
    m["kernels.convolve_field.p50_us"] = _quantile_us(conv_d, 0.5)
    m["kernels.convolve_field.p90_us"] = _quantile_us(conv_d, 0.9)
    m["kernels.convolve_field.macs"] = macs
    m["kernels.convolve_field.macs_per_s"] = macs / conv_busy if conv_busy else 0.0
    m["kernels.convolve_field.nonzero_frac"] = (
        counter("kernels.convolve_field", "nonzero") / conv_cells if conv_cells else 0.0)

    runs = idx("dynamics.run")
    rhs = idx("dynamics.model_rhs")
    run_set = set(runs)
    steps = sum(1 for i in rhs if spans[i][3] in run_set)
    cell_steps = sum(spans[i][5]["cells"] for i in rhs if spans[i][3] in run_set)
    m["dynamics.run.busy_s"] = busy("dynamics.run")
    m["dynamics.run.self_s"] = self_s("dynamics.run")
    m["dynamics.run.steps"] = steps
    m["dynamics.run.cell_steps"] = cell_steps
    m["dynamics.run.active_band_frac"] = (
        sum(spans[i][5]["active"] for i in rhs if spans[i][3] in run_set)
        / cell_steps if cell_steps else 0.0)
    m["dynamics.run.new_saturated_per_step"] = (
        counter("dynamics.run", "new_saturated") / steps if steps else 0.0)
    m["dynamics.run.snapshot_bytes"] = counter("dynamics.run", "snapshot_bytes")
    rhs_d = [dur[i] for i in rhs]
    m["dynamics.model_rhs.calls"] = len(rhs)
    m["dynamics.model_rhs.busy_s"] = busy("dynamics.model_rhs")
    m["dynamics.model_rhs.self_s"] = self_s("dynamics.model_rhs")
    m["dynamics.model_rhs.p50_us"] = _quantile_us(rhs_d, 0.5)
    m["dynamics.model_rhs.p90_us"] = _quantile_us(rhs_d, 0.9)

    shots = idx("waves.shoot_profile")
    m["waves.shoot_profile.calls"] = len(shots)
    m["waves.shoot_profile.busy_s"] = busy("waves.shoot_profile")
    m["waves.shoot_profile.p50_us"] = _quantile_us([dur[i] for i in shots], 0.5)
    m["waves.shoot_profile.rk4_steps"] = counter("waves.shoot_profile", "rk4_steps")
    m["waves.find_c_star.busy_s"] = busy("waves.find_c_star")
    m["waves.find_c_star.shots"] = children_named("waves.find_c_star",
                                                  "waves.shoot_profile")
    widths = [spans[i][5]["bracket_width"] for i in idx("waves.find_c_star")]
    m["waves.find_c_star.bracket_width"] = max(widths) if widths else 0.0
    m["kernels.front_profile.busy_s"] = busy("kernels.front_profile")
    m["kernels.front_profile.samples"] = counter("kernels.front_profile", "samples")

    m["output.write_csv.calls"] = len(idx("output.write_csv"))
    m["output.write_csv.busy_s"] = busy("output.write_csv")
    m["output.write_csv.bytes"] = counter("output.write_csv", "bytes")
    m["output.write_field_csv.busy_s"] = busy("output.write_field_csv")
    m["output.write_json.busy_s"] = busy("output.write_json")
    out_busy = sum(dur[i] for i, s in enumerate(spans)
                   if s[0].startswith("output.")
                   and not (s[3] >= 0 and spans[s[3]][0].startswith("output.")))
    out_bytes = m["output.write_csv.bytes"] + counter("output.write_json", "bytes")
    m["output.bytes_per_s"] = out_bytes / out_busy if out_busy else 0.0

    for fn in ("track_fronts", "estimate_speed", "support_confinement_check",
               "gamma_convergence_study"):
        m[f"analysis.{fn}.busy_s"] = busy(f"analysis.{fn}")
    m["config.load_config.busy_s"] = busy("config.load_config")
    m["config.build_initial_field.busy_s"] = busy("config.build_initial_field")
    m["kernels.build_kernel.busy_s"] = busy("kernels.build_kernel")
    m["cli.import_s"] = busy("cli.import")

    # Spans of one thread never overlap, so top-level spans add up.
    covered = sum(d for s, d in zip(spans, dur) if s[3] < 0)
    m["trace.unattributed_s"] = (main_end - spawn) - covered
    return m
