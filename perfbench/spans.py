"""In-memory span tracer wrapped around catspec's layer boundaries.

The tracer replaces selected public functions and methods of the catspec
modules with wrappers that record one span per call: name, start, end and
the index of the enclosing span.  Nothing inside the program is changed;
module-level functions are also replaced wherever another catspec module
imported them by name.  Per-layer counts and self times (span duration
minus the time covered by its child spans) are derived after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _packet_phase(counters, result, profile, flow, block):
    # project() builds an exp(outer(js, taus)) phase matrix on every call:
    # rows x tau_grid complex128 entries (computed, not measured, bytes).
    # The rows are the neutral basis, or one cell's 2 j_max + 1 modes of an
    # orbit sector, whose basis repeats them for every cell.
    rows = len(block.basis)
    if hasattr(block.sector, "n_cells"):
        rows //= block.sector.n_cells
    counters["phase_bytes"] += rows * profile.taus.size * 16


def _weight_modes(counters, result, block, *args, **kwargs):
    counters["modes"] += len(block.basis)


def _generator_dim(counters, result, *args, **kwargs):
    counters["dim_sum"] += result.dim
    counters["dim_max"] = max(counters["dim_max"], result.dim)


def _cubed(counters, result, p, *args, **kwargs):
    counters["n3_sum"] += np.shape(p)[0] ** 3


def _points(counters, result, escape, adapted, *args, **kwargs):
    counters["points"] += np.size(adapted) // 3


# (module, attribute path, span name, counter hook).  A class path wraps
# __init__, so its span is the construction; a dotted path wraps a method.
# Spans that are not reported (PacketProfile construction, run_campaign)
# keep their time out of their callers' self time.
LAYERS = [
    ("model", "TimeChange", "model.TimeChange", None),
    ("model", "CatMap.power", "model.CatMap.power", None),
    ("config", "parse_config", "config.parse_config", None),
    ("cotangent", "horizontal_components", "cotangent.horizontal_components", None),
    ("escape", "EscapeFunction", "escape.EscapeFunction", None),
    ("escape", "EscapeFunction.escape_value", "escape.escape_value", _points),
    ("escape", "EscapeFunction.escape_derivative_adapted",
     "escape.escape_derivative_adapted", _points),
    ("escape", "verify_escape_estimates", "escape.verify_escape_estimates", None),
    ("operator", "enumerate_orbits", "operator.enumerate_orbits", None),
    ("operator", "build_generator", "operator.build_generator", _generator_dim),
    ("operator", "apply_weight", "operator.apply_weight", _weight_modes),
    ("operator", "eigendecompose", "operator.eigendecompose", _cubed),
    ("operator", "singular_values", "operator.singular_values", _cubed),
    ("operator", "PacketProfile", "operator.PacketProfile", None),
    ("operator", "PacketProfile.project", "operator.PacketProfile.project",
     _packet_phase),
    ("harness", "extract_resonances", "harness.extract_resonances", None),
    ("harness", "scaling_study", "harness.scaling_study", None),
    ("harness", "weyl_audit", "harness.weyl_audit", None),
    ("harness", "weyl_oracle", "harness.weyl_oracle", None),
    ("harness", "coherent_symbol_study", "harness.coherent_symbol_study", None),
    ("harness", "run_campaign", "harness.run_campaign", None),
    ("cli", "cmd_campaign", "cli.cmd_campaign", None),
]

# Span statistics reported as per-layer metrics, "<span name>.<key>".
REPORTED = {
    "operator.PacketProfile.project": ("calls", "self_s", "phase_bytes"),
    "operator.apply_weight": ("calls", "self_s", "modes"),
    "model.CatMap.power": ("calls",),
    "cotangent.horizontal_components": ("calls",),
    "operator.build_generator": ("calls", "self_s", "dim_max", "dim_sum"),
    "operator.enumerate_orbits": ("calls", "s"),
    "harness.weyl_oracle": ("calls", "self_s"),
    "operator.singular_values": ("calls", "self_s", "n3_sum"),
    "operator.eigendecompose": ("calls", "self_s", "n3_sum"),
    "harness.weyl_audit": ("calls", "self_s"),
    "harness.extract_resonances": ("calls", "self_s"),
    "harness.scaling_study": ("s",),
    "escape.escape_value": ("calls", "points", "self_s", "points_per_s"),
    "escape.escape_derivative_adapted": ("points", "self_s"),
    "escape.verify_escape_estimates": ("s",),
    "escape.EscapeFunction": ("calls",),
    "harness.coherent_symbol_study": ("self_s",),
    "model.TimeChange": ("s",),
    "config.parse_config": ("s",),
    "cli.cmd_campaign": ("self_s",),
}

# Checks timed through run_campaign's progress callback; base_spectrum is
# the shared spectrum extraction that runs before the first check.
CHECKS = ("base_spectrum", "escape", "upper_half", "symmetry", "weyl", "ims",
          "counting", "disk", "coherent")

CALIBRATION_CALLS = 20000   # no-op calls per timing of the wrapper's cost


class Tracer:
    """Span store: parallel arrays of name id, parent index, start, end."""

    def __init__(self):
        self.names = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = defaultdict(lambda: defaultdict(float))
        self.checks = []        # (check name, time) from the progress callback

    def wrap(self, name, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        counters = self.counters[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if hook is not None:
                hook(counters, out, *args, **kwargs)
            return out

        return traced

    def wrap_campaign(self, fn):
        """Chain run_campaign's progress callback to time each check."""

        @functools.wraps(fn)
        def campaign(*args, progress=None, **kwargs):
            def note(name):
                self.checks.append((name, time.perf_counter()))
                if progress:
                    progress(name)

            self.checks.append(("base_spectrum", time.perf_counter()))
            try:
                return fn(*args, progress=note, **kwargs)
            finally:
                self.checks.append((None, time.perf_counter()))

        return campaign

    def install(self, package):
        """Wrap every LAYERS entry of the imported catspec package."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod_name, path, name, hook in LAYERS:
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            target = getattr(owner, attr)
            if isinstance(target, type):
                target.__init__ = self.wrap(name, target.__init__, hook)
                continue
            wrapped = self.wrap(name, target, hook)
            if mod_name == "harness" and attr == "run_campaign":
                wrapped = self.wrap_campaign(wrapped)
            setattr(owner, attr, wrapped)
            if owner is module:
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is target:
                            setattr(other, key, wrapped)

    def overhead_s(self):
        """Tracing cost of the run: spans recorded x wrapper cost per call.

        The per-call cost is timed on a no-op function, wrapped and bare,
        in a throwaway tracer; hooks are not included.  Unlike the traced
        minus the untraced campaign time, this is not swamped by host noise.
        """
        def noop():
            return None

        wrapped = Tracer().wrap("noop", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(5):
            t0 = clock()
            for _ in range(CALIBRATION_CALLS):
                noop()
            t1 = clock()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            t2 = clock()
            costs.append((t2 - 2 * t1 + t0) / CALIBRATION_CALLS)
        return len(self.start) * min(costs)

    def metrics(self):
        """Per-layer metrics: REPORTED span statistics and check times."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for name, counters in self.counters.items():
            out[name].update(counters)
        values = out["escape.escape_value"]
        values["points_per_s"] = (values.get("points", 0) / values["s"]
                                  if values["s"] > 0 else 0.0)
        metrics = {f"{name}.{key}": float(out[name].get(key, 0))
                   for name, keys in REPORTED.items() for key in keys}
        for name in CHECKS:
            metrics[f"harness.check.{name}.s"] = 0.0
        for (name, t0), (_, t1) in zip(self.checks, self.checks[1:]):
            if name is not None:
                metrics[f"harness.check.{name}.s"] += t1 - t0
        return metrics
