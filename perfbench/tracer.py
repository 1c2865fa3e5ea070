"""Spans around the calls into gaborflow's public functions.

The program itself has no tracing.  ``Tracer.install`` replaces each traced
function by a wrapper in every gaborflow module that holds it, because
``frame``, ``flow`` and ``metaplectic`` import ``heisenberg``,
``max_safe_epsilon``, ``metaplectic_lift`` and ``distance_to_ellipsoid`` by
name; ``uninstall`` puts the originals back.  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of the spans directly beneath it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class attribute
TARGETS = [
    ("gaborflow.config", "ScenarioConfig.build_grid", "config.build"),
    ("gaborflow.config", "ScenarioConfig.build_window", "config.build"),
    ("gaborflow.config", "ScenarioConfig.build_lattice", "config.build"),
    ("gaborflow.config", "ScenarioConfig.build_ellipsoid", "config.build"),
    ("gaborflow.frame", "ellipsoid_deform", "frame.ellipsoid_deform"),
    ("gaborflow.frame", "frame_bounds", "frame.frame_bounds"),
    ("gaborflow.frame", "analysis_matrix", "frame.analysis_matrix"),
    ("gaborflow.quantum", "heisenberg", "quantum.heisenberg"),
    ("gaborflow.lattice", "max_safe_epsilon", "lattice.max_safe_epsilon"),
    ("gaborflow.lattice", "distance_to_ellipsoid", "lattice.distance_to_ellipsoid"),
    ("gaborflow.lattice", "deform_point_set", "lattice.deform_point_set"),
    ("gaborflow.flow", "flow_trajectory", "flow.flow_trajectory"),
    ("gaborflow.flow", "hamiltonian_field", "flow.hamiltonian_field"),
    ("gaborflow.metaplectic", "metaplectic_lift", "metaplectic.metaplectic_lift"),
    ("gaborflow.metaplectic", "quantize_quadratic", "metaplectic.quantize_quadratic"),
    ("gaborflow.metaplectic", "Propagator.apply", "metaplectic.Propagator.apply"),
    ("gaborflow.metaplectic", "covariance_defect", "metaplectic.covariance_defect"),
    ("gaborflow.symplectic", "flow_matrix", "symplectic.flow_matrix"),
]

# per-layer metrics: (name, unit, better)
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("config.build.s", "s", "lower"),
    ("frame.ellipsoid_deform.calls", "count", "lower"),
    ("frame.frame_bounds.calls", "count", "lower"),
    ("frame.frame_bounds.s", "s", "lower"),
    ("frame.frame_bounds.self_s", "s", "lower"),
    ("frame.analysis_matrix.calls", "count", "lower"),
    ("frame.analysis_matrix.self_s", "s", "lower"),
    ("quantum.heisenberg.calls", "count", "lower"),
    ("quantum.heisenberg.s", "s", "lower"),
    ("lattice.max_safe_epsilon.calls", "count", "lower"),
    ("lattice.max_safe_epsilon.s", "s", "lower"),
    ("lattice.distance_to_ellipsoid.calls", "count", "lower"),
    ("lattice.distance_to_ellipsoid.s", "s", "lower"),
    ("lattice.distance_to_ellipsoid.us_per_call", "us", "lower"),
    ("lattice.deform_point_set.s", "s", "lower"),
    ("flow.flow_trajectory.s", "s", "lower"),
    ("flow.hamiltonian_field.calls", "count", "lower"),
    ("flow.hamiltonian_field.self_s", "s", "lower"),
    ("metaplectic.metaplectic_lift.calls", "count", "lower"),
    ("metaplectic.lift_misses", "count", "lower"),
    ("metaplectic.lift_hit_ratio", "ratio", "higher"),
    ("metaplectic.quantize_quadratic.s", "s", "lower"),
    ("metaplectic.factorize.s", "s", "lower"),
    ("metaplectic.factor_bytes", "B", "lower"),
    ("metaplectic.Propagator.apply.calls", "count", "lower"),
    ("metaplectic.Propagator.apply.s", "s", "lower"),
    ("metaplectic.covariance_defect.s", "s", "lower"),
    ("symplectic.flow_matrix.calls", "count", "lower"),
    ("symplectic.flow_matrix.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _grid_size(args, kwargs) -> int:
    # quantize_quadratic(M, g): a miss factorizes an N x N generator
    return (kwargs.get("g") or args[1]).N


class Tracer:
    """Records spans [name, parent, start, end, op, info] while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = None

    def call(self, name, fn, *args, info=None, **kwargs):
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self.op, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, want_info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = _grid_size(args, kwargs) if want_info else None
            return self.call(name, fn, *args, info=info, **kwargs)
        return traced

    def install(self, op: int) -> None:
        self.op = op
        modules = [m for n, m in sys.modules.items() if n.startswith("gaborflow.")]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrapper(name, orig, False))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrapper(name, orig, attr == "quantize_quadratic")
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        self.op = None

    def per_layer(self, ops: int) -> dict:
        """Per-layer figures per op, averaged over ``ops`` traced ops."""
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * len(self.spans)
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
                children[s[1]].append(i)
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            total[s[0]] += dur[i]
            own[s[0]] += dur[i] - child[i]
        misses = factorize = factor_bytes = 0.0
        for i, s in enumerate(self.spans):
            if s[0] != "metaplectic.metaplectic_lift":
                continue
            quant = [j for j in children[i] if self.spans[j][0] == "metaplectic.quantize_quadratic"]
            if quant:
                misses += len(quant)
                factorize += dur[i] - sum(dur[j] for j in quant)
                factor_bytes += sum(16 * self.spans[j][5] ** 2 + 8 * self.spans[j][5]
                                    for j in quant)
        lifts = calls["metaplectic.metaplectic_lift"]
        dtc = "lattice.distance_to_ellipsoid"
        out = {
            "cli.self_s": own["cli"],
            "metaplectic.lift_misses": misses,
            "metaplectic.factorize.s": factorize,
            "metaplectic.factor_bytes": factor_bytes,
        }
        for name, *_ in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if name in out or name.startswith("trace."):
                continue
            if kind == "calls":
                out[name] = calls[layer]
            elif kind == "s":
                out[name] = total[layer]
            elif kind == "self_s":
                out[name] = own[layer]
        per_op = {k: v / ops for k, v in out.items()}
        per_op["metaplectic.lift_hit_ratio"] = (lifts - misses) / lifts if lifts else 0.0
        per_op[dtc + ".us_per_call"] = 1e6 * total[dtc] / calls[dtc] if calls[dtc] else 0.0
        return per_op

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "op", "info"],
                       "spans": self.spans}, fh)
