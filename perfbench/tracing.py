"""Span tracing of repmech's layers from outside the program.

`Tracer.install` wraps the public functions and methods listed below with a
timing wrapper. A module-level function is replaced in every repmech module
namespace that holds it, because callers look it up there (cli calls
`integrate` through its own `from .worldline import integrate`). A method is
replaced on its class. Each call records one span: name, parent span, op
index, start and end. Spans stay in memory until `write` dumps them once.

`layer_metrics` turns the spans, plus the ops and their summaries, into the
per-layer metrics. A span's self time is its duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "layer.name" is also the metric prefix
FUNCTIONS = {
    "cli.parse_config": ("repmech.cli", "parse_config"),
    "cli.run": ("repmech.cli", "run"),
    "worldline.integrate": ("repmech.worldline", "integrate"),
    "worldline.conserved_drift": ("repmech.worldline", "conserved_drift"),
    "worldline.energy_drift": ("repmech.worldline", "energy_drift"),
    "worldline.el_residual": ("repmech.worldline", "el_residual"),
    "lagrangian.eval_L": ("repmech.lagrangian", "eval_L"),
    "lagrangian.momentum": ("repmech.lagrangian", "momentum"),
    "lagrangian.momentum_fd": ("repmech.lagrangian", "momentum_fd"),
    "lagrangian.generalized_momentum": ("repmech.lagrangian", "generalized_momentum"),
    "lagrangian.hamiltonian_residual": ("repmech.lagrangian", "hamiltonian_residual"),
    "lagrangian.mass_shell_residual": ("repmech.lagrangian", "mass_shell_residual"),
    "lagrangian.homogeneity_residual": ("repmech.lagrangian", "homogeneity_residual"),
    "lagrangian.velocity_hessian": ("repmech.lagrangian", "velocity_hessian"),
    "lagrangian.position_gradient": ("repmech.lagrangian", "position_gradient"),
    "lagrangian.momentum_position_directional":
        ("repmech.lagrangian", "momentum_position_directional"),
    "fields.zero_potential": ("repmech.fields", "zero_potential"),
    "fields.constant_potential": ("repmech.fields", "constant_potential"),
    "fields.uniform_magnetic_potential": ("repmech.fields", "uniform_magnetic_potential"),
    "fields.potential_from_function": ("repmech.fields", "potential_from_function"),
    "fields.symmetric_tensor": ("repmech.fields", "symmetric_tensor"),
    "fields.symmetric_tensor_field": ("repmech.fields", "symmetric_tensor_field"),
    "geometry.quadratic_form": ("repmech.geometry", "quadratic_form"),
    "action.straight_chord_path": ("repmech.action", "straight_chord_path"),
    "action.discrete_action": ("repmech.action", "discrete_action"),
    "action.action_gradient": ("repmech.action", "action_gradient"),
    "action.action_hessian": ("repmech.action", "action_hessian"),
    "action.extremize": ("repmech.action", "extremize"),
    "brane.brane_action": ("repmech.brane", "brane_action"),
    "brane.integral_gauge_check": ("repmech.brane", "integral_gauge_check"),
    "clifford.solve_quadratic_generators": ("repmech.clifford", "solve_quadratic_generators"),
    "clifford.mass_shell_determinant_residual":
        ("repmech.clifford", "mass_shell_determinant_residual"),
    "clifford.verify_lie_closure": ("repmech.clifford", "verify_lie_closure"),
    "clifford.vector_covariance_check": ("repmech.clifford", "vector_covariance_check"),
    "sweeps.standard_sweeps": ("repmech.sweeps", "standard_sweeps"),
    "sweeps.draw_spec_state": ("repmech.sweeps", "draw_spec_state"),
    "sweeps.random_spec": ("repmech.sweeps", "random_spec"),
    "sweeps.random_state": ("repmech.sweeps", "random_state"),
}

# span name -> (module, class, method)
METHODS = {
    "geometry.MetricField.__call__": ("repmech.geometry", "MetricField", "__call__"),
    "fields.SymmetricTensorField.contraction":
        ("repmech.fields", "SymmetricTensorField", "contraction"),
    "fields.SymmetricTensorField.contraction_gradient":
        ("repmech.fields", "SymmetricTensorField", "contraction_gradient"),
    "fields.SymmetricTensorField.contraction_hessian":
        ("repmech.fields", "SymmetricTensorField", "contraction_hessian"),
    "brane.BraneEmbedding.points": ("repmech.brane", "BraneEmbedding", "points"),
    "brane.BraneEmbedding.jacobians": ("repmech.brane", "BraneEmbedding", "jacobians"),
}

FIELD_CONSTRUCTORS = tuple(n for n in FUNCTIONS if n.startswith("fields."))
CONTRACTIONS = tuple(n for n in METHODS if n.startswith("fields."))
LAGRANGIAN_KERNELS = ("velocity_hessian", "momentum", "eval_L", "position_gradient",
                      "momentum_position_directional")
WORLDLINE_CLASSES = ("coord_em", "coord_tensor", "proper_em")


class Tracer:
    def __init__(self):
        self.names = list(FUNCTIONS) + list(METHODS)
        self.name_of = []
        self.parent = []
        self.op = []
        self.start = []
        self.end = []
        self.current_op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name_id, fn):
        clock = time.perf_counter
        stack, name_of, parent, op, start, end = (
            self._stack, self.name_of, self.parent, self.op, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "repmech" or name.startswith("repmech.")]
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(mod_name), attr)
            traced = self._wrap(self.names.index(name), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, traced)
        for name, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(self.names.index(name), original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name_of, "parent": self.parent,
                       "op": self.op, "start": self.start, "end": self.end}, fh)


def _aggregate(tracer: Tracer):
    """Per span name: call count, total duration and total self time."""
    n = len(tracer.name_of)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for i in range(n):
        name = tracer.names[tracer.name_of[i]]
        calls[name] += 1
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
    return calls, total, self_time, dur


def _layer_sum(table, layer):
    """Sum of a calls or seconds table over one layer's spans (0 or 0.0 when idle)."""
    return sum((v for k, v in table.items() if k.startswith(layer + ".")),
               table.default_factory())


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops, summaries, traced_wall, untraced_wall):
    """Per-layer metrics of one traced round; ops[i] ran with op index i."""
    calls, total, self_time, dur = _aggregate(tracer)
    names = tracer.names
    m = {}

    def per_op(span_name):
        out = defaultdict(float)
        nid = names.index(span_name)
        for i, k in enumerate(tracer.name_of):
            if k == nid:
                out[tracer.op[i]] += dur[i]
        return out

    m["cli.parse_s"] = (total["cli.parse_config"], "s")
    m["cli.self_s"] = (self_time["cli.run"], "s")

    m["worldline.integrate.calls"] = (calls["worldline.integrate"], "count")
    m["worldline.self_s"] = (_layer_sum(self_time, "worldline"), "s")
    integrate_s = per_op("worldline.integrate")
    for klass in WORLDLINE_CLASSES:
        idx = [i for i, op in enumerate(ops) if op.klass == klass]
        steps = sum(ops[i].size for i in idx)
        m[f"worldline.steps_per_s.{klass}"] = (_ratio(steps, sum(integrate_s[i] for i in idx)),
                                               "1/s")
    m["worldline.drift_s"] = (total["worldline.conserved_drift"], "s")

    m["lagrangian.calls"] = (_layer_sum(calls, "lagrangian"), "count")
    m["lagrangian.self_s"] = (_layer_sum(self_time, "lagrangian"), "s")
    for fn in LAGRANGIAN_KERNELS:
        m[f"lagrangian.{fn}.calls"] = (calls[f"lagrangian.{fn}"], "count")
        m[f"lagrangian.{fn}_s"] = (total[f"lagrangian.{fn}"], "s")

    m["fields.build.calls"] = (sum(calls[n] for n in FIELD_CONSTRUCTORS), "count")
    m["fields.build_s"] = (sum(total[n] for n in FIELD_CONSTRUCTORS), "s")
    m["fields.contract.calls"] = (sum(calls[n] for n in CONTRACTIONS), "count")
    m["fields.contract_s"] = (sum(total[n] for n in CONTRACTIONS), "s")

    m["geometry.metric.calls"] = (calls["geometry.MetricField.__call__"], "count")
    m["geometry.metric_s"] = (total["geometry.MetricField.__call__"], "s")
    m["geometry.quadratic_form.calls"] = (calls["geometry.quadratic_form"], "count")
    m["geometry.quadratic_form_s"] = (total["geometry.quadratic_form"], "s")

    # accepted steps per trial gradient that extremize evaluates itself
    extremize_id = names.index("action.extremize")
    gradient_id = names.index("action.action_gradient")
    direct_gradients = sum(1 for i, k in enumerate(tracer.name_of)
                           if k == gradient_id and tracer.parent[i] >= 0
                           and tracer.name_of[tracer.parent[i]] == extremize_id)
    iterations = sum(s.get("iterations", 0) for op, s in zip(ops, summaries)
                     if op.subcommand == "extremize" and s)
    m["action.gradient.calls"] = (calls["action.action_gradient"], "count")
    m["action.gradient_s"] = (total["action.action_gradient"], "s")
    m["action.hessian.calls"] = (calls["action.action_hessian"], "count")
    m["action.hessian_s"] = (total["action.action_hessian"], "s")
    m["action.self_s"] = (_layer_sum(self_time, "action"), "s")
    m["action.iterations"] = (iterations, "count")
    m["action.accept_ratio"] = (_ratio(iterations, direct_gradients), "ratio")

    cells = sum(s.get("cells", 0) for op, s in zip(ops, summaries)
                if op.subcommand == "brane" and s)
    m["brane.action_s"] = (total["brane.brane_action"], "s")
    m["brane.cells_per_s"] = (_ratio(cells, total["brane.brane_action"]), "1/s")
    m["brane.jacobians_s"] = (total["brane.BraneEmbedding.jacobians"], "s")
    m["brane.points_s"] = (total["brane.BraneEmbedding.points"], "s")
    m["brane.gauge_check_s"] = (total["brane.integral_gauge_check"], "s")

    m["clifford.solve.calls"] = (calls["clifford.solve_quadratic_generators"], "count")
    m["clifford.solve_s"] = (total["clifford.solve_quadratic_generators"], "s")
    m["clifford.det.calls"] = (calls["clifford.mass_shell_determinant_residual"], "count")
    m["clifford.det_s"] = (total["clifford.mass_shell_determinant_residual"], "s")
    m["clifford.checks_s"] = (total["clifford.verify_lie_closure"]
                              + total["clifford.vector_covariance_check"], "s")

    samples = sum(p["samples"] for op, s in zip(ops, summaries)
                  if op.subcommand == "check" and s for p in s["properties"])
    m["sweeps.samples_per_s"] = (_ratio(samples, total["sweeps.standard_sweeps"]), "1/s")
    m["sweeps.draw_s"] = (total["sweeps.draw_spec_state"], "s")
    m["sweeps.specs_per_draw"] = (_ratio(calls["sweeps.random_spec"],
                                         calls["sweeps.draw_spec_state"]), "ratio")
    m["sweeps.self_s"] = (_layer_sum(self_time, "sweeps"), "s")

    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m
