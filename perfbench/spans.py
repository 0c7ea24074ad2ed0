"""Span recorder and call-site instrumentation for the traced benchmark run.

Spans are recorded around the public callables of toricspec, wrapped at the
module bindings the package itself calls through (``harness.build_mesh``,
``limit.solve_pencil``, ...), so nothing under ``src/`` changes.  The
wrappers are installed for the traced passes only and restored afterwards.

Layer names are the toricspec module names.  A span's self time is its
duration minus the durations of its direct children; the self time of a
pass's root span is the part of the pass no wrapped call accounts for.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("polytope", "potential", "curvature", "mesh", "operator", "limit", "harness")
PASS_SPAN = "pass"

# span name -> per-layer metric that carries its per-pass self time
SELF_TIME_METRICS = {
    "operator.eig": "operator.eig_s",
    "operator.factory": "operator.factory_s",
    "operator.assemble": "operator.assemble_s",
    "operator.p1_assemble": "operator.p1_assemble_s",
    "operator.rayleigh": "operator.rayleigh_s",
    "potential.hessian_batch": "potential.hessian_batch_s",
    "potential.ground_state": "potential.ground_state_s",
    "mesh.build": "mesh.build_s",
    "limit.predict": "limit.predict_s",
    "limit.cone": "limit.cone_s",
    "limit.cone_mesh": "limit.cone_mesh_s",
    "curvature.scan": "curvature.scan_s",
    "curvature.oracle": "curvature.oracle_s",
    "curvature.closed_form": "curvature.closed_form_s",
    "harness.sweep": "harness.sweep_self_s",
    "harness.emit": "harness.emit_s",
    "polytope.bs_points": "polytope.bs_points_s",
}

# counters: name -> how values within one pass combine
COUNTERS = {
    "operator.eig_calls": "sum",
    "operator.eig_dense_calls": "sum",
    "operator.eig_arpack_calls": "sum",
    "operator.dofs_max": "max",
    "operator.nnz_max": "max",
    "operator.eig_residual_max": "max",
    "operator.assemble_calls": "sum",
    "potential.hessian_points": "sum",
    "mesh.calls": "sum",
    "mesh.nodes_max": "max",
    "mesh.cells_max": "max",
    "limit.cone_solves": "sum",
    "limit.cone_dofs_max": "max",
    "curvature.scan_points": "sum",
    "harness.report_bytes": "sum",
    "polytope.bs_points_calls": "sum",
}

# counts that must repeat exactly between any two runs of the same code
EXACT_COUNTS = (
    "operator.eig_calls",
    "operator.eig_dense_calls",
    "operator.eig_arpack_calls",
    "operator.dofs_max",
    "operator.nnz_max",
    "potential.hessian_points",
    "limit.cone_solves",
    "harness.report_bytes",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into SpanRecorder.spans, -1 for a root
    pass_id: int


class SpanRecorder:
    """In-memory spans and counters, grouped by pass id."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(dict)      # pass_id -> {counter: value}
        self._stack = []
        self.pass_id = -1

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), float("nan"), parent, self.pass_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def traced_pass(self, pass_id):
        self.pass_id = pass_id
        with self.span(PASS_SPAN) as record:
            yield record

    def count(self, name, value):
        table = self.counts[self.pass_id]
        if COUNTERS[name] == "max":
            table[name] = max(table.get(name, value), value)
        else:
            table[name] = table.get(name, 0) + value

    def self_times(self):
        """Self time of every span, in recording order."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def pass_summary(self, pass_id):
        """Per-layer self times, layer totals, remainder and counts of one pass."""
        summary = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        layer_totals = {layer: 0.0 for layer in LAYERS}
        wall = 0.0
        remainder = 0.0
        for s, self_s in zip(self.spans, self.self_times()):
            if s.pass_id != pass_id:
                continue
            if s.name == PASS_SPAN:
                wall += s.end - s.start
                remainder += self_s
                continue
            summary[SELF_TIME_METRICS[s.name]] += self_s
            layer_totals[s.name.split(".", 1)[0]] += self_s
        for layer, total in layer_totals.items():
            summary[f"layer.{layer}_s"] = total
        summary["trace.unattributed_s"] = remainder
        summary["trace.wall_s"] = wall
        counts = self.counts.get(pass_id, {})
        for name in COUNTERS:
            summary[name] = counts.get(name, 0)
        return summary

    def dump(self, path):
        """Write every span as one JSON line: id, name, start, end, parent, pass_id."""
        with open(path, "w", encoding="ascii") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def _spanned(rec, fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return wrapper


def _after_mesh(rec, args, kwargs, mesh):
    rec.count("mesh.calls", 1)
    rec.count("mesh.nodes_max", int(mesh.num_nodes))
    rec.count("mesh.cells_max", int(mesh.num_cells))


def _after_hessian(rec, args, kwargs, out):
    rec.count("potential.hessian_points", int(out[0].shape[0]))


def _after_assemble(rec, args, kwargs, out):
    rec.count("operator.assemble_calls", 1)


def _after_cone(rec, args, kwargs, out):
    rec.count("limit.cone_solves", 1)


def _after_cone_mesh(rec, args, kwargs, mesh):
    rec.count("limit.cone_dofs_max", int(mesh.num_nodes))


def _after_scan(rec, args, kwargs, out):
    rec.count("curvature.scan_points", len(out[0]))


def _after_bs_points(rec, args, kwargs, out):
    rec.count("polytope.bs_points_calls", 1)


def _after_emit(rec, args, kwargs, files):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    size = sum(os.path.getsize(os.path.join(out_dir, name)) for name in files)
    rec.count("harness.report_bytes", size)


def _eig_counter(operator_module):
    def after(rec, args, kwargs, spectrum):
        K = args[0] if args else kwargs["K"]
        # read at call time: the cutoff may change or disappear in later code
        cutoff = getattr(operator_module, "DENSE_CUTOFF", 0)
        rec.count("operator.eig_calls", 1)
        if K.shape[0] <= cutoff:
            rec.count("operator.eig_dense_calls", 1)
        else:
            rec.count("operator.eig_arpack_calls", 1)
        rec.count("operator.dofs_max", int(K.shape[0]))
        rec.count("operator.nnz_max", int(K.nnz))
        rec.count("operator.eig_residual_max", float(max(spectrum.residuals)))

    return after


def _ground_state_wrapper(rec, fn):
    """ground_state returns a closure; its evaluation is the costly part."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span("potential.ground_state"):
            state = fn(*args, **kwargs)

        def traced_state(x):
            with rec.span("potential.ground_state"):
                return state(x)

        return traced_state

    return wrapper


@contextmanager
def instrumented(rec):
    """Wrap toricspec's call sites with spans; restore them on exit."""
    from toricspec import curvature, harness, limit, mesh, operator, polytope, potential

    eig_after = _eig_counter(operator)
    plan = [
        # (owner, attribute, span name, after-call counter)
        (mesh, "build_mesh", "mesh.build", _after_mesh),
        (harness, "build_mesh", "mesh.build", _after_mesh),
        (operator, "build_mesh", "mesh.build", _after_mesh),
        (operator, "family_hessian_batch", "potential.hessian_batch", _after_hessian),
        (potential, "family_hessian_batch", "potential.hessian_batch", _after_hessian),
        (operator.OperatorFactory, "__init__", "operator.factory", None),
        (operator.OperatorFactory, "operator", "operator.assemble", _after_assemble),
        (operator, "solve_pencil", "operator.eig", eig_after),
        (limit, "solve_pencil", "operator.eig", eig_after),
        (operator, "assemble_p1", "operator.p1_assemble", None),
        (limit, "assemble_p1", "operator.p1_assemble", None),
        (operator, "ground_state_rayleigh_batch", "operator.rayleigh", None),
        (limit, "predicted_limit", "limit.predict", None),
        (harness, "predicted_limit", "limit.predict", None),
        (limit, "numeric_cone_spectrum", "limit.cone", _after_cone),
        (limit, "truncated_cone_mesh", "limit.cone_mesh", _after_cone_mesh),
        (curvature, "ricci_lower_bound_scan", "curvature.scan", _after_scan),
        (curvature, "christoffel_ricci_oracle", "curvature.oracle", None),
        (curvature, "ricci_general", "curvature.closed_form", None),
        (harness, "run_sweep", "harness.sweep", None),
        (harness, "emit_reports", "harness.emit", _after_emit),
        (polytope, "bs_points", "polytope.bs_points", _after_bs_points),
        (harness, "bs_points", "polytope.bs_points", _after_bs_points),
        (limit, "bs_points", "polytope.bs_points", _after_bs_points),
    ]
    saved = []
    try:
        for owner, attr, name, after in plan:
            # a binding later code removes leaves its time in the parent span
            if attr not in owner.__dict__:
                continue
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _spanned(rec, original, name, after))
        if "ground_state" in potential.__dict__:
            original = potential.__dict__["ground_state"]
            saved.append((potential, "ground_state", original))
            potential.ground_state = _ground_state_wrapper(rec, original)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
