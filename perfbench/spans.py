"""Outside-in tracing of dpgelast's layers, and the per-layer metrics.

`install` replaces each listed public function of the package, at every
module attribute that binds it, with a wrapper that records a span
(name, start, end, parent id, study id) in a `Recorder`. Nothing in the
package changes; the wrappers live only in the traced process. Spans are
kept in memory and exported once the study ends.

`layer_metrics` turns the exported spans and counters into the per-layer
metrics listed in BENCHMARK.json. A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np

ROOT_SPAN = "cli_io.study"
ESTIMATOR_SPAN = "residual_adaptivity.estimator"


class Recorder:
    def __init__(self, study_id: str):
        self.study_id = study_id
        self.spans = []  # [id, parent, name, start, end]
        self.stack = []
        self.counts = Counter()
        self.last = {}

    def enter(self, name):
        span = [len(self.spans), self.stack[-1][0] if self.stack else None, name, time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def leave(self, span):
        span[4] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self.enter(name)
        try:
            yield
        finally:
            self.leave(span)

    def inside(self, name) -> bool:
        return any(s[2] == name for s in self.stack)

    def export(self) -> dict:
        return {
            "study_id": self.study_id,
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e, "study": self.study_id}
                for i, p, n, s, e in self.spans
            ],
            "counts": dict(self.counts),
            "last": dict(self.last),
        }


# ---------------------------------------------------------------------------
# hooks that read exact counts off arguments and results, outside the span


def _after_mesh(rec, args, kwargs, mesh):
    rec.last["mesh.triangles_final"] = mesh.num_triangles


def _after_vtk(rec, args, kwargs, _):
    path = args[1] if len(args) > 1 else kwargs["path"]
    rec.counts["mesh.write_vtk.bytes"] += os.path.getsize(path)
    _after_mesh(rec, args, kwargs, args[0])


def _after_blocks(rec, args, kwargs, blocks):
    rec.counts["forms.local_blocks.elements"] += len(blocks.elems)


def _after_system(rec, args, kwargs, system):
    rec.last["dpg_solver.ndof"] = system.K.shape[0]
    rec.last["dpg_solver.K_nnz"] = system.K.nnz


def _after_solve(rec, args, kwargs, _):
    K, constrained = args[0], args[2]
    rec.last["dpg_solver.free_dofs"] = K.shape[0] - len(np.unique(constrained))


def _after_splu(rec, args, kwargs, lu):
    # SuperLU's own count of stored L and U entries; extracting lu.L and
    # lu.U would copy the whole factor.
    rec.last["dpg_solver.lu_fill_nnz"] = lu.nnz


def _after_infsup(rec, args, kwargs, r):
    # computed, not measured: float64 bytes of the free-dof dense B, G_Y, G_X
    nbytes = 8 * (r.ntest * r.ntrial + r.ntest**2 + r.ntrial**2)
    rec.last["infsup_lab.dense_bytes"] = max(rec.last.get("infsup_lab.dense_bytes", 0), nbytes)


def _after_graded(rec, args, kwargs, _):
    rec.counts["exact_solutions.graded_elements"] += 1


def _local_blocks_name(rec):
    return "forms.local_blocks.estimator" if rec.inside(ESTIMATOR_SPAN) else "forms.local_blocks.solve"


# (module, attribute, span name or a function of the recorder, after-hook)
SPANNED = [
    ("dpgelast.mesh", "build_square_mesh", "mesh.build", _after_mesh),
    ("dpgelast.mesh", "build_lshape_mesh", "mesh.build", _after_mesh),
    ("dpgelast.mesh", "uniform_refine", "mesh.uniform_refine", _after_mesh),
    ("dpgelast.mesh", "refine", "mesh.refine", _after_mesh),
    ("dpgelast.mesh", "skeleton", "mesh.skeleton", None),
    ("dpgelast.mesh", "write_vtk", "mesh.write_vtk", _after_vtk),
    ("dpgelast.forms", "formulation", "spaces.formulation", None),
    ("dpgelast.spaces", "h1_space", "spaces.h1", None),
    ("dpgelast.spaces", "broken_h1_space", "spaces.h1", None),
    ("dpgelast.spaces", "hdiv_space", "spaces.hdiv", None),
    ("dpgelast.spaces", "broken_hdiv_space", "spaces.hdiv", None),
    ("dpgelast.spaces", "l2_space", "spaces.l2", None),
    ("dpgelast.spaces", "trace_spaces", "spaces.trace", None),
    ("dpgelast.spaces", "evaluate_field", "spaces.evaluate", None),
    ("dpgelast.spaces", "evaluate_field_gradient", "spaces.evaluate", None),
    ("dpgelast.forms", "assemble_local_blocks", _local_blocks_name, _after_blocks),
    ("dpgelast.forms", "l2_slot_residual_ops", "forms.l2_ops", None),
    ("dpgelast.dpg_solver", "assemble_and_solve", "dpg_solver.solve", None),
    ("dpgelast.dpg_solver", "assemble_normal_equations", "dpg_solver.scatter", _after_system),
    ("dpgelast.dpg_solver", "condense_local", "dpg_solver.condense", None),
    ("dpgelast.dpg_solver", "_solve_constrained", "dpg_solver.factor_solve", _after_solve),
    ("dpgelast.residual_adaptivity", "element_residuals", ESTIMATOR_SPAN, None),
    ("dpgelast.residual_adaptivity", "mark", "residual_adaptivity.mark", None),
    ("dpgelast.exact_solutions", "error_norms", "exact_solutions.error_norms", None),
    ("dpgelast.infsup_lab", "discrete_infsup", "infsup_lab.discrete_infsup", _after_infsup),
]
SPANNED_METHODS = [
    ("dpgelast.persistence_formats", "StudyManifest", "add_artifact", "persistence_formats.manifest"),
    ("dpgelast.persistence_formats", "StudyManifest", "save", "persistence_formats.manifest"),
]
# counted without a span; their time stays in the caller's self time
COUNTED = [
    ("scipy.sparse.linalg", "splu", _after_splu),
    ("dpgelast.exact_solutions", "graded_triangle_rule", _after_graded),
]


def _wrap(rec, fn, name, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.enter(name(rec) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(span)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapper


def _count(rec, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(rec, args, kwargs, result)
        return result

    return wrapper


def _rebind(original, wrapper, modules):
    """Point every module attribute bound to `original` at `wrapper`."""
    n = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                n += 1
    if n == 0:
        raise RuntimeError(f"no module binds {original.__qualname__}")


def install(rec: Recorder):
    """Wrap every listed function in this process. Call once, before the
    study and after dpgelast's modules are imported."""
    for mod in ("mesh", "spaces", "forms", "dpg_solver", "residual_adaptivity",
                "exact_solutions", "infsup_lab", "persistence_formats", "cli_io"):
        importlib.import_module("dpgelast." + mod)
    package = [m for name, m in list(sys.modules.items()) if name.startswith("dpgelast")]
    for mod, attr, name, after in SPANNED:
        fn = getattr(importlib.import_module(mod), attr)
        _rebind(fn, _wrap(rec, fn, name, after), package)
    for mod, cls_name, attr, name in SPANNED_METHODS:
        cls = getattr(importlib.import_module(mod), cls_name)
        setattr(cls, attr, _wrap(rec, getattr(cls, attr), name, None))
    for mod, attr, after in COUNTED:
        module = importlib.import_module(mod)
        fn = getattr(module, attr)
        targets = package if mod.startswith("dpgelast") else [module]
        _rebind(fn, _count(rec, fn, after), targets)


# ---------------------------------------------------------------------------
# per-layer metrics

# Every span's self time lands in exactly one metric, so the layer self
# times add up to the traced study time.
SELF_TIME = {
    ROOT_SPAN: "cli_io.self_s",
    "mesh.build": "mesh.build.self_s",
    "mesh.uniform_refine": "mesh.refine.self_s",
    "mesh.refine": "mesh.refine.self_s",
    "mesh.skeleton": "mesh.skeleton.self_s",
    "mesh.write_vtk": "mesh.write_vtk.self_s",
    "spaces.formulation": "spaces.build.self_s",
    "spaces.l2": "spaces.build.self_s",
    "spaces.trace": "spaces.build.self_s",
    "spaces.h1": "spaces.h1.self_s",
    "spaces.hdiv": "spaces.hdiv.self_s",
    "spaces.evaluate": "spaces.evaluate.self_s",
    "forms.local_blocks.solve": "forms.local_blocks.solve.self_s",
    "forms.local_blocks.estimator": "forms.local_blocks.estimator.self_s",
    "forms.l2_ops": "forms.l2_ops.self_s",
    "dpg_solver.solve": "dpg_solver.factor_solve.self_s",
    "dpg_solver.factor_solve": "dpg_solver.factor_solve.self_s",
    "dpg_solver.scatter": "dpg_solver.scatter.self_s",
    "dpg_solver.condense": "dpg_solver.condense.self_s",
    ESTIMATOR_SPAN: "residual_adaptivity.estimator.self_s",
    "residual_adaptivity.mark": "residual_adaptivity.mark.self_s",
    "exact_solutions.error_norms": "exact_solutions.error_norms.self_s",
    "infsup_lab.discrete_infsup": "infsup_lab.discrete_infsup.self_s",
    "persistence_formats.manifest": "persistence_formats.manifest.self_s",
}
CALLS = {
    "mesh.refine": "mesh.refine.calls",
    "mesh.skeleton": "mesh.skeleton.calls",
    "spaces.formulation": "spaces.build.calls",
    "spaces.evaluate": "spaces.evaluate.calls",
    "dpg_solver.solve": "dpg_solver.solves",
    ESTIMATOR_SPAN: "residual_adaptivity.estimator.calls",
    "infsup_lab.discrete_infsup": "infsup_lab.discrete_infsup.calls",
}
HOOKED = [
    "mesh.write_vtk.bytes",
    "mesh.triangles_final",
    "forms.local_blocks.elements",
    "dpg_solver.ndof",
    "dpg_solver.free_dofs",
    "dpg_solver.K_nnz",
    "dpg_solver.lu_fill_nnz",
    "exact_solutions.graded_elements",
    "infsup_lab.dense_bytes",
]


def layer_metrics(trace: dict, fallbacks: int, large_residual: int) -> dict:
    """Per-layer metrics of one traced study, plus `trace.study_s`."""
    spans = trace["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    self_s = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            self_s[s["parent"]] -= d
    m = {name: 0.0 for name in set(SELF_TIME.values())}
    m.update({name: 0 for name in CALLS.values()})
    root = [s for s in spans if s["name"] == ROOT_SPAN]
    if len(root) != 1 or root[0]["parent"] is not None:
        raise RuntimeError("trace must hold exactly one root study span")
    for s, t in zip(spans, self_s):
        m[SELF_TIME[s["name"]]] += t
        if s["name"] in CALLS:
            m[CALLS[s["name"]]] += 1
    for name in HOOKED:
        m[name] = trace["counts"].get(name, trace["last"].get(name, 0))
    solves = m["dpg_solver.solves"]
    m["mesh.skeleton.per_solve"] = m["mesh.skeleton.calls"] / solves if solves else 0.0
    m["spaces.build.per_solve"] = m["spaces.build.calls"] / solves if solves else 0.0
    m["dpg_solver.fallbacks"] = fallbacks
    m["dpg_solver.large_residual"] = large_residual
    study = dur[root[0]["id"]]
    m["trace.study_s"] = study
    m["trace.coverage"] = 1.0 - m["cli_io.self_s"] / study
    return m

