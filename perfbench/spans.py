"""Spans around the calls into each hpeig module, recorded from outside.

The program is not changed: `install` replaces public functions in the
namespaces that call them with wrappers that record a span (name,
start, end, parent) and, for some, a count read off the result.
Spans stay in memory; `per_layer` turns them into the per-layer
metrics once the workload has finished.

A layer's self time is its span durations minus the time covered by
its direct child spans, so `tri_shapes` inside `estimate` or the
SuperLU factorisation inside `solve_lowest` are charged once.
"""

import importlib
import time
from collections import defaultdict

# (span name, defining module, attribute, modules whose namespace holds
# the name the callers look up).  Only callers' namespaces are patched,
# so mesh.uniform_refine keeps its inner refine calls as its own time.
TARGETS = [
    ("runner.study", "runner", "run_study", ["runner"]),
    ("mesh.refine", "mesh", "refine", ["adaptivity"]),
    ("mesh.uniform_refine", "mesh", "uniform_refine", ["defects"]),
    ("space.numbering", "space", "DofHandler",
     ["space", "adaptivity", "defects"]),
    ("space.transfer", "space", "transfer", ["adaptivity", "defects"]),
    ("basis.tri_shapes", "basis", "tri_shapes",
     ["estimator", "adaptivity", "space", "assembly"]),
    ("assembly.stiffness", "assembly", "assemble_stiffness",
     ["assembly", "adaptivity", "defects"]),
    ("assembly.mass", "assembly", "assemble_mass",
     ["assembly", "adaptivity"]),
    ("assembly.load", "assembly", "assemble_load", ["defects"]),
    ("eigensolve.solve", "eigensolve", "solve_lowest",
     ["eigensolve", "adaptivity"]),
    ("estimator.estimate", "estimator", "estimate", ["adaptivity"]),
    ("estimator.residual", "estimator", "element_residual_norms",
     ["estimator"]),
    ("estimator.jumps", "estimator", "edge_jump_norms", ["estimator"]),
    ("adaptivity.mark", "adaptivity", "mark_fixed_fraction",
     ["adaptivity"]),
    ("adaptivity.decide", "adaptivity", "decide_refinements",
     ["adaptivity"]),
    ("adaptivity.analyticity", "adaptivity", "estimate_analyticity",
     ["adaptivity"]),
    ("adaptivity.smooth", "adaptivity", "smooth_degrees", ["adaptivity"]),
    ("defects.checks", "defects", "oracle_checks", ["defects"]),
    ("defects.report", "defects", "defect_report", ["defects"]),
    ("defects.prolong", "defects", "prolong", ["defects"]),
    ("spectra.verify", "spectra", "verify_references", ["spectra"]),
    ("spectra.bessel_root", "spectra", "bessel_root", ["spectra"]),
]


class Tracer:
    """Span recorder; spans are [name, start, end, parent index]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, observe=None):
        """Return fn wrapped in a span; observe(tracer, result, index)."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(
                [name, self.clock(), None,
                 self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if observe is not None:
                observe(self, result, idx)
            return result
        return traced

    def duration(self, idx):
        _, start, end, _ = self.spans[idx]
        return end - start


def self_times(spans):
    """Per span name: (calls, total seconds, self seconds).

    Self time is each span's duration minus the durations of its
    direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for idx, (name, start, end, _) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start),
                     own + (end - start) - child[idx])
    return out


class _TracedLU:
    """SuperLU factor whose solves are spans; other attributes pass."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _traced_splu(tracer, layer, splu):
    def observe(tr, lu, idx):
        key = f"{layer}.lu_nnz"
        tr.counts[key] = max(tr.counts[key], lu.nnz)
    factor = tracer.wrap(f"{layer}.factor", splu, observe)

    def traced(*args, **kwargs):
        lu = factor(*args, **kwargs)
        return _TracedLU(lu, tracer.wrap(f"{layer}.lu_solve", lu.solve))
    return traced


def _observers():
    def add(key, value_of):
        def observe(tr, result, idx):
            tr.counts[key] += value_of(result)
        return observe

    def last_mesh(tr, mesh, idx):
        tr.counts["mesh.elements_final"] = mesh.n_elements

    def solve(tr, cluster, idx):
        tr.counts["eigensolve.iterations"] += cluster.iterations
        if cluster.iterations == 0:  # the dense path does not iterate
            tr.counts["eigensolve.dense_calls"] += 1
            tr.counts["eigensolve.dense_s"] += tr.duration(idx)

    def decide(tr, result, idx):
        h_marked, p_marked, _ = result
        tr.counts["adaptivity.h_marked"] += len(h_marked)
        tr.counts["adaptivity.p_marked"] += len(p_marked)

    return {
        "mesh.refine": last_mesh,
        "mesh.uniform_refine": last_mesh,
        "space.numbering": add("space.dofs_total", lambda h: h.n_dofs),
        "assembly.stiffness": add("assembly.nnz", lambda a: a.nnz),
        "assembly.mass": add("assembly.nnz", lambda a: a.nnz),
        "eigensolve.solve": solve,
        "adaptivity.decide": decide,
        "defects.report": add("defects.fine_dofs",
                              lambda r: r[0].fine_dofs),
    }


def install(tracer):
    """Wrap every TARGETS entry and both SuperLU call sites."""
    import scipy.sparse.linalg

    observers = _observers()
    for name, home, attr, callers in TARGETS:
        original = getattr(importlib.import_module(f"hpeig.{home}"), attr)
        wrapped = tracer.wrap(name, original, observers.get(name))
        for caller in callers:
            module = importlib.import_module(f"hpeig.{caller}")
            if getattr(module, attr) is not original:
                raise RuntimeError(f"hpeig.{caller}.{attr} is not "
                                   f"hpeig.{home}.{attr}")
            setattr(module, attr, wrapped)
    # eigensolve looks splu up on scipy.sparse.linalg, defects imports it
    defects = importlib.import_module("hpeig.defects")
    defects.splu = _traced_splu(tracer, "defects", defects.splu)
    scipy.sparse.linalg.splu = _traced_splu(tracer, "eigensolve",
                                            scipy.sparse.linalg.splu)


# per-layer metric -> (span name, "calls" | "self" | "total")
_FROM_SPANS = {
    "mesh.refine_s": ("mesh.refine", "self"),
    "mesh.refine_calls": ("mesh.refine", "calls"),
    "mesh.uniform_refine_s": ("mesh.uniform_refine", "self"),
    "space.numbering_s": ("space.numbering", "self"),
    "space.transfer_s": ("space.transfer", "self"),
    "space.transfer_calls": ("space.transfer", "calls"),
    "basis.tri_shapes_s": ("basis.tri_shapes", "self"),
    "basis.tri_shapes_calls": ("basis.tri_shapes", "calls"),
    "assembly.stiffness_s": ("assembly.stiffness", "self"),
    "assembly.mass_s": ("assembly.mass", "self"),
    "assembly.load_s": ("assembly.load", "self"),
    "eigensolve.solve_s": ("eigensolve.solve", "self"),
    "eigensolve.calls": ("eigensolve.solve", "calls"),
    "eigensolve.factor_s": ("eigensolve.factor", "self"),
    "eigensolve.lu_solve_s": ("eigensolve.lu_solve", "self"),
    "estimator.estimate_s": ("estimator.estimate", "self"),
    "estimator.residual_s": ("estimator.residual", "self"),
    "estimator.jumps_s": ("estimator.jumps", "self"),
    "adaptivity.decide_s": ("adaptivity.decide", "self"),
    "adaptivity.analyticity_s": ("adaptivity.analyticity", "self"),
    "adaptivity.mark_s": ("adaptivity.mark", "self"),
    "adaptivity.smooth_s": ("adaptivity.smooth", "self"),
    "defects.checks_s": ("defects.checks", "self"),
    "defects.report_s": ("defects.report", "self"),
    "defects.prolong_s": ("defects.prolong", "self"),
    "defects.factor_s": ("defects.factor", "self"),
    "defects.lu_solve_s": ("defects.lu_solve", "self"),
    "spectra.verify_s": ("spectra.verify", "self"),
    "spectra.bessel_root_s": ("spectra.bessel_root", "self"),
    "spectra.bessel_root_calls": ("spectra.bessel_root", "calls"),
    "runner.study_s": ("runner.study", "total"),
    "runner.self_s": ("runner.study", "self"),
}

_FROM_COUNTS = [
    "mesh.elements_final", "space.dofs_total", "assembly.nnz",
    "eigensolve.iterations", "eigensolve.dense_calls", "eigensolve.dense_s",
    "eigensolve.lu_nnz", "adaptivity.h_marked", "adaptivity.p_marked",
    "defects.lu_nnz", "defects.fine_dofs",
]


def per_layer(tracer):
    """Per-layer metrics of one traced workload; 0 for unused layers."""
    table = self_times(tracer.spans)
    column = {"calls": 0, "total": 1, "self": 2}
    out = {}
    for metric, (span, kind) in _FROM_SPANS.items():
        row = table.get(span)
        out[metric] = float(row[column[kind]]) if row else 0.0
    for metric in _FROM_COUNTS:
        out[metric] = float(tracer.counts.get(metric, 0.0))
    out["trace.spans"] = float(len(tracer.spans))
    return out
