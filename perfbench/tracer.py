"""Outside-in span tracer for elastopoint's layers.

`install` wraps each function in LAYERS at every place an
`elastopoint.*` module binds it, matched by identity, so both
`module.func` calls and names imported with `from .x import y` are
traced. Spans are kept in memory as plain lists with a parent link and
the index of the CLI call they belong to; the client process writes
them out when its calls are done. `layer_metrics` turns the spans of
one traced run into the per-layer metrics, using self time: a span's
duration minus the time covered by its child spans.
"""

import functools
import os
import sys
import time

import numpy as np

# (module, function) -> layer key; self times are summed per key
LAYERS = {
    ("mesh", "build_unit_box_mesh"): "mesh.build",
    ("mesh", "cell_geometry"): "mesh.geometry",
    ("mesh", "cell_volumes"): "mesh.geometry",
    ("mesh", "locate_point"): "mesh.locate",
    ("mesh", "cells_containing_point"): "mesh.locate",
    ("assembly", "build_dof_map"): "assembly.dofmap",
    ("assembly", "assemble_stiffness"): "assembly.form",
    ("assembly", "vector_p1_form_matrix"): "assembly.form",
    ("assembly", "assemble_point_load"): "assembly.load",
    ("assembly", "point_load_nodal"): "assembly.load",
    ("assembly", "assemble_smooth_load"): "assembly.load",
    ("solver", "cg_solve"): "solver.cg",
    ("convergence", "run_convergence_study"): "convergence.study",
    ("convergence", "manufactured_sine_2d"): "convergence.study",
    ("convergence", "l2_error_nested"): "convergence.error",
    ("convergence", "l2_error_quadrature"): "convergence.error",
    ("convergence", "l2_norm_sq_p1"): "convergence.error",
    ("weights", "cell_weight_integrals"): "weights.integrals",
    ("weights", "default_ball_family"): "weights.a2",
    ("weights", "estimate_a2"): "weights.a2",
    ("weights", "a2_ball_products"): "weights.a2",
    ("spectral", "discrete_korn_constant"): "spectral.korn",
    ("spectral", "weighted_pairing_matrices"): "spectral.pairing",
    ("spectral", "weighted_pairing_demo"): "spectral.report",
    ("spectral", "theorem31_report"): "spectral.report",
    ("spectral", "discrete_infsup"): "spectral.report",
    ("spectral", "kernel_basis"): "spectral.report",
    ("cli", "main"): "cli.self",
    ("cli", "parse_loads_file"): "cli.self",
    ("cli", "write_csv_report"): "cli.csv",
    ("cli", "write_vtk_field"): "cli.vtk",
}

# numpy operand streams of n float64 values that one iteration of the
# Jacobi-CG loop in solver.cg_solve reads or writes, besides the matrix:
# A@p 2, p@Ap 2, x += alpha*p 5, r -= alpha*Ap 5, norm(r) 1,
# z = inv_diag*r 3, r@z 2, p = z + beta*p 5
CG_VECTOR_STREAMS = 25

# every per-layer metric a traced run reports, with its unit; the
# machine and overhead entries are filled in by the runner
PER_LAYER_UNITS = {
    "mesh.build_s": "s", "mesh.build_calls": "count",
    "mesh.geometry_s": "s", "mesh.geometry_calls": "count",
    "mesh.locate_s": "s",
    "assembly.dofmap_s": "s", "assembly.dofmap_calls": "count",
    "assembly.form_s": "s", "assembly.cells_per_s": "1/s",
    "assembly.nnz": "count", "assembly.load_s": "s",
    "solver.cg_s": "s", "solver.cg_calls": "count",
    "solver.cg_iterations": "count", "solver.cg_ms_per_iter": "ms",
    "solver.converged_frac": "fraction", "solver.max_rel_residual": "ratio",
    "solver.spmv_bytes_per_iter": "B", "solver.cg_gbs": "GB/s",
    "convergence.study_s": "s", "convergence.error_s": "s",
    "weights.integrals_s": "s", "weights.a2_s": "s",
    "spectral.korn_s": "s", "spectral.pairing_s": "s",
    "spectral.report_s": "s", "spectral.dense_mb": "MB",
    "cli.csv_s": "s", "cli.vtk_s": "s", "cli.vtk_mb": "MB",
    "cli.self_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_frac": "fraction",
    "machine.triad_gbs": "GB/s",
}


def _form_extra(args, kwargs, out):
    return {"cells": int(args[0].num_cells), "nnz": int(out.nnz)}


def _cg_extra(args, kwargs, out):
    A = args[0]
    x, stats = out
    csr = sum(int(getattr(A, k).nbytes) for k in ("data", "indices", "indptr"))
    return {"iterations": int(stats.iterations),
            "converged": bool(stats.converged),
            "residual": float(stats.final_relative_residual),
            "bytes_per_iter": csr + CG_VECTOR_STREAMS * 8 * int(x.shape[0])}


def _pairing_extra(args, kwargs, out):
    return {"mb": sum(int(np.asarray(a).nbytes) for a in out) / 1e6}


def _vtk_extra(args, kwargs, out):
    return {"mb": os.path.getsize(args[2]) / 1e6}


EXTRAS = {
    ("assembly", "vector_p1_form_matrix"): _form_extra,
    ("solver", "cg_solve"): _cg_extra,
    ("spectral", "weighted_pairing_matrices"): _pairing_extra,
    ("cli", "write_vtk_field"): _vtk_extra,
}


class Tracer:
    """Span store; each span is [key, start, end, parent, call, extra]."""

    def __init__(self):
        self.spans = []
        self.call = -1
        self.bindings = 0
        self._stack = []

    def wrap(self, fn, key, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [key, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.call, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Rebind every traced function in every loaded elastopoint module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "elastopoint"
                                         or name.startswith("elastopoint."))]
        wrappers = {}
        for (mod, name), key in LAYERS.items():
            fn = getattr(sys.modules["elastopoint." + mod], name)
            wrappers[id(fn)] = (fn, self.wrap(fn, key,
                                              EXTRAS.get((mod, name))))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.bindings += 1


def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced run; ratios with base 0 read 0."""
    own = self_times(spans)
    secs, calls, extras = {}, {}, {}
    for s, t in zip(spans, own):
        secs[s[0]] = secs.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1
        if s[5] is not None:
            extras.setdefault(s[0], []).append(s[5])

    def total(key, field):
        return sum(e[field] for e in extras.get(key, []))

    form = extras.get("assembly.form", [])
    cg = extras.get("solver.cg", [])
    iters = total("solver.cg", "iterations")
    cg_bytes = sum(e["bytes_per_iter"] * e["iterations"] for e in cg)
    cg_s = secs.get("solver.cg", 0.0)
    return {
        "mesh.build_s": secs.get("mesh.build", 0.0),
        "mesh.build_calls": calls.get("mesh.build", 0),
        "mesh.geometry_s": secs.get("mesh.geometry", 0.0),
        "mesh.geometry_calls": calls.get("mesh.geometry", 0),
        "mesh.locate_s": secs.get("mesh.locate", 0.0),
        "assembly.dofmap_s": secs.get("assembly.dofmap", 0.0),
        "assembly.dofmap_calls": calls.get("assembly.dofmap", 0),
        "assembly.form_s": secs.get("assembly.form", 0.0),
        "assembly.cells_per_s": _ratio(total("assembly.form", "cells"),
                                       secs.get("assembly.form", 0.0)),
        "assembly.nnz": sum(e["nnz"] for e in form),
        "assembly.load_s": secs.get("assembly.load", 0.0),
        "solver.cg_s": cg_s,
        "solver.cg_calls": len(cg),
        "solver.cg_iterations": iters,
        "solver.cg_ms_per_iter": 1e3 * _ratio(cg_s, iters),
        "solver.converged_frac": _ratio(sum(e["converged"] for e in cg),
                                        len(cg)),
        "solver.max_rel_residual": max([e["residual"] for e in cg],
                                       default=0.0),
        "solver.spmv_bytes_per_iter": _ratio(cg_bytes, iters),
        "solver.cg_gbs": _ratio(cg_bytes, cg_s) / 1e9,
        "convergence.study_s": secs.get("convergence.study", 0.0),
        "convergence.error_s": secs.get("convergence.error", 0.0),
        "weights.integrals_s": secs.get("weights.integrals", 0.0),
        "weights.a2_s": secs.get("weights.a2", 0.0),
        "spectral.korn_s": secs.get("spectral.korn", 0.0),
        "spectral.pairing_s": secs.get("spectral.pairing", 0.0),
        "spectral.report_s": secs.get("spectral.report", 0.0),
        "spectral.dense_mb": max([e["mb"] for e in
                                  extras.get("spectral.pairing", [])],
                                 default=0.0),
        "cli.csv_s": secs.get("cli.csv", 0.0),
        "cli.vtk_s": secs.get("cli.vtk", 0.0),
        "cli.vtk_mb": total("cli.vtk", "mb"),
        "cli.self_s": secs.get("cli.self", 0.0),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(own),
    }
