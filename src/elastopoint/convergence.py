"""Nested-mesh error measurement and convergence-rate studies.

For point loads there is no closed-form solution on the box, so the
error at each level is measured against the discrete solution on a
reference mesh at least two dyadic levels finer; nested P1 spaces make
the comparison exact (prolongation introduces no interpolation error).
Smooth manufactured problems are measured against the exact field by
quadrature instead.
"""

from dataclasses import dataclass
from itertools import combinations
from math import factorial, log, sqrt
from typing import Callable, Optional

import numpy as np

from .assembly import (LameParams, PointLoadSet, _shift_offset,
                       assemble_point_load, assemble_smooth_load, from_free,
                       from_padded, to_padded)
from .mesh import _cell_volume, _chain_templates, cell_volumes
from .multigrid import VCycle, build_levels
from .quadrature import simplex_rule
from .solver import cg_solve, default_max_iter


class StudyError(RuntimeError):
    """A level of a convergence study failed to solve."""


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution / forcing pair; both map (m, d) points to (m, d)."""

    u: Callable
    f: Callable
    description: str


@dataclass(frozen=True)
class ReportRow:
    level: int
    n: int
    h: float
    ndof: int
    error_l2: float
    eoc: Optional[float]


@dataclass(frozen=True)
class ConvergenceReport:
    dim: int
    params: LameParams
    load_description: str
    reference_n: Optional[int]
    rows: tuple


def manufactured_sine_2d(params):
    """u = sin(pi x) sin(pi y) (1, 1)^T with its elasticity forcing."""
    mu, lam = params.mu, params.lam
    pi = np.pi

    def u(pts):
        w = np.sin(pi * pts[:, 0]) * np.sin(pi * pts[:, 1])
        return np.stack([w, w], axis=1)

    def f(pts):
        sx, sy = np.sin(pi * pts[:, 0]), np.sin(pi * pts[:, 1])
        cx, cy = np.cos(pi * pts[:, 0]), np.cos(pi * pts[:, 1])
        g = pi * pi * ((3.0 * mu + lam) * sx * sy - (mu + lam) * cx * cy)
        return np.stack([g, g], axis=1)

    return ManufacturedSolution(u, f, "manufactured sine field (2d)")


def l2_norm_sq_p1(mesh, values):
    """Exact integral of |v_h|^2 for a nodal P1 field.

    Uses the closed-form simplex mass: for nodal values v_i on a cell,
    int (sum_i lambda_i v_i)^2 = |T| ((sum v)^2 + sum v^2) / ((d+1)(d+2)).
    The cells of one type are lattice translates of one corner template,
    so their vertex values are d+1 shifted slices of the nodal grid.
    """
    d, n = mesh.dim, mesh.n
    grid = np.asarray(values, dtype=float).reshape((n + 1,) * d + (-1,))
    total = 0.0
    for corners in _chain_templates(d):
        slabs = [grid[tuple(slice(c, c + n) for c in corner)]
                 for corner in corners]
        ssum = sum(slabs)
        total += float((ssum * ssum + sum(v * v for v in slabs)).sum())
    return total * cell_volumes(mesh)[0] / ((d + 1) * (d + 2))


def _l2_norm_sq_padded(mesh, x):
    """Exact integral of |v_h|^2 for the P1 field of a padded vector.

    The field is zero on the boundary, so only interior vertices count,
    and the mass matrix is one stencil there: vertex i couples to
    itself through the (d+1) d! cells at it, and to i + s, for each
    nonzero 0/1 vector s, through the c_s cells that hold that edge,
    the chain-template vertex pairs with offset s. With kappa =
    |T| / ((d+1)(d+2)) that gives
    2 kappa [(d+1) d! sum v.v + sum_s c_s sum v.v_{+s}],
    one dot product per offset (4 in 2D, 8 in 3D) over the padded
    vector, whose zero slots stand for the boundary.
    """
    d, p = mesh.dim, mesh.n - 1
    x = np.asarray(x, dtype=float)
    pairs = {}
    for corners in _chain_templates(d):
        for a, b in combinations(corners, 2):
            s = tuple(np.abs(b - a))
            pairs[s] = pairs.get(s, 0) + 1
    total = (d + 1) * factorial(d) * float(x @ x)
    for s, count in sorted(pairs.items()):
        k = _shift_offset(d, p, s)
        total += count * float(x[:-k] @ x[k:])
    return 2.0 * total * _cell_volume(d, mesh.n) / ((d + 1) * (d + 2))


def l2_error_nested(levels, u_level, u_ref):
    """L2 distance between a level solution and a nested reference.

    levels is a slice family[:k+1] of a build_levels family, finest
    first: the reference is levels[0], the level levels[-1], and the
    reference must be at least two levels finer (k >= 2). u_level and
    u_ref are free-dof vectors. The level solution is scattered into
    the padded layout and prolongated through each level's exact
    prolongation R.T, so the distance has no interpolation error; the
    reference is subtracted in the padded layout, and the difference,
    zero on the boundary, is measured by the interior mass stencil.
    """
    u_level = np.asarray(u_level, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if len(levels) < 3:
        raise ValueError("reference mesh must be >= 2 dyadic levels finer "
                         "(n=%d vs n=%d)" % (levels[-1].mesh.n,
                                             levels[0].mesh.n))
    if (u_level.shape != (levels[-1].mesh.num_free_dofs,)
            or u_ref.shape != (levels[0].mesh.num_free_dofs,)):
        raise ValueError("free-dof vectors do not match the levels")
    v = to_padded(levels[-1].mesh, u_level)
    for lv in levels[-2::-1]:
        # only n = 2 holds no R; its coarser n = 1 has no free dofs
        v = np.zeros(lv.A.shape[0]) if lv.R is None else lv.R.T @ v
    ref_mesh = levels[0].mesh
    v -= to_padded(ref_mesh, u_ref)
    return sqrt(_l2_norm_sq_padded(ref_mesh, v))


def l2_error_quadrature(mesh, values, u_exact):
    """L2 distance between a nodal P1 field and a smooth exact field."""
    bary, qw = simplex_rule(mesh.dim)
    vols = cell_volumes(mesh)
    cells = mesh.cells
    verts = mesh.vertices[cells]
    vals = np.asarray(values, dtype=float)
    pts = np.einsum("qi,xid->xqd", bary, verts)
    ue = np.asarray(u_exact(pts.reshape(-1, mesh.dim)), dtype=float)
    ue = ue.reshape(mesh.num_cells, len(qw), mesh.dim)
    uh = np.einsum("qi,xic->xqc", bary, vals[cells])
    diff2 = ((ue - uh) ** 2).sum(axis=2)
    return sqrt(float(vols @ (diff2 @ qw)))


def eoc(errors, hs):
    """Experimental orders log(e_{i-1}/e_i) / log(h_{i-1}/h_i)."""
    errors = [float(e) for e in errors]
    hs = [float(h) for h in hs]
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching error/h lists of length >= 2")
    if any(e <= 0.0 for e in errors):
        raise ValueError("errors must be positive for rate computation")
    if any(h <= 0.0 for h in hs):
        raise ValueError("mesh sizes must be positive")
    if any(a == b for a, b in zip(hs, hs[1:])):
        raise ValueError("consecutive mesh sizes must differ")
    return [log(errors[i - 1] / errors[i]) / log(hs[i - 1] / hs[i])
            for i in range(1, len(errors))]


def _solve_level(levels, forcing, rel_tol, max_iter):
    """Solve at levels[0] with CG preconditioned by a multigrid V-cycle.

    levels is a tail of a build_levels family; its first entry supplies
    the mesh and the stiffness operator, and the V-cycle runs over the
    coarser entries after it. The V-cycle's buffers are allocated here,
    for this solve only. CG runs in float64 on pencil-padded vectors,
    with the top operator (VCycle.A); max_iter None means
    default_max_iter of the free dofs, so the padding does not raise it.
    Returns (mesh, free-dof solution vector, SolveStats).
    Raises StudyError when CG does not converge.
    """
    precond = VCycle(levels)
    mesh = levels[0].mesh
    if isinstance(forcing, PointLoadSet):
        b = assemble_point_load(mesh, forcing)
    else:
        b = assemble_smooth_load(mesh, forcing.f)
    b = to_padded(mesh, b)
    if max_iter is None:
        max_iter = default_max_iter(mesh.num_free_dofs)
    x, stats = cg_solve(precond.A, b, rel_tol=rel_tol, max_iter=max_iter,
                        precond=precond)
    if not stats.converged:
        raise StudyError(
            "cg did not converge at level n=%d (%d iterations, relative "
            "residual %.3e)" % (mesh.n, stats.iterations,
                                stats.final_relative_residual))
    return mesh, from_padded(mesh, x), stats


def run_convergence_study(dim, levels, params, forcing, ref_extra_levels=2,
                          rel_tol=1e-10, max_iter=None):
    """Solve a doubling sequence of levels and tabulate L2 errors/EOCs.

    forcing is either a PointLoadSet (errors against a nested reference
    ref_extra_levels finer than the last level) or a
    ManufacturedSolution (errors against the exact field).
    """
    levels = [int(n) for n in levels]
    if not levels or levels[0] < 1:
        raise ValueError("levels must start at a positive n")
    for a, b in zip(levels, levels[1:]):
        if b != 2 * a:
            raise ValueError("levels must double: %d does not follow %d"
                             % (b, a))
    ref_extra_levels = int(ref_extra_levels)
    if ref_extra_levels < 2:
        raise ValueError("ref_extra_levels must be >= 2")

    point_load = isinstance(forcing, PointLoadSet)
    if point_load:
        description = "%d point load(s)" % len(forcing)
    else:
        description = forcing.description

    # one nested family at the finest size serves every solve; the
    # levels come first, so a failure names the smallest failing level
    top = levels[-1] * 2 ** ref_extra_levels if point_load else levels[-1]
    family = build_levels(dim, top, params)
    index = {lv.mesh.n: k for k, lv in enumerate(family)}
    solutions = []
    hs = []
    ndofs = []
    for n in levels:
        mesh, x, _ = _solve_level(family[index[n]:], forcing, rel_tol,
                                  max_iter)
        hs.append(mesh.h)
        ndofs.append(mesh.num_free_dofs)
        solutions.append(x)

    errors = []
    if point_load:
        _, x_ref, _ = _solve_level(family, forcing, rel_tol, max_iter)
        for n, x in zip(levels, solutions):
            errors.append(l2_error_nested(family[:index[n] + 1], x, x_ref))
        reference_n = top
    else:
        for n, x in zip(levels, solutions):
            mesh = family[index[n]].mesh
            errors.append(l2_error_quadrature(mesh, from_free(mesh, x),
                                              forcing.u))
        reference_n = None

    rates = eoc(errors, hs) if len(errors) >= 2 else []
    rows = []
    for i, n in enumerate(levels):
        rows.append(ReportRow(level=i + 1, n=n, h=hs[i], ndof=ndofs[i],
                              error_l2=errors[i],
                              eoc=None if i == 0 else rates[i - 1]))
    return ConvergenceReport(dim=dim, params=params,
                             load_description=description,
                             reference_n=reference_n, rows=tuple(rows))
