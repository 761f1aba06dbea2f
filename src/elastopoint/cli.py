"""Command line front end: studies, single solves, diagnostics, reports.

Loads files are plain text, one record per line:

    point <x> <y> [<z>] <fx> <fy> [<fz>]

with `#` starting a comment. CSV reports use the fixed header
`level,n,h,ndof,error_l2,eoc`, 12 significant digits, LF endings, and
a blank EOC on the first row. Displacement fields are written as
legacy ASCII VTK unstructured grids (triangles/tetrahedra, 3-component
vectors, 2D fields zero-padded).

The environment variable ELASTOPOINT_THREADS caps parallelism; every
kernel in this package is serial and deterministic, so any accepted
value (0/1 = explicit serial mode) runs identically.
"""

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import LameParams, PointLoadSet, build_dof_map
from .convergence import (_solve_level, manufactured_sine_2d,
                          run_convergence_study)
from .mesh import build_unit_box_mesh
from .multigrid import build_levels
from .spectral import discrete_korn_constant, weighted_pairing_demo
from .weights import WeightSpec, default_ball_family, estimate_a2

_VTK_CELL_TYPE = {2: 5, 3: 10}  # triangle, tetrahedron


@dataclass(frozen=True)
class RunConfig:
    """Validated per-invocation settings, mirroring the CLI flags."""

    command: str
    dim: int
    levels: tuple = ()
    mu: float = 1.0
    lam: float = 1.0
    loads_path: Optional[str] = None
    manufactured: bool = False
    alpha: Optional[float] = None
    centers: tuple = ()
    tol: float = 1e-10
    ref_extra: int = 2
    out: Optional[str] = None


def _fmt(x):
    return format(float(x), ".12g")


def parse_loads_file(path, dim):
    """Read `point ...` records into a PointLoadSet.

    Raises ValueError with the line number for malformed records and
    for locations not strictly inside the unit box.
    """
    points, forces = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if toks[0] != "point":
                raise ValueError("%s:%d: expected 'point', got %r"
                                 % (path, lineno, toks[0]))
            if len(toks) != 1 + 2 * dim:
                raise ValueError("%s:%d: expected %d numbers after 'point' "
                                 "for dim %d, got %d"
                                 % (path, lineno, 2 * dim, dim,
                                    len(toks) - 1))
            try:
                nums = [float(t) for t in toks[1:]]
            except ValueError:
                raise ValueError("%s:%d: malformed number"
                                 % (path, lineno)) from None
            loc = nums[:dim]
            if not all(0.0 < c < 1.0 for c in loc):
                raise ValueError("%s:%d: load location must be strictly "
                                 "inside the unit box" % (path, lineno))
            points.append(loc)
            forces.append(nums[dim:])
    if not points:
        raise ValueError("%s: no load records found" % path)
    return PointLoadSet(np.array(points), np.array(forces))


def write_loads_file(loads, path):
    """Inverse of parse_loads_file; round-trips values exactly."""
    with open(path, "w", newline="") as fh:
        for xk, fk in zip(loads.points, loads.forces):
            nums = " ".join(format(v, ".17g") for v in list(xk) + list(fk))
            fh.write("point %s\n" % nums)


def write_csv_report(report, path):
    """Convergence table with the fixed schema and LF endings."""
    lines = ["level,n,h,ndof,error_l2,eoc"]
    for row in report.rows:
        eoc_s = "" if row.eoc is None else _fmt(row.eoc)
        lines.append("%d,%d,%s,%d,%s,%s"
                     % (row.level, row.n, _fmt(row.h), row.ndof,
                        _fmt(row.error_l2), eoc_s))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtk_field(mesh, field, path):
    """Legacy ASCII VTK unstructured grid with a displacement field."""
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.num_vertices, mesh.dim):
        raise ValueError("field must be (num_vertices, dim)")
    pts = np.zeros((mesh.num_vertices, 3))
    pts[:, :mesh.dim] = mesh.vertices
    vec = np.zeros((mesh.num_vertices, 3))
    vec[:, :mesh.dim] = field
    nv_cell = mesh.dim + 1

    # one %-format per section; "%.16g" and "%d" give the same bytes as
    # formatting each line on its own
    xyz = "%.16g %.16g %.16g\n"
    cell_rows = np.column_stack([np.full(mesh.num_cells, nv_cell),
                                 mesh.cells])
    with open(path, "w", newline="") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("displacement field\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.num_vertices)
        fh.write(xyz * mesh.num_vertices % tuple(pts.ravel().tolist()))
        fh.write("CELLS %d %d\n" % (mesh.num_cells,
                                    mesh.num_cells * (nv_cell + 1)))
        fh.write(("%d" + " %d" * nv_cell + "\n") * mesh.num_cells
                 % tuple(cell_rows.ravel().tolist()))
        fh.write("CELL_TYPES %d\n" % mesh.num_cells)
        fh.write("%d\n" % _VTK_CELL_TYPE[mesh.dim] * mesh.num_cells)
        fh.write("POINT_DATA %d\n" % mesh.num_vertices)
        fh.write("VECTORS displacement double\n")
        fh.write(xyz * mesh.num_vertices % tuple(vec.ravel().tolist()))


def _check_threads_env():
    raw = os.environ.get("ELASTOPOINT_THREADS")
    if raw is None:
        return
    try:
        val = int(raw)
    except ValueError:
        raise ValueError("ELASTOPOINT_THREADS must be a nonnegative "
                         "integer, got %r" % raw) from None
    if val < 0:
        raise ValueError("ELASTOPOINT_THREADS must be >= 0, got %d" % val)


def _parse_centers(args, dim, default_mid=True):
    raw = getattr(args, "center", None)
    if not raw:
        if default_mid:
            return (tuple([0.5] * dim),)
        return ()
    centers = []
    for group in raw:
        if len(group) != dim:
            raise ValueError("--center needs %d coordinates, got %d"
                             % (dim, len(group)))
        centers.append(tuple(group))
    return tuple(centers)


def _config(args):
    levels = tuple(int(n) for n in getattr(args, "levels", ()) or ())
    return RunConfig(command=args.command, dim=args.dim, levels=levels,
                     mu=getattr(args, "mu", 1.0),
                     lam=getattr(args, "lam", 1.0),
                     loads_path=getattr(args, "loads", None),
                     manufactured=getattr(args, "manufactured", False),
                     alpha=getattr(args, "alpha", None),
                     centers=_parse_centers(args, args.dim),
                     tol=getattr(args, "tol", 1e-10),
                     ref_extra=getattr(args, "ref_extra", 2),
                     out=getattr(args, "out", None))


def _forcing_from(cfg):
    params = LameParams(cfg.mu, cfg.lam)
    if cfg.manufactured:
        if cfg.dim != 2:
            raise ValueError("--manufactured is available in 2D only")
        if cfg.loads_path:
            raise ValueError("--loads and --manufactured are exclusive")
        return params, manufactured_sine_2d(params)
    if not cfg.loads_path:
        raise ValueError("either --loads FILE or --manufactured is required")
    return params, parse_loads_file(cfg.loads_path, cfg.dim)


def _cmd_converge(args):
    cfg = _config(args)
    if not cfg.out:
        raise ValueError("--out FILE is required for converge")
    params, forcing = _forcing_from(cfg)
    report = run_convergence_study(cfg.dim, cfg.levels, params, forcing,
                                   ref_extra_levels=cfg.ref_extra,
                                   rel_tol=cfg.tol)
    write_csv_report(report, cfg.out)
    for row in report.rows:
        eoc_s = "-" if row.eoc is None else _fmt(row.eoc)
        print("level %d: n=%d h=%s ndof=%d error=%s eoc=%s"
              % (row.level, row.n, _fmt(row.h), row.ndof,
                 _fmt(row.error_l2), eoc_s))
    print("wrote %s" % cfg.out)
    return 0


def _cmd_solve(args):
    cfg = _config(args)
    if len(cfg.levels) != 1:
        raise ValueError("solve expects exactly one --levels value")
    params, forcing = _forcing_from(cfg)
    if not isinstance(forcing, PointLoadSet):
        raise ValueError("solve requires --loads")
    n = cfg.levels[0]
    mesh, full, n_free, stats = _solve_level(
        build_levels(cfg.dim, n, params), forcing, cfg.tol, None)
    print("n=%d h=%s ndof=%d iterations=%d residual=%s"
          % (n, _fmt(mesh.h), n_free, stats.iterations,
             _fmt(stats.final_relative_residual)))
    if cfg.out:
        write_vtk_field(mesh, full, cfg.out)
        print("wrote %s" % cfg.out)
    return 0


def _weight_from(cfg):
    if cfg.alpha is None:
        return None
    return WeightSpec(np.array(cfg.centers), cfg.alpha)


def _cmd_korn(args):
    cfg = _config(args)
    spec = _weight_from(cfg)
    lines = ["n,h,ndof,lambda_min,korn_constant"]
    for n in cfg.levels:
        mesh = build_unit_box_mesh(cfg.dim, n)
        dofmap = build_dof_map(mesh)
        ch = discrete_korn_constant(mesh, spec, dofmap)
        lam_min = 1.0 / (ch * ch)
        lines.append("%d,%s,%d,%s,%s" % (n, _fmt(mesh.h), dofmap.n_free,
                                         _fmt(lam_min), _fmt(ch)))
        print("n=%d lambda_min=%s korn_constant=%s"
              % (n, _fmt(lam_min), _fmt(ch)))
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        print("wrote %s" % cfg.out)
    return 0


def _cmd_infsup_demo(args):
    cfg = _config(args)
    alpha = 0.0 if cfg.alpha is None else cfg.alpha
    s = alpha / cfg.dim
    if len(cfg.centers) != 1:
        raise ValueError("infsup-demo expects a single --center")
    center = np.array(cfg.centers[0])
    lines = ["n,s,alpha_A_kernel,alpha_A_full,beta_B,beta_C,"
             "injective_on_kernels"]
    for n in cfg.levels:
        mesh = build_unit_box_mesh(cfg.dim, n)
        rep = weighted_pairing_demo(mesh, s, center)
        lines.append("%d,%s,%s,%s,%s,%s,%d"
                     % (n, _fmt(s), _fmt(rep.alpha_A_kernel),
                        _fmt(rep.alpha_A_full), _fmt(rep.beta_B),
                        _fmt(rep.beta_C), int(rep.injective_on_kernels)))
        print("n=%d s=%s alpha_kernel=%s alpha_full=%s beta_B=%s beta_C=%s"
              % (n, _fmt(s), _fmt(rep.alpha_A_kernel),
                 _fmt(rep.alpha_A_full), _fmt(rep.beta_B), _fmt(rep.beta_C)))
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        print("wrote %s" % cfg.out)
    return 0


def _cmd_a2(args):
    cfg = _config(args)
    if cfg.alpha is None:
        raise ValueError("--alpha is required for a2")
    spec = WeightSpec(np.array(cfg.centers), cfg.alpha)
    balls, radii = default_ball_family(cfg.dim, cfg.centers[0])
    est = estimate_a2(spec, balls, radii)
    print("a2 characteristic (sampled lower bound): %s" % _fmt(est))
    print("alpha=%s centers=%d balls=%d" % (_fmt(cfg.alpha),
                                            len(cfg.centers), len(radii)))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="elastopoint",
        description="P1 finite elements for linear elasticity with point "
                    "forces: convergence studies and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, levels=True):
        p.add_argument("--dim", type=int, choices=(2, 3), required=True)
        if levels:
            p.add_argument("--levels", type=int, nargs="+", required=True,
                           metavar="N")
        p.add_argument("--mu", type=float, default=1.0)
        p.add_argument("--lambda", dest="lam", type=float, default=1.0)
        p.add_argument("--alpha", type=float, default=None,
                       help="weight exponent in (-dim, dim)")
        p.add_argument("--center", type=float, nargs="+", action="append",
                       metavar="X", help="weight/load center, repeatable")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="relative CG tolerance")
        p.add_argument("--out", default=None, help="output file")

    p = sub.add_parser("converge", help="convergence study to CSV")
    common(p)
    p.add_argument("--loads", default=None, help="point-loads file")
    p.add_argument("--manufactured", action="store_true",
                   help="smooth 2D benchmark instead of point loads")
    p.add_argument("--ref-extra", dest="ref_extra", type=int, default=2,
                   help="extra dyadic levels for the reference solve")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("solve", help="single-level solve to VTK")
    common(p)
    p.add_argument("--loads", required=True, help="point-loads file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("korn", help="discrete Korn constants")
    common(p)
    p.set_defaults(func=_cmd_korn)

    p = sub.add_parser("infsup-demo",
                       help="kernel vs full-space inf-sup contrast")
    common(p)
    p.set_defaults(func=_cmd_infsup_demo)

    p = sub.add_parser("a2", help="Muckenhoupt A2 estimate to stdout")
    common(p, levels=False)
    p.set_defaults(func=_cmd_a2)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_threads_env()
        return args.func(args)
    except (ValueError, OSError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
