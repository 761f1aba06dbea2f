"""Command line front end: studies, single solves, diagnostics, reports.

Each subcommand's parser declares only the flags its handler reads
(`_build_parser`); any other flag is a usage error with exit code 2.
The parser is built once per process, by the first `main` call.

Loads files are plain text, one record per line:

    point <x> <y> [<z>] <fx> <fy> [<fz>]

with `#` starting a comment. CSV files have one header line, 12
significant digits and LF endings; the convergence report has the
fixed header `level,n,h,ndof,error_l2,eoc` and a blank EOC on the
first row. Displacement fields are written as legacy ASCII VTK
unstructured grids (triangles/tetrahedra, 3-component vectors, 2D
fields zero-padded).
"""

import argparse
import sys
from itertools import product
from math import factorial

import numpy as np

from .assembly import LameParams, PointLoadSet, from_free
from .convergence import (_solve_level, manufactured_sine_2d,
                          run_convergence_study)
from .mesh import (_cell_vertices, _lattice_coordinates,
                   build_unit_box_mesh)
from .multigrid import build_levels
from .solver import check_rel_tol
from .spectral import (check_band_size, discrete_korn_constant,
                       weighted_pairing_demo)
from .weights import WeightSpec, default_ball_family, estimate_a2

_VTK_CELL_TYPE = {2: 5, 3: 10}  # triangle, tetrahedron
# lines of a VTK section formatted and written at a time
_VTK_BLOCK_LINES = 4096


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


def _write_csv(path, header, rows):
    """A header line and preformatted rows, LF endings."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header] + rows) + "\n")


def write_csv_report(report, path):
    """Convergence table with the fixed schema and LF endings."""
    rows = ["%d,%d,%s,%d,%s,%s"
            % (row.level, row.n, _fmt(row.h), row.ndof, _fmt(row.error_l2),
               "" if row.eoc is None else _fmt(row.eoc))
            for row in report.rows]
    _write_csv(path, "level,n,h,ndof,error_l2,eoc", rows)


def _write_lines(fh, line, blocks):
    """Write each row of each 2-D array in blocks as one %-formatted
    line, one block at a time, so only one block is ever formatted."""
    for block in blocks:
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _row_blocks(rows):
    """The rows in blocks of _VTK_BLOCK_LINES."""
    return (rows[start:start + _VTK_BLOCK_LINES]
            for start in range(0, len(rows), _VTK_BLOCK_LINES))


def _cell_blocks(mesh):
    """The rows of mesh.cells in blocks of whole cubes, at most
    _VTK_BLOCK_LINES cells each (one cube if that is fewer than its d!
    cells), each made from _cell_vertices when it is reached, so the
    whole cell table is never built."""
    types = np.arange(factorial(mesh.dim))
    step = max(_VTK_BLOCK_LINES // len(types), 1)
    cubes = mesh.n ** mesh.dim
    for start in range(0, cubes, step):
        block = _cell_vertices(
            mesh, np.arange(start, min(start + step, cubes))[:, None], types)
        yield block.reshape(-1, mesh.dim + 1)


def _write_points(fh, mesh):
    """The POINTS lines, one lattice line along the last axis at a time.

    The vertices are the lattice in C order, so each coordinate takes
    one of the n+1 lattice values k/n. Each is
    formatted once with "%.16g"; a lattice line is its head (the
    leading coordinates, each followed by a space) joined over the
    tails (the last coordinate, a 2D point's literal 0 third component
    and the newline), the bytes of formatting each point on its own.
    """
    d, n = mesh.dim, mesh.n
    coords = ["%.16g" % c for c in _lattice_coordinates(n).tolist()]
    tails = [c + " 0" * (3 - d) + "\n" for c in coords]
    for lead in product(coords, repeat=d - 1):
        head = " ".join(lead) + " "
        fh.write(head + head.join(tails))


def write_vtk_field(mesh, field, path):
    """Legacy ASCII VTK unstructured grid with a displacement field.

    The points are written by lattice line (_write_points), and the
    other sections are formatted and written in blocks of lines; the
    cells are made block by block from their cubes (_cell_blocks), so
    the write holds no array of the mesh's size but the field.
    "%.16g" and "%d" give the same bytes as formatting each line on its
    own, and a 2D point or vector gets its zero third component as the
    literal 0 that "%.16g" writes for it.
    """
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.num_vertices, mesh.dim):
        raise ValueError("field must be (num_vertices, dim)")
    nv_cell = mesh.dim + 1
    xyz = " ".join(["%.16g"] * mesh.dim + ["0"] * (3 - mesh.dim)) + "\n"
    cell_type = "%d\n" % _VTK_CELL_TYPE[mesh.dim]
    with open(path, "w", newline="") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("displacement field\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.num_vertices)
        _write_points(fh, mesh)
        fh.write("CELLS %d %d\n" % (mesh.num_cells,
                                    mesh.num_cells * (nv_cell + 1)))
        _write_lines(fh, "%d" % nv_cell + " %d" * nv_cell + "\n",
                     _cell_blocks(mesh))
        fh.write("CELL_TYPES %d\n" % mesh.num_cells)
        for start in range(0, mesh.num_cells, _VTK_BLOCK_LINES):
            fh.write(cell_type * min(_VTK_BLOCK_LINES,
                                     mesh.num_cells - start))
        fh.write("POINT_DATA %d\n" % mesh.num_vertices)
        fh.write("VECTORS displacement double\n")
        _write_lines(fh, xyz, _row_blocks(field))


def _centers(args):
    """The --center groups as an (K, dim) array; the box center if none.

    A center weights nothing without --alpha, so that pair is an error.
    """
    if not args.center:
        return np.full((1, args.dim), 0.5)
    if args.alpha is None:
        raise ValueError("--center needs --alpha (the weight exponent)")
    for group in args.center:
        if len(group) != args.dim:
            raise ValueError("--center needs %d coordinates, got %d"
                             % (args.dim, len(group)))
    return np.array(args.center)


def _cmd_converge(args):
    if not args.out:
        raise ValueError("--out FILE is required for converge")
    params = LameParams(args.mu, args.lam)
    if args.manufactured:
        if args.dim != 2:
            raise ValueError("--manufactured is available in 2D only")
        if args.loads:
            raise ValueError("--loads and --manufactured are exclusive")
        forcing = manufactured_sine_2d(params)
    elif args.loads:
        forcing = parse_loads_file(args.loads, args.dim)
    else:
        raise ValueError("either --loads FILE or --manufactured is required")
    report = run_convergence_study(args.dim, args.levels, params, forcing,
                                   ref_extra_levels=args.ref_extra,
                                   rel_tol=args.tol)
    write_csv_report(report, args.out)
    for row in report.rows:
        eoc_s = "-" if row.eoc is None else _fmt(row.eoc)
        print("level %d: n=%d h=%s ndof=%d error=%s eoc=%s"
              % (row.level, row.n, _fmt(row.h), row.ndof,
                 _fmt(row.error_l2), eoc_s))
    print("wrote %s" % args.out)
    return 0


def _cmd_solve(args):
    if len(args.levels) != 1:
        raise ValueError("solve expects exactly one --levels value")
    check_rel_tol(args.tol)
    params = LameParams(args.mu, args.lam)
    loads = parse_loads_file(args.loads, args.dim)
    n = args.levels[0]
    mesh, x, stats = _solve_level(
        build_levels(args.dim, n, params), loads, args.tol, None)
    print("n=%d h=%s ndof=%d iterations=%d residual=%s"
          % (n, _fmt(mesh.h), mesh.num_free_dofs, stats.iterations,
             _fmt(stats.final_relative_residual)))
    if args.out:
        write_vtk_field(mesh, from_free(mesh, x), args.out)
        print("wrote %s" % args.out)
    return 0


def _cmd_korn(args):
    centers = _centers(args)
    spec = None if args.alpha is None else WeightSpec(centers, args.alpha)
    for n in args.levels:
        check_band_size(args.dim, n)
    rows = []
    for n in args.levels:
        mesh = build_unit_box_mesh(args.dim, n)
        ch = discrete_korn_constant(mesh, spec)
        lam_min = 1.0 / (ch * ch)
        rows.append("%d,%s,%d,%s,%s" % (n, _fmt(mesh.h), mesh.num_free_dofs,
                                        _fmt(lam_min), _fmt(ch)))
        print("n=%d lambda_min=%s korn_constant=%s"
              % (n, _fmt(lam_min), _fmt(ch)))
    if args.out:
        _write_csv(args.out, "n,h,ndof,lambda_min,korn_constant", rows)
        print("wrote %s" % args.out)
    return 0


def _cmd_infsup_demo(args):
    alpha = 0.0 if args.alpha is None else args.alpha
    s = alpha / args.dim
    centers = _centers(args)
    if len(centers) != 1:
        raise ValueError("infsup-demo expects a single --center")
    for n in args.levels:
        check_band_size(args.dim, n)
    rows = []
    for n in args.levels:
        mesh = build_unit_box_mesh(args.dim, n)
        rep = weighted_pairing_demo(mesh, s, centers[0])
        rows.append("%d,%s,%s,%s,%s,%s,%d"
                    % (n, _fmt(s), _fmt(rep.alpha_A_kernel),
                       _fmt(rep.alpha_A_full), _fmt(rep.beta_B),
                       _fmt(rep.beta_C), int(rep.injective_on_kernels)))
        print("n=%d s=%s alpha_kernel=%s alpha_full=%s beta_B=%s beta_C=%s"
              % (n, _fmt(s), _fmt(rep.alpha_A_kernel),
                 _fmt(rep.alpha_A_full), _fmt(rep.beta_B), _fmt(rep.beta_C)))
    if args.out:
        _write_csv(args.out, "n,s,alpha_A_kernel,alpha_A_full,beta_B,beta_C,"
                   "injective_on_kernels", rows)
        print("wrote %s" % args.out)
    return 0


def _cmd_a2(args):
    if args.alpha is None:
        raise ValueError("--alpha is required for a2")
    centers = _centers(args)
    spec = WeightSpec(centers, args.alpha)
    # the balls around every center, so each pole is probed
    balls, radii = map(np.concatenate, zip(
        *(default_ball_family(args.dim, c) for c in centers)))
    est = estimate_a2(spec, balls, radii)
    print("a2 characteristic (sampled lower bound): %s" % _fmt(est))
    print("alpha=%s centers=%d balls=%d" % (_fmt(args.alpha), len(centers),
                                            len(radii)))
    return 0


# every flag a subcommand may declare; each parser takes only the ones
# its handler reads
_FLAGS = {
    "dim": dict(type=int, choices=(2, 3), required=True),
    "levels": dict(type=int, nargs="+", required=True, metavar="N"),
    "mu": dict(type=float, default=1.0),
    "lambda": dict(dest="lam", type=float, default=1.0),
    "tol": dict(type=float, default=1e-10, help="relative CG tolerance"),
    "alpha": dict(type=float, default=None,
                  help="weight exponent in (-dim, dim)"),
    "center": dict(type=float, nargs="+", action="append", metavar="X",
                   help="weight center, repeatable"),
    "out": dict(default=None, help="output file"),
    "loads": dict(default=None, help="point-loads file"),
    "manufactured": dict(action="store_true",
                         help="smooth 2D benchmark instead of point loads"),
    "ref-extra": dict(type=int, default=2,
                      help="extra dyadic levels for the reference solve"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="elastopoint",
        description="P1 finite elements for linear elasticity with point "
                    "forces: convergence studies and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    add("converge", _cmd_converge, "convergence study to CSV",
        "dim levels mu lambda tol out loads manufactured ref-extra")
    add("solve", _cmd_solve, "single-level solve to VTK",
        "dim levels mu lambda tol out").add_argument(
            "--loads", required=True, help="point-loads file")
    add("korn", _cmd_korn, "discrete Korn constants",
        "dim levels alpha center out")
    add("infsup-demo", _cmd_infsup_demo,
        "kernel vs full-space inf-sup contrast", "dim levels alpha center out")
    add("a2", _cmd_a2, "Muckenhoupt A2 estimate to stdout", "dim alpha center")
    return parser


# the parser of this process, built by the first main call
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
