"""The benchmark's workloads: seeded inputs, CLI calls and output checks.

A workload is a fixed list of `elastopoint` CLI calls made in order by
one client in one fresh process. The seed only moves the inputs: the
point load (location and unit force) and the weight centre. Seed 0 is
the acceptance-test configuration: a unit force at the box centre
(along x in 2D, along z in 3D) and weight centre 0.5. Every other seed
draws the load point and the weight centre uniformly from [0.3, 0.7]^d
and the force direction uniformly from the unit sphere.
"""

from dataclasses import dataclass
from math import factorial
from typing import Callable, Optional

import numpy as np

import checks

CG_TOL = 1e-10


@dataclass(frozen=True)
class Inputs:
    """Everything a seed decides, for both dimensions."""

    load: dict    # dim -> (point, force)
    centre: dict  # dim -> weight centre
    acceptance: bool  # seed 0, the acceptance-test configuration


@dataclass(frozen=True)
class Call:
    """One CLI call, the file it writes, and the check on its output."""

    argv: list
    out: Optional[str]
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Callable  # (inputs, smoke) -> list of Call


def make_inputs(seed):
    """Seeded loads and weight centres; seed 0 is the acceptance case."""
    if seed == 0:
        load = {2: ([0.5, 0.5], [1.0, 0.0]),
                3: ([0.5, 0.5, 0.5], [0.0, 0.0, 1.0])}
        centre = {2: [0.5, 0.5], 3: [0.5, 0.5, 0.5]}
        return Inputs(load, centre, True)
    rng = np.random.default_rng(seed)
    load, centre = {}, {}
    for dim in (2, 3):
        point = rng.uniform(0.3, 0.7, dim)
        force = rng.standard_normal(dim)
        load[dim] = (point.tolist(), (force / np.linalg.norm(force)).tolist())
        centre[dim] = rng.uniform(0.3, 0.7, dim).tolist()
    return Inputs(load, centre, False)


def loads_file_text(inputs, dim):
    point, force = inputs.load[dim]
    nums = " ".join(format(v, ".17g") for v in list(point) + list(force))
    return "point %s\n" % nums


def _levels(sizes):
    return ["--levels"] + [str(n) for n in sizes]


def _centre(inputs, dim):
    return ["--center"] + [format(v, ".17g") for v in inputs.centre[dim]]


def _study_3d_point(inputs, smoke):
    levels = (2, 4) if smoke else (4, 8)
    return [
        Call(["converge", "--dim", "3", *_levels(levels), "--ref-extra", "2",
              "--loads", "loads3.txt", "--out", "study3d.csv"],
             "study3d.csv", checks.point_rate(0.35, 0.35, inputs.acceptance)),
    ]


def _study_2d_solve(inputs, smoke):
    study = (2, 4, 8) if smoke else (4, 8, 16, 32)
    smooth = (4, 8) if smoke else (8, 16, 32)
    n_solve = 16 if smoke else 128
    return [
        Call(["converge", "--dim", "2", *_levels(study), "--ref-extra", "2",
              "--loads", "loads2.txt", "--out", "study2d.csv"],
             "study2d.csv", checks.point_rate(0.85, 0.75, inputs.acceptance)),
        Call(["converge", "--dim", "2", *_levels(smooth), "--manufactured",
              "--out", "manufactured.csv"],
             "manufactured.csv", checks.eoc_range(1.9, 2.1)),
        Call(["solve", "--dim", "2", "--levels", str(n_solve), "--lambda",
              "50", "--loads", "loads2.txt", "--out", "field.vtk"],
             "field.vtk",
             checks.solve_field(2, n_solve, factorial(2), CG_TOL)),
    ]


def _diagnostics(inputs, smoke):
    korn2 = (4, 8) if smoke else (8, 16, 32)
    korn3 = (2, 4) if smoke else (4, 8)
    infsup = (2, 4) if smoke else (4, 8, 12)
    return [
        Call(["korn", "--dim", "2", *_levels(korn2), "--out", "korn2d.csv"],
             "korn2d.csv", checks.korn_range),
        Call(["korn", "--dim", "3", *_levels(korn3), "--alpha", "1.0",
              *_centre(inputs, 3), "--out", "korn3d.csv"],
             "korn3d.csv", checks.korn_range),
        Call(["infsup-demo", "--dim", "2", *_levels(infsup), "--alpha", "1.0",
              *_centre(inputs, 2), "--out", "infsup.csv"],
             "infsup.csv", checks.infsup_restriction),
        Call(["a2", "--dim", "2", "--alpha", "1.0", *_centre(inputs, 2)],
             None, checks.a2_at_least_one),
        Call(["a2", "--dim", "3", "--alpha", "-1.5", *_centre(inputs, 3)],
             None, checks.a2_at_least_one),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("study-3d-point",
             "3D point-load study to a reference at n=32 (89k dofs, 3.2M "
             "nonzeros): stiffness assembly and CG on the 3D stencil both "
             "carry weight",
             _study_3d_point),
    Workload("study-2d-solve",
             "2D point-load study to an n=128 reference, manufactured study "
             "and an n=128 lambda=50 solve to VTK: Jacobi-CG dominates, "
             "assembly is minor",
             _study_2d_solve),
    Workload("diagnostics",
             "Korn, inf-sup and A2 diagnostics: dense eigensolves and SVDs "
             "on weighted forms, no CG",
             _diagnostics),
)}
