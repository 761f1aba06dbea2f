import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from elastopoint.assembly import (GRAD_DIV, LameParams, PointLoadSet,
                                  assemble_point_load, assemble_stiffness)
from elastopoint.cli import main
from elastopoint.convergence import _solve_level
from elastopoint.mesh import build_unit_box_mesh
from elastopoint.multigrid import _jacobi_bound, build_levels, vcycle
from elastopoint.solver import cg_solve

from oracles import jacobi_bound_whole_matrix


def _load(dim):
    point = np.full(dim, 0.5) + 0.0123 * np.arange(1, dim + 1)
    return PointLoadSet([point], [np.eye(dim)[0]])


@pytest.mark.parametrize("lam", [1.0, 100.0])
@pytest.mark.parametrize("dim,n", [(2, 6), (2, 16), (3, 4), (3, 8)])
def test_galerkin_product_equals_rediscretization(dim, n, lam):
    fine, coarse = build_levels(dim, n, LameParams(1.0, lam))[:2]
    galerkin = (fine.P.T @ fine.A @ fine.P).toarray()
    direct = coarse.A.toarray()
    assert np.abs(galerkin - direct).max() <= 1e-14 * np.abs(direct).max()


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
def test_jacobi_data_is_the_gershgorin_bound(dim, n):
    for lv in build_levels(dim, n, LameParams(1.0, 3.0))[:-1]:
        A = lv.A
        assert np.array_equal(lv.inv_diag, 1.0 / A.diagonal())
        # the same csr row sums as abs(A), so the bound is bit-identical
        bound = (lv.inv_diag * (abs(A) @ np.ones(A.shape[0]))).max()
        assert lv.lmax == bound
        top = np.linalg.eigvals(lv.inv_diag[:, None] * A.toarray()).real.max()
        assert top <= lv.lmax


def _stiffness(dim, n):
    return assemble_stiffness(build_unit_box_mesh(dim, n),
                              LameParams(1.0, 7.0), GRAD_DIV)


# 2D n=33 and 3D n=16 have 2048 and 10125 rows: a whole number of row
# blocks and a last block that is cut short
@pytest.mark.parametrize("dim,n", [(2, 3), (2, 33), (2, 64), (3, 9),
                                   (3, 16)])
def test_blocked_jacobi_bound_equals_whole_matrix(dim, n):
    A = _stiffness(dim, n)
    inv_diag, lmax = _jacobi_bound(A)
    ref_inv_diag, ref_lmax = jacobi_bound_whole_matrix(A)
    assert np.array_equal(inv_diag, ref_inv_diag)
    assert lmax == ref_lmax


def test_jacobi_bound_temporaries_stay_small():
    # |A| of the whole matrix alone would be 100 % of A.data
    A = _stiffness(3, 16)
    tracemalloc.start()
    try:
        _jacobi_bound(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * A.data.nbytes


@pytest.mark.parametrize("dim,points", [
    (2, [[0.5, 0.5], [0.25, 0.75],          # coarse vertices
         [0.375, 0.5], [0.3, 0.25],         # on axis-parallel edges
         [0.3125, 0.3125], [0.6, 0.35]]),   # on a diagonal, interior
    (3, [[0.5, 0.5, 0.5], [0.25, 0.5, 0.75],
         [0.375, 0.5, 0.5], [0.3, 0.5, 0.5],
         [0.3, 0.3, 0.3], [0.61, 0.37, 0.43]]),
])
def test_restriction_of_point_loads_is_exact(dim, points):
    fine, coarse = build_levels(dim, 8, LameParams(1.0, 1.0))[:2]
    rng = np.random.default_rng(4)
    for x in points:
        loads = PointLoadSet([x], [rng.standard_normal(dim)])
        b_fine = assemble_point_load(fine.mesh, loads)
        b_coarse = assemble_point_load(coarse.mesh, loads)
        assert np.abs(fine.P.T @ b_fine - b_coarse).max() <= 1e-14


# 2D n=66 bottoms out at n=33, whose 2048 free dofs are only smoothed
@pytest.mark.parametrize("dim,n", [(2, 16), (2, 66), (3, 8)])
def test_vcycle_is_symmetric_positive(dim, n):
    levels = build_levels(dim, n, LameParams(1.0, 10.0))
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, levels[0].mesh.num_free_dofs))
    Mx, My = vcycle(levels, x), vcycle(levels, y)
    scale = np.linalg.norm(Mx) * np.linalg.norm(y)
    assert abs(Mx @ y - x @ My) <= 1e-12 * scale
    assert Mx @ x > 0.0


@pytest.mark.parametrize("dim,n", [(2, 8), (2, 15), (2, 16), (2, 66),
                                   (3, 4), (3, 7), (3, 8)])
def test_multigrid_cg_matches_jacobi_cg_and_direct(dim, n):
    levels = build_levels(dim, n, LameParams(1.0, 5.0))
    top = levels[0]
    b = assemble_point_load(top.mesh, _load(dim))
    x_mg, st_mg = cg_solve(top.A, b, rel_tol=1e-12,
                           precond=partial(vcycle, levels))
    x_jac, st_jac = cg_solve(top.A, b, rel_tol=1e-12)
    x_ref = spla.spsolve(top.A.tocsc(), b)
    assert st_mg.converged and st_jac.converged
    scale = np.linalg.norm(x_ref)
    assert np.linalg.norm(x_mg - x_ref) <= 1e-8 * scale
    assert np.linalg.norm(x_jac - x_ref) <= 1e-8 * scale
    assert st_mg.iterations <= st_jac.iterations


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_smallest_meshes_solve(dim, n):
    mesh, full, stats = _solve_level(
        build_levels(dim, n, LameParams(1.0, 1.0)), _load(dim), 1e-10, None)
    assert stats.converged
    assert mesh.num_free_dofs == dim * (n - 1) ** dim
    assert full.shape == (mesh.num_vertices, dim)
    boundary = ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)
    assert np.all(full[boundary] == 0.0)


def test_multigrid_iterations_are_few():
    levels = build_levels(2, 64, LameParams(1.0, 1.0))
    top = levels[0]
    b = assemble_point_load(top.mesh, _load(2))
    _, stats = cg_solve(top.A, b, precond=partial(vcycle, levels))
    assert stats.converged
    assert stats.iterations <= 30


def test_nearly_incompressible_solve_and_converge(tmp_path, capsys):
    # Jacobi-CG stops at its iteration cap here
    loads = tmp_path / "loads.txt"
    loads.write_text("point 0.4 0.55 1 0\n")
    rc = main(["solve", "--dim", "2", "--levels", "64", "--lambda", "1000",
               "--loads", str(loads)])
    assert rc == 0
    out = tmp_path / "study.csv"
    rc = main(["converge", "--dim", "2", "--levels", "4", "8", "16",
               "--lambda", "1000", "--loads", str(loads), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("n", [0, -4])
def test_nonpositive_size_fails_fast(n):
    with pytest.raises(ValueError, match="positive"):
        build_levels(2, n, LameParams(1.0, 1.0))
