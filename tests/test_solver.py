import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from elastopoint.assembly import LameParams, PointLoadSet, assemble_point_load, \
    assemble_stiffness
from elastopoint.mesh import build_unit_box_mesh
from elastopoint.solver import cg_solve, default_max_iter


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    return sp.csr_matrix(Q @ Q.T + n * np.eye(n))


def test_cg_matches_direct_solve_random():
    A = _random_spd(40, 11)
    rng = np.random.default_rng(12)
    b = rng.standard_normal(40)
    x, stats = cg_solve(A, b, rel_tol=1e-12)
    assert stats.converged
    ref = spla.spsolve(A.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)
    assert stats.final_relative_residual <= 1e-12


def test_cg_matches_direct_solve_stiffness():
    mesh = build_unit_box_mesh(2, 12)
    A = assemble_stiffness(mesh, LameParams(1.0, 1.0))
    b = assemble_point_load(mesh, PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]]))
    x, stats = cg_solve(A, b)
    assert stats.converged
    assert stats.iterations <= default_max_iter(mesh.num_free_dofs)
    ref = spla.spsolve(A.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)
    # reported residual is the true one
    true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert abs(stats.final_relative_residual - true_rel) <= 1e-15


def test_cg_zero_rhs_short_circuits():
    A = _random_spd(10, 2)
    x, stats = cg_solve(A, np.zeros(10))
    assert np.array_equal(x, np.zeros(10))
    assert stats.iterations == 0
    assert stats.converged
    assert stats.final_relative_residual == 0.0


def test_cg_honest_on_iteration_cap():
    mesh = build_unit_box_mesh(2, 16)
    A = assemble_stiffness(mesh, LameParams(1.0, 1.0))
    b = assemble_point_load(mesh, PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]]))
    x, stats = cg_solve(A, b, max_iter=2)
    assert not stats.converged
    assert stats.iterations == 2
    assert stats.final_relative_residual > 1e-10


def test_cg_callback_sees_each_iterate():
    A = _random_spd(30, 5)
    b = np.ones(30)
    seen = []
    x, stats = cg_solve(A, b, callback=seen.append)
    assert len(seen) == stats.iterations
    assert all(s.shape == (30,) for s in seen)
    assert np.array_equal(seen[-1], x)


def test_cg_argument_validation():
    A = _random_spd(5, 1)
    b = np.ones(5)
    for bad in (0.0, 1.0, -1e-3, 2.0):
        with pytest.raises(ValueError):
            cg_solve(A, b, rel_tol=bad)
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(4))
    D = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        cg_solve(D, np.ones(3))
    # a non-finite right side fails at once, not at the iteration cap
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="right side must be finite"):
            cg_solve(A, np.array([1.0, bad, 0.0, 0.0, 1.0]),
                     callback=pytest.fail)


def test_default_max_iter_formula():
    assert default_max_iter(0) == 200
    assert default_max_iter(100) == 400
    assert default_max_iter(10000) == 2200


@pytest.mark.parametrize("k", [-1000, -600, 600])
def test_cg_solves_a_scaled_force_as_the_unit_force_scaled(k):
    # below max |b| ~ 1.5e-154 the norm of b underflowed to 0, and a
    # force of 1e-300 returned x = 0 after no iteration
    mesh = build_unit_box_mesh(2, 12)
    A = assemble_stiffness(mesh, LameParams(1.0, 1.0))
    b = assemble_point_load(mesh, PointLoadSet([[0.4, 0.55]], [[1.0, 0.5]]))
    x, stats = cg_solve(A, b)
    x_k, stats_k = cg_solve(A, b * 2.0 ** k)
    assert stats.converged and stats.iterations > 0
    assert stats_k == stats
    assert np.array_equal(x_k, x * 2.0 ** k)
    assert np.all(np.isfinite(x_k)) and np.count_nonzero(x_k) == x.size
