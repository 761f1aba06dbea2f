import numpy as np
import pytest

from elastopoint.assembly import (LameParams, PointLoadSet, from_free, to_free,
                                  to_padded)
from elastopoint.convergence import (
    ManufacturedSolution,
    StudyError,
    _l2_norm_sq_padded,
    _solve_level,
    eoc,
    l2_error_nested,
    l2_error_quadrature,
    l2_norm_sq_p1,
    manufactured_sine_2d,
    run_convergence_study,
)
from elastopoint.mesh import Mesh, build_unit_box_mesh, locate_point
from elastopoint.multigrid import build_levels

from oracles import (box_integral_affine_squared, l2_error_nested_lattice,
                     l2_norm_sq_p1_percell, prolongation_matrix)


def _fd_forcing(u, mu, lam, pts, step=1e-4):
    """-mu lap(u) - (mu+lam) grad(div u) by central differences."""
    m, d = pts.shape
    lap = np.zeros((m, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        lap += (u(pts + e) - 2.0 * u(pts) + u(pts - e)) / step**2

    def div(q):
        out = np.zeros(q.shape[0])
        for i in range(d):
            e = np.zeros(d)
            e[i] = step
            out += (u(q + e)[:, i] - u(q - e)[:, i]) / (2.0 * step)
        return out

    grad_div = np.zeros((m, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        grad_div[:, i] = (div(pts + e) - div(pts - e)) / (2.0 * step)
    return -mu * lap - (mu + lam) * grad_div


@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (2.0, 0.5)])
def test_manufactured_forcing_matches_finite_differences(mu, lam):
    sol = manufactured_sine_2d(LameParams(mu, lam))
    rng = np.random.default_rng(8)
    pts = 0.2 + 0.6 * rng.random((30, 2))
    got = sol.f(pts)
    ref = _fd_forcing(sol.u, mu, lam, pts)
    assert np.allclose(got, ref, atol=2e-3, rtol=1e-5)


def test_manufactured_solution_vanishes_on_boundary():
    sol = manufactured_sine_2d(LameParams(1.0, 1.0))
    t = np.linspace(0.0, 1.0, 9)
    edges = [np.stack([t, np.zeros(9)], axis=1),
             np.stack([t, np.ones(9)], axis=1),
             np.stack([np.zeros(9), t], axis=1),
             np.stack([np.ones(9), t], axis=1)]
    for pts in edges:
        assert np.max(np.abs(sol.u(pts))) < 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_prolongation_reproduces_affine_fields(dim):
    coarse = build_unit_box_mesh(dim, 2)
    fine = build_unit_box_mesh(dim, 4)
    coeff = np.arange(1.0, dim + 1.0)
    vals = (coarse.vertices @ coeff)[:, None] * np.array([[1.0, -2.0]])
    out = prolongation_matrix(dim, coarse.n) @ vals
    expected = (fine.vertices @ coeff)[:, None] * np.array([[1.0, -2.0]])
    assert np.allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_prolongation_interpolates_every_fine_vertex(dim):
    # the fine nodal values must equal the coarse P1 field evaluated at
    # the fine vertices; this is exactly the nestedness of the meshes
    coarse = build_unit_box_mesh(dim, 2)
    fine = build_unit_box_mesh(dim, 4)
    rng = np.random.default_rng(31)
    vals = rng.standard_normal((coarse.num_vertices, dim))
    out = prolongation_matrix(dim, coarse.n) @ vals
    cells = coarse.cells
    for v, x in enumerate(fine.vertices):
        loc = locate_point(coarse, x)
        interp = loc.barycentric @ vals[cells[loc.cell_index]]
        assert np.allclose(out[v], interp, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_l2_norm_exact_for_affine_fields(dim):
    mesh = build_unit_box_mesh(dim, 3)
    coeff = np.arange(1.0, dim + 1.0)
    field = np.stack([mesh.vertices @ coeff + 0.5,
                      -(mesh.vertices @ coeff)], axis=1)
    exact = box_integral_affine_squared(coeff, 0.5, dim) + \
        box_integral_affine_squared(-coeff, 0.0, dim)
    assert abs(l2_norm_sq_p1(mesh, field) - exact) < 1e-13


def test_l2_norm_scalar_constant():
    mesh = build_unit_box_mesh(2, 2)
    assert abs(l2_norm_sq_p1(mesh, np.full(mesh.num_vertices, 3.0)) - 9.0) < 1e-13


@pytest.mark.parametrize("dim,n", [(2, 3), (2, 5), (2, 8), (3, 3), (3, 4)])
@pytest.mark.parametrize("components", [None, 1, 3])
def test_l2_norm_matches_percell_oracle(dim, n, components):
    mesh = build_unit_box_mesh(dim, n)
    rng = np.random.default_rng(10 * dim + n)
    shape = (mesh.num_vertices,) if components is None else \
        (mesh.num_vertices, components)
    field = rng.standard_normal(shape)
    got = l2_norm_sq_p1(mesh, field)
    ref = l2_norm_sq_p1_percell(mesh, field)
    assert abs(got - ref) <= 1e-13 * ref


# fields that vanish on the boundary: random ones, and the interpolant
# of a product of sines, which is far from its own shifts on coarse
# meshes and close to them on fine ones
@pytest.mark.parametrize("dim,n", [(2, 1), (2, 2), (2, 3), (2, 8), (2, 17),
                                   (3, 1), (3, 2), (3, 3), (3, 4), (3, 7)])
def test_interior_mass_stencil_norm_matches_the_general_norms(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    rng = np.random.default_rng(10 * dim + n)
    sines = np.prod(np.sin(np.pi * mesh.vertices), axis=1)
    smooth = to_free(mesh, sines[:, None] * np.arange(1.0, dim + 1.0))
    for x in (rng.standard_normal(mesh.num_free_dofs), smooth):
        got = _l2_norm_sq_padded(mesh, to_padded(mesh, x))
        field = from_free(mesh, x)
        for ref in (l2_norm_sq_p1(mesh, field),
                    l2_norm_sq_p1_percell(mesh, field)):
            assert abs(got - ref) <= 1e-13 * ref


def test_nested_error_of_prolonged_field_is_zero():
    levels = build_levels(2, 8, LameParams(1.0, 1.0))[:3]
    coarse, fine = levels[-1].mesh, levels[0].mesh
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(coarse.num_free_dofs)
    ref = to_free(fine, prolongation_matrix(2, 4) @ (
        prolongation_matrix(2, 2) @ from_free(coarse, vals)))
    assert l2_error_nested(levels, vals, ref) < 1e-13
    # shifting the reference by w makes the error exactly ||w||
    w = rng.standard_normal(ref.shape)
    err = l2_error_nested(levels, vals, ref + w)
    assert abs(err - np.sqrt(l2_norm_sq_p1(fine, from_free(fine, w)))) < 1e-12


def test_nested_error_requires_two_extra_levels():
    family = build_levels(2, 16, LameParams(1.0, 1.0))
    zeros = [np.zeros(lv.mesh.num_free_dofs) for lv in family]
    with pytest.raises(ValueError, match="2 dyadic levels"):
        l2_error_nested(family[:2], zeros[1], zeros[0])
    # vectors that are not the free dofs of the level or the reference
    with pytest.raises(ValueError, match="do not match"):
        l2_error_nested(family[:3], zeros[1], zeros[0])
    with pytest.raises(ValueError, match="do not match"):
        l2_error_nested(family[:3], zeros[2], zeros[1])
    with pytest.raises(ValueError, match="do not match"):
        l2_error_nested(family[:3], from_free(family[2].mesh, zeros[2]),
                        zeros[0])
    assert l2_error_nested(family[:3], zeros[2], zeros[0]) == 0.0


# every level at least two doublings below the top: 2D 4 and 8 to 32,
# 3D 4 to 16, chains from n = 1 and 2 (n = 2 holds no P) and odd
# bottoms (n = 3 under 12)
@pytest.mark.parametrize("dim,top", [(2, 32), (3, 16), (2, 8), (3, 8),
                                     (2, 12), (3, 12)])
def test_nested_error_equals_the_lattice_oracle(dim, top):
    family = build_levels(dim, top, LameParams(1.0, 1.0))
    fine = family[0].mesh
    rng = np.random.default_rng(dim * top)
    for k in range(2, len(family)):
        coarse = family[k].mesh
        u = rng.standard_normal(coarse.num_free_dofs)
        u_ref = rng.standard_normal(fine.num_free_dofs)
        got = l2_error_nested(family[:k + 1], u, u_ref)
        want = l2_error_nested_lattice(coarse, from_free(coarse, u), fine,
                                       from_free(fine, u_ref))
        assert got == want


# the chain's edges: levels from n = 1, whose coarser neighbour of the
# n = 2 level has no free dofs, and an odd bottom level
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("levels", [[1, 2], [3, 6]])
def test_edge_studies_equal_the_lattice_oracle(dim, levels):
    params = LameParams(1.0, 1.0)
    loads = PointLoadSet([[0.3, 0.7, 0.45][:dim]], [np.eye(dim)[0]])
    report = run_convergence_study(dim, levels, params, loads)
    family = build_levels(dim, report.reference_n, params)
    ref_mesh, x_ref, _ = _solve_level(family, loads, 1e-10, None)
    ref = from_free(ref_mesh, x_ref)
    for row in report.rows:
        k = [lv.mesh.n for lv in family].index(row.n)
        mesh, x, _ = _solve_level(family[k:], loads, 1e-10, None)
        assert row.error_l2 == l2_error_nested_lattice(
            mesh, from_free(mesh, x), ref_mesh, ref)


def test_quadrature_error_simple_cases():
    mesh = build_unit_box_mesh(2, 3)
    affine = lambda p: np.stack([p[:, 0] + 1.0, 2.0 * p[:, 1]], axis=1)
    nodal = affine(mesh.vertices)
    assert l2_error_quadrature(mesh, nodal, affine) < 1e-14
    zero = np.zeros_like(nodal)
    const = lambda p: np.tile([3.0, 4.0], (p.shape[0], 1))
    assert abs(l2_error_quadrature(mesh, zero, const) - 5.0) < 1e-13


def test_eoc_hand_values():
    assert eoc([1.0, 0.25], [1.0, 0.5]) == pytest.approx([2.0])
    rates = eoc([1.0, 0.5, 0.25], [1.0, 0.5, 0.25])
    assert rates == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        eoc([1.0], [1.0])
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [1.0])
    with pytest.raises(ValueError):
        eoc([1.0, 0.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [1.0, -0.5])


def test_eoc_refuses_equal_consecutive_mesh_sizes():
    # the rate's denominator log(h_{i-1}/h_i) would be zero
    with pytest.raises(ValueError, match="must differ"):
        eoc([1.0, 0.5], [0.25, 0.25])
    with pytest.raises(ValueError, match="must differ"):
        eoc([1.0, 0.5, 0.25], [1.0, 0.5, 0.5])


def test_manufactured_study_hits_second_order():
    params = LameParams(1.0, 1.0)
    report = run_convergence_study(2, [4, 8, 16], params,
                                   manufactured_sine_2d(params))
    assert report.reference_n is None
    assert report.dim == 2
    rates = [row.eoc for row in report.rows[1:]]
    assert all(1.85 <= r <= 2.05 for r in rates)
    assert report.rows[0].eoc is None
    for i, row in enumerate(report.rows):
        assert row.level == i + 1
        assert row.n == 4 * 2**i
        assert row.ndof == 2 * (row.n - 1) ** 2
        assert abs(row.h - np.sqrt(2.0) / row.n) < 1e-15


def test_point_load_study_runs_and_converges():
    params = LameParams(1.0, 1.0)
    loads = PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]])
    report = run_convergence_study(2, [4, 8], params, loads)
    assert report.reference_n == 32
    assert report.load_description == "1 point load(s)"
    errs = [row.error_l2 for row in report.rows]
    assert errs[1] < errs[0]
    assert report.rows[1].eoc > 0.5


def test_point_load_study_builds_no_cell_table(monkeypatch):
    built = []
    cells = Mesh.cells

    def counted(mesh):
        built.append(mesh.n)
        return cells.fget(mesh)

    monkeypatch.setattr(Mesh, "cells", property(counted))
    loads = PointLoadSet([[0.41, 0.53, 0.47]], [[0.3, -0.2, 1.0]])
    report = run_convergence_study(3, [4, 8], LameParams(1.0, 1.0), loads)
    assert len(report.rows) == 2
    assert built == []
    # the count does see an access
    build_unit_box_mesh(3, 2).cells
    assert built == [2]


def test_study_is_deterministic():
    params = LameParams(1.0, 1.0)
    loads = PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]])
    r1 = run_convergence_study(2, [4, 8], params, loads)
    r2 = run_convergence_study(2, [4, 8], params, loads)
    assert [row.error_l2 for row in r1.rows] == \
        [row.error_l2 for row in r2.rows]


def test_study_error_names_the_level():
    params = LameParams(1.0, 1.0)
    loads = PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]])
    with pytest.raises(StudyError, match="n=4"):
        run_convergence_study(2, [4, 8], params, loads, max_iter=1)


def test_study_argument_validation():
    params = LameParams(1.0, 1.0)
    loads = PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        run_convergence_study(2, [4, 9], params, loads)
    with pytest.raises(ValueError):
        run_convergence_study(2, [], params, loads)
    with pytest.raises(ValueError):
        run_convergence_study(2, [0, 0], params, loads)
    with pytest.raises(ValueError):
        run_convergence_study(2, [4, 8], params, loads, ref_extra_levels=1)
