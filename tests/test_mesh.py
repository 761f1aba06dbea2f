import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastopoint.mesh import (
    _cell_vertices,
    _chain_templates,
    _kuhn_shifts,
    build_unit_box_mesh,
    cell_geometry,
    cell_volumes,
    cells_containing_point,
    locate_point,
)

from oracles import (
    barycentric_coordinates,
    cell_gradients_loop,
    cell_volume_loop,
    cells_loop,
    containing_cells_bruteforce,
)


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 3), (2, 8), (3, 1), (3, 2), (3, 4)])
def test_counts_and_h(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    assert mesh.num_vertices == (n + 1) ** dim
    assert mesh.num_cells == math.factorial(dim) * n**dim
    assert mesh.vertices.shape == (mesh.num_vertices, dim)
    assert mesh.cells.shape == (mesh.num_cells, dim + 1)
    assert abs(mesh.h - math.sqrt(dim) / n) < 1e-15


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cells_match_loop_oracle(dim, n):
    # point-location ties and the VTK bytes depend on this numbering
    cells = build_unit_box_mesh(dim, n).cells
    expected = cells_loop(dim, n)
    assert cells.dtype == expected.dtype == np.int64
    assert np.array_equal(cells, expected)


# more than 8192 cubes: with numpy 2.4, np.unravel_index of a (16384, 1)
# array of cube numbers returned wrong multi-indices from entry 8193 on,
# and a cell table built through it was wrong from there
@pytest.mark.parametrize("dim,n", [(2, 128), (3, 22)])
def test_cells_of_large_meshes_match_loop_oracle(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    expected = cells_loop(dim, n)
    assert np.array_equal(mesh.cells, expected)
    f = math.factorial(dim)
    for ci in (0, 8193 * f + 1, len(expected) - 1):
        assert np.array_equal(_cell_vertices(mesh, *divmod(ci, f)),
                              expected[ci])


def _traced_peak(fn):
    """fn() and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_mesh_build_peak_memory_is_near_its_output():
    # the mesh stores only its vertices; no cell table is built
    mesh, peak = _traced_peak(lambda: build_unit_box_mesh(3, 32))
    assert peak <= 2 * mesh.vertices.nbytes


def test_cells_peak_memory_is_near_its_result():
    mesh = build_unit_box_mesh(3, 32)
    cells, peak = _traced_peak(lambda: mesh.cells)
    assert cells.shape == (6 * 32**3, 4)
    assert peak <= 2 * cells.nbytes


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_vertices_on_exact_lattice(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    lattice = np.arange(n + 1) / n
    for c in range(dim):
        assert np.isin(mesh.vertices[:, c], lattice).all()


@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
def test_boundary_flags(dim, n):
    # the free dofs are the d components of the vertices off the boundary
    mesh = build_unit_box_mesh(dim, n)
    boundary = ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)
    assert boundary.sum() == (n + 1) ** dim - (n - 1) ** dim
    assert mesh.num_free_dofs == dim * int((~boundary).sum())


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 4), (3, 1), (3, 3)])
def test_positive_volumes_partition_the_box(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    vols = cell_volumes(mesh)
    expected = 1.0 / (math.factorial(dim) * n**dim)
    assert np.all(vols > 0)
    assert np.allclose(vols, expected, rtol=1e-13)
    assert abs(vols.sum() - 1.0) < 1e-12
    # orientation: signed determinants positive, not just absolute values
    for cell in mesh.cells:
        V = mesh.vertices[cell]
        assert np.linalg.det(V[1:] - V[0]) > 0


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_cells_stay_within_one_cube(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    for cell in mesh.cells:
        V = mesh.vertices[cell]
        assert np.all(V.max(axis=0) - V.min(axis=0) <= 1.0 / n + 1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_refinement_keeps_coarse_vertices(dim):
    coarse = build_unit_box_mesh(dim, 2)
    fine = build_unit_box_mesh(dim, 4)
    fine_set = {tuple(v) for v in np.round(fine.vertices, 12)}
    for v in np.round(coarse.vertices, 12):
        assert tuple(v) in fine_set


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 5), (3, 2)])
def test_gradients_match_loop_oracle(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    vols, grads = cell_geometry(mesh)
    for ci, cell in enumerate(mesh.cells):
        V = mesh.vertices[cell]
        g = grads[ci]
        assert np.allclose(g, cell_gradients_loop(V), atol=1e-12)
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)
        assert abs(cell_volume_loop(V) - vols[ci]) < 1e-15


@pytest.mark.parametrize("dim,n", [(2, 4), (2, 3), (3, 2), (3, 3)])
def test_cell_geometry_matches_percell_calls(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    vols, grads = cell_geometry(mesh)
    assert vols.shape == (mesh.num_cells,)
    assert grads.shape == (mesh.num_cells, dim + 1, dim)
    assert np.array_equal(vols, cell_volumes(mesh))
    cells = mesh.cells
    for ci in range(0, mesh.num_cells, max(1, mesh.num_cells // 7)):
        V = mesh.vertices[cells[ci]]
        assert np.allclose(grads[ci], cell_gradients_loop(V),
                           rtol=1e-13, atol=1e-12)
        assert abs(vols[ci] - cell_volume_loop(V)) <= 1e-15 * vols[ci]


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3)])
def test_linear_field_gradient_recovery(dim, n):
    # P1 gradients reproduce the gradient of any globally affine field
    mesh = build_unit_box_mesh(dim, n)
    coeff = np.arange(1.0, dim + 1.0)
    nodal = mesh.vertices @ coeff + 0.25
    _, grads = cell_geometry(mesh)
    rec = np.einsum("xi,xip->xp", nodal[mesh.cells], grads)
    assert np.allclose(rec, coeff, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_locate_random_points_against_bruteforce(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    rng = np.random.default_rng(42)
    cells = mesh.cells
    for _ in range(25):
        x = rng.random(dim)
        loc = locate_point(mesh, x)
        hits = containing_cells_bruteforce(mesh, x)
        assert hits, x
        assert loc.cell_index == hits[0][0]
        assert np.allclose(loc.barycentric, hits[0][1], atol=1e-10)
        assert abs(loc.barycentric.sum() - 1.0) < 1e-12
        # reconstruct the point from the barycentric coordinates
        V = mesh.vertices[cells[loc.cell_index]]
        assert np.allclose(loc.barycentric @ V, x, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_locate_on_shared_faces_prefers_lowest_cell(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    rng = np.random.default_rng(7)
    cells = mesh.cells
    # midpoints of random shared edges sit on cell interfaces
    for _ in range(10):
        ci = int(rng.integers(mesh.num_cells))
        V = mesh.vertices[cells[ci]]
        x = 0.5 * (V[0] + V[1])
        loc = locate_point(mesh, x)
        hits = containing_cells_bruteforce(mesh, x)
        assert loc.cell_index == min(h[0] for h in hits)


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_cells_containing_point_at_vertices(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    boundary = ((mesh.vertices == 0.0) | (mesh.vertices == 1.0)).any(axis=1)
    interior = np.flatnonzero(~boundary)
    v = interior[0]
    found = cells_containing_point(mesh, mesh.vertices[v])
    indices = [loc.cell_index for loc in found]
    oracle = containing_cells_bruteforce(mesh, mesh.vertices[v])
    assert indices == [ci for ci, _ in oracle]
    assert indices == sorted(indices)
    assert len(indices) > 1
    for loc, (_, bary) in zip(found, oracle):
        assert np.allclose(loc.barycentric, bary, atol=1e-10)
    loc = locate_point(mesh, mesh.vertices[v])
    assert loc.cell_index == indices[0]


def _special_points(mesh, rng):
    """Vertices, edge midpoints, face centres and random points."""
    pts = [mesh.vertices[v] for v in range(mesh.num_vertices)]
    for cell in mesh.cells:
        V = mesh.vertices[cell]
        pts.append(0.5 * (V[0] + V[-1]))
        pts.append(V[1:].mean(axis=0))
    pts.extend(rng.random((20, mesh.dim)))
    return pts


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_point_location_matches_bruteforce(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    for x in _special_points(mesh, np.random.default_rng(11)):
        found = cells_containing_point(mesh, x)
        oracle = containing_cells_bruteforce(mesh, x)
        assert [loc.cell_index for loc in found] == [ci for ci, _ in oracle]
        for loc, (_, bary) in zip(found, oracle):
            assert np.allclose(loc.barycentric, bary, atol=1e-10)
        loc = locate_point(mesh, x)
        assert loc.cell_index == oracle[0][0]
        assert np.array_equal(loc.barycentric, found[0].barycentric)


@st.composite
def _mesh_and_point(draw):
    """(dim, n, x): x on the lattice j/(2n) or j/(3n), or anywhere.

    The lattices hold every vertex, edge midpoint and face centre of
    the Kuhn cells, where a point lies in several cell closures.
    """
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        m = draw(st.sampled_from([2 * n, 3 * n]))
        x = [draw(st.integers(0, m)) / m for _ in range(dim)]
    else:
        x = draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim))
    return dim, n, np.array(x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mesh_and_point())
def test_point_location_property(case):
    dim, n, x = case
    mesh = build_unit_box_mesh(dim, n)
    found = cells_containing_point(mesh, x)
    oracle = containing_cells_bruteforce(mesh, x)
    assert [loc.cell_index for loc in found] == [ci for ci, _ in oracle]
    for loc, (_, bary) in zip(found, oracle):
        assert np.allclose(loc.barycentric, bary, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_locate_outside_raises(dim):
    mesh = build_unit_box_mesh(dim, 2)
    with pytest.raises(ValueError):
        locate_point(mesh, np.full(dim, 1.5))
    with pytest.raises(ValueError):
        locate_point(mesh, np.full(dim, -0.2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="outside the closed unit box"):
            cells_containing_point(mesh, np.full(dim, bad))


def test_locate_accepts_box_corners():
    mesh = build_unit_box_mesh(2, 2)
    cells = mesh.cells
    for corner in ([0.0, 0.0], [1.0, 1.0], [1.0, 0.0]):
        loc = locate_point(mesh, corner)
        V = mesh.vertices[cells[loc.cell_index]]
        assert np.allclose(loc.barycentric @ V, corner, atol=1e-12)


def test_invalid_build_arguments():
    with pytest.raises(ValueError):
        build_unit_box_mesh(1, 4)
    with pytest.raises(ValueError):
        build_unit_box_mesh(4, 2)
    with pytest.raises(ValueError):
        build_unit_box_mesh(2, 0)


@pytest.mark.parametrize("n", [2.5, 4.000001, float("nan"), np.float64(0.5)])
def test_non_integral_n_is_refused_not_truncated(n):
    with pytest.raises(ValueError, match="positive integer"):
        build_unit_box_mesh(2, n)


@pytest.mark.parametrize("n", [3, 3.0, np.int32(3), np.int64(3),
                               np.float64(3.0)])
def test_integral_n_of_any_numeric_type_builds_the_mesh(n):
    mesh = build_unit_box_mesh(2, n)
    assert mesh.n == 3 and type(mesh.n) is int
    assert mesh.num_vertices == 16


@pytest.mark.parametrize("dim", [2, 3])
def test_kuhn_shifts_are_the_vertex_differences_of_one_cell(dim):
    templates = _chain_templates(dim)
    diffs = (templates[:, :, None] - templates[:, None, :]).reshape(-1, dim)
    assert set(_kuhn_shifts(dim)) == set(map(tuple, diffs.tolist()))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kuhn_shifts_are_sorted_and_counted(k):
    shifts = _kuhn_shifts(k)
    assert shifts == sorted(shifts)
    assert len(set(shifts)) == len(shifts) == 2 ** (k + 1) - 1


@pytest.mark.parametrize("dim", [2, 3])
def test_chain_templates_are_shared_and_read_only(dim):
    templates = _chain_templates(dim)
    assert templates is _chain_templates(dim)
    assert templates.shape == (math.factorial(dim), dim + 1, dim)
    with pytest.raises(ValueError, match="read-only"):
        templates[0, 0, 0] = 1
