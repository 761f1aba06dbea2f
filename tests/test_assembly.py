import itertools
import math
import tracemalloc

import numpy as np
import pytest

from elastopoint import assembly
from elastopoint.assembly import (
    CONSTRAINED,
    LameParams,
    LatticeStencil,
    PointLoadSet,
    assemble_point_load,
    assemble_smooth_load,
    assemble_stiffness,
    build_dof_map,
    from_free,
    from_padded,
    point_load_nodal,
    to_free,
    to_padded,
    vector_p1_form_matrix,
)
from elastopoint.mesh import (_kuhn_shifts, build_unit_box_mesh, cell_volumes,
                              locate_point)
from elastopoint.multigrid import _stencil_size, build_levels

from oracles import (corner_pair_blocks_loop, dense_form_loop,
                     dense_stiffness_loop, form_matrix_fullgrid, free_dof_numbering, line_rows,
                     pad_vector, padded_positions, restrict_to_free,
                     same_bits)


def test_lame_params_validate():
    p = LameParams(2.0, 0.5)
    assert p.mu == 2.0 and p.lam == 0.5
    with pytest.raises(ValueError):
        LameParams(0.0, 1.0)
    with pytest.raises(ValueError):
        LameParams(1.0, -0.1)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            LameParams(bad, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            LameParams(1.0, bad)


def test_point_load_set_validate():
    loads = PointLoadSet([[0.25, 0.75]], [[1.0, -2.0]])
    assert loads.dim == 2
    assert len(loads) == 1
    with pytest.raises(ValueError):
        PointLoadSet([[0.0, 0.5]], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        PointLoadSet([[0.5, 1.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        PointLoadSet([[0.5, 0.5]], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        PointLoadSet(np.empty((0, 2)), np.empty((0, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="forces must be finite"):
            PointLoadSet([[0.25, 0.75], [0.5, 0.5]], [[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="strictly inside"):
            PointLoadSet([[0.25, bad]], [[1.0, 0.0]])


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (3, 2)])
def test_dof_map_ordering(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    table = build_dof_map(mesh)
    oracle = free_dof_numbering(mesh)
    assert mesh.num_free_dofs == dim * (n - 1) ** dim
    assert table.shape == (mesh.num_vertices, dim)
    assert np.array_equal(table[oracle >= 0], oracle[oracle >= 0])
    assert np.all(table[oracle < 0] == CONSTRAINED)
    assert int((oracle >= 0).sum()) == mesh.num_free_dofs


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_free_dof_gather_and_scatter_match_loop_oracle(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    oracle = free_dof_numbering(mesh)
    free = oracle >= 0
    n_free = int(free.sum())
    assert mesh.num_free_dofs == n_free
    rng = np.random.default_rng(10 * dim + n)
    nodal = rng.standard_normal((mesh.num_vertices, dim, 3))

    expected = np.empty((n_free, 3))
    for v in range(mesh.num_vertices):
        for c in range(dim):
            if oracle[v, c] >= 0:
                expected[oracle[v, c]] = nodal[v, c]
    assert np.array_equal(to_free(mesh, nodal), expected)
    x = to_free(mesh, nodal[:, :, 0])
    assert x.shape == (n_free,)
    assert np.array_equal(x, expected[:, 0])

    field = from_free(mesh, x)
    assert field.shape == (mesh.num_vertices, dim)
    assert np.array_equal(field[free], nodal[:, :, 0][free])
    assert np.all(field[~free] == 0.0)
    # round trips: free -> nodal -> free, and nodal with zero boundary
    # values -> free -> nodal
    assert np.array_equal(to_free(mesh, field), x)
    assert np.array_equal(from_free(mesh, to_free(mesh, field)), field)


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("form", ["GRAD_DIV", "EPS_DIV"])
@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (2.0, 0.5)])
def test_stiffness_matches_loop_oracle(dim, n, form, mu, lam):
    # each against the loop oracle of its own form: the stiffness, and
    # the eps-div form that it equals on H^1_0
    mesh = build_unit_box_mesh(dim, n)
    if form == "GRAD_DIV":
        A = assemble_stiffness(mesh, LameParams(mu, lam))
    else:
        A = vector_p1_form_matrix(mesh, None, c_eps=2.0 * mu, c_div=lam)
    A = A.toarray()
    K = restrict_to_free(dense_stiffness_loop(mesh, mu, lam, form), mesh)
    assert np.allclose(A, K, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
@pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (1.0, 10.0), (2.0, 0.5)])
def test_two_forms_agree_after_elimination(dim, n, mu, lam):
    mesh = build_unit_box_mesh(dim, n)
    params = LameParams(mu, lam)
    A1 = assemble_stiffness(mesh, params)
    A2 = vector_p1_form_matrix(mesh, None, c_eps=2.0 * mu, c_div=lam)
    diff = abs(A1 - A2).max()
    scale = abs(A1).max()
    assert diff <= 1e-12 * scale


@pytest.mark.parametrize("dim,n", [(2, 6), (3, 3)])
def test_stiffness_symmetric_and_positive(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    A = assemble_stiffness(mesh, LameParams(1.0, 2.0))
    # duplicate summation order in the sparse conversion costs an ulp
    asym = abs(A - A.T).max()
    assert asym <= 1e-12 * abs(A).max()
    evals = np.linalg.eigvalsh(A.toarray())
    assert evals[0] > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_corner_pair_blocks_match_the_loop_oracle(dim):
    nt = math.factorial(dim)
    K = np.random.default_rng(dim).standard_normal(
        (nt, dim + 1, dim, dim + 1, dim))
    got = assembly._corner_pair_blocks(dim, K)
    want = corner_pair_blocks_loop(dim, K)
    # the same pairs in the same order: _form_rows sums in that order
    assert list(got) == list(want)
    for key, blocks in want.items():
        assert same_bits(got[key], blocks)


@pytest.mark.parametrize("dim,n", [(2, 3), (2, 4), (3, 2), (3, 3)])
@pytest.mark.parametrize("coeffs", [dict(c_grad=1.0), dict(c_div=1.0),
                                    dict(c_eps=1.0),
                                    dict(c_grad=0.7, c_div=1.3, c_eps=0.4)])
@pytest.mark.parametrize("weighted", [False, True])
def test_form_matrix_matches_weighted_loop_oracle(dim, n, coeffs, weighted):
    mesh = build_unit_box_mesh(dim, n)
    vols = cell_volumes(mesh)
    rng = np.random.default_rng(5)
    w = vols * rng.uniform(0.5, 2.0, mesh.num_cells) if weighted else None
    A = vector_p1_form_matrix(mesh, w, **coeffs)
    K = restrict_to_free(
        dense_form_loop(mesh, vols if w is None else w, **coeffs), mesh)
    scale = abs(K).max()
    assert abs(A.toarray() - K).max() <= 1e-12 * scale
    # exact symmetry, no stored zeros, and the oracle's sparsity pattern;
    # where 1/n is not dyadic the oracle's per-cell solves leave roundoff
    # of order 1e-18 on entries that are exactly zero
    assert (A - A.T).nnz == 0
    assert np.all(A.data != 0.0)
    assert np.array_equal(A.toarray() != 0.0, abs(K) > 1e-14 * scale)
    assert A.has_sorted_indices


def _form_cases(mesh, weighted):
    """Cell weights and the grad-div, eps-div, c_grad and c_eps forms."""
    rng = np.random.default_rng(mesh.n)
    vols = cell_volumes(mesh)
    w = vols * rng.uniform(0.5, 2.0, mesh.num_cells) if weighted else None
    mu, lam = 1.3, 2.1
    return w, [dict(c_grad=mu, c_div=mu + lam),
               dict(c_eps=2.0 * mu, c_div=lam),
               dict(c_grad=1.0), dict(c_eps=1.0)]


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 2), (2, 3), (2, 7), (2, 33),
                                   (3, 1), (3, 2), (3, 3), (3, 5), (3, 9)])
@pytest.mark.parametrize("weighted", [False, True])
def test_slab_writer_matches_fullgrid_writer(dim, n, weighted):
    mesh = build_unit_box_mesh(dim, n)
    w, forms = _form_cases(mesh, weighted)
    for coeffs in forms:
        A = vector_p1_form_matrix(mesh, w, **coeffs)
        B = form_matrix_fullgrid(mesh, w, **coeffs)
        assert A.shape == B.shape
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert A.indices.dtype == B.indices.dtype
        assert A.indptr.dtype == B.indptr.dtype
        assert np.all(np.abs(A.data - B.data) <= 1e-15 * np.abs(B.data))


@pytest.mark.parametrize("dim,n", [(2, 7), (3, 5)])
@pytest.mark.parametrize("weighted", [False, True])
def test_slab_length_does_not_change_the_matrix(dim, n, weighted,
                                                monkeypatch):
    mesh = build_unit_box_mesh(dim, n)
    w, forms = _form_cases(mesh, weighted)
    for coeffs in forms:
        A = vector_p1_form_matrix(mesh, w, **coeffs)
        # one vertex plane per slab, then all planes in one slab
        for slab in (1, mesh.num_vertices):
            monkeypatch.setattr(assembly, "_SLAB_VERTICES", slab)
            B = vector_p1_form_matrix(mesh, w, **coeffs)
            assert np.array_equal(A.indptr, B.indptr)
            assert np.array_equal(A.indices, B.indices)
            assert np.array_equal(A.data, B.data)
        monkeypatch.undo()


def _operator(dim, n, params):
    """The level operator of size n, tiled from its family's stencil."""
    return LatticeStencil(dim, _stencil_size(n), params).operator(n)


# the stencil is read at n0 = 4, 5, 6 or an odd n >= 7 and tiled over
# sizes n0 2^k, k = -2 .. 4; the tiles must be the rows that _form_rows
# writes for one line of the first plane at that size, bit for bit
@pytest.mark.parametrize("lam", [1.0, 50.0, 1e3])
@pytest.mark.parametrize("dim,n", [(dim, n) for dim in (2, 3)
                                   for n in (2, 3, 4, 5, 6, 8, 12, 24, 32,
                                             33, 64)])
def test_tiled_rows_equal_the_plane_rows(dim, n, lam):
    params = LameParams(1.0, lam)
    _same_line_rows(_operator(dim, n, params),
                    line_rows(build_unit_box_mesh(dim, n), params))


@pytest.mark.parametrize("dim", [2, 3])
def test_operator_shifts_are_the_kuhn_shifts_of_the_padded_axes(dim):
    op = LatticeStencil(dim, 4, LameParams(1.0, 1.0)).operator(8)
    assert op.shifts == _kuhn_shifts(dim - 1)
    assert len(op.shifts) == op.indptr.shape[0]


def _same_line_rows(op, W):
    """Each block of op is the part of one line's rows W at its shift,
    bit for bit, and W holds no entry at a mixed-sign shift."""
    rows = W.shape[0]
    assert op.rows == rows
    assert op.indptr.shape == (len(op.shifts), rows + 1)
    assert op.shifts == sorted(op.shifts)
    shifts = list(itertools.product((-1, 0, 1), repeat=op.dim - 1))
    for k, t in enumerate(shifts):
        ref = W[:, k * rows:(k + 1) * rows]
        if t not in op.shifts:
            # a Kuhn cell has no two vertices at a mixed-sign shift
            assert ref.nnz == 0
            continue
        block = op.block(op.shifts.index(t))
        assert same_bits(block.data, ref.data)
        assert np.array_equal(block.indices, ref.indices)
        assert block.indices.dtype == ref.indices.dtype
        assert np.array_equal(block.indptr, ref.indptr)


# at 3D n0=63 the blocks read straight from _slab_blocks on the first
# interior plane peak at 9.9 MB (tracemalloc): the slab's window of
# half blocks (4.7 MB) and the blocks of the 62 x 62 vertex plane
# (4.2 MB). Reading them as CSR rows of a three-plane dof table through
# _form_rows peaks at 16.7 MB, so the bound holds the direct read
STENCIL_PEAK_BYTES_63 = 12_000_000


def test_stencil_read_at_a_large_odd_size_keeps_its_bits_in_little_memory():
    mesh = build_unit_box_mesh(3, 63)
    params = LameParams(1.0, 50.0)
    tracemalloc.start()
    try:
        stencil = LatticeStencil(3, 63, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STENCIL_PEAK_BYTES_63
    _same_line_rows(stencil.operator(63), line_rows(mesh, params))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_padded_layout_matches_the_loop_oracle(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    x = np.random.default_rng(n).standard_normal(mesh.num_free_dofs)
    padded = to_padded(mesh, x)
    assert same_bits(padded, pad_vector(mesh, x))
    assert same_bits(from_padded(mesh, padded), x)
    # every slot that holds no free dof is zero
    pos, size = padded_positions(mesh)
    assert size == padded.size
    assert np.count_nonzero(np.delete(padded, pos)) == 0
    x32 = x.astype(np.float32)
    assert same_bits(from_padded(mesh, to_padded(mesh, x32)),
                     x32)


@pytest.mark.parametrize("lam", [1.0, 50.0, 1000.0])
@pytest.mark.parametrize("dim,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6),
                                   (2, 33), (2, 64), (2, 66), (2, 96),
                                   (3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                   (3, 6), (3, 8), (3, 9), (3, 16), (3, 30)])
def test_stiffness_operator_is_the_assembled_matrix_bit_for_bit(dim, n, lam):
    mesh = build_unit_box_mesh(dim, n)
    params = LameParams(1.0, lam)
    rng = np.random.default_rng(n)
    A = assemble_stiffness(mesh, params)
    op = build_levels(dim, n, params)[0].A
    assert op.shape == (padded_positions(mesh)[1],) * 2
    assert op.p ** (dim - 1) * op.rows == A.shape[0]
    if A.shape[0] == 0:
        return
    assert same_bits(op.diagonal(), A.diagonal())
    for x in (rng.standard_normal(A.shape[0]), np.ones(A.shape[0])):
        assert same_bits(op @ x, A @ x)
        assert same_bits(op @ to_padded(mesh, x), to_padded(mesh, A @ x))
    if A.shape[0] <= 2000:
        assert same_bits(op.toarray(), A.toarray())


def test_stiffness_operator_returns_fresh_arrays():
    for n in (2, 5):
        mesh = build_unit_box_mesh(3, n)
        op = _operator(3, n, LameParams(1.0, 1.0))
        for size in (mesh.num_free_dofs, op.shape[0]):
            x, z = np.random.default_rng(n).standard_normal((2, size))
            y = op @ x
            kept = y.copy()
            w = op @ z
            assert not np.shares_memory(y, x)
            assert not np.shares_memory(y, w)
            assert np.array_equal(y, kept)
            y[:] = 0.0
            assert np.array_equal(op @ x, kept)


def test_stiffness_operator_stores_one_plane():
    # one line's rows, the plane's rows in a single line: 3 (n-1) rows in
    # 7 blocks, one per shift of the padded axes
    op = _operator(3, 16, LameParams(1.0, 1.0))
    rows = 3 * 15
    assert op.indptr.shape == (7, rows + 1)
    assert all(op.block(k).shape == (rows, rows) for k in range(7))
    assert op.data.size == op.indices.size == op.indptr[6, -1] <= 45 * rows
    # rounding keeps the index arrays
    op32 = op.astype(np.float32)
    assert op32.data.dtype == np.float32
    assert same_bits(op32.data, op.data.astype(np.float32))
    assert op32.indices is op.indices and op32.indptr is op.indptr


def test_stiffness_operator_stores_entries_linear_in_n():
    # a plane's rows held 103,347 entries at 3D n=32 and 433,779 at 64
    params = LameParams(1.0, 1.0)
    assert _operator(3, 32, params).data.size == 3387
    op = _operator(3, 64, params)
    assert op.rows == 189
    assert op.data.size == op.indices.size == 6939 < 45 * op.rows
    assert op.indptr.size == 7 * (op.rows + 1)


def test_form_matrix_peak_memory_is_near_its_output():
    # the whole-lattice writer peaked at 3.56 times its output here
    mesh = build_unit_box_mesh(3, 32)
    tracemalloc.start()
    try:
        A = assemble_stiffness(mesh, LameParams(1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert peak <= 1.6 * out


def test_form_matrix_weights_default_to_volumes():
    mesh = build_unit_box_mesh(2, 4)
    A = vector_p1_form_matrix(mesh, None, c_grad=1.0, c_div=0.5)
    B = vector_p1_form_matrix(mesh, cell_volumes(mesh), c_grad=1.0, c_div=0.5)
    assert abs(A - B).max() == 0.0


def test_form_matrix_empty_free_space():
    mesh = build_unit_box_mesh(2, 1)
    assert mesh.num_free_dofs == 0
    A = vector_p1_form_matrix(mesh, None, c_grad=1.0)
    assert A.shape == (0, 0)


@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
def test_point_load_partition_of_unity(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    rng = np.random.default_rng(3)
    pts = 0.1 + 0.8 * rng.random((4, dim))
    forces = rng.standard_normal((4, dim))
    nodal = point_load_nodal(mesh, PointLoadSet(pts, forces))
    assert nodal.shape == (mesh.num_vertices, dim)
    assert np.allclose(nodal.sum(axis=0), forces.sum(axis=0), atol=1e-13)


def test_point_load_at_vertex_hits_single_node():
    mesh = build_unit_box_mesh(2, 4)
    target = np.array([0.5, 0.25])
    v = int(np.flatnonzero((mesh.vertices == target).all(axis=1))[0])
    nodal = point_load_nodal(mesh, PointLoadSet([target], [[3.0, -1.0]]))
    expected = np.zeros_like(nodal)
    expected[v] = [3.0, -1.0]
    assert np.array_equal(nodal, expected)


def _load_sites(mesh):
    """Interior vertices, edge midpoints, face centres and cell centres."""
    sites = []
    for V in mesh.vertices[mesh.cells]:
        sites += [V[0], 0.5 * (V[0] + V[-1]), V[1:].mean(axis=0),
                  V.mean(axis=0)]
    return [x for x in sites if np.all((x > 0.0) & (x < 1.0))]


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 3)])
def test_point_load_gathers_the_located_cell(dim, n):
    # loads on vertices, edges, faces and cell interiors, against the
    # gather through the whole cell table
    mesh = build_unit_box_mesh(dim, n)
    cells = mesh.cells
    rng = np.random.default_rng(9)
    sites = _load_sites(mesh)
    sites += list(0.05 + 0.9 * rng.random((10, dim)))
    for x in sites:
        f = rng.standard_normal(dim)
        loc = locate_point(mesh, x)
        expected = np.zeros((mesh.num_vertices, dim))
        for v, lam in zip(cells[loc.cell_index], loc.barycentric):
            expected[v] += lam * f
        assert same_bits(point_load_nodal(mesh, PointLoadSet([x], [f])),
                         expected)


def test_point_load_is_linear_in_loads():
    mesh = build_unit_box_mesh(2, 3)
    a = PointLoadSet([[0.3, 0.4]], [[1.0, 2.0]])
    b = PointLoadSet([[0.7, 0.6]], [[-1.0, 0.5]])
    both = PointLoadSet([[0.3, 0.4], [0.7, 0.6]], [[1.0, 2.0], [-1.0, 0.5]])
    s = point_load_nodal(mesh, a) + point_load_nodal(mesh, b)
    assert np.allclose(point_load_nodal(mesh, both), s, atol=1e-15)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_assemble_point_load_restricts_to_free(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    table = free_dof_numbering(mesh)
    loads = PointLoadSet([np.full(dim, 0.5)], [np.arange(1.0, dim + 1.0)])
    full = point_load_nodal(mesh, loads)
    b = assemble_point_load(mesh, loads)
    assert b.shape == (mesh.num_free_dofs,)
    for v in range(mesh.num_vertices):
        for c in range(dim):
            k = table[v, c]
            if k >= 0:
                assert b[k] == full[v, c]


def test_load_dim_mismatch_raises():
    mesh = build_unit_box_mesh(3, 2)
    loads = PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        assemble_point_load(mesh, loads)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_smooth_constant_load_recovers_hat_integrals(dim, n):
    # a constant f = c gives entry c * int phi_v, and each cell adds
    # |T| / (d+1) to the hat integral of each of its vertices
    mesh = build_unit_box_mesh(dim, n)
    table = free_dof_numbering(mesh)
    f = lambda x: np.tile(np.arange(1.0, dim + 1.0), (x.shape[0], 1))
    b = assemble_smooth_load(mesh, f)
    full = np.zeros((mesh.num_vertices, dim))
    free = table >= 0
    full[free] = b[table[free]]
    hats = np.zeros(mesh.num_vertices)
    vols = cell_volumes(mesh)
    for ci, cell in enumerate(mesh.cells):
        hats[cell] += vols[ci] / (dim + 1)
    expected = hats[:, None] * np.arange(1.0, dim + 1.0)[None, :]
    assert np.allclose(full[free], expected[free], atol=1e-14)
