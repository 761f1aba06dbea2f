"""Vector P1 assembly for the elasticity forms and load vectors.

The stiffness matrix comes in two algebraically equal flavours on the
zero-trace space,

    GRAD_DIV:  mu (grad u, grad v) + (mu + lambda) (div u, div v)
    EPS_DIV:   2 mu (eps(u), eps(v)) + lambda (div u, div v)

both built from one parametrized cellwise kernel. All element
integrands are cellwise constant for P1, so assembly is exact. The
kernel is evaluated only on the d! reference cells of the Kuhn
lattice; cells scale it by their volume or weight, and the sums are
formed per lattice offset and written straight into CSR, one slab of
vertex planes at a time. The CSR arrays are the only allocation of
the matrix's size, so a form peaks at about 1.5 times the matrix it
returns, and the slab length does not change a single bit of it.
The unweighted stiffness is the same at every interior vertex, so a
LatticeStencil reads the rows of one vertex from the same slab writer
and tiles them over any mesh of the family as a StencilOperator, whose
products equal the matrix's bit for bit; the multigrid solve uses it
and assembles no matrix. Its large products split their rows across
two threads on a host that gives the process two CPUs, with the same
bits as on one.

Free degrees of freedom are the (vertex, component) pairs of the
interior (n-1)^d sub-lattice, vertex-major with the component inner.
This module alone decides that numbering and the plane-padded layout
of the solve's vectors: to_free and from_free move nodal arrays to and
from the free dofs, to_padded and from_padded move free-dof vectors to
and from the padded layout, the forms are scipy CSR matrices over the
free dofs, and a StencilOperator acts on padded vectors.
"""

import os
import threading
from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .mesh import (_cell_vertices, _chain_templates, _lattice_strides,
                   _reference_gradients, cell_volumes, locate_point)
from .quadrature import simplex_rule

CONSTRAINED = -1

GRAD_DIV = "GRAD_DIV"
EPS_DIV = "EPS_DIV"

# interior vertices per slab of the CSR writer _form_rows, rounded down
# to whole vertex planes along the first axis (at least one). Its
# temporaries take about 5 kB per slab vertex in 3D; one plane per
# slab at 3D n=32 was also the fastest length measured.
_SLAB_VERTICES = 1024

# multiply-adds, nnz x (p + 1) for a StencilOperator's product, from
# which the product splits its rows across two threads. Kernel alone
# (csr_matvecs on one plane's rows, float64 and float32, 2-core host):
# 3D n=32 (3.3M) ran 1.74-1.89x faster on two threads, 3D n=64 (28M)
# 1.81-1.96x and 2D n=256 (1.56M) 1.37-1.62x. 2D n=128 (0.39M) and 3D
# n=16 (0.37M) stay serial: splitting 2D n=128 as well made the 2D
# point-load study about 10 % slower. Products split from 3D n=22 and
# 2D n=205 on.
_SPLIT_MULTIPLY_ADDS = 1_000_000
# the one worker thread of the split, made by the first split product
_row_pool = None
_row_pool_lock = threading.Lock()


def _forget_row_pool():
    # a forked child has no worker thread behind the inherited pool
    global _row_pool, _row_pool_lock
    _row_pool = None
    _row_pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_row_pool)


@dataclass(frozen=True)
class LameParams:
    """Positive finite Lame constants."""

    mu: float
    lam: float

    def __post_init__(self):
        if not (0 < self.mu < np.inf and 0 < self.lam < np.inf):
            raise ValueError("Lame constants must be positive and finite, "
                             "got mu=%r lambda=%r" % (self.mu, self.lam))


@dataclass(frozen=True)
class PointLoadSet:
    """Finite point forces sum_k f_k delta_{x_k}, x_k strictly interior."""

    points: np.ndarray
    forces: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        fcs = np.atleast_2d(np.asarray(self.forces, dtype=float))
        if pts.shape != fcs.shape or pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points and forces must be matching (K, d) "
                             "arrays with K >= 1")
        if not np.all((pts > 0.0) & (pts < 1.0)):
            raise ValueError("load locations must lie strictly inside "
                             "the unit box")
        if not np.all(np.isfinite(fcs)):
            raise ValueError("point forces must be finite, got %s"
                             % (fcs.tolist(),))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "forces", fcs)

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


def _interior(mesh):
    """Index of the interior sub-lattice in an (n+1,)*d vertex grid."""
    return (slice(1, mesh.n),) * mesh.dim


def to_free(mesh, nodal):
    """Free rows of an (nv, d, ...) nodal array, shape (n_free, ...)."""
    nodal = np.asarray(nodal)
    grid = nodal.reshape((mesh.n + 1,) * mesh.dim + nodal.shape[1:])
    return grid[_interior(mesh)].reshape((-1,) + nodal.shape[2:])


def from_free(mesh, x):
    """The (nv, d) nodal field of a free-dof vector, zero on the boundary."""
    d = mesh.dim
    grid = np.zeros((mesh.n + 1,) * d + (d,))
    grid[_interior(mesh)] = np.reshape(x, (mesh.n - 1,) * d + (d,))
    return grid.reshape(-1, d)


def build_dof_map(mesh):
    """(nv, d) table of free dof numbers, CONSTRAINED on the boundary."""
    d = mesh.dim
    table = np.full((mesh.n + 1,) * d + (d,), CONSTRAINED, dtype=np.int64)
    table[_interior(mesh)] = np.arange(mesh.num_free_dofs).reshape(
        (mesh.n - 1,) * d + (d,))
    return table.reshape(-1, d)


def _element_matrices(grads, c_grad, c_div, c_eps):
    """Unit-volume element matrices of the parametrized vector form.

    grads is an (m, d+1, d) batch of cell gradients; the result has
    shape (m, d+1, d, d+1, d), indexed by (vertex i, component a,
    vertex j, component b):
    Entry[i,a,j,b] = c_grad * d_ab (g_i . g_j)
                   + c_div  * g_i[a] g_j[b]
                   + c_eps  * 0.5 (d_ab (g_i . g_j) + g_i[b] g_j[a]).
    """
    m, nv, d = grads.shape
    eye = np.eye(d)
    K = np.zeros((m, nv, d, nv, d))
    dots = None
    if c_grad or c_eps:
        dots = np.einsum("xia,xja->xij", grads, grads)
        gg = dots[:, :, None, :, None] * eye[None, None, :, None, :]
    if c_grad:
        K += c_grad * gg
    if c_div:
        K += c_div * np.einsum("xia,xjb->xiajb", grads, grads)
    if c_eps:
        K += (0.5 * c_eps) * (gg + np.einsum("xib,xja->xiajb", grads, grads))
    return K


def _corner_pair_blocks(dim, K):
    """Element blocks grouped by the lattice corners they couple.

    K holds the element matrices of the d! reference cells. Returns
    {(row corner, col corner): (d!, d, d) blocks} over corner pairs of
    the unit cube with col corner >= row corner; type t's block is
    zero unless both corners are vertices of that cell.
    Two vertices of a Kuhn cell always differ by a 0/1 vector or its
    negative, so these pairs cover every coupling up to symmetry.
    """
    templates = _chain_templates(dim)
    groups = {}
    for t, corners in enumerate(templates):
        for i, ci in enumerate(corners):
            for j, cj in enumerate(corners):
                if np.all(cj >= ci):
                    key = (tuple(ci), tuple(cj))
                    if key not in groups:
                        groups[key] = np.zeros((len(templates), dim, dim))
                    groups[key][t] = K[t, i, :, j, :]
    return groups


def vector_p1_form_matrix(mesh, cell_weights=None, c_grad=0.0, c_div=0.0,
                          c_eps=0.0):
    """CSR matrix of a cellwise-constant vector P1 bilinear form.

    cell_weights scales each cell's contribution; None means plain cell
    volumes (unweighted form), integrals of a weight over each cell
    give the weighted form. Rows and columns are the free dofs in the
    order of to_free; constrained ones are eliminated symmetrically.

    Lattice assembly: the element matrices of the d! reference cells
    are built once, and a cell contributes its weight times the matrix
    of its type. Vertices sharing a cell differ by one of 7 (2D) or 15
    (3D) lattice offsets, so the d x d blocks are summed per (vertex,
    offset) by slice-adds over the cube grid and written straight into
    CSR. Row (v, a) lists the columns (v + offset, b) with offsets in
    ascending linear stride, which is ascending column order. Blocks of
    negative offsets are the transposes of the positive ones, summed
    from the same cube products in the same order, so the matrix is
    exactly symmetric. Entries that sum to exactly zero are not stored.
    Deterministic: fixed accumulation order.

    The rows are written in slabs of whole interior vertex planes along
    the first lattice axis, about _SLAB_VERTICES vertices each; a slab
    reads only the cubes that touch it. The CSR arrays are allocated
    once at their upper bound, filled slab by slab and trimmed in
    place, so the traced peak is about 1.5 times the returned matrix
    (3D n=32: 55 MB for 38 MB; n=64: 442 MB for 328 MB). Every entry
    sums the same terms in the same order whatever the slab length.
    """
    n_free = mesh.num_free_dofs
    if n_free == 0:
        return sp.csr_matrix((0, 0))
    if cell_weights is None:
        weights = cell_volumes(mesh)
    else:
        weights = np.asarray(cell_weights, dtype=float)
        if weights.shape != (mesh.num_cells,):
            raise ValueError("cell_weights must have one entry per cell")
    return _form_rows(mesh, weights, (c_grad, c_div, c_eps),
                      build_dof_map(mesh), mesh.n - 1, n_free)


def _form_rows(mesh, weights, coeffs, table, planes, ncols):
    """CSR of a form's rows at the interior vertex planes 1 .. planes.

    The slab writer of vector_p1_form_matrix. table is the (nv, d)
    column number of each (vertex, component), CONSTRAINED where the
    column is dropped; coeffs are (c_grad, c_div, c_eps). The rows are
    numbered as the free dofs of those planes. Each entry sums the same
    terms in the same order whatever the slab length and whatever
    table, so a column kept by two tables holds the same value.
    """
    d, n = mesh.dim, mesh.n
    K = _element_matrices(_reference_gradients(d, n), *coeffs)
    nt = K.shape[0]
    groups = _corner_pair_blocks(d, K)
    # nonnegative offsets in ascending linear stride; for 0/1 vectors
    # that is lexicographic order, and offsets[0] is zero
    offsets = sorted({tuple(np.subtract(cj, ci)) for ci, cj in groups})
    plan = [(offsets.index(tuple(np.subtract(cj, ci))), ci,
             blocks.reshape(nt, d * d)) for (ci, cj), blocks in groups.items()]
    cube_weights = weights.reshape((n,) * d + (nt,))

    m = len(offsets) - 1
    strides = _lattice_strides(d, n)
    steps = np.array(offsets[:0:-1] + offsets, dtype=np.int64) @ strides
    steps[:m] *= -1
    plane = (n - 1) ** (d - 1)
    width = (2 * m + 1) * d
    nrows = planes * plane * d
    bound = nrows * width
    itype = np.int32 if bound < 2 ** 31 else np.int64
    table = table.astype(itype)
    lattice = np.arange((n + 1) ** d).reshape((n + 1,) * d)
    # untouched pages of the upper-bound arrays take no memory
    data = np.empty(bound)
    indices = np.empty(bound, dtype=itype)
    indptr = np.zeros(nrows + 1, dtype=itype)
    nnz = 0
    step = max(1, _SLAB_VERTICES // plane)
    for lo in range(1, planes + 1, step):
        hi = min(lo + step, planes + 1)
        vals = _slab_blocks(cube_weights, plan, offsets, lo, hi)
        verts = lattice[(slice(lo, hi),) + _interior(mesh)[1:]].reshape(-1)
        cols = table[verts[:, None] + steps[None, :]][:, None]
        keep = (vals != 0.0) & (cols >= 0)
        count = int(np.count_nonzero(keep))
        data[nnz:nnz + count] = vals[keep]
        indices[nnz:nnz + count] = np.broadcast_to(cols, keep.shape)[keep]
        first = (lo - 1) * plane * d
        last = first + len(verts) * d
        np.cumsum(keep.reshape(-1, width).sum(axis=1),
                  out=indptr[first + 1:last + 1])
        indptr[first + 1:last + 1] += nnz
        nnz += count
    # shrink in place: no view of either array is alive here
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(nrows, ncols))


def _slab_blocks(cube_weights, plan, offsets, lo, hi):
    """Blocks of the rows at interior vertex planes lo .. hi-1.

    Returns the (rows, d, 2m + 1, d) array of vector_p1_form_matrix's
    slab: row (v, a), column block m + k holds the block (v, v +
    offsets[k]) and m - k the transpose of (v - offsets[k], v). The
    window adds plane lo-1 and reads the cubes lo-1 .. hi-1; plane lo-1
    gets only the blocks from cube plane lo-1, which are all that the
    blocks towards plane lo need.
    """
    n = cube_weights.shape[0]
    d = cube_weights.ndim - 1
    m = len(offsets) - 1
    w = hi - lo + 1
    cw = cube_weights[lo - 1:hi].reshape(-1, cube_weights.shape[-1])
    # half[k][v] is the (v, v + offsets[k]) block, shape (d, d)
    half = np.zeros((m + 1, w) + (n + 1,) * (d - 1) + (d, d))
    for k, ci, blocks in plan:
        part = (cw @ blocks).reshape((w,) + (n,) * (d - 1) + (d, d))
        half[(k, slice(ci[0], w)) + tuple(slice(c, c + n)
                                          for c in ci[1:])] += \
            part[:w - ci[0]]
    # the matmul need not round the (a, b) and (b, a) entries of a
    # diagonal block alike; copy the upper triangle to keep symmetry
    iu = np.triu_indices(d, 1)
    half[0][..., iu[1], iu[0]] = half[0][..., iu[0], iu[1]]

    rows = (slice(1, w),) + (slice(1, n),) * (d - 1)
    vals = np.empty((hi - lo,) + (n - 1,) * (d - 1) + (d, 2 * m + 1, d))
    vals[..., m, :] = half[0][rows]
    for k in range(1, m + 1):
        vals[..., m + k, :] = half[k][rows]
        below = tuple(slice(r.start - o, r.stop - o)
                      for r, o in zip(rows, offsets[k]))
        vals[..., m - k, :] = np.swapaxes(half[k][below], -1, -2)
    return vals.reshape(-1, d, 2 * m + 1, d)


def _stiffness_coeffs(params, form):
    """(c_grad, c_div, c_eps) of the stiffness in the given form."""
    if form == GRAD_DIV:
        return params.mu, params.mu + params.lam, 0.0
    if form == EPS_DIV:
        return 0.0, params.lam, 2.0 * params.mu
    raise ValueError("form must be GRAD_DIV or EPS_DIV, got %r" % (form,))


def assemble_stiffness(mesh, params, form=GRAD_DIV):
    """Elasticity stiffness on free dofs in either algebraic form.

    Returns an empty 0 x 0 matrix when the mesh has no interior
    vertices (n_free = 0); that is a signal, not an error.
    """
    return vector_p1_form_matrix(mesh, None, *_stiffness_coeffs(params, form))


def _cpus():
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _worker():
    """The one worker thread of the split products, made on first use."""
    global _row_pool
    with _row_pool_lock:
        if _row_pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _row_pool = ThreadPoolExecutor(1, "elastopoint-rows")
        return _row_pool


def _sparse_product(M, x, out):
    """out = M @ x for a CSR or CSC matrix M and a vector x, allocating
    nothing.

    Runs the kernel of scipy's own M @ x, csr_matvec or csc_matvec, on
    M's arrays. The kernels add to their output, so out is zeroed
    first, as scipy's fresh result is; the bits are those of M @ x. x
    and out are C-ordered vectors of M's dtype; the kernels sum in it.
    """
    out.fill(0.0)
    rows, cols = M.shape
    getattr(_sparsetools, M.format + "_matvec")(
        rows, cols, M.indptr, M.indices, M.data, x, out)
    return out


def _plane_layout(mesh):
    """(p, pd): the interior vertex planes along the first lattice axis
    and the free dofs of each, d (n-1)^(d-1); (0, 0) without free dofs."""
    if mesh.num_free_dofs == 0:
        return 0, 0
    return mesh.n - 1, mesh.num_free_dofs // (mesh.n - 1)


def _padded_size(p, pd):
    return pd * (p + 1) + 2 if pd else 0


def _padded_position(p, plane, dof):
    """Where free dof (plane, in-plane dof) sits in a padded vector."""
    return 1 + dof * (p + 1) + plane


def _free_slots(x, p, pd):
    """The (pd, p) view of the free slots of a padded vector."""
    return x[1:1 + pd * (p + 1)].reshape(pd, p + 1)[:, :p]


def to_padded(mesh, x):
    """The plane-padded vector of a free-dof vector, in x's dtype.

    The free dofs are plane-major: dof f = j pd + c is in-plane dof c
    of interior vertex plane j. The padded layout stores it at 1 + c
    (p+1) + j, so each in-plane dof's p plane values are contiguous,
    and every other entry is zero: the leading one, the slot after each
    run of p values and a trailing one, which the view shifted by +1
    plane reads after the last run. A shift by one plane is then a
    shift by one entry, and the zero slots stand for the boundary
    planes on both sides.
    """
    p, pd = _plane_layout(mesh)
    x = np.asarray(x)
    out = np.zeros(_padded_size(p, pd), dtype=x.dtype)
    _free_slots(out, p, pd).T[...] = x.reshape(p, pd)
    return out


def from_padded(mesh, x):
    """The free-dof vector of a plane-padded vector (a copy)."""
    p, pd = _plane_layout(mesh)
    return _free_slots(x, p, pd).T.reshape(-1)


class StencilOperator:
    """A level's GRAD_DIV stiffness on the plane-padded layout.

    The rows of every interior vertex plane are the same: the tiles of
    one vertex's stencil over that plane. Block s (s = 0, 1, 2) is the
    pd x pd CSR block of the columns on the plane shifted by s - 1,
    numbered as in-plane dofs. The three blocks share data and indices;
    indptr[s] holds block s's row pointers into them, so data, indices
    and indptr size the whole operator.

    matvec(x, out) writes A x into out for plane-padded x and out of
    the operator's dtype, with no copy: out is zeroed, each block adds
    its products through scipy's csr_matvecs on the view of x shifted
    by s entries (its pd rows of p + 1 values are the planes shifted by
    s - 1), and the zero slots, which collect products from the
    neighbouring planes, are zeroed again. Each output entry adds the
    terms of its assembled row in column order, plus +0 x terms where a
    shifted plane is a boundary one, so the bits are those of the
    assembled matrix's product. A product of at least
    _SPLIT_MULTIPLY_ADDS multiply-adds, nnz (p + 1), in a process that
    may run on two CPUs, splits its rows: one worker thread computes
    rows pd/2 .. pd of all three blocks while the caller computes the
    first half, and the product returns only when both have stopped.

    A @ x takes a free-dof or a plane-padded vector and returns one of
    the same kind; diagonal() is the free-dof diagonal.
    """

    def __init__(self, planes, data, indices, indptr):
        self.planes = planes
        self.pd = indptr.shape[1] - 1
        size = _padded_size(planes, self.pd)
        self.shape = (size, size)
        self.data, self.indices, self.indptr = data, indices, indptr

    def astype(self, dtype):
        """The same operator with its data rounded to dtype; indices and
        indptr are shared."""
        return StencilOperator(self.planes, self.data.astype(dtype),
                               self.indices, self.indptr)

    def block(self, s):
        """Block s as a pd x pd CSR matrix."""
        lo, hi = self.indptr[s, 0], self.indptr[s, -1]
        return sp.csr_matrix((self.data[lo:hi], self.indices[lo:hi],
                              self.indptr[s] - lo), shape=(self.pd,) * 2)

    def diagonal(self):
        return np.tile(self.block(1).diagonal(), self.planes)

    def jacobi_bound(self):
        """(1 / the diagonal of one plane's rows, in float64, and the
        Gershgorin bound max_i sum_j |A_ij| / A_ii).

        A row of plane j adds the terms of the blocks s with j + s - 1 a
        plane, in column order, as the assembled row does; the rows of
        the first plane, the second and the last cover every kind of
        row, so the bound has the bits of the assembled matrix's.
        """
        p, pd = self.planes, self.pd
        inv = 1.0 / self.block(1).diagonal()
        magnitude = np.abs(self.data)
        ones = np.ones(pd)
        lmax = 0.0
        for j in sorted({0, min(1, p - 1), p - 1}):
            sums = np.zeros(pd)
            for s in range(3):
                if 0 <= j + s - 1 < p:
                    _sparsetools.csr_matvec(pd, pd, self.indptr[s],
                                            self.indices, magnitude, ones,
                                            sums)
            lmax = max(lmax, float((inv * sums).max()))
        return inv, lmax

    def toarray(self):
        """The dense matrix on the free dofs."""
        p, pd = self.planes, self.pd
        dense = np.zeros((p, pd, p, pd), dtype=self.data.dtype)
        for s in range(3):
            tile = self.block(s).toarray()
            for j in range(max(0, 1 - s), min(p, p + 1 - s)):
                dense[j, :, j + s - 1] = tile
        return dense.reshape(p * pd, p * pd)

    def _rows(self, lo, hi, x, y):
        p1 = self.planes + 1
        size = self.pd * p1
        for s in range(3):
            _sparsetools.csr_matvecs(hi - lo, self.pd, p1, self.indptr[s, lo:],
                                     self.indices, self.data, x[s:s + size],
                                     y[lo * p1:])

    def matvec(self, x, out):
        out.fill(0.0)
        p, pd = self.planes, self.pd
        if not pd:
            return out
        y = out[1:1 + pd * (p + 1)]
        if self.data.size * (p + 1) < _SPLIT_MULTIPLY_ADDS or _cpus() < 2:
            self._rows(0, pd, x, y)
        else:
            h = pd // 2
            second = _worker().submit(self._rows, h, pd, x, y)
            try:
                self._rows(0, h, x, y)
            finally:
                # the worker writes into out until its half has stopped
                second.result()
        out[1 + p::p + 1] = 0.0
        return out

    def __matmul__(self, x):
        if x.shape[0] == self.shape[0]:
            return self.matvec(x, np.empty(self.shape[0], self.data.dtype))
        p, pd = self.planes, self.pd
        padded = np.zeros(self.shape[0], self.data.dtype)
        _free_slots(padded, p, pd).T[...] = x.reshape(p, pd)
        out = self.matvec(padded, np.empty_like(padded))
        return _free_slots(out, p, pd).T.reshape(-1)


class LatticeStencil:
    """The GRAD_DIV stiffness rows of one interior lattice vertex.

    All cells have one volume, so every interior vertex carries the
    same d x d blocks towards its 3^d lattice neighbours, and they
    scale by h^(d-2). The rows are read once, from _form_rows on the
    first interior plane of mesh (n0 = mesh.n >= 4) with the columns of
    vertex planes 0, 1 and 2 kept, at the vertex floor(n0/2) in every
    axis, whose neighbours are all free. Each row keeps its stored
    entries, none of which is zero, in column order: plane shift, then
    in-plane vertex, then component.

    operator(m) tiles the rows over the interior planes of the mesh of
    size m, scaled by (n0/m)^(d-2): an exact power of two when m / n0
    is one, so each entry has the bits _form_rows gives at size m. The
    tiles drop the neighbours that leave the plane and keep the column
    order, so block s holds the rows of _form_rows' one-plane CSR, its
    columns on the plane shifted by s - 1, bit for bit.
    """

    def __init__(self, mesh, params):
        d, n0 = mesh.dim, mesh.n
        q = n0 - 1
        pd = d * q ** (d - 1)
        table = np.full((n0 + 1,) * d + (d,), CONSTRAINED, dtype=np.int64)
        table[(slice(0, 3),) + _interior(mesh)[1:]] = np.arange(
            3 * pd).reshape((3,) + (q,) * (d - 1) + (d,))
        W = _form_rows(mesh, cell_volumes(mesh),
                       _stiffness_coeffs(params, GRAD_DIV),
                       table.reshape(-1, d), 1, 3 * pd)
        centre = n0 // 2 - 1
        # in-plane vertex number of the centre, its interior coordinates
        # all equal to centre
        v0 = sum(centre * q ** k for k in range(d - 1))
        self.dim, self.n0 = d, n0
        # per row component a: the plane shift s, the in-plane offset,
        # the column component b and the value of each stored entry
        self.rows = []
        for a in range(d):
            lo, hi = W.indptr[v0 * d + a], W.indptr[v0 * d + a + 1]
            cols = W.indices[lo:hi].astype(np.int64)
            s, col = np.divmod(cols, pd)
            vert, b = np.divmod(col, d)
            offset = np.array(np.unravel_index(vert, (q,) * (d - 1))).T
            offset -= centre
            self.rows.append((s, offset, b, W.data[lo:hi]))

    def operator(self, m):
        """The StencilOperator of the mesh of size m."""
        d = self.dim
        q = m - 1
        if q < 1:
            return StencilOperator(0, np.zeros(0), np.zeros(0, np.int32),
                                   np.zeros((3, 1), np.int32))
        scale = (self.n0 / m) ** (d - 2)
        nv = q ** (d - 1)
        pd = d * nv
        # each in-plane vertex's interior coordinates, and the strides
        coords = np.indices((q,) * (d - 1)).reshape(d - 1, -1).T
        strides = np.array([q ** (d - 2 - k) for k in range(d - 1)])
        itype = np.int32 if 45 * pd < 2 ** 31 else np.int64
        data, indices, counts = [], [], []
        for s in range(3):
            # entries of block s, padded to one length for all a
            parts = [tuple(x[self.rows[a][0] == s] for x in self.rows[a][1:])
                     for a in range(d)]
            width = max(len(part[2]) for part in parts)
            offset = np.zeros((d, width, d - 1), dtype=np.int64)
            b = np.zeros((d, width), dtype=np.int64)
            val = np.zeros((d, width))
            stored = np.zeros((d, width), dtype=bool)
            for a, (off, comp, v) in enumerate(parts):
                k = len(v)
                offset[a, :k], b[a, :k], val[a, :k] = off, comp, v
                stored[a, :k] = True
            # (vertex, a, entry): the neighbour's in-plane coordinates
            nb = coords[:, None, None, :] + offset[None]
            keep = stored[None] & np.all((nb >= 0) & (nb < q), axis=-1)
            cols = (nb @ strides) * d + b[None]
            data.append(np.broadcast_to(val * scale, keep.shape)[keep])
            indices.append(cols[keep].astype(itype))
            counts.append(keep.reshape(pd, width).sum(axis=1))
        indptr = np.zeros((3, pd + 1), dtype=itype)
        np.cumsum(counts, axis=1, out=indptr[:, 1:])
        indptr[1:] += indptr[:-1, -1:].cumsum(axis=0)
        return StencilOperator(q, np.concatenate(data),
                               np.concatenate(indices), indptr)


def point_load_nodal(mesh, loads):
    """Pre-elimination nodal load vector, shape (nv, dim).

    Entry (vertex v, component c) accumulates f_k[c] * lambda_v(x_k)
    over all loads, boundary vertices included. Summing each column
    recovers sum_k f_k exactly up to roundoff (partition of unity).
    """
    if loads.dim != mesh.dim:
        raise ValueError("load dimension %d does not match mesh dimension %d"
                         % (loads.dim, mesh.dim))
    out = np.zeros((mesh.num_vertices, mesh.dim))
    for xk, fk in zip(loads.points, loads.forces):
        loc = locate_point(mesh, xk)
        # the vertices of the located cell alone; mesh.cells is not built
        cell = _cell_vertices(mesh, *divmod(loc.cell_index,
                                            factorial(mesh.dim)))
        for lv, lam in zip(cell, loc.barycentric):
            out[lv] += lam * fk
    return out


def assemble_point_load(mesh, loads):
    """Free-dof load vector for f = sum_k f_k delta_{x_k}."""
    return to_free(mesh, point_load_nodal(mesh, loads))


def assemble_smooth_load(mesh, f):
    """Free-dof load vector int f . phi_i dx by cellwise quadrature.

    f maps an (m, dim) array of points to an (m, dim) array of values.
    """
    bary, qw = simplex_rule(mesh.dim)
    vols = cell_volumes(mesh)
    cells = mesh.cells
    verts = mesh.vertices[cells]
    # physical quadrature points, (nc, nq, d)
    pts = np.einsum("qi,xid->xqd", bary, verts)
    fvals = np.asarray(f(pts.reshape(-1, mesh.dim)), dtype=float)
    fvals = fvals.reshape(mesh.num_cells, len(qw), mesh.dim)
    # contribution of cell x to vertex slot i: vol * sum_q w_q b_qi f(x_q)
    contrib = np.einsum("q,qi,xqc->xic", qw, bary, fvals)
    contrib *= vols[:, None, None]

    nodal = np.zeros((mesh.num_vertices, mesh.dim))
    np.add.at(nodal, cells.ravel(),
              contrib.reshape(-1, mesh.dim))
    return to_free(mesh, nodal)
