"""Vector P1 assembly for the elasticity forms and load vectors.

The stiffness matrix is the grad-div form

    mu (grad u, grad v) + (mu + lambda) (div u, div v),

which equals 2 mu (eps(u), eps(v)) + lambda (div u, div v) on the
zero-trace space; every form, weighted or not, comes from one
parametrized cellwise kernel (vector_p1_form_matrix). All element
integrands are cellwise constant for P1, so assembly is exact. The
kernel is evaluated only on the d! reference cells of the Kuhn
lattice; cells scale it by their volume or weight, and the sums are
formed per lattice offset and written straight into CSR, one slab of
vertex planes at a time. The CSR arrays are the only allocation of
the matrix's size, so a form peaks at about 1.5 times the matrix it
returns, and the slab length does not change a single bit of it.
The unweighted stiffness is the same at every interior vertex, so a
LatticeStencil takes one vertex's blocks at the Kuhn shifts from the
slab writer run on the 2^d cubes around it, with no dof table or
matrix, and tiles them over any mesh of the family as a
StencilOperator, whose products equal the matrix's bit for bit; the
multigrid solve uses it and assembles no matrix. Its large products
split their rows across two threads on a host that gives the process
two CPUs, with the same bits as on one.

Free degrees of freedom are the (vertex, component) pairs of the
interior (n-1)^d sub-lattice, vertex-major with the component inner.
This module alone decides that numbering and the pencil-padded layout
of the solve's vectors: to_free and from_free move nodal arrays to and
from the free dofs, to_padded and from_padded move free-dof vectors to
and from the padded layout, the forms are scipy CSR matrices over the
free dofs, and a StencilOperator acts on padded vectors.
"""

import functools
import os
import threading
from dataclasses import dataclass
from itertools import product
from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .mesh import (_cell_vertices, _cell_volume, _chain_templates,
                   _kuhn_shifts, _lattice_strides, _reference_gradients,
                   cell_volumes, locate_point)
from .quadrature import simplex_rule

CONSTRAINED = -1

# interior vertices per slab of the CSR writer _form_rows, rounded down
# to whole vertex planes along the first axis (at least one). Its
# temporaries take about 5 kB per slab vertex in 3D; one plane per
# slab at 3D n=32 was also the fastest length measured.
_SLAB_VERTICES = 1024

# multiply-adds, nnz x (p+1)^(d-1) for a StencilOperator's product,
# from which the product splits its rows across two threads. Kernel
# alone (csr_matvecs on one plane's rows of the 2D layout and the 3D
# plane-padded layout before the pencil one, float64 and float32, 2-core
# host): 3D n=32 (3.3M) ran 1.74-1.89x faster on two threads, 3D n=64
# (28M) 1.81-1.96x and 2D n=256 (1.56M) 1.37-1.62x. 2D n=128 (0.39M)
# and 3D n=16 (0.41M) stay serial: splitting 2D n=128 as well made the
# 2D point-load study about 10 % slower, and splitting the pencil
# products of 3D n=16 gained nothing in the 3D n=32 solve. Products
# split from 3D n=22 and 2D n=205 on.
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


@functools.lru_cache(maxsize=None)
def _corner_plan(dim):
    """The corner bookkeeping of _corner_pair_blocks and _slab_setup, made
    once per dimension, as (offsets, pairs, gather).

    pairs lists ((row corner, col corner), k) in the order in which the
    d! reference cells first couple the pair, with offsets[k] = col
    corner - row corner; offsets holds the nonnegative offsets in
    ascending linear stride, which for 0/1 vectors is lexicographic
    order, so offsets[0] is zero. gather holds index arrays (pair,
    type, i, j): the block of that type for that pair is K[type, i, :,
    j, :].
    """
    pairs = {}
    gather = []
    for t, corners in enumerate(_chain_templates(dim).tolist()):
        for i, ci in enumerate(corners):
            for j, cj in enumerate(corners):
                if all(a <= b for a, b in zip(ci, cj)):
                    key = (tuple(ci), tuple(cj))
                    gather.append((pairs.setdefault(key, len(pairs)),
                                   t, i, j))
    steps = [tuple(b - a for a, b in zip(*key)) for key in pairs]
    offsets = sorted(set(steps))
    # shared by every caller, so read-only
    gather = np.array(gather).T
    gather.flags.writeable = False
    return (tuple(offsets),
            tuple((key, offsets.index(step))
                  for key, step in zip(pairs, steps)),
            tuple(gather))


def _corner_pair_blocks(dim, K):
    """Element blocks grouped by the lattice corners they couple.

    K holds the element matrices of the d! reference cells. Returns
    {(row corner, col corner): (d!, d, d) blocks} over corner pairs of
    the unit cube with col corner >= row corner; type t's block is
    zero unless both corners are vertices of that cell.
    Two vertices of a Kuhn cell always differ by a 0/1 vector or its
    negative, so these pairs cover every coupling up to symmetry. One
    gather through _corner_plan fills all blocks.
    """
    _, pairs, (pair, t, i, j) = _corner_plan(dim)
    blocks = np.zeros((len(pairs), K.shape[0], dim, dim))
    blocks[pair, t] = K[t, i, :, j, :]
    return {key: block for (key, _), block in zip(pairs, blocks)}


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
        # contiguous, so that every slab's weights take one matmul path
        # whatever the caller's strides
        weights = np.ascontiguousarray(cell_weights, dtype=float)
        if weights.shape != (mesh.num_cells,):
            raise ValueError("cell_weights must have one entry per cell")
    return _form_rows(mesh, weights, (c_grad, c_div, c_eps),
                      build_dof_map(mesh), mesh.n - 1, n_free)


def _slab_setup(d, n, coeffs):
    """(plan, offsets), the arguments of _slab_blocks after the cube
    weights for a form on cells of the mesh of size n: plan lists
    (offset index, row corner, (d!, d*d) element blocks) per corner
    pair of _corner_plan."""
    K = _element_matrices(_reference_gradients(d, n), *coeffs)
    nt = len(K)
    groups = _corner_pair_blocks(d, K)
    offsets, pairs, _ = _corner_plan(d)
    plan = [(k, key[0], groups[key].reshape(nt, d * d)) for key, k in pairs]
    return plan, offsets


def _form_rows(mesh, weights, coeffs, table, planes, ncols):
    """CSR of a form's rows at the interior vertex planes 1 .. planes.

    The slab writer of vector_p1_form_matrix. table, the column number
    of each (vertex, component) or CONSTRAINED where the column is
    dropped, with a row for each vertex of planes 0 .. planes + 1 at
    least, places the blocks at the shifts _kuhn_shifts(d); coeffs are
    (c_grad, c_div, c_eps), and weights the C-contiguous cell weights,
    one per cell. The rows are numbered as the free dofs of those
    planes. Each entry sums the same terms in the same order
    whatever the slab length and whatever table, so a column kept by
    two tables holds the same value.
    """
    d, n = mesh.dim, mesh.n
    cubes = weights.reshape((n,) * d + (-1,))
    setup = _slab_setup(d, n, coeffs)
    steps = np.array(_kuhn_shifts(d)) @ _lattice_strides(d, n)
    plane = (n - 1) ** (d - 1)
    width = len(steps) * d
    nrows = planes * plane * d
    bound = nrows * width
    itype = np.int32 if bound < 2 ** 31 else np.int64
    table = table.astype(itype)
    # vertex numbers of planes 0 .. planes + 1, all that the rows reach
    lattice = np.arange((planes + 2) * (n + 1) ** (d - 1)).reshape(
        (planes + 2,) + (n + 1,) * (d - 1))
    # untouched pages of the upper-bound arrays take no memory
    data = np.empty(bound)
    indices = np.empty(bound, dtype=itype)
    indptr = np.zeros(nrows + 1, dtype=itype)
    nnz = 0
    step = max(1, _SLAB_VERTICES // plane)
    for lo in range(1, planes + 1, step):
        hi = min(lo + step, planes + 1)
        vals = _slab_blocks(cubes, *setup, lo, hi)
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

    cube_weights holds the cell weights of a lattice n cubes wide, C
    order, shape (n,)*d + (d!,). Returns the (rows, d, 2m + 1, d) array
    of vector_p1_form_matrix's slab: row (v, a), column block
    m + k holds the block (v, v + offsets[k]) and m - k the transpose
    of (v - offsets[k], v), so block j is at the shift
    _kuhn_shifts(d)[j]. The window adds plane lo-1 and reads the cubes
    lo-1 .. hi-1; plane lo-1 gets only the blocks from cube plane lo-1,
    which are all that the blocks towards plane lo need.
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


def _stiffness_coeffs(params):
    """(c_grad, c_div, c_eps) of the grad-div stiffness."""
    return params.mu, params.mu + params.lam, 0.0


def assemble_stiffness(mesh, params):
    """Grad-div elasticity stiffness on free dofs.

    Returns an empty 0 x 0 matrix when the mesh has no interior
    vertices (n_free = 0); that is a signal, not an error.
    """
    return vector_p1_form_matrix(mesh, None, *_stiffness_coeffs(params))


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


def _sparse_kernel(M):
    """The kernel of scipy's own M @ x for a CSR or CSC matrix M,
    csr_matvec or csc_matvec, and its leading arguments (M's shape and
    its arrays): kernel(*head, x, out) adds M @ x to out. x and out are
    C-ordered vectors of M's dtype; the kernel sums in it."""
    return (getattr(_sparsetools, M.format + "_matvec"),
            M.shape + (M.indptr, M.indices, M.data))


def _bind_sparse(M, x, out):
    """The product out = M @ x for a CSR or CSC matrix M, as a function
    of no arguments that allocates nothing and returns out.

    The kernel adds to its output, so out is zeroed first, as scipy's
    fresh result is; the bits are those of M @ x.
    """
    kernel, head = _sparse_kernel(M)
    args = head + (x, out)

    def product():
        out.fill(0.0)
        kernel(*args)
        return out
    return product


def _sparse_product(M):
    """x -> M @ x for a CSR or CSC matrix M, without scipy's
    dispatch: the same kernel into the same freshly zeroed vector, so
    the same bits."""
    kernel, head = _sparse_kernel(M)
    rows, dtype = M.shape[0], M.dtype

    def product(x):
        out = np.zeros(rows, dtype=dtype)
        kernel(*head, x, out)
        return out
    return product


def _layout(dim, p):
    """(margin, run) of the pencil-padded layout with p interior
    vertices per axis: the zero entries before the first line, and the
    (p+1)^(d-1) entries of each line's row."""
    return sum((p + 1) ** k for k in range(dim - 1)), (p + 1) ** (dim - 1)


def _padded_size(dim, p):
    margin, run = _layout(dim, p)
    return 2 * margin + dim * p * run if p else 0


def _shift_offset(dim, p, shift):
    """The entry offset in a padded vector of a lattice shift, or of an
    (..., dim) array of them."""
    shift = np.asarray(shift)
    _, run = _layout(dim, p)
    offset = shift[..., -1] * (dim * run)
    for k in range(dim - 1):
        offset = offset + shift[..., k] * (p + 1) ** (dim - 2 - k)
    return offset


def _free_slots(x, dim, p):
    """The free slots of a padded vector, as a (p,)*dim + (dim,) view
    indexed as the free dofs: interior vertex, then component."""
    margin, run = _layout(dim, p)
    lines = x[margin:margin + dim * p * run].reshape(
        (p, dim) + (p + 1,) * (dim - 1))
    return np.moveaxis(lines[(slice(None),) * 2 + (slice(p),) * (dim - 1)],
                       (0, 1), (dim - 1, dim))


def to_padded(mesh, x):
    """The pencil-padded vector of a free-dof vector, in x's dtype.

    Every lattice axis but the last is padded. With p = n-1 interior
    vertices per axis, the free dof (j_0 .. j_{d-2}; i, component c)
    sits at margin + (i d + c) (p+1)^(d-1) + sum_k j_k (p+1)^(d-2-k),
    margin = sum_{k < d-1} (p+1)^k. So the d p dofs (i, c) of one
    lattice line along the last axis are the rows of a (d p, (p+1)^(d-1))
    array, whose columns are the lines, and every other entry is zero:
    the slots with some j_k = p, which stand for the boundary on both
    sides of axis k, and a margin before and after the rows. A shift
    of the padded axes by t is then a shift by sum_k t_k (p+1)^(d-2-k)
    entries that reads zeros where it leaves the interior, and a shift
    by one vertex along the last axis is one of d rows. In 2D this is
    the plane-padded layout: dof (plane j, in-plane dof c) at
    1 + c (p+1) + j.
    """
    d, p = mesh.dim, mesh.n - 1
    x = np.asarray(x)
    out = np.zeros(_padded_size(d, p), dtype=x.dtype)
    _free_slots(out, d, p)[...] = x.reshape((p,) * d + (d,))
    return out


def from_padded(mesh, x):
    """The free-dof vector of a pencil-padded vector (a copy)."""
    return _free_slots(np.asarray(x), mesh.dim, mesh.n - 1).flatten()


class StencilOperator:
    """A level's grad-div stiffness on the pencil-padded layout.

    The rows of every lattice line along the last axis are the same:
    the tiles of one vertex's stencil along the line. Block k is the
    d p x d p CSR block of the columns on the line shifted by
    shifts[k] in the padded axes, rows and columns numbered (i, c) as
    the line's dofs; shifts is _kuhn_shifts(d - 1), so a
    row's blocks and then their columns come in the order of the
    assembled row's columns. The blocks share data and indices;
    indptr[k] holds block k's row pointers into them, so data, indices
    and indptr size the whole operator: O(n) entries, 3,387 at 3D n=32.

    bind(x, out), the one product entry, returns the product A x into
    out, for padded x and out of the operator's dtype, as a function of
    no arguments whose kernel arguments and views are made once. A
    product copies nothing: out is zeroed, each block adds its
    products through scipy's csr_matvecs on the view of x shifted by
    its shift, whose d p rows of (p+1)^(d-1) values are the shifted
    lines, and the pad slots, which collect products from the
    neighbouring lines, are zeroed again. Each output entry adds the
    terms of its assembled row in column order, plus +0 x terms where
    a shifted line leaves the interior, so the bits are those of the
    assembled matrix's product. A product of at least
    _SPLIT_MULTIPLY_ADDS multiply-adds, nnz (p+1)^(d-1), bound in a
    process that may run on two CPUs, splits its rows: one worker thread
    computes rows d p/2 .. d p of all blocks while the caller computes
    the first half, and the product returns only when both have
    stopped. diagonal() is the free-dof diagonal.
    """

    def __init__(self, dim, p, data, indices, indptr):
        self.dim, self.p, self.rows = dim, p, dim * p
        self.margin, self.run = _layout(dim, p)
        size = _padded_size(dim, p)
        self.shape = (size, size)
        self.shifts = _kuhn_shifts(dim - 1)
        # where each block's view of x starts, and the pad slots of a
        # (rows, p+1, ..., p+1) view of the rows
        self._starts = [int(self.margin + _shift_offset(dim, p, t + (0,)))
                        for t in self.shifts]
        self._lines = (self.rows,) + (p + 1,) * (dim - 1)
        self._pads = [(slice(None),) * k + (p,) for k in range(1, dim)]
        self.data, self.indices, self.indptr = data, indices, indptr

    def astype(self, dtype):
        """The same operator with its data rounded to dtype; indices and
        indptr are shared."""
        return StencilOperator(self.dim, self.p, self.data.astype(dtype),
                               self.indices, self.indptr)

    def block(self, k):
        """Block k as a d p x d p CSR matrix."""
        lo, hi = self.indptr[k, 0], self.indptr[k, -1]
        return sp.csr_matrix((self.data[lo:hi], self.indices[lo:hi],
                              self.indptr[k] - lo), shape=(self.rows,) * 2)

    def _line_diagonal(self):
        return self.block(self.shifts.index((0,) * (self.dim - 1))).diagonal()

    def diagonal(self):
        return np.tile(self._line_diagonal(), self.p ** (self.dim - 1))

    def jacobi_bound(self):
        """(1 / the diagonal of one line's rows, in float64, and the
        Gershgorin bound max_i sum_j |A_ij| / A_ii).

        A row of the line at padded coordinates j adds the terms of the
        blocks whose shifted line j + t is interior, in column order, as
        the assembled row does; the lines with every j_k in {0, 1, p-1}
        cover every kind of row, so the bound has the bits of the
        assembled matrix's.
        """
        p, rows = self.p, self.rows
        inv = 1.0 / self._line_diagonal()
        magnitude = np.abs(self.data)
        ones = np.ones(rows)
        lmax = 0.0
        for j in product(sorted({0, min(1, p - 1), p - 1}),
                         repeat=self.dim - 1):
            sums = np.zeros(rows)
            for k, t in enumerate(self.shifts):
                if all(0 <= a + b < p for a, b in zip(j, t)):
                    _sparsetools.csr_matvec(rows, rows, self.indptr[k],
                                            self.indices, magnitude, ones,
                                            sums)
            lmax = max(lmax, float((inv * sums).max()))
        return inv, lmax

    def toarray(self):
        """The dense matrix on the free dofs."""
        d, p, rows = self.dim, self.p, self.rows
        lines = (p,) * (d - 1)
        dense = np.zeros(lines + (rows,) + lines + (rows,),
                         dtype=self.data.dtype)
        for k, t in enumerate(self.shifts):
            tile = self.block(k).toarray()
            for j in product(range(p), repeat=d - 1):
                nb = tuple(a + b for a, b in zip(j, t))
                if all(0 <= a < p for a in nb):
                    dense[j + (slice(None),) + nb] = tile
        return dense.reshape(p ** (d - 1) * rows, -1)

    def bind(self, x, out):
        """The product out = A x as a function of no arguments, for
        padded x and out of the operator's dtype; it returns out.

        What depends only on x and out is made here, once: the
        csr_matvecs arguments of each block (its row pointers, the view
        of x shifted by its shift, the output run), those of the two
        halves of a split product, and the views of the pad slots. A
        split product looks its worker up on each call, so a product
        bound before a fork also runs in the child.
        """
        rows, run = self.rows, self.run
        size = rows * run
        y = out[self.margin:self.margin + size]
        pads = [y.reshape(self._lines)[pad] for pad in self._pads]
        kernel = _sparsetools.csr_matvecs

        def blocks(lo, hi):
            tail = y[lo * run:]
            return [(hi - lo, rows, run, indptr[lo:], self.indices,
                     self.data, x[start:start + size], tail)
                    for indptr, start in zip(self.indptr, self._starts)]

        if self.data.size * run < _SPLIT_MULTIPLY_ADDS or _cpus() < 2:
            calls = blocks(0, rows)

            def product():
                out.fill(0.0)
                for args in calls:
                    kernel(*args)
                for pad in pads:
                    pad.fill(0.0)
                return out
            return product

        h = rows // 2
        first, second = blocks(0, h), blocks(h, rows)

        def run_all(calls):
            for args in calls:
                kernel(*args)

        def split_product():
            out.fill(0.0)
            done = _worker().submit(run_all, second)
            try:
                run_all(first)
            finally:
                # the worker writes into out until its half has stopped
                done.result()
            for pad in pads:
                pad.fill(0.0)
            return out
        return split_product


class LatticeStencil:
    """The grad-div stiffness rows of one interior lattice vertex.

    All cells have one volume, so every interior vertex carries the
    same d x d blocks towards its neighbours at the shifts
    _kuhn_shifts(d), and they depend only on the 2^d cubes around it.
    They are read once, for cells of the mesh of size n0 >= 1, from
    _slab_blocks on a window of those 2^d cubes, each cell weighted by
    the one cell volume: the (d, 2^(d+1) - 1, d) blocks of the window's
    one interior vertex; no mesh, dof table or matrix is made. A row's
    entries come in column order, by shift and then column component,
    and its zero entries are not stored.

    operator(m) tiles the rows along the lattice lines of the mesh of
    size m, scaled by (n0/m)^(d-2): an exact power of two when m / n0
    is one, so each entry has the bits _form_rows gives at size m. The
    tiles drop the neighbours that leave the line along the last axis
    and keep the column order, so block k holds the rows of one line
    with their columns on the line shifted by shifts[k], bit for bit.
    """

    def __init__(self, dim, n0, params):
        d = dim
        # the 2^d cubes around the vertex, whose one interior vertex
        # holds the rows
        cubes = np.full((2,) * d + (factorial(d),), _cell_volume(d, n0))
        rows = _slab_blocks(cubes, *_slab_setup(d, n0,
                                                _stiffness_coeffs(params)),
                            1, 2)[0]
        shifts = np.array(_kuhn_shifts(d))
        self.dim, self.n0 = d, n0
        # per shift t of the padded axes: the last-axis offsets, column
        # components, values and stored flags of the row entries at t,
        # (d, width) each, in the rows' column order
        self.blocks = []
        for t in _kuhn_shifts(d - 1):
            at = np.flatnonzero((shifts[:, :-1] == t).all(axis=1))
            val = rows[:, at].reshape(d, -1)
            offset = np.broadcast_to(np.repeat(shifts[at, -1], d), val.shape)
            comp = np.broadcast_to(np.tile(np.arange(d), len(at)), val.shape)
            self.blocks.append((offset, comp, val, val != 0.0))

    def operator(self, m):
        """The StencilOperator of the mesh of size m."""
        d, p = self.dim, m - 1
        if p < 1:
            return StencilOperator(d, 0, np.zeros(0), np.zeros(0, np.int32),
                                   np.zeros((len(self.blocks), 1), np.int32))
        scale = (self.n0 / m) ** (d - 2)
        line = np.arange(p)
        data, indices, counts = [], [], []
        for offset, comp, val, stored in self.blocks:
            # (vertex on the line, a, entry): the neighbour on the line
            nb = line[:, None, None] + offset[None]
            keep = stored[None] & (nb >= 0) & (nb < p)
            data.append(np.broadcast_to(val * scale, keep.shape)[keep])
            indices.append((nb * d + comp[None])[keep].astype(np.int32))
            counts.append(keep.reshape(d * p, -1).sum(axis=1))
        indptr = np.zeros((len(self.blocks), d * p + 1), dtype=np.int32)
        np.cumsum(counts, axis=1, out=indptr[:, 1:])
        indptr[1:] += indptr[:-1, -1:].cumsum(axis=0)
        return StencilOperator(d, p, np.concatenate(data),
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
