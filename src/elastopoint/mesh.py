"""Structured simplicial meshes of the unit box (0,1)^d, d = 2 or 3.

Every grid cube is split into d! simplices sharing the main diagonal
(two triangles per square, six tetrahedra per cube). This split is
reproduced by dyadic refinement, so the meshes at n and 2n are nested,
which the convergence machinery relies on.

Vertex numbering is C-order over the (n+1)^d lattice; cells are
numbered cube-major with the d! simplices of a cube in lexicographic
order of their axis permutation. Every cell is a translate of one of
d! reference simplices (its type, cell % d!), so volumes, basis
gradients and the barycentrics of a located point all have closed
forms and no per-cell inverse or solve is taken.
"""

import functools
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial

import numpy as np

LOCATE_TOL = 1e-12


@dataclass(frozen=True)
class Mesh:
    """Simplicial triangulation of the unit box.

    Only the vertex coordinates are stored: the lattice fixes every
    cell, so `cells` is computed in closed form on each access and held
    by no one after the caller drops it.

    Attributes
    ----------
    dim : int
        Space dimension, 2 or 3.
    n : int
        Grid subdivisions per axis.
    vertices : ndarray, shape (nv, dim)
        Vertex coordinates; grid values k/n.
    """

    dim: int
    n: int
    vertices: np.ndarray

    @property
    def cells(self):
        """Vertex indices per cell, shape (nc, dim + 1), positively oriented.

        A new int64 array on every access; read it once per call.
        """
        cells = _cell_vertices(self, np.arange(self.n ** self.dim)[:, None],
                               np.arange(factorial(self.dim)))
        return cells.reshape(-1, self.dim + 1)

    @property
    def h(self):
        """Maximal cell diameter, the cube diagonal sqrt(dim)/n."""
        return float(np.sqrt(self.dim)) / self.n

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        """d! n^d."""
        return factorial(self.dim) * self.n ** self.dim

    @property
    def num_free_dofs(self):
        """d (n-1)^d: d components on each interior vertex."""
        return self.dim * (self.n - 1) ** self.dim


@dataclass(frozen=True)
class CellLocation:
    """A containing cell and barycentric coordinates of a point in it."""

    cell_index: int
    barycentric: np.ndarray


def _perm_parity(p):
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


@functools.lru_cache(maxsize=None)
def _chain_templates(dim):
    """Integer corner offsets of the d! simplices subdividing a unit cube.

    The simplex of permutation pi walks from the cube corner along the
    axes in pi-order. Odd permutations get their last two vertices
    swapped so that every simplex is positively oriented. Made once per
    dimension and shared, so the array is read-only.
    """
    out = []
    for perm in permutations(range(dim)):
        corners = np.zeros((dim + 1, dim), dtype=np.int64)
        for k, axis in enumerate(perm):
            corners[k + 1] = corners[k]
            corners[k + 1, axis] += 1
        if _perm_parity(perm):
            corners[[dim - 1, dim]] = corners[[dim, dim - 1]]
        out.append(corners)
    out = np.array(out)
    out.flags.writeable = False
    return out


def _kuhn_shifts(k):
    """The 2^(k+1) - 1 shifts in {-1, 0, 1}^k that do not mix signs, in
    lexicographic order: on any k lattice axes, the shifts between two
    vertices of one Kuhn cell, which differ by a 0/1 vector or its
    negative."""
    return [t for t in product((-1, 0, 1), repeat=k)
            if not min(t) < 0 < max(t)]


def _lattice_strides(dim, n):
    return np.array([(n + 1) ** (dim - 1 - k) for k in range(dim)],
                    dtype=np.int64)


def _cell_vertices(mesh, cubes, types):
    """Vertex ids of the cells of the given cubes and types.

    Cell c is the simplex of type c % d! in the grid cube c // d!
    (C order over the n^d cubes): its vertices are the cube's base
    vertex plus the lattice offsets of its type's corners. cubes and
    types broadcast against each other; the result has their broadcast
    shape plus (dim + 1,).
    """
    d, n = mesh.dim, mesh.n
    strides = _lattice_strides(d, n)
    # a cube's base vertex has the cube's multi-index on the vertex
    # lattice; peel the index off the cube number, last axis first
    base = np.zeros(np.shape(cubes), dtype=np.int64)
    rest = cubes
    for stride in strides[::-1]:
        rest, k = np.divmod(rest, n)
        base += stride * k
    return base[..., None] + (_chain_templates(d) @ strides)[types]


def build_unit_box_mesh(dim, n):
    """Triangulate the unit box with n subdivisions per axis.

    Parameters
    ----------
    dim : int
        2 or 3.
    n : int
        Cells per side, an integral value of at least 1.

    Returns
    -------
    Mesh
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3, got %r" % (dim,))
    if not (float(n) >= 1 and float(n).is_integer()):
        raise ValueError("n must be a positive integer, got %r" % (n,))
    n = int(n)

    grid = np.arange(n + 1, dtype=float) / n
    # one allocation: the coordinates are broadcast views until stacked
    axes = np.meshgrid(*([grid] * dim), indexing="ij", sparse=True)
    vertices = np.stack(np.broadcast_arrays(*axes), axis=-1)
    return Mesh(dim, n, vertices.reshape(-1, dim))


def _reference_gradients(dim, n):
    """Basis gradients of the d! cell types of the mesh with n cells per side.

    Every cell is a translate of one of the d! simplices of
    _chain_templates scaled by 1/n, so its barycentric gradients are
    those of its type; cell c has type c % d!. Returns a (d!, d+1, d)
    array. The template edge matrices are unimodular, so the gradients
    are exact integer multiples of n.
    """
    templates = _chain_templates(dim)
    edges = (templates[:, 1:, :] - templates[:, :1, :]).astype(float)
    grads = np.empty((len(templates), dim + 1, dim))
    grads[:, 1:, :] = n * np.rint(np.transpose(np.linalg.inv(edges),
                                               (0, 2, 1)))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads


def _cell_volume(dim, n):
    """The volume that every cell of the mesh of size n has, 1/(d! n^d)."""
    return 1.0 / (factorial(dim) * n ** dim)


def cell_volumes(mesh):
    """Volumes of all cells, shape (nc,); all equal 1/(d! n^d)."""
    return np.full(mesh.num_cells, _cell_volume(mesh.dim, mesh.n))


def cell_geometry(mesh):
    """Volumes and basis gradients of all cells at once.

    Closed form on the lattice: the constant volume and the reference
    gradients tiled by cell type.

    Returns
    -------
    volumes : ndarray, shape (nc,)
    gradients : ndarray, shape (nc, dim + 1, dim)
        gradients[c, i] is the gradient of barycentric function i on
        cell c; rows sum to zero per cell.
    """
    grads = _reference_gradients(mesh.dim, mesh.n)
    return cell_volumes(mesh), np.tile(grads, (mesh.n ** mesh.dim, 1, 1))


def locate_point(mesh, x):
    """Find the lowest-index cell whose closure contains x.

    Points on shared faces/edges/vertices resolve to the containing
    cell of smallest index, the first entry of cells_containing_point.
    Raises ValueError for x outside the closed box (tolerance
    LOCATE_TOL).
    """
    hits = cells_containing_point(mesh, x)
    if not hits:
        raise ValueError("point location failed for %s"
                         % (np.asarray(x).tolist(),))
    return hits[0]


def cells_containing_point(mesh, x):
    """All cells whose closure contains x, ascending by index.

    Interior points give one hit; points on shared faces/edges/vertices
    give every incident cell. locate_point returns the first entry.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (mesh.dim,):
        raise ValueError("expected a point with %d coordinates" % mesh.dim)
    if not np.all((x >= -LOCATE_TOL) & (x <= 1.0 + LOCATE_TOL)):
        raise ValueError("point %s lies outside the closed unit box"
                         % (x.tolist(),))
    n, d = mesh.n, mesh.dim
    y = np.clip(x, 0.0, 1.0) * n
    base = np.minimum(np.floor(y).astype(np.int64), n - 1)
    # the cells of cube k have barycentrics min(y - k) and 1 - max(y - k)
    # among theirs, so only cubes with y - k in [0, 1] up to the
    # tolerance (plus rounding slack) can hold x
    slack = 2.0 * LOCATE_TOL
    ranges = [[k for k in range(max(b - 1, 0), min(b + 1, n - 1) + 1)
               if -slack <= yk - k <= 1.0 + slack]
              for b, yk in zip(base, y)]
    # product yields the cubes in C order, so hits come out ascending
    cubes = np.array(list(product(*ranges)), dtype=np.int64).reshape(-1, d)
    # barycentrics of all d! cell types of every candidate cube at once:
    # the reference gradients applied to x in cube coordinates
    bary = np.einsum("tid,md->mti", _reference_gradients(d, 1),
                     x * n - cubes)
    bary[:, :, 0] += 1.0
    first = np.ravel_multi_index(tuple(cubes.T), (n,) * d) * factorial(d)
    return [CellLocation(int(first[m] + t), bary[m, t])
            for m, t in zip(*np.nonzero(np.all(bary >= -LOCATE_TOL,
                                                axis=2)))]
