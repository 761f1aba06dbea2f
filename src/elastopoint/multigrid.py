"""Geometric multigrid on the nested Kuhn meshes of the unit box.

The meshes at n, n/2, n/4, ... are nested, so the P1 prolongation P
between neighbouring sizes is exact, and the rediscretized coarse
stiffness equals the Galerkin product P^T A_fine P. P is the same
stencil at every fine vertex, so each level writes its restriction
R = P^T straight into CSR and uses its transpose view as P. Every
level's operator is therefore rediscretized, as a plane operator of
assembly.stiffness_operator; no sparse triple product and no level
matrix is formed. The V-cycle smooths with Chebyshev-Jacobi
polynomials (Adams, Brezina, Hu and Tuminaro, "Parallel multigrid
smoothing: polynomial versus Gauss-Seidel", J. Comput. Phys. 2003)
and is symmetric, so it preconditions CG.
"""

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import (GRAD_DIV, PlaneOperator, assemble_stiffness,
                       stiffness_operator)
from .mesh import Mesh, build_unit_box_mesh

# Chebyshev-Jacobi smoother: polynomial degree, and the smoothed part
# [lmax / CHEB_RATIO, lmax] of the spectrum of D^-1 A
CHEB_DEGREE = 2
CHEB_RATIO = 30.0
# largest bottom-level system that is factored densely; a larger
# bottom level (odd n) is only smoothed
DENSE_BOTTOM_LIMIT = 2000


@dataclass(frozen=True)
class GridLevel:
    """One size of the nested family and its multigrid data.

    mesh and the GRAD_DIV stiffness A on its free dofs are what a solve
    at this size needs. A is a PlaneOperator: it stores the rows of one
    vertex plane, not the matrix, and A @ x equals the assembled
    stiffness times x bit for bit. inv_diag is 1 / diag(A) and lmax
    the Gershgorin bound max_i sum_j |A_ij| / A_ii on the spectrum of
    D^-1 A; it is never below the largest eigenvalue, which the
    smoother needs. R restricts the free dofs of this level to those of
    the next coarser one, and P = R^T, a CSC view of R's arrays, is the
    exact P1 prolongation back. A level without P (odd n, or n <= 2)
    is the bottom of every V-cycle that reaches it; there factor holds
    a dense Cholesky factor of the assembled stiffness when
    0 < n_free <= DENSE_BOTTOM_LIMIT.
    """

    mesh: Mesh
    A: PlaneOperator
    inv_diag: Optional[np.ndarray] = None
    lmax: Optional[float] = None
    P: Optional[sp.csc_matrix] = None
    R: Optional[sp.csr_matrix] = None
    factor: Optional[tuple] = None


def _restriction(fine, coarse):
    """Free-dof restriction R = P^T from the fine mesh to the coarse one.

    Fine lattice vertex 2J + t is the midpoint of the coarse Kuhn edge
    from J to J + t whenever t = +-s with s in {0, 1}^d, so coarse dof
    (J, c) collects fine dof (2J, c) with weight 1 and (2J +- s, c) with
    weight 1/2 for the 2^d - 1 non-zero s: 7 entries per row in 2D, 15
    in 3D, all on interior fine vertices. The stencil is written
    straight into CSR with the columns ascending, the same arrays as
    the transpose of the free rows and columns of the lattice
    prolongation.
    """
    d, m = fine.dim, fine.n - 1
    # the t = +-s have no two entries of opposite sign; product lists
    # them lexicographically, which on a fine interior lattice at least
    # 3 wide (fine n >= 4) is the ascending order of their shifts
    offsets = np.array([t for t in product((-1, 0, 1), repeat=d)
                        if not min(t) < 0 < max(t)])
    strides = [m ** (d - 1 - k) for k in range(d)]
    shifts = offsets @ strides
    weights = np.where(offsets.any(axis=1), 0.5, 1.0)
    # 2J in the coordinates of the fine interior sub-lattice
    odd = 2 * np.arange(coarse.n - 1) + 1
    centre = sum(np.ix_(*[odd * s for s in strides]))
    cols = (centre.reshape(-1, 1, 1) + shifts) * d + np.arange(d)[:, None]
    rows = coarse.num_free_dofs
    return sp.csr_matrix((np.tile(weights, rows), cols.ravel(),
                          np.arange(rows + 1) * len(shifts)),
                         shape=(rows, fine.num_free_dofs))


def build_levels(dim, n, params):
    """The nested family n, n/2, ... with multigrid data, finest first.

    Halves while n is even, so every size n / 2^k of the family is
    meshed once, down to the odd part of n (1 for powers of two). A
    level coarsens (holds R, and P as R's transpose view) when its n is
    even and above 2. Every level's operator is a stiffness_operator;
    only a bottom level small enough for the dense factor assembles its
    stiffness. No level holds a cell table or a second copy of a
    transfer matrix.
    """
    meshes = []
    m = n
    while True:
        # the mesh validates dim and n before the halving goes on
        meshes.append(build_unit_box_mesh(dim, m))
        if meshes[-1].n % 2:
            break
        m = meshes[-1].n // 2

    levels = []
    for k, mesh in enumerate(meshes):
        A = stiffness_operator(mesh, params)
        inv_diag = lmax = P = R = factor = None
        if mesh.num_free_dofs:
            inv_diag = 1.0 / A.diagonal()
            # the Gershgorin bound, each row of |A| summed as in A's
            # matvec: the same bits as from the assembled matrix
            lmax = float((inv_diag * (abs(A) @ np.ones(A.shape[0]))).max())
        if mesh.n % 2 == 0 and mesh.n > 2:
            R = _restriction(mesh, meshes[k + 1])
            P = R.T
        elif 0 < mesh.num_free_dofs <= DENSE_BOTTOM_LIMIT:
            dense = assemble_stiffness(mesh, params, GRAD_DIV).toarray()
            factor = scipy.linalg.cho_factor(dense, lower=True)
        levels.append(GridLevel(mesh, A, inv_diag, lmax, P, R, factor))
    return levels


def _chebyshev(lv, b, x):
    """CHEB_DEGREE Chebyshev-Jacobi steps on A x = b from x (None: zero).

    The polynomial in D^-1 A is the one of least maximum on
    [lmax / CHEB_RATIO, lmax] with value 1 at 0, the same for every
    call, so a pre- and post-smoothing pair is symmetric.
    """
    upper = lv.lmax
    lower = upper / CHEB_RATIO
    theta = 0.5 * (upper + lower)
    delta = 0.5 * (upper - lower)
    sigma = theta / delta
    rho = 1.0 / sigma
    r = b.copy() if x is None else b - lv.A @ x
    d = (lv.inv_diag * r) / theta
    x = d.copy() if x is None else x + d
    for _ in range(CHEB_DEGREE - 1):
        rho_next = 1.0 / (2.0 * sigma - rho)
        r -= lv.A @ d
        d = (rho_next * rho) * d + (2.0 * rho_next / delta) * (lv.inv_diag * r)
        x += d
        rho = rho_next
    return x


def vcycle(levels, r):
    """One V-cycle from levels[0] applied to the residual r.

    Pre-smoothing, coarse correction through P and R, post-smoothing;
    the bottom level is solved with its dense factor or, without one,
    only smoothed. The result is linear and symmetric in r.
    """
    lv = levels[0]
    if lv.factor is not None:
        return scipy.linalg.cho_solve(lv.factor, r)
    x = _chebyshev(lv, r, None)
    if lv.P is not None:
        x += lv.P @ vcycle(levels[1:], lv.R @ (r - lv.A @ x))
    return _chebyshev(lv, r, x)
