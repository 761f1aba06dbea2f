"""Geometric multigrid on the nested Kuhn meshes of the unit box.

The meshes at n, n/2, n/4, ... are nested, so the P1 prolongation P
between neighbouring sizes is exact, and the rediscretized coarse
stiffness equals the Galerkin product P^T A_fine P. P is the same
stencil at every fine vertex, so each level writes only its
restriction R = P^T straight into CSR, from a strided view of the
fine free slots and the Kuhn shifts; R.T, a CSC view of R's arrays,
is P wherever it is needed. Every level's operator is rediscretized
by tiling one vertex's stiffness blocks (assembly.LatticeStencil),
read once per family, at its bottom size, from the slab blocks of the
2^d cubes around one vertex and scaled by an exact power of two per
level, the structured-block operator of hierarchical hybrid grids
(Bergen, Gradl, Hulsemann and Rude, Comput. Sci. Eng. 2006); no level
is assembled and no sparse triple product is formed. Vectors and R
are pencil-padded (the layout is defined by assembly.to_padded), so
an operator's product is one csr_matvecs call per shift of the padded
axes (3 in 2D, 7 in 3D) on views of x, which copies nothing. The
V-cycle smooths with Chebyshev-Jacobi polynomials (Adams, Brezina, Hu
and Tuminaro, "Parallel multigrid smoothing: polynomial versus
Gauss-Seidel", J. Comput. Phys. 2003) and preconditions CG. It runs in
the precision of the level data, which build_levels stores in
float32, the stencil tiles included, once per family, under a CG that
stays in float64 and owns the range: CG scales its right side by a
power of two, and the V-cycle rounds that scaled residual to float32
as it is (Goddeke, Strzodka and Turek, Int. J. Parallel Emergent
Distrib. Syst. 2007). The V-cycle is symmetric up to float32 rounding
and moves half the bytes. A solve's V-cycle (VCycle) runs in place on
buffers it allocates once per solve, with the same operations in the
same order as a V-cycle that allocates every result, so with the same
bits. Its products are bound to those buffers once per solve
(StencilOperator.bind, assembly._bind_sparse), as a structured-block
solver sets a constant stencil's application up once, so a call pays
no Python set-up on the small levels. Large products split their rows
across one worker thread (assembly.StencilOperator), with the same
bits.
"""

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrs

from .assembly import (LatticeStencil, StencilOperator, _bind_sparse,
                       _free_slots, _padded_size, _shift_offset, to_padded)
from .mesh import Mesh, _check_memory, _kuhn_shifts, build_unit_box_mesh

# Chebyshev-Jacobi smoother: polynomial degree, and the smoothed part
# [lmax / CHEB_RATIO, lmax] of the spectrum of D^-1 A
CHEB_DEGREE = 2
CHEB_RATIO = 30.0
# largest bottom-level system that is factored densely; a larger
# bottom level (odd n) is only smoothed
DENSE_BOTTOM_LIMIT = 2000
# largest lambda / mu a family is built for: the top of the tested
# range, where MG-CG still converges in a few hundred iterations
MAX_LAMBDA_OVER_MU = 1e5
# float64 values per free dof of the finest level that a family and one
# solve on that level hold at their peak: traced from build_levels to
# the end of a point-load solve, 94, 80 and 77 bytes at 3D n = 16, 32
# and 64, and 92 to 81 at 2D n = 64 to 512
FAMILY_PEAK_VALUES = 16


@dataclass(frozen=True)
class GridLevel:
    """One size of the nested family and its multigrid data.

    Vectors are pencil-padded (assembly.to_padded). A, the grad-div
    stiffness, is a float64 StencilOperator: the stencil tiles of one
    lattice line, whose products equal the assembled stiffness's bit
    for bit. cycle_A is A with its data rounded to float32, sharing the
    column indices and row pointers: the operator of the V-cycle.
    inv_diag is 1 / diag(A) rounded to float32 and padded with zeros,
    and lmax the Gershgorin bound max_i sum_j |A_ij| / A_ii on the
    spectrum of D^-1 A, formed in float64; it is never below the
    largest eigenvalue, which the smoother needs. R
    restricts padded vectors of this level to those of the next
    coarser one, and R.T, a CSC view of R's arrays, is the exact P1
    prolongation back; R's float32 entries are exactly 1 and 1/2, so
    a float64 vector times R or R.T has the bits of the float64
    matrix's product. cycle_A, inv_diag and R set the precision of the
    V-cycle, and must share one dtype. A level without R (odd n, or n
    <= 2) is the bottom of every V-cycle that reaches it; there factor
    holds a float64 dense Cholesky factor of the stiffness on the free
    dofs when 0 < n_free <= DENSE_BOTTOM_LIMIT.
    """

    mesh: Mesh
    A: StencilOperator
    inv_diag: Optional[np.ndarray] = None
    lmax: Optional[float] = None
    R: Optional[sp.csr_matrix] = None
    factor: Optional[tuple] = None
    cycle_A: Optional[StencilOperator] = None


def _restriction(fine, coarse):
    """Restriction R = P^T from the fine mesh to the coarse one, on
    pencil-padded vectors.

    Fine lattice vertex 2J + t is the midpoint of the coarse Kuhn edge
    from J to J + t for each nonzero t of _kuhn_shifts(d), so coarse
    dof (J, c) collects fine dof (2J, c) with weight 1 and (2J + t, c)
    with weight 1/2: 7 entries per row in 2D, 15 in 3D, all on interior
    fine vertices. The rows are the coarse padded positions (a zero
    slot has no entry). The fine padded positions of the (2J, c) are a
    strided view of the fine free slots, in coarse padded order after
    one moveaxis, and a row's columns add the offsets of the shifts to
    them in shift order: on a fine interior lattice at least 3 wide
    (fine n >= 4), the ascending order of their free-dof numbers, which
    is the order of the transpose of the free rows and columns of the
    lattice prolongation, not sorted by padded position. The weights
    are float32, which holds them exactly. Positions and offsets are
    int32 from the start, so no int64 column array or cast copy is
    made: int32 holds every padded position of a family that
    check_family_size admits (3D n <= 178, about 1.7e7 positions).
    """
    d = fine.dim
    p, fp = coarse.n - 1, fine.n - 1
    shifts = np.array(_kuhn_shifts(d), dtype=np.int32)
    weights = np.where(shifts.any(axis=1), 0.5, 1.0).astype(np.float32)
    # coarse interior vertex J is fine interior vertex 2J + 1; coarse
    # padded order is last axis, component, then the padded axes
    centres = _free_slots(np.arange(_padded_size(d, fp), dtype=np.int32),
                          d, fp)[(slice(1, None, 2),) * d]
    cols = (np.moveaxis(centres, (d - 1, d), (0, 1)).reshape(-1, 1)
            + _shift_offset(d, fp, shifts))
    counts = to_padded(coarse, np.full(d * p ** d, len(shifts), np.int32))
    indptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int32)])
    return sp.csr_matrix((np.tile(weights, d * p ** d), cols.reshape(-1),
                          indptr), shape=(len(counts), _padded_size(d, fp)))


def check_family_size(dim, n):
    """Refuse a family whose build and solve would not fit.

    Charges FAMILY_PEAK_VALUES float64 values per free dof of the
    finest level, d (n-1)^d, which admits 3D n <= 178 and 2D n <= 2897.
    Returns the estimate in bytes; raises ValueError naming the level
    and the estimate in MB when it exceeds the memory limit.
    """
    return _check_memory(FAMILY_PEAK_VALUES, dim * max(n - 1, 0) ** dim,
                         "level n=%d (%dD)" % (n, dim),
                         "multigrid family and solve workspace")


def build_levels(dim, n, params):
    """The nested family n, n/2, ... with multigrid data, finest first.

    Halves while n is even, so every size n / 2^k of the family is
    meshed once, down to the odd part of n (1 for powers of two). A
    level coarsens (holds R) when its n is even and above 2. Every
    level's operator is tiled from one LatticeStencil, read at the
    family's bottom size, so every level's size is that size times a
    power of two and the family assembles no level and meshes no size
    outside it. cycle_A, inv_diag and R are stored in float32, once per
    family, so the V-cycle runs in float32 and rounds nothing per
    solve. No level holds vertices, cells or a second transfer matrix.
    lambda / mu above
    MAX_LAMBDA_OVER_MU, and a size that check_family_size refuses,
    raise a ValueError before anything is meshed.
    """
    if params.lam > MAX_LAMBDA_OVER_MU * params.mu:
        raise ValueError("lambda/mu = %.7g is outside the supported range "
                         "(0, %.0e]" % (params.lam / params.mu,
                                        MAX_LAMBDA_OVER_MU))
    check_family_size(dim, n)
    meshes = []
    m = n
    while True:
        # the mesh validates dim and n before the halving goes on
        meshes.append(build_unit_box_mesh(dim, m))
        if meshes[-1].n % 2:
            break
        m = meshes[-1].n // 2
    stencil = LatticeStencil(dim, meshes[-1].n, params)

    levels = []
    for k, mesh in enumerate(meshes):
        A = stencil.operator(mesh.n)
        inv_diag = lmax = R = factor = None
        if mesh.num_free_dofs:
            inv, lmax = A.jacobi_bound()
            inv_diag = np.zeros(A.shape[0], dtype=np.float32)
            _free_slots(inv_diag, A.dim, A.p)[...] = inv.reshape(A.p, A.dim)
        if mesh.n % 2 == 0 and mesh.n > 2:
            R = _restriction(mesh, meshes[k + 1])
        elif 0 < mesh.num_free_dofs <= DENSE_BOTTOM_LIMIT:
            factor = scipy.linalg.cho_factor(A.toarray(), lower=True)
        levels.append(GridLevel(mesh, A, inv_diag, lmax, R, factor,
                                A.astype(np.float32)))
    return levels


def _chebyshev_coefficients(lmax):
    """theta and the (c1, c2) of each later step of the smoother.

    The Chebyshev-Jacobi polynomial in D^-1 A of least maximum on
    [lmax / CHEB_RATIO, lmax] with value 1 at 0: the first step is d =
    (D^-1 r) / theta, each later one d = c1 d + c2 D^-1 r.
    """
    upper = lmax
    lower = upper / CHEB_RATIO
    theta = 0.5 * (upper + lower)
    delta = 0.5 * (upper - lower)
    sigma = theta / delta
    rho = 1.0 / sigma
    steps = []
    for _ in range(CHEB_DEGREE - 1):
        rho_next = 1.0 / (2.0 * sigma - rho)
        steps.append((rho_next * rho, 2.0 * rho_next / delta))
        rho = rho_next
    return theta, steps


class VCycle:
    """The V-cycle preconditioner of one solve, on buffers kept for it.

    levels is a tail of a build_levels family, kept as given in
    self.levels; the V-cycle runs in the dtype of their cycle_A,
    inv_diag and R (float32 from build_levels, float64 for a copy with
    float64 data), on pencil-padded vectors. An instance serves one
    solve and allocates one block of the cycle's dtype, once: three
    scratch vectors of the top level's padded size, shared by all
    levels, and every level's right side and iterate. self.out is a
    float64 vector of the top level's padded size in the block's
    first bytes, the scratch vectors of the residual and the
    smoother's step in float32 (of the residual alone in float64):
    cg_solve works in it, as A p, alpha p and M r, and the cycle
    overwrites it until it writes its result. self.A is
    levels[0].A, in float64, for CG's products. Each product is bound
    once, here, to the buffers it reads and writes: per level the
    cycle_A products of the iterate and of the smoother's step, R and
    R.T, and at a dense bottom the free-slot views of its right side
    and iterate.

    Called as precond(r, out) on float64 padded r and out, it writes
    one V-cycle applied to r into out and leaves r as it is:
    pre-smoothing, coarse correction through R and R.T,
    post-smoothing, the bottom level solved by its dense factor,
    through a gather of the free slots and a scatter back, or only
    smoothed. The bottom solve is one call of LAPACK's dpotrs, without
    cho_solve's wrapper and finiteness check: point forces are refused
    unless finite, and cg_solve refuses a right side that is not, so
    the residuals it passes are finite. r is cg_solve's scaled
    residual, so it is rounded to the cycle's dtype as it is, and the
    result is copied back into out. M is linear up to rounding and
    symmetric up to the rounding of the cycle's dtype. Every array
    operation is that of the allocating V-cycle, in its order, so the
    bits are the same; every zero slot of out stays zero.
    """

    def __init__(self, levels):
        sizes = [lv.A.shape[0] for lv in levels]
        n = sizes[0]
        top = levels[0]
        dtype = np.dtype(np.float32 if top.inv_diag is None
                         else top.inv_diag.dtype)
        # one block for all buffers: glibc serves a large block by a
        # mapping of its own, which goes back to the system when the
        # solve ends; separate buffers could stay behind as free heap
        # that later, larger allocations do not reuse
        cycle = np.empty(3 * n + 2 * sum(sizes), dtype=dtype)
        # CG's float64 work vector: the bytes of the residual and step
        # scratch in float32, of the residual scratch alone in float64.
        # Both are dead when __call__ writes its result
        self.out = cycle[:8 // dtype.itemsize * n].view(np.float64)
        self.A = top.A
        self.levels = levels
        # per level: the residual, step and product scratch views, the
        # smoother's coefficients, and the level's right side and iterate
        scratch = cycle[:3 * n].reshape(3, n)
        self._scratch = [tuple(scratch[:, :m]) for m in sizes]
        self._smoother = [None if lv.lmax is None
                          else _chebyshev_coefficients(lv.lmax)
                          for lv in levels]
        self._vectors = []
        start = 3 * n
        for m in sizes:
            self._vectors.append(tuple(cycle[start:start + 2 * m]
                                       .reshape(2, m)))
            start += 2 * m
        # per level, bound once to the buffers they read and write: at a
        # dense bottom, the free-slot views of the right side and the
        # iterate and LAPACK's dpotrs on the factor, the routine that
        # scipy's cho_solve ends in; elsewhere the stencil products
        # x -> q and d -> q of cycle_A and, where the level coarsens,
        # R r -> bc and R.T xc -> q
        self._bound = []
        for k, lv in enumerate(levels):
            (r, d, q), (b, x) = self._scratch[k], self._vectors[k]
            A = lv.cycle_A
            if lv.factor is not None:
                factor, lower = lv.factor
                bound = (_free_slots(b, A.dim, A.p),
                         _free_slots(x, A.dim, A.p),
                         partial(dpotrs, factor, lower=lower))
            else:
                bound = (A.bind(x, q), A.bind(d, q))
                if lv.R is not None:
                    bc, xc = self._vectors[k + 1]
                    bound += (_bind_sparse(lv.R, r, bc),
                              _bind_sparse(lv.R.T, xc, q))
            self._bound.append(bound)

    def __call__(self, r, out):
        b, x = self._vectors[0]
        b[...] = r
        self._cycle(0)
        out[...] = x

    def _cycle(self, k):
        lv = self.levels[k]
        b, x = self._vectors[k]
        if lv.factor is not None:
            b_slots, x_slots, solve = self._bound[k]
            x.fill(0.0)
            x_slots[...] = solve(b_slots.reshape(-1))[0].reshape(
                x_slots.shape)
            return
        self._chebyshev(k, True)
        if lv.R is not None:
            res, _, q = self._scratch[k]
            x_product, _, restrict, prolong = self._bound[k]
            x_product()
            np.subtract(b, q, out=res)
            restrict()
            self._cycle(k + 1)
            # R.T e into a zeroed vector, then added: accumulating the
            # product in x would sum in another order
            prolong()
            x += q
        self._chebyshev(k, False)

    def _chebyshev(self, k, zero_start):
        """CHEB_DEGREE Chebyshev-Jacobi steps on A x = b, in place in the
        level's iterate x, for its right side b.

        With zero_start the steps start from zero and x enters unread.
        """
        inv_diag = self.levels[k].inv_diag
        b, x = self._vectors[k]
        r, d, q = self._scratch[k]
        x_product, d_product = self._bound[k][:2]
        theta, steps = self._smoother[k]
        # res is the residual: b itself from a zero start until the
        # first update writes b - A d into r, so b is never copied
        if zero_start:
            res = b
        else:
            x_product()
            res = np.subtract(b, q, out=r)
        np.multiply(inv_diag, res, out=d)
        d /= theta
        if zero_start:
            x[...] = d
        else:
            x += d
        for c1, c2 in steps:
            d_product()
            res = np.subtract(res, q, out=r)
            np.multiply(inv_diag, r, out=q)
            q *= c2
            d *= c1
            d += q
            x += d
