"""Independent reference implementations used to validate the package.

Everything here deliberately takes a different route than the code under
test: plain python loops instead of vectorized assembly, matrix square
roots instead of Cholesky whitening, full dense eigendecompositions
instead of banded inertia bisection, a plain bisection instead of the
proposal-and-replay pencil search, whole-matrix row sums instead of
row blocks, a Kronecker product instead of the restriction stencil,
full-lattice prolongations instead of a multigrid family's transfers,
allocating expressions instead of the in-place multigrid-CG
workspace, one assembled vertex plane instead of a tiled stencil,
index loops instead of the plane-padded layout's views, per-line file
writers instead of block formatting, per-cell corner loops instead of
the cached corner plan, a meshgrid stack instead of the lattice
vertex property, scipy's wrappers instead of bound LAPACK
routines and sparse kernels, and
seeded Monte
Carlo for integrals without a convenient closed form. Keep these slow
and obvious.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import IntegrationWarning, quad

from elastopoint.assembly import (CONSTRAINED, _element_matrices, _form_rows,
                                  _interior, _stiffness_coeffs, build_dof_map,
                                  to_free, to_padded)
from elastopoint.convergence import _l2_norm_sq_padded
from elastopoint.mesh import (_chain_templates, _lattice_strides,
                              _reference_gradients, cell_geometry,
                              cell_volumes)
from elastopoint.multigrid import CHEB_DEGREE, CHEB_RATIO
from elastopoint.solver import SolveStats
from elastopoint.weights import cell_weight_integrals


# ---------------------------------------------------------------------------
# exact integrals


def simplex_monomial_integral(exponents):
    """Integral of prod x_i^{e_i} over the reference d-simplex.

    Reference simplex: x_i >= 0, sum x_i <= 1. Classical factorial
    formula: prod(e_i!) / (sum(e_i) + d)!.
    """
    exponents = list(exponents)
    d = len(exponents)
    num = 1
    for e in exponents:
        num *= math.factorial(int(e))
    return num / math.factorial(sum(int(e) for e in exponents) + d)


def box_integral_affine_squared(coeff, const, dim):
    """Exact integral of (const + coeff . x)^2 over the unit box."""
    c = np.asarray(coeff, dtype=float).reshape(dim)
    total = const * const + const * c.sum()
    total += (c * c).sum() / 3.0
    s = c.sum()
    total += (s * s - (c * c).sum()) / 4.0
    return float(total)


def mc_box_integral(dim, fn, samples=400_000, seed=1234):
    """Monte Carlo integral of fn over the unit box (fn maps (m,d)->(m,))."""
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, dim))
    return float(np.mean(fn(pts)))


def centered_ball_a2_product(dim, alpha):
    """Exact mean(w) * mean(1/w) over a ball centered at the weight center.

    For w = |x|^alpha the radial means are d r^{+-alpha} / (d +- alpha),
    so the product is d^2 / ((d + alpha)(d - alpha)) for any radius.
    """
    return dim * dim / ((dim + alpha) * (dim - alpha))


def a2_ball_product_grid(weight_center, alpha, ball_center, radius, m):
    """mean(w) * mean(1/w) for w = |x - weight_center|^alpha over one
    ball, on the nodes of an m^d midpoint grid of its bounding cube that
    lie in the ball; a node on the weight center is left out. The
    error falls like a power of 1/m, slowly for |alpha| near d."""
    center = np.asarray(weight_center, dtype=float)
    axis = (np.arange(m) + 0.5) / m * 2.0 - 1.0
    unit = np.stack(np.meshgrid(*[axis] * center.size, indexing="ij"),
                    axis=-1).reshape(-1, center.size)
    pts = np.asarray(ball_center, dtype=float) + radius * unit[
        (unit * unit).sum(axis=1) <= 1.0]
    dist = np.linalg.norm(pts - center, axis=1)
    w = dist[dist > 0.0] ** alpha
    return float(w.mean() * (1.0 / w).mean())


def disc_power_mean_polar(t, beta):
    """Mean of |x|^beta over the unit disc centered at distance t from
    the origin, by polar coordinates about the origin: the ray at angle
    theta from the disc's center crosses the circle at
    t cos(theta) -+ sqrt(1 - t^2 sin^2(theta)), and its radial integral
    of r^(beta + 1) is closed; scipy's adaptive quad does the angle,
    split at the right angle, where the ray's length changes fastest
    when the origin lies just inside the circle."""
    def ray(theta):
        mid = t * math.cos(theta)
        half = math.sqrt(max(1.0 - (t * math.sin(theta)) ** 2, 0.0))
        # the crossings multiply to t^2 - 1: the one of smaller modulus
        # is taken from the other, which has no cancellation
        if mid >= 0.0:
            far = mid + half
            near = (t - 1.0) * (t + 1.0) / far if t > 1.0 else 0.0
        else:
            far = (1.0 - t) * (1.0 + t) / (half - mid)
            near = 0.0
        return (far ** (beta + 2) - near ** (beta + 2)) / (beta + 2)

    if t > 1.0:
        pieces = [(0.0, math.asin(1.0 / t))]
    else:
        pieces = [(0.0, math.pi / 2), (math.pi / 2, math.pi)]
    with warnings.catch_warnings():
        # near the circle quad reports roundoff before reaching 1e-12;
        # its result there is within 3e-14 of a 30-digit quadrature
        warnings.simplefilter("ignore", IntegrationWarning)
        total = sum(quad(ray, lo, hi, limit=400, epsabs=0.0,
                         epsrel=1e-12)[0] for lo, hi in pieces)
    return 2.0 * total / math.pi


def weighted_h1_seminorm_sq(mesh, field, spec):
    """int rho_alpha |grad v_h|^2 dx; the gradient is cellwise constant."""
    vals = np.asarray(field, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != mesh.num_vertices:
        raise ValueError("field must carry one value set per vertex")
    _, grads = cell_geometry(mesh)
    gv = np.einsum("xia,xic->xca", grads, vals[mesh.cells])
    gnorm2 = (gv * gv).sum(axis=(1, 2))
    return float(gnorm2 @ cell_weight_integrals(mesh, spec))


# ---------------------------------------------------------------------------
# geometry


def barycentric_coordinates(vertex_coords, point):
    """Barycentric coordinates of point w.r.t. a simplex, via one solve."""
    V = np.asarray(vertex_coords, dtype=float)
    d1 = V.shape[0]
    M = np.vstack([np.ones(d1), V.T])
    b = np.concatenate([[1.0], np.asarray(point, dtype=float)])
    return np.linalg.solve(M, b)


def containing_cells_bruteforce(mesh, point, tol=1e-12):
    """All (cell_index, barycentric) pairs containing point, by full scan."""
    hits = []
    cells, verts = mesh.cells, mesh.vertices
    for ci in range(mesh.num_cells):
        bary = barycentric_coordinates(verts[cells[ci]], point)
        if np.all(bary >= -tol):
            hits.append((ci, bary))
    return hits


def cell_volume_loop(V):
    """Volume of the simplex with vertex coordinates V, (d+1, d)."""
    d = V.shape[1]
    return abs(np.linalg.det(V[1:] - V[0])) / math.factorial(d)


def cell_gradients_loop(V):
    """P1 shape gradients on the simplex V by the affine-coefficients solve."""
    d1 = V.shape[0]
    M = np.hstack([np.ones((d1, 1)), V])
    coeffs = np.linalg.solve(M, np.eye(d1))
    return coeffs[1:, :].T


def l2_norm_sq_p1_percell(mesh, values):
    """Exact integral of |v_h|^2, one closed-form term per cell.

    int_T (sum_i lambda_i v_i)^2 = |T| ((sum v)^2 + sum v^2) / ((d+1)(d+2)),
    with the vertex values gathered through mesh.cells and each volume
    taken from a determinant.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    cells = mesh.cells
    cv = vals[cells]
    ssum = cv.sum(axis=1)
    per_cell = (ssum * ssum + (cv * cv).sum(axis=1)).sum(axis=1)
    verts = mesh.vertices
    vols = np.array([cell_volume_loop(verts[cell]) for cell in cells])
    return float(vols @ per_cell) / ((mesh.dim + 1) * (mesh.dim + 2))


def lattice_vertices_meshgrid(dim, n):
    """Vertex coordinates of the mesh of size n, ((n+1)^dim, dim), by a
    stack of meshgrid axes in "ij" order."""
    grid = np.arange(n + 1, dtype=float) / n
    # one allocation: the coordinates are broadcast views until stacked
    axes = np.meshgrid(*([grid] * dim), indexing="ij", sparse=True)
    vertices = np.stack(np.broadcast_arrays(*axes), axis=-1)
    return vertices.reshape(-1, dim)


def cells_loop(dim, n):
    """Cell table of the Kuhn mesh by loops, (n^dim * dim!, dim + 1).

    Cubes in C order of their base corner; within a cube, one simplex
    per axis permutation in lexicographic order, walking from the base
    corner one axis step at a time; odd permutations get their last two
    vertices swapped.
    """
    strides = [(n + 1) ** (dim - 1 - k) for k in range(dim)]
    rows = []
    for base in itertools.product(range(n), repeat=dim):
        for perm in itertools.permutations(range(dim)):
            corner = list(base)
            cell = [sum(c * s for c, s in zip(corner, strides))]
            for axis in perm:
                corner[axis] += 1
                cell.append(sum(c * s for c, s in zip(corner, strides)))
            inversions = sum(perm[i] > perm[j] for i in range(dim)
                             for j in range(i + 1, dim))
            if inversions % 2:
                cell[-2], cell[-1] = cell[-1], cell[-2]
            rows.append(cell)
    return np.array(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# assembly


def dense_stiffness_loop(mesh, mu, lam, form):
    """Full (pre-elimination) vector P1 stiffness matrix by nested loops.

    form is "GRAD_DIV" (mu grad:grad + (mu+lam) div div) or "EPS_DIV"
    (2 mu eps:eps + lam div div).
    """
    nv = mesh.num_vertices
    d = mesh.dim
    K = np.zeros((nv * d, nv * d))
    verts = mesh.vertices
    for cell in mesh.cells:
        vol = cell_volume_loop(verts[cell])
        grads = cell_gradients_loop(verts[cell])
        for i in range(d + 1):
            for j in range(d + 1):
                gi, gj = grads[i], grads[j]
                dot = float(gi @ gj)
                for a in range(d):
                    for b in range(d):
                        div_term = gi[a] * gj[b]
                        if form == "GRAD_DIV":
                            val = mu * (a == b) * dot + (mu + lam) * div_term
                        elif form == "EPS_DIV":
                            val = mu * ((a == b) * dot + gi[b] * gj[a])
                            val += lam * div_term
                        else:
                            raise ValueError(form)
                        K[cell[i] * d + a, cell[j] * d + b] += vol * val
    return K


def dense_form_loop(mesh, cell_weights, c_grad=0.0, c_div=0.0, c_eps=0.0):
    """Full weighted vector P1 form matrix by nested loops.

    Cell ci contributes cell_weights[ci] times
    c_grad grad u : grad v + c_div div u div v + c_eps eps(u) : eps(v)
    for the basis fields lambda_i e_a, whose gradient is the matrix
    with row a equal to grad lambda_i.
    """
    nv = mesh.num_vertices
    d = mesh.dim
    K = np.zeros((nv * d, nv * d))
    eye = np.eye(d)
    verts = mesh.vertices
    for ci, cell in enumerate(mesh.cells):
        grads = cell_gradients_loop(verts[cell])
        G = {}
        for i in range(d + 1):
            for a in range(d):
                G[i, a] = np.outer(eye[a], grads[i])
        for (i, a), Gu in G.items():
            for (j, b), Gv in G.items():
                eu = 0.5 * (Gu + Gu.T)
                ev = 0.5 * (Gv + Gv.T)
                val = (c_grad * float(np.sum(Gu * Gv))
                       + c_div * float(np.trace(Gu) * np.trace(Gv))
                       + c_eps * float(np.sum(eu * ev)))
                K[cell[i] * d + a, cell[j] * d + b] += cell_weights[ci] * val
    return K


def free_dof_numbering(mesh):
    """(nv, d) free dof numbers by a loop; -1 on boundary vertices.

    A vertex is free when none of its coordinates equals 0 or 1; free
    vertices are numbered in vertex order, their components inner.
    """
    table = np.full((mesh.num_vertices, mesh.dim), -1, dtype=int)
    k = 0
    for v, xyz in enumerate(mesh.vertices):
        if any(x == 0.0 or x == 1.0 for x in xyz):
            continue
        for c in range(mesh.dim):
            table[v, c] = k
            k += 1
    return table


def restrict_to_free(K_full, mesh):
    """Restrict a full (nv*d) x (nv*d) matrix to the free dof ordering."""
    table = free_dof_numbering(mesh)
    full_ids = np.empty(int((table >= 0).sum()), dtype=int)
    for v in range(mesh.num_vertices):
        for c in range(mesh.dim):
            if table[v, c] >= 0:
                full_ids[table[v, c]] = v * mesh.dim + c
    return K_full[np.ix_(full_ids, full_ids)]


def corner_pair_blocks_loop(dim, K):
    """{(row corner, col corner): (d!, d, d) blocks} of the element
    matrices K of the d! reference cells, by a loop over every cell and
    vertex pair with col corner >= row corner, keys in the order in
    which the loop meets them; the oracle of
    assembly._corner_pair_blocks."""
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


def form_matrix_fullgrid(mesh, cell_weights=None, c_grad=0.0, c_div=0.0,
                         c_eps=0.0):
    """vector_p1_form_matrix's earlier writer, over the whole lattice at once.

    It sums every lattice offset's blocks into one (offsets, (n+1)^d,
    d, d) array and compacts all rows together, so it holds about 3.6
    times the matrix in temporaries; the slab-wise writer must give the
    same CSR arrays.
    """
    d, n = mesh.dim, mesh.n
    n_free = mesh.num_free_dofs
    if n_free == 0:
        return sp.csr_matrix((0, 0))
    if cell_weights is None:
        weights = cell_volumes(mesh)
    else:
        weights = np.asarray(cell_weights, dtype=float)
        if weights.shape != (mesh.num_cells,):
            raise ValueError("cell_weights must have one entry per cell")

    K = _element_matrices(_reference_gradients(d, n), c_grad, c_div, c_eps)
    nt = K.shape[0]
    groups = corner_pair_blocks_loop(d, K)
    # nonnegative offsets in ascending linear stride; for 0/1 vectors
    # that is lexicographic order, and offsets[0] is zero
    offsets = sorted({tuple(np.subtract(cj, ci)) for ci, cj in groups})

    # half[k][v] is the (v, v + offsets[k]) block, shape (d, d)
    half = np.zeros((len(offsets),) + (n + 1,) * d + (d, d))
    cube_weights = weights.reshape(n ** d, nt)
    for (ci, cj), blocks in groups.items():
        k = offsets.index(tuple(np.subtract(cj, ci)))
        part = cube_weights @ blocks.reshape(nt, d * d)
        half[(k,) + tuple(slice(c, c + n) for c in ci)] += \
            part.reshape((n,) * d + (d, d))
    # the matmul need not round the (a, b) and (b, a) entries of a
    # diagonal block alike; copy the upper triangle to keep symmetry
    iu = np.triu_indices(d, 1)
    half[0][..., iu[1], iu[0]] = half[0][..., iu[0], iu[1]]

    m = len(offsets) - 1
    interior = _interior(mesh)
    nint = (n - 1) ** d
    vals = np.empty((nint, d, 2 * m + 1, d))
    vals[:, :, m, :] = half[0][interior].reshape(nint, d, d)
    for k in range(1, m + 1):
        vals[:, :, m + k, :] = half[k][interior].reshape(nint, d, d)
        below = tuple(slice(1 - o, n - o) for o in offsets[k])
        vals[:, :, m - k, :] = np.swapaxes(half[k][below], -1, -2).reshape(
            nint, d, d)

    strides = _lattice_strides(d, n)
    steps = np.array(offsets[:0:-1] + offsets, dtype=np.int64) @ strides
    steps[:m] *= -1
    verts = np.arange((n + 1) ** d).reshape((n + 1,) * d)[interior].ravel()
    cols = build_dof_map(mesh)[verts[:, None] + steps[None, :]]
    cols = np.broadcast_to(cols[:, None], vals.shape)
    keep = (cols >= 0) & (vals != 0.0)
    per_row = keep.reshape(nint * d, -1).sum(axis=1)
    nnz = int(per_row.sum())
    itype = np.int32 if max(nnz, n_free) < 2 ** 31 else np.int64
    indptr = np.zeros(nint * d + 1, dtype=itype)
    np.cumsum(per_row, out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep].astype(itype), indptr),
                         shape=(n_free, n_free))


# ---------------------------------------------------------------------------
# spectral


def _sqrtm_spd(G):
    S = scipy.linalg.sqrtm(np.asarray(G, dtype=float))
    return np.real(S)


def _whitened(A, G_rows, G_cols):
    """S_rows^{-1} A S_cols^{-1} with matrix square roots."""
    Sr = _sqrtm_spd(G_rows)
    Sc = _sqrtm_spd(G_cols)
    return np.linalg.solve(Sr, np.asarray(A, dtype=float)) @ np.linalg.inv(Sc)


def _sigma_min_as_map(W, trial_dim):
    if trial_dim == 0:
        return math.inf
    if trial_dim > W.shape[0]:
        return 0.0
    return float(scipy.linalg.svdvals(W)[-1])


def infsup_oracle(B, G_Y, G_M):
    """Whitened smallest singular value via sqrtm, not Cholesky."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    nM, nY = B.shape
    if nM == 0:
        return math.inf
    if nM > nY:
        return 0.0
    return _sigma_min_as_map(_whitened(B, G_M, G_Y), nM)


def _whitened_kernel_basis(C, G, rank_rtol=1e-10):
    """Orthonormal basis (euclidean) of ker(C S^{-1}) for S = sqrtm(G)."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    nQ, n = C.shape
    if nQ == 0:
        return np.eye(n)
    W = C @ np.linalg.inv(_sqrtm_spd(G))
    _, s, Vt = np.linalg.svd(W, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > rank_rtol * smax)) if smax > 0.0 else 0
    return Vt[rank:].T


def theorem31_oracle(A, B, C, G_X, G_Y, G_M, G_Q, rank_rtol=1e-10):
    """Same five report values through sqrtm whitening and full SVDs.

    Returns a dict with keys matching the InfSupReport field names.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    nY, nX = A.shape

    beta_B = infsup_oracle(B, G_Y, G_M)
    beta_C = infsup_oracle(C, G_X, G_Q)

    W = _whitened(A, G_Y, G_X)
    U_C = _whitened_kernel_basis(C, G_X, rank_rtol)
    U_B = _whitened_kernel_basis(B, G_Y, rank_rtol)
    kC = U_C.shape[1]
    kB = U_B.shape[1]

    if kC == 0:
        alpha_kernel = _sigma_min_as_map(W, nX)
        alpha_full = alpha_kernel
    else:
        alpha_kernel = _sigma_min_as_map(U_B.T @ W @ U_C, kC)
        alpha_full = _sigma_min_as_map(W @ U_C, kC)

    if kB == 0:
        injective = True
    elif kC == 0 or kB > kC:
        injective = False
    else:
        s = scipy.linalg.svdvals(U_B.T @ W @ U_C)
        smax = float(s[0]) if s.size else 0.0
        injective = bool(smax > 0.0 and s[kB - 1] > rank_rtol * smax)

    return {
        "beta_B": beta_B,
        "beta_C": beta_C,
        "alpha_A_kernel": alpha_kernel,
        "alpha_A_full": alpha_full,
        "injective_on_kernels": injective,
    }


def pencil_lambda_min_oracle(E, G):
    """Smallest eigenvalue of G^{-1/2} E G^{-1/2}, full dense spectrum."""
    E = np.asarray(E.toarray() if hasattr(E, "toarray") else E, dtype=float)
    G = np.asarray(G.toarray() if hasattr(G, "toarray") else G, dtype=float)
    S = _sqrtm_spd(G)
    M = np.linalg.solve(S, np.linalg.solve(S, E).T)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def pencil_lambda_min_bisection(E, G):
    """sup{sigma : E - sigma G is SPD} by plain inertia bisection.

    Every step factors E - sigma G once (banded Cholesky) at the
    midpoint of [0, min_i E_ii / G_ii] and keeps the half whose ends
    factor (below) and do not (above), down to relative width 4 eps;
    returns the lower end. About 52 factorizations; the oracle that
    spectral._pencil_lambda_min must reproduce bit for bit.
    """
    E = E.tocoo()
    G = G.tocoo()
    b = int(max(np.max(E.row - E.col), np.max(G.row - G.col)))

    def band(C):
        keep = C.row >= C.col
        ab = np.zeros((b + 1, C.shape[0]))
        ab[C.row[keep] - C.col[keep], C.col[keep]] = C.data[keep]
        return ab

    Eb = band(E)
    Gb = band(G)
    work = np.empty_like(Eb)

    def spd(sigma):
        np.multiply(Gb, -sigma, out=work)
        np.add(work, Eb, out=work)
        try:
            scipy.linalg.cholesky_banded(work, lower=True, overwrite_ab=True,
                                         check_finite=False)
        except np.linalg.LinAlgError:
            return False
        return True

    lo = 0.0
    hi = float(np.min(Eb[0] / Gb[0]))
    if not (spd(lo) and 0.0 < hi < math.inf):
        raise ValueError("degenerate pencil: E is not positive definite "
                         "or G has a nonpositive diagonal")
    eps = np.finfo(float).eps
    while hi - lo > 4.0 * eps * hi:
        mid = 0.5 * (lo + hi)
        if spd(mid):
            lo = mid
        else:
            hi = mid
    return lo


def largest_ritz_scipy(solve, x, steps, done, gram):
    """spectral._largest_ritz through scipy's wrappers: gram @ q for the
    inner products (the identity matrix when gram is None) and
    eigh_tridiagonal for the Ritz pairs. The oracle that the bound
    LAPACK and sparse-kernel calls must reproduce bit for bit."""
    if gram is None:
        gram = sp.identity(x.size, format="csr")
    gq = gram @ x
    norm = math.sqrt(x @ gq)
    q = x / norm
    gq /= norm
    q_prev = np.zeros_like(q)
    beta = 0.0
    alphas = []
    betas = []
    for j in range(min(steps, x.size)):
        w = solve(gq)
        alphas.append(gq @ w)
        w -= alphas[-1] * q + beta * q_prev
        gw = gram @ w
        beta = math.sqrt(max(w @ gw, 0.0))
        nu, s = scipy.linalg.eigh_tridiagonal(alphas, betas)
        r = beta * abs(s[-1, -1])
        gap = nu[-1] - nu[-2] if j > 0 else 0.0
        if done(nu[-1], r, gap) or beta == 0.0:
            break
        betas.append(beta)
        q_prev, q, gq = q, w / beta, gw / beta
    return nu[-1], r, gap


def jacobi_bound_whole_matrix(A):
    """(1 / diag(A), max_i sum_j |A_ij| / A_ii) from |A| as one CSR."""
    inv_diag = 1.0 / A.diagonal()
    absA = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr),
                         shape=A.shape)
    return inv_diag, float((inv_diag * (absA @ np.ones(A.shape[0]))).max())


def plane_rows(mesh, params):
    """The grad-div rows of the first interior vertex plane, as CSR.

    pd = d (n-1)^(d-1) rows over the 3 pd columns of vertex planes 0, 1
    and 2, numbered plane-major as the free dofs, from the slab writer
    of vector_p1_form_matrix. Every interior plane has these rows, less
    the columns on a boundary plane.
    """
    d, n = mesh.dim, mesh.n
    pd = mesh.num_free_dofs // (n - 1)
    table = np.full((n + 1,) * d + (d,), CONSTRAINED, dtype=np.int64)
    table[(slice(0, 3),) + _interior(mesh)[1:]] = np.arange(
        3 * pd).reshape((3,) + (n - 1,) * (d - 1) + (d,))
    return _form_rows(mesh, cell_volumes(mesh),
                      _stiffness_coeffs(params),
                      table.reshape(-1, d), 1, 3 * pd)


def plane_rows_product(W, planes, x):
    """A x for the free-dof vector x from one plane's rows W: (W Z)^T,
    with Z the (3 pd, planes) stack of the planes of x shifted by -1, 0
    and +1 and zero where a shift leaves the interior."""
    pd = W.shape[0]
    X = np.asarray(x).reshape(planes, pd).T
    Z = np.zeros((3, pd, planes), dtype=X.dtype)
    Z[0, :, 1:] = X[:, :-1]
    Z[1] = X
    Z[2, :, :-1] = X[:, 1:]
    return (W @ Z.reshape(3 * pd, planes)).T.reshape(-1)


def jacobi_bound_plane_rows(W, planes):
    """(1 / diag(A), max_i sum_j |A_ij| / A_ii) from one plane's rows,
    with the row sums of |W| taken by plane_rows_product."""
    pd = W.shape[0]
    inv_diag = 1.0 / np.tile(W.diagonal(pd), planes)
    sums = plane_rows_product(abs(W), planes, np.ones(pd * planes))
    return inv_diag, float((inv_diag * sums).max())


def padded_positions(mesh):
    """Position of each free dof in a pencil-padded vector, by a loop:
    with p = n-1, free dof (vertex (j_0, ..., j_{d-2}, i), component c)
    sits at margin + (i d + c) (p+1)^(d-1) + sum_k j_k (p+1)^(d-2-k),
    margin = sum_{k < d-1} (p+1)^k; the padded length is 2 margin +
    d p (p+1)^(d-1). Returns (positions, padded length); the loop runs
    once per size."""
    return _padded_positions(mesh.dim, mesh.n)


@functools.lru_cache(maxsize=None)
def _padded_positions(dim, n):
    p = n - 1
    margin = sum((p + 1) ** k for k in range(dim - 1))
    run = (p + 1) ** (dim - 1)
    pos = np.empty(dim * p ** dim, dtype=np.int64)
    f = 0
    for vertex in itertools.product(range(p), repeat=dim):
        for c in range(dim):
            pos[f] = margin + (vertex[-1] * dim + c) * run
            for k, j in enumerate(vertex[:-1]):
                pos[f] += j * (p + 1) ** (dim - 2 - k)
            f += 1
    pos.flags.writeable = False
    return pos, 2 * margin + dim * p * run if p else 0


def line_rows(mesh, params):
    """The grad-div rows of one lattice line along the last axis, as CSR.

    The line of the first interior vertex in every other axis: its d
    (n-1) rows, numbered (last-axis vertex, component), come from the
    slab writer's rows of the first interior plane. The columns number
    the dofs of the 3^(d-1) lines at the shifts t in {-1, 0, 1}^(d-1)
    of the other axes, boundary lines included, in lexicographic order
    of t, d (n-1) columns each, in the order of the rows.
    """
    d, n = mesh.dim, mesh.n
    line = d * (n - 1)
    table = np.full((3,) + (n + 1,) * (d - 1) + (d,), CONSTRAINED,
                    dtype=np.int64)
    table[(slice(0, 3),) * (d - 1) + (slice(1, n),)] = np.arange(
        3 ** (d - 1) * line).reshape((3,) * (d - 1) + (n - 1, d))
    W = _form_rows(mesh, cell_volumes(mesh),
                   _stiffness_coeffs(params),
                   table.reshape(-1, d), 1, 3 ** (d - 1) * line)
    return W[:line]


def pad_vector(mesh, x):
    """The plane-padded vector of a free-dof vector, zero elsewhere."""
    pos, size = padded_positions(mesh)
    out = np.zeros(size, dtype=np.asarray(x).dtype)
    out[pos] = x
    return out


def pad_matrix(M, row_mesh, col_mesh):
    """A free-dof CSR matrix on plane-padded vectors: each free row moves
    to its padded position with its entries in their order and their
    columns moved to theirs; the zero slots have empty rows."""
    M = sp.csr_matrix(M)
    rows, nrows = padded_positions(row_mesh)
    cols, ncols = padded_positions(col_mesh)
    free = {int(r): f for f, r in enumerate(rows)}
    data, indices, indptr = [], [], [0]
    for r in range(nrows):
        if r in free:
            lo, hi = M.indptr[free[r]], M.indptr[free[r] + 1]
            data.extend(M.data[lo:hi])
            indices.extend(cols[M.indices[lo:hi]])
        indptr.append(len(data))
    return sp.csr_matrix((np.array(data, dtype=M.dtype),
                          np.array(indices, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)),
                         shape=(nrows, ncols))


def prolongation_matrix(dim, n):
    """P1 prolongation from the (n+1)^d to the (2n+1)^d vertex lattice.

    CSR of shape ((2n+1)^d, (n+1)^d) in C-order vertex numbering. Fine
    vertex I (lattice coordinates) is the midpoint of the coarse
    segment [I//2, I//2 + (I & 1)], which is an edge of the coarse
    Kuhn split or, for even I, a single vertex; so the fine nodal
    values of a coarse P1 field are averages of two coarse values, and
    rows of even vertices hold a single 1. Exact for every field,
    boundary values included.
    """
    m = 2 * n
    half = np.arange(m + 1, dtype=np.int64) // 2
    odd = np.arange(m + 1, dtype=np.int64) & 1
    strides = _lattice_strides(dim, n)
    lo = np.zeros((m + 1,) * dim, dtype=np.int64)
    hi = np.zeros((m + 1,) * dim, dtype=np.int64)
    for k in range(dim):
        shape = [1] * dim
        shape[k] = m + 1
        lo += (strides[k] * half).reshape(shape)
        hi += (strides[k] * (half + odd)).reshape(shape)
    # two halves per row; for even vertices they share a column and the
    # conversion to CSR sums them to 1
    cols = np.stack([lo.ravel(), hi.ravel()], axis=1).ravel()
    rows = np.arange(lo.size).repeat(2)
    return sp.csr_matrix((np.full(cols.shape, 0.5), (rows, cols)),
                         shape=(lo.size, (n + 1) ** dim))


def l2_error_nested_lattice(level_mesh, u_level, ref_mesh, u_ref):
    """L2 distance of nodal fields through full-lattice prolongations.

    The level field is prolongated by prolongation_matrix, rebuilt at
    every doubling, onto the reference mesh at least two levels finer.
    The difference, zero on the boundary, is measured as the library
    measures it, by the interior mass stencil (tested on its own
    against l2_norm_sq_p1 and l2_norm_sq_p1_percell), so that a nested
    error equals this one bit for bit when its chain does.
    """
    if level_mesh.dim != ref_mesh.dim:
        raise ValueError("meshes have different dimensions")
    ratio = ref_mesh.n / level_mesh.n
    k = int(round(math.log(ratio, 2))) if ratio > 1 else 0
    if level_mesh.n * 2 ** k != ref_mesh.n or k < 2:
        raise ValueError("reference mesh must be >= 2 dyadic levels finer "
                         "(n=%d vs n=%d)" % (level_mesh.n, ref_mesh.n))
    u_ref = np.asarray(u_ref, dtype=float)
    v = np.asarray(u_level, dtype=float)
    n = level_mesh.n
    while n < ref_mesh.n:
        v = prolongation_matrix(level_mesh.dim, n) @ v
        n *= 2
    diff = to_padded(ref_mesh, to_free(ref_mesh, v - u_ref))
    return math.sqrt(_l2_norm_sq_padded(ref_mesh, diff))


def dof_prolongation_kron(fine, coarse):
    """Free-dof prolongation from the coarse mesh to the fine one, as CSR.

    The lattice prolongation with one copy per displacement component
    (a Kronecker product with the identity), restricted to the free
    rows and columns that to_free picks from the nodal dofs.
    """
    d = fine.dim
    P = sp.kron(prolongation_matrix(d, coarse.n), sp.identity(d),
                format="csr")
    rows = to_free(fine, np.arange(fine.num_vertices * d).reshape(-1, d))
    cols = to_free(coarse, np.arange(coarse.num_vertices * d).reshape(-1, d))
    return P[rows][:, cols]


def product(A, x):
    """A x into a fresh vector: a level operator's bound product, for a
    padded x of its dtype, or a matrix's A @ x."""
    if not hasattr(A, "bind"):
        return A @ x
    return A.bind(x, np.empty(A.shape[0], x.dtype))()


def chebyshev_allocating(lv, b, x):
    """CHEB_DEGREE Chebyshev-Jacobi steps on cycle_A x = b from x (None:
    zero), each expression in a fresh array."""
    upper = lv.lmax
    lower = upper / CHEB_RATIO
    theta = 0.5 * (upper + lower)
    delta = 0.5 * (upper - lower)
    sigma = theta / delta
    rho = 1.0 / sigma
    r = b.copy() if x is None else b - product(lv.cycle_A, x)
    d = (lv.inv_diag * r) / theta
    x = d.copy() if x is None else x + d
    for _ in range(CHEB_DEGREE - 1):
        rho_next = 1.0 / (2.0 * sigma - rho)
        r -= product(lv.cycle_A, d)
        d = (rho_next * rho) * d + (2.0 * rho_next / delta) * (lv.inv_diag * r)
        x += d
        rho = rho_next
    return x


def vcycle_allocating(levels, r):
    """One V-cycle from levels[0] applied to the float64 r, in the dtype
    of the level data, with public products (R.T @ e, R @ v) and bound
    cycle_A products into fresh arrays. r is rounded to the level dtype
    as it is, and the result is returned in float64."""
    b = r.astype(levels[0].inv_diag.dtype)
    return _cycle_allocating(levels, b).astype(np.float64)


def _cycle_allocating(levels, r):
    lv = levels[0]
    if lv.factor is not None:
        pos, _ = padded_positions(lv.mesh)
        x = np.zeros_like(r)
        x[pos] = scipy.linalg.cho_solve(lv.factor, r[pos])
        return x
    x = chebyshev_allocating(lv, r, None)
    if lv.R is not None:
        x += lv.R.T @ _cycle_allocating(
            levels[1:], lv.R @ (r - product(lv.cycle_A, x)))
    return chebyshev_allocating(lv, r, x)


def cg_allocating(A, b, rel_tol=1e-10, max_iter=None, precond=None):
    """Preconditioned CG with the true-residual stop of cg_solve, every
    step in fresh arrays; precond maps r to M r (None: Jacobi)."""
    n = b.shape[0]
    if max_iter is None:
        max_iter = int(20 * math.sqrt(n)) + 200
    if precond is None:
        inv_diag = 1.0 / A.diagonal()

        def precond(r):
            return inv_diag * r

    bnorm = np.linalg.norm(b)
    x = np.zeros(n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    converged = False
    while it < max_iter:
        Ap = product(A, p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
        if np.linalg.norm(r) <= rel_tol * bnorm:
            r_true = b - product(A, x)
            if np.linalg.norm(r_true) <= rel_tol * bnorm:
                converged = True
                break
            r = r_true
            z = precond(r)
            p = z.copy()
            rz = float(r @ z)
            continue
        z = precond(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new

    final_rel = float(np.linalg.norm(b - product(A, x)) / bnorm)
    if converged:
        converged = final_rel <= rel_tol
    return x, SolveStats(it, final_rel, converged)


def same_bits(x, y):
    """True when two float arrays have equal dtypes, shapes and bits."""
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    bits = "i%d" % x.dtype.itemsize
    return np.array_equal(x.view(bits), y.view(bits))


def random_report_instance(rng, max_dim=12):
    """Random (A, B, C, G_X, G_Y, G_M, G_Q) with well-conditioned Grams."""

    def spd(n):
        if n == 0:
            return np.zeros((0, 0))
        Q = rng.standard_normal((n, n))
        return Q @ Q.T + n * np.eye(n)

    nX = int(rng.integers(1, max_dim + 1))
    nY = int(rng.integers(1, max_dim + 1))
    nM = int(rng.integers(0, max_dim + 1))
    nQ = int(rng.integers(0, max_dim + 1))
    A = rng.standard_normal((nY, nX))
    B = rng.standard_normal((nM, nY))
    C = rng.standard_normal((nQ, nX))
    return A, B, C, spd(nX), spd(nY), spd(nM), spd(nQ)


# ---------------------------------------------------------------------------
# output


def write_vtk_field_per_line(mesh, field, path):
    """Legacy ASCII VTK writer, one formatted line per point/cell/vector."""
    field = np.asarray(field, dtype=float)
    nv_cell = mesh.dim + 1
    ctype = {2: 5, 3: 10}[mesh.dim]
    with open(path, "w", newline="") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("displacement field\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % mesh.num_vertices)
        for p in lattice_vertices_meshgrid(mesh.dim, mesh.n):
            xyz = list(p) + [0.0] * (3 - mesh.dim)
            fh.write("%.16g %.16g %.16g\n" % tuple(xyz))
        fh.write("CELLS %d %d\n" % (mesh.num_cells,
                                    mesh.num_cells * (nv_cell + 1)))
        for cell in mesh.cells:
            fh.write("%d %s\n" % (nv_cell,
                                  " ".join(str(int(v)) for v in cell)))
        fh.write("CELL_TYPES %d\n" % mesh.num_cells)
        for _ in range(mesh.num_cells):
            fh.write("%d\n" % ctype)
        fh.write("POINT_DATA %d\n" % mesh.num_vertices)
        fh.write("VECTORS displacement double\n")
        for v in field:
            xyz = list(v) + [0.0] * (3 - mesh.dim)
            fh.write("%.16g %.16g %.16g\n" % tuple(xyz))
