"""Discrete inf-sup constants, kernel diagnostics, and Korn constants.

The generic machinery works on coefficient matrices: a pairing P
between spaces U (trial, columns) and V (test, rows) with SPD Grams
becomes the whitened matrix L_V^{-1} P L_U^{-T}, whose smallest
singular value as a map from U is the discrete inf-sup constant

    inf_u sup_v P(u, v) / (|u| |v|).

Conventions for degenerate shapes: an empty trial space gives +inf
(infimum over the empty set), a trial space larger than the test space
gives 0.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstevd

from .assembly import (_sparse_kernel, _sparse_product, build_dof_map,
                       vector_p1_form_matrix)
from .mesh import cell_geometry
from .weights import WeightSpec, cell_weight_integrals

# relative singular-value cutoff for rank decisions
RANK_RTOL = 1e-10

# the most memory the dense oracle or the band storage of a Korn or
# inf-sup pencil (check_band_size) may need; _check_memory refuses both
_MEMORY_LIMIT_BYTES = 2 * 1024**3

# peak of weighted_pairing_matrices followed by theorem31_report in
# units of one nX x nX float64 array: the three diagonal Grams/pairings
# plus the Cholesky factors, whitened copies and full SVD basis of the
# report (measured: 2D n=12 and n=16 raise peak RSS by 65 and 199 MB,
# nine arrays predict 54 and 170 MB)
_DENSE_PEAK_ARRAYS = 9

# relative bracket width at which _pencil_lambda_min stops proposing
# trial shifts and replays the bisection: about 450 eps, far wider than
# the few eps around lambda_min in which banded Cholesky success is not
# monotone in the shift
_REPLAY_WIDTH = 1e-13
# least relative distance of the closing trials from the Lanczos
# estimate, which lands from 12 eps below to 37 eps above lambda_min on
# the tests' pencils; with 16 eps one of them (2D n=12, alpha=-1.9) put
# a trial where Cholesky success is not monotone, and the result left
# the plain bisection's
_TRIAL_MARGIN = 32 * np.finfo(float).eps
# Lanczos solves per factorization that succeeded, at most
_LANCZOS_STEPS = 24
# relative width at which the Lanczos of the two coercivity
# constants stops
_RITZ_RTOL = 1e-15


@dataclass(frozen=True)
class InfSupReport:
    """Discrete counterparts of the four well-posedness constants.

    alpha_A_kernel restricts trial and test to the constraint kernels;
    alpha_A_full takes the test supremum over the whole test space (the
    flawed variant, kept for contrast). Always
    alpha_A_kernel <= alpha_A_full + 1e-10.
    """

    beta_B: float
    beta_C: float
    alpha_A_kernel: float
    alpha_A_full: float
    injective_on_kernels: bool


def _as_matrix(P, name):
    P = np.asarray(P, dtype=float)
    if P.ndim != 2:
        raise ValueError("%s must be a matrix, got ndim=%d" % (name, P.ndim))
    return P


def _chol_gram(G, n, name):
    G = np.asarray(G, dtype=float)
    if G.shape != (n, n):
        raise ValueError("%s must be %d x %d, got %s" % (name, n, n, G.shape))
    if n == 0:
        return G.reshape(0, 0)
    scale = max(1.0, float(np.abs(G).max()))
    if float(np.abs(G - G.T).max()) > 1e-10 * scale:
        raise ValueError("%s is not symmetric" % name)
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise ValueError("%s is not positive definite" % name) from None


def _whiten_rows(L, P):
    # L^{-1} P
    if P.shape[0] == 0:
        return P
    return scipy.linalg.solve_triangular(L, P, lower=True)


def _whiten_cols(L, P):
    # P L^{-T}
    if P.shape[1] == 0:
        return P
    return scipy.linalg.solve_triangular(L, P.T, lower=True).T


def _map_sigma_min(W, trial_dim):
    """Smallest singular value of W as a map from a trial_dim space."""
    if trial_dim == 0:
        return math.inf
    if trial_dim > W.shape[0]:
        return 0.0
    s = np.linalg.svd(W, compute_uv=False)
    return float(s[-1])


def discrete_infsup(B, G_Y, G_M):
    """Discrete inf-sup constant of a pairing B(v, r), v in Y, r in M.

    B has one row per M-basis function and one column per Y-basis
    function: B[i, j] = B(v_j, r_i). Returns the smallest singular
    value of the whitened pairing as a map from M; +inf when M is
    trivial, 0 when dim M exceeds dim Y.
    """
    B = _as_matrix(B, "B")
    nM, nY = B.shape
    if nM == 0:
        return math.inf
    if nM > nY:
        return 0.0
    L_Y = _chol_gram(G_Y, nY, "G_Y")
    L_M = _chol_gram(G_M, nM, "G_M")
    W = _whiten_cols(L_Y, _whiten_rows(L_M, B))
    return _map_sigma_min(W, nM)


def kernel_basis(C, G_X):
    """G_X-orthonormal basis Z of ker C = {w : C(w, q) = 0 for all q}.

    C[i, j] = C(w_j, q_i). Satisfies C Z = 0 and Z^T G_X Z = I within
    1e-10; the kernel dimension is n_X minus the numerical rank of C
    (singular values above RANK_RTOL relative).
    """
    C = _as_matrix(C, "C")
    nQ, nX = C.shape
    L_X = _chol_gram(G_X, nX, "G_X")
    if nX == 0:
        return np.zeros((0, 0))
    if nQ == 0:
        V_ker = np.eye(nX)
    else:
        W = _whiten_cols(L_X, C)
        _, s, Vt = np.linalg.svd(W, full_matrices=True)
        smax = float(s[0]) if s.size else 0.0
        rank = int(np.sum(s > RANK_RTOL * smax)) if smax > 0.0 else 0
        V_ker = Vt[rank:].T
    # back-transform the whitened basis: Z = L_X^{-T} V_ker
    return scipy.linalg.solve_triangular(L_X, V_ker, lower=True, trans="T")


def theorem31_report(A, B, C, G_X, G_Y, G_M, G_Q):
    """All four discrete constants for the generalized saddle problem.

    Orientations: A[i, j] = A(w_j, v_i) (test Y rows, trial X cols);
    B[i, j] = B(v_j, r_i); C[i, j] = C(w_j, q_i).

    When ker C is trivial the kernel restriction of the trial space is
    vacuous and both alpha values are reported as the unrestricted
    whitened smallest singular value of A (this makes identity inputs
    report 1, and keeps the two alphas comparable).
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    C = _as_matrix(C, "C")
    nY, nX = A.shape
    if B.shape[1] != nY:
        raise ValueError("B must have %d columns, got %s" % (nY, B.shape))
    if C.shape[1] != nX:
        raise ValueError("C must have %d columns, got %s" % (nX, C.shape))
    _check_memory(_DENSE_PEAK_ARRAYS, max(nX, nY) ** 2, "theorem31_report "
                  "on a %d x %d pairing" % (nY, nX), "dense arrays")

    beta_B = discrete_infsup(B, G_Y, G_M)
    beta_C = discrete_infsup(C, G_X, G_Q)

    L_X = _chol_gram(G_X, nX, "G_X")
    L_Y = _chol_gram(G_Y, nY, "G_Y")
    Z_C = kernel_basis(C, G_X)
    Z_B = kernel_basis(B, G_Y)
    kC = Z_C.shape[1]
    kB = Z_B.shape[1]

    if kC == 0:
        W = _whiten_cols(L_X, _whiten_rows(L_Y, A))
        alpha_kernel = _map_sigma_min(W, nX)
        alpha_full = alpha_kernel
        injective = kB == 0
    else:
        W_full = _whiten_rows(L_Y, A @ Z_C)
        alpha_full = _map_sigma_min(W_full, kC)
        if kB == 0:
            alpha_kernel = 0.0
            injective = True
        else:
            # one SVD of the kernel-restricted pairing serves both
            # alpha_kernel and the injectivity test
            s = np.linalg.svd(Z_B.T @ A @ Z_C, compute_uv=False)
            smax = float(s[0])
            alpha_kernel = float(s[-1]) if kC <= kB else 0.0
            injective = bool(kB <= kC and smax > 0.0
                             and s[kB - 1] > RANK_RTOL * smax)

    return InfSupReport(beta_B, beta_C, alpha_kernel, alpha_full, injective)


def _sym_tensor_basis(d):
    """Orthonormal (Frobenius) basis of symmetric d x d tensors."""
    basis = []
    for i in range(d):
        E = np.zeros((d, d))
        E[i, i] = 1.0
        basis.append(E)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d))
            E[i, j] = inv_sqrt2
            E[j, i] = inv_sqrt2
            basis.append(E)
    return np.array(basis)


def _check_memory(arrays, size, what, storage):
    """Refuse work on `arrays` float64 arrays of `size` entries each,
    the dense arrays or band storage that `what` needs, above the
    memory limit. Returns the estimate in bytes; raises ValueError
    naming `what` and the estimate in MB when it exceeds the limit."""
    need = arrays * 8 * size
    if need > _MEMORY_LIMIT_BYTES:
        raise ValueError("%s needs about %d MB of %s, above the %d MB "
                         "limit" % (what, need // 2**20, storage,
                                    _MEMORY_LIMIT_BYTES // 2**20))
    return need


def check_band_size(dim, n):
    """Refuse a Korn or inf-sup level whose banded pencil would not fit.

    The pencil search and the inf-sup demo hold one (b + 1) x N float64
    band array at a time over the N = d m^d free dofs, m = n - 1; the
    estimate charges three, a margin that fixes the admitted range at
    2D n <= 282 and 3D n <= 25. The free dofs run vertex by vertex over
    the interior lattice (C order, component inner), and the farthest
    coupling is the strain form's: component d-1 of the vertex across
    the cube diagonal (1, ..., 1) against component 0, so
    b = d (1 + m + ... + m^(d-1)) + d - 1 (b = d - 1 when m = 1).
    Returns the estimate in bytes; raises ValueError naming the level
    and the estimate in MB when it exceeds the limit.
    """
    m = n - 1
    diagonal = sum(m ** k for k in range(dim)) if m > 1 else 0
    band = dim * diagonal + dim - 1
    return _check_memory(3, (band + 1) * dim * max(m, 0) ** dim,
                         "level n=%d (%dD)" % (n, dim), "band storage")


def _demo_weights(mesh, s, center):
    """Validated inputs of the weighted tensor demo.

    Returns the cell volumes and gradients and the cell integrals of
    r^{ds} and r^{-ds} (both plain volumes at s = 0).
    """
    if not -1.0 < float(s) < 1.0:
        raise ValueError("s must lie strictly in (-1, 1), got %r" % (s,))
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape != (mesh.dim,):
        raise ValueError("center must have %d coordinates" % mesh.dim)
    if not np.all((center > 0.0) & (center < 1.0)):
        raise ValueError("center must be strictly inside the unit box, "
                         "got %s" % center.tolist())
    if mesh.num_free_dofs == 0:
        raise ValueError("mesh has no interior vertices")

    vols, grads = cell_geometry(mesh)
    alpha = mesh.dim * float(s)
    if s == 0.0:
        return vols, grads, vols, vols
    w_pos = cell_weight_integrals(mesh, WeightSpec(center[None], alpha))
    w_neg = cell_weight_integrals(mesh, WeightSpec(center[None], -alpha))
    return vols, grads, w_pos, w_neg


def _strain_pairing(mesh, vols, grads):
    """Sparse strain pairing C[(free dof), (cell, a)], in CSC form.

    The entry is vol * eps(phi_vertex e_c)|_cell : E_a over the
    orthonormal symmetric tensors E_a, columns cell-major. Each
    (vertex, cell) pair is written once, straight into its column;
    boundary rows are dropped.
    """
    basis = _sym_tensor_basis(mesh.dim)
    nsym = basis.shape[0]
    nX = mesh.num_cells * nsym
    vals = np.einsum("xip,apc->xaic", grads, basis)
    vals *= vols[:, None, None, None]
    rows = build_dof_map(mesh)[mesh.cells].astype(np.int32)
    rows = np.broadcast_to(rows[:, None], vals.shape)
    keep = rows >= 0
    indptr = np.zeros(nX + 1, dtype=np.int32)
    np.cumsum(keep.reshape(nX, -1).sum(axis=1), out=indptr[1:])
    C = sp.csc_matrix((vals[keep], rows[keep], indptr),
                      shape=(mesh.num_free_dofs, nX))
    C.sort_indices()
    return C


def weighted_pairing_matrices(mesh, s, center):
    """Discrete spaces and pairings of the weighted tensor demo.

    X: cellwise-constant symmetric tensors with the r^{ds}-weighted L2
    Gram; Y: the same tensor space with the r^{-ds} Gram; M and Q: the
    zero-trace vector P1 space with weighted gradient Grams (exponents
    ds and -ds). A is the unweighted tensor pairing, and B = C is the
    strain pairing int eps(z) : Sigma dx.

    Returns (A, B, C, G_X, G_Y, G_M, G_Q), all dense: the oracle for
    weighted_pairing_demo on small meshes.
    """
    nsym = mesh.dim * (mesh.dim + 1) // 2
    _check_memory(_DENSE_PEAK_ARRAYS, (mesh.num_cells * nsym) ** 2,
                  "dense weighted pairing at n=%d (%dD)" % (mesh.n, mesh.dim),
                  "dense arrays")
    vols, grads, w_pos, w_neg = _demo_weights(mesh, s, center)
    B = _strain_pairing(mesh, vols, grads).toarray()
    G_X = np.diag(np.repeat(w_pos, nsym))
    G_Y = np.diag(np.repeat(w_neg, nsym))
    A = np.diag(np.repeat(vols, nsym))
    G_M = vector_p1_form_matrix(mesh, w_pos, c_grad=1.0).toarray()
    G_Q = vector_p1_form_matrix(mesh, w_neg, c_grad=1.0).toarray()
    return A, B, B.copy(), G_X, G_Y, G_M, G_Q


def weighted_pairing_demo(mesh, s, center):
    """Kernel-vs-full inf-sup contrast for the weighted tensor pairing.

    Reports the honest alpha (test supremum over ker of the strain
    pairing, trial over the mirrored kernel) next to the full-space
    variant; the same four constants as theorem31_report on
    weighted_pairing_matrices, computed on sparse forms of the free
    dofs. At s = 0 both alphas equal 1 up to roundoff.

    G_X, G_Y and A are diagonal, so with t = vol / sqrt(w_pos w_neg)
    per tensor component, C the strain pairing, U_X = D_X^{-1/2} C^T and
    U_Y = D_Y^{-1/2} C^T:
    - beta_B^2 is lambda_min of the pencil (strain form weighted by
      vol^2 / w_neg, gradient form weighted by w_pos); beta_C swaps the
      weights. Both go through _pencil_lambda_min, as Korn does.
    - 1 / alpha_full^2 is the largest eigenvalue of
      b -> t^-2 (b - U_X S^-1 U_X^T t^-2 b), the inverse of t^2
      compressed to ker U_X^T; S is the strain form weighted by w_neg.
    - 1 / alpha_kernel^2 is the largest eigenvalue of K^T K with
      K b = t^-1 (b - U_Y E^-1 U_X^T t^-1 b), the inverse of the kernel
      pairing; E = U_X^T t^-1 U_Y is the unweighted strain form, so the
      kernels pair injectively exactly when E is nonsingular (Korn).
    S and E are factored by banded Cholesky, one at a time after the
    pencils. The two largest eigenvalues come from _largest_ritz (plain
    Lanczos in the Euclidean inner product) with a fixed start vector,
    so repeated calls are bit-identical; each stops once the width
    _ritz_width (the residual, or Kato-Temple's bound if smaller, as
    for the pencils) is _RITZ_RTOL relative, and ValueError is raised
    when nX steps (the Krylov dimension) do not reach it.
    """
    check_band_size(mesh.dim, mesh.n)
    vols, grads, w_pos, w_neg = _demo_weights(mesh, s, center)

    beta_B = math.sqrt(_pencil_lambda_min(
        *_korn_pencil(mesh, vols ** 2 / w_neg, w_pos)))
    beta_C = math.sqrt(_pencil_lambda_min(
        *_korn_pencil(mesh, vols ** 2 / w_pos, w_neg)))

    C = _strain_pairing(mesh, vols, grads)
    strain = _sparse_product(C)
    strain_t = _sparse_product(C.T)
    nX = C.shape[1]
    nsym = nX // mesh.num_cells
    dx = np.repeat(w_pos, nsym) ** -0.5
    dy = np.repeat(w_neg, nsym) ** -0.5
    tinv = np.repeat(np.sqrt(w_pos * w_neg) / vols, nsym)
    v0 = np.random.default_rng(0).standard_normal(nX)

    def converged(nu, r, gap):
        return _ritz_width(r, gap) <= _RITZ_RTOL * nu

    def largest_eigenvalue(matvec, name):
        nu, r, gap = _largest_ritz(matvec, v0, nX, converged, None)
        if not converged(nu, r, gap):
            raise ValueError("Lanczos did not converge for %s at n=%d "
                             "(%dD)" % (name, mesh.n, mesh.dim))
        return nu

    def strain_solver(weights, name):
        # the solves of a strain form's banded Cholesky factor; only the
        # band outlives the factorization
        factor, solve = _band_pencil(vector_p1_form_matrix(mesh, weights,
                                                           c_eps=1.0))
        if not factor(0.0):
            raise ValueError("degenerate %s: not positive definite" % name)
        return solve

    S = strain_solver(w_neg, "weighted strain form S")
    tinv2 = tinv * tinv

    def full_inverse(b):
        return tinv2 * (b - dx * strain_t(S(strain(dx * (tinv2 * b)))))

    alpha_full = 1.0 / math.sqrt(largest_eigenvalue(full_inverse,
                                                    "alpha_full"))
    del S
    # Korn's first inequality gives E >= G / 2 on H^1_0, so the factor
    # exists and the kernels pair injectively
    E = strain_solver(None, "strain form E")

    def kernel_normal(b):
        u = tinv * (b - dy * strain_t(E(strain(dx * tinv * b))))
        return tinv * (u - dx * strain_t(E(strain(dy * tinv * u))))

    alpha_kernel = 1.0 / math.sqrt(largest_eigenvalue(kernel_normal,
                                                      "alpha_kernel"))
    return InfSupReport(beta_B, beta_C, alpha_kernel, alpha_full, True)


def _band_pencil(E, G=None):
    """Banded Cholesky of E - sigma G (of E when G is None) for
    symmetric sparse E, G without duplicate entries: (factor, solve).

    factor(sigma) zeroes one Fortran-order LAPACK lower band,
    ab[i - j, j] = (E - sigma G)[i, j] for j <= i, writes E - sigma G
    into it and factors it in place (dpbtrf); False when that is not
    positive definite. The zeroing also clears the last factor's
    fill-in. solve(rhs) applies the last factor's inverse in place
    (dpbtrs). Only the band and the lower triangles, read once from CSR
    arrays as int32 flat band positions and values, are held.
    """
    def lower(C):
        C = sp.csr_matrix(C)
        rows = np.repeat(np.arange(C.shape[0], dtype=np.int32),
                         np.diff(C.indptr))
        keep = rows >= C.indices
        col = C.indices[keep].astype(np.int32, copy=False)
        return rows[keep] - col, col, C.data[keep]

    triangles = [lower(C) for C in (E, G) if C is not None]
    width = max(int(diag.max()) for diag, _, _ in triangles) + 1
    size = E.shape[0]
    # free a form that only this call holds (a demo strain form) first
    del E, G
    # flat positions in a Fortran-order (width, size) band; check_band_size
    # keeps width * size below 2^27, so int32 holds them
    (e_pos, e_values), *g_part = [(col * width + diag, values)
                                  for diag, col, values in triangles]
    del triangles
    band = np.empty(width * size)
    ab = band.reshape(size, width).T

    def factor(sigma):
        band.fill(0.0)
        band[e_pos] = e_values
        for g_pos, g_values in g_part:
            band[g_pos] -= sigma * g_values
        info = dpbtrf(ab, lower=1, overwrite_ab=1)[1]
        if info < 0:
            raise ValueError("illegal value in argument %d of dpbtrf"
                             % -info)
        return info == 0

    def solve(rhs):
        x, info = dpbtrs(ab, rhs, lower=1)
        if info:
            raise ValueError("illegal value in argument %d of dpbtrs"
                             % -info)
        return x

    return factor, solve


def _largest_ritz(solve, x, steps, done, gram):
    """Largest eigenvalue of T by plain Lanczos from x.

    T q = solve(gram q) must be self-adjoint in the inner product of the
    SPD matrix gram (CSR, CSC or COO), or in the Euclidean one when gram
    is None.
    Returns (nu, r, gap): the largest Ritz value nu, its residual norm
    r = beta |s_last| (some eigenvalue lies within r of nu) and the gap
    nu - nu_2 to the second Ritz value (0 after one step). Three-term
    recurrence without reorthogonalization, stopped after the first step
    with done(nu, r, gap) or after min(steps, x.size) solves: lost
    orthogonality only repeats a Ritz value that has already converged
    (Paige, Linear Algebra Appl. 1980), and such a repeat closes the
    gap. The Ritz pairs come from LAPACK dstevd, the routine that scipy's
    symmetric tridiagonal eigensolver picks, with that solver's 1 x 1
    shortcut and its refusal of a non-finite entry; the gram products
    run scipy's own sparse kernel (_sparse_kernel) into a zeroed vector.
    So the bits are those of the scipy functions, without their per-call
    wrappers; a step allocates only the vector that solve returns.
    """
    if gram is None:
        gq = x
    else:
        kernel, head = _sparse_kernel(gram)
        gq = np.zeros_like(x)
        kernel(*head, x, gq)
        gw = np.empty_like(x)
    norm = math.sqrt(x @ gq)
    q = x / norm
    gq = q if gram is None else np.divide(gq, norm, out=gq)
    # each step writes alpha q + beta q_prev, gram w and w / beta into
    # these buffers, with the rounding of the allocating expressions
    q_prev = np.zeros_like(q)
    step = np.empty_like(q)
    beta = 0.0
    alphas = []
    betas = []
    for j in range(min(steps, x.size)):
        w = solve(gq)
        alphas.append(gq @ w)
        if not (math.isfinite(alphas[-1]) and math.isfinite(beta)):
            raise ValueError("array must not contain infs or NaNs")
        np.multiply(alphas[-1], q, out=step)
        step += np.multiply(beta, q_prev, out=q_prev)
        w -= step
        if gram is None:
            gw = w
        else:
            gw.fill(0.0)
            kernel(*head, w, gw)
        beta = math.sqrt(max(w @ gw, 0.0))
        if j == 0:
            top, r, gap = alphas[0], beta, 0.0
        else:
            nu, s, info = dstevd(alphas, betas)
            if info:
                raise np.linalg.LinAlgError("dstevd failed with info %d"
                                            % info)
            top, r, gap = nu[-1], beta * abs(s[-1, -1]), nu[-1] - nu[-2]
        if done(top, r, gap) or beta == 0.0:
            break
        betas.append(beta)
        q_prev, q = q, np.divide(w, beta, out=q_prev)
        gq = q if gram is None else np.divide(gw, beta, out=gq)
    return top, r, gap


def _ritz_width(r, gap):
    """Width around a Ritz value that holds an eigenvalue: the residual
    norm r, or Kato-Temple's r^2 / gap if smaller, with gap the distance
    to the next Ritz value (0 when there is none yet)."""
    return min(r, r * r / gap) if gap > 0.0 else r


def _korn_pencil(mesh, eps_weights, grad_weights):
    """The pencil (strain form, gradient form) on the free dofs, each
    with its cell weights (plain volumes where None)."""
    return (vector_p1_form_matrix(mesh, eps_weights, c_eps=1.0),
            vector_p1_form_matrix(mesh, grad_weights, c_grad=1.0))


def _pencil_lambda_min(E, G):
    """sup{sigma : E - sigma G is SPD} for symmetric sparse E, G.

    By Sylvester's law of inertia E - sigma G is positive definite
    exactly when sigma lies below the smallest eigenvalue of the pencil
    (E, G), so bisection on "does E - sigma G have a Cholesky factor"
    brackets lambda_min (Parlett, The Symmetric Eigenvalue Problem,
    3.3). Each test is one banded Cholesky. The bisection starts at
    [0, h0], h0 = min_i E_ii / G_ii (the Rayleigh quotient of a unit
    vector), and stops at relative width 4 eps; the result is its lower
    end, the largest sigma seen to factor.

    That result is found with 7-11 factorizations instead of the
    bisection's 52 (8.95 on average over the tests' 211 pencils), in
    two phases that move a bracket [slo, shi] only by factorizations:
    slo to a sigma that factored, shi to one that did not (or h0).
    1. Proposals. After each factorization that succeeds, Lanczos
       solves with its factor (_largest_ritz in the G inner product,
       at most _LANCZOS_STEPS of them) give an estimate theta
       of lambda_min and an error err. The next trials step down from
       theta by max(2 err, _TRIAL_MARGIN theta), growing 8-fold while
       they fail; once err is below _REPLAY_WIDTH / 8 relative, theta
       plus that step is tried first for a failure. This ends at
       relative width _REPLAY_WIDTH, normally with slo and shi that
       step away from theta.
    2. Replay. The bisection runs from [0, h0], counting a midpoint at
       or below slo as factored and one at or above shi as not, and
       factors only the midpoints in between (about 5).
    Cholesky success is monotone in sigma except within a few eps of
    lambda_min (at most 2 eps in a scan sigma = lambda (1 + k eps),
    |k| <= 1500, of 2D n=32 and 3D n=8 pencils, weighted and not), and
    the closing trials stay _TRIAL_MARGIN or more from theta, so the
    replay returns the plain bisection's result bit for bit on every
    tested pencil (tests/oracles.py keeps the plain bisection).
    Only _band_pencil's band and lower triangles and a few vectors are
    held; the Lanczos solves use the factor of E - slo G in place.
    """
    spd, solve = _band_pencil(E, G)

    def estimate(nu, r, gap):
        # (E - slo G)^-1 G has largest eigenvalue 1 / (lambda_min - slo):
        # theta >= lambda_min (in exact arithmetic), and err is the width
        # below it that _ritz_width leaves
        r = _ritz_width(r, gap)
        return slo + 1.0 / nu, 1.0 / nu - 1.0 / (nu + r)

    def converged(nu, r, gap):
        theta, err = estimate(nu, r, gap)
        return err <= 0.125 * _REPLAY_WIDTH * theta

    h0 = float(np.min(E.diagonal() / G.diagonal()))
    if not (spd(0.0) and 0.0 < h0 < math.inf):
        raise ValueError("degenerate pencil: E is not positive definite "
                         "or G has a nonpositive diagonal")
    slo, shi = 0.0, h0
    start = np.random.default_rng(0).standard_normal(E.shape[0])
    while shi - slo > _REPLAY_WIDTH * shi:
        theta, err = estimate(*_largest_ritz(solve, start, _LANCZOS_STEPS,
                                             converged, G))
        step = max(2.0 * err, _TRIAL_MARGIN * theta)
        trial = None
        if err <= 0.125 * _REPLAY_WIDTH * theta:
            trial = theta + step
        while shi - slo > _REPLAY_WIDTH * shi:
            if trial is None:
                trial = theta - step
                step *= 8.0
            if not slo < trial < shi:
                trial = 0.5 * (slo + shi)
            if spd(trial):
                slo = trial
                break
            shi = trial
            trial = None

    eps = np.finfo(float).eps
    lo, hi = 0.0, h0
    while hi - lo > 4.0 * eps * hi:
        mid = 0.5 * (lo + hi)
        if mid <= slo or (mid < shi and spd(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def discrete_korn_constant(mesh, spec=None):
    """C_h = lambda_min^{-1/2} for the pencil (strain form, grad form).

    Both forms share the cellwise weight integrals (plain volumes when
    spec is None), and both are built on the free dofs of the mesh.
    Unweighted, lambda_min lies in [1/2, 1]. lambda_min is found by
    inertia bisection: the free dofs run vertex by vertex over the
    interior lattice, so both forms are banded, and E - sigma G has a
    banded Cholesky factor exactly when sigma lies below lambda_min.
    _pencil_lambda_min returns the result of bisecting to a relative
    width of 4 eps, with Lanczos estimates from each successful factor
    choosing the trial shifts, in 7-11 factorizations instead of 52;
    every point of the final bracket is certified by a factorization
    that succeeded (below) or failed (above). The same path serves
    every mesh size and repeated calls return identical values.
    """
    if mesh.num_free_dofs == 0:
        raise ValueError("mesh has no interior vertices")
    check_band_size(mesh.dim, mesh.n)
    if spec is None:
        wints = None
    else:
        wints = cell_weight_integrals(mesh, spec)
    lam = _pencil_lambda_min(*_korn_pencil(mesh, wints, wints))
    if not lam > 0.0:
        raise ValueError("degenerate pencil: lambda_min = %r" % (lam,))
    return float(1.0 / math.sqrt(lam))
