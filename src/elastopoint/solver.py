"""Preconditioned conjugate gradients for SPD systems.

The default preconditioner is Jacobi; the solves of the package pass
the multigrid V-cycle of the multigrid module, which runs in float32
while CG, its true-residual stop and its tolerance stay in float64,
on pencil-padded vectors.
Jacobi-CG stays as the reference the tests compare against.
"""

from dataclasses import dataclass
from functools import partial
from math import sqrt

import numpy as np


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    final_relative_residual: float
    converged: bool


def default_max_iter(n):
    return int(20 * sqrt(max(n, 0))) + 200


def cg_solve(A, b, rel_tol=1e-10, max_iter=None, callback=None,
             precond=None):
    """Preconditioned conjugate gradients for SPD systems.

    Convergence is declared on the true residual: when the recurrence
    residual passes the tolerance the residual is recomputed as
    b - A x, replacing the recurrence value if the check fails so that
    the reported status is honest; the reported residual is that true
    one, formed once more after the loop only when CG did not converge.
    Non-convergence within max_iter is reported via stats, not raised;
    a b with an inf or a NaN raises a ValueError before any step.
    CG solves for b times the power of two 2^-e that puts max |b| in
    [0.5, 1) and scales x back by 2^e: a b whose norm underflows to 0
    in float64 (max |b| below about 1.5e-154) solves as its scaled
    copy, and 2^k b gives 2^k x bit for bit. The iteration runs in
    place on four vectors besides b: x, r, p and one work vector w
    that holds A p until r -= alpha A p, then alpha p until x +=
    alpha p, then M r. w is precond.out when the preconditioner has
    one, such as a multigrid VCycle, whose scratch shares its bytes,
    and a vector allocated per solve otherwise. The two products,
    p -> A p and x -> A p, are bound to p, x and w once per solve; with an
    operator whose products write into their output, such as a
    multigrid level's StencilOperator, and a precond that works in
    place, no step allocates a vector of the system's size. Each
    update keeps the operations, and their order, of its allocating
    form, so the iterates have its bits: r is updated before x, which
    it does not read.

    Parameters
    ----------
    A : SPD: a scipy sparse matrix or an ndarray over the free dofs,
        or a multigrid level operator (assembly.StencilOperator) over
        pencil-padded vectors, SPD on their free slots, with a precond
        (its diagonal() is over the free dofs); only A.shape, the
        product and, for Jacobi, A.diagonal() are used.
        The products are A.bind(x, out), made once per solve, when A
        has that method, and A @ x copied into out otherwise.
    b : ndarray
    rel_tol : float in (0, 1)
    max_iter : int, defaults to 20 sqrt(n) + 200
    callback : optional callable receiving the iterate after each step,
        scaled back (diagnostics only).
    precond : optional callable precond(r, out) that writes M r into
        out, for a symmetric positive definite M (a float32 V-cycle is
        one up to float32 rounding), and leaves r as it is; r, CG's
        residual of the scaled b, and out are float64 and overwritten
        between calls. Its attribute out, if it has one, is the float64
        vector of b's size that CG passes as out and works in; the
        precond may use it as scratch while it runs. None means
        Jacobi, M = diag(A)^-1.

    Returns
    -------
    (x, SolveStats)
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError("rel_tol must lie in (0, 1), got %r" % (rel_tol,))
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix/vector size mismatch: %s vs %d"
                         % (A.shape, n))
    if max_iter is None:
        max_iter = default_max_iter(n)
    if n == 0:
        return np.zeros(0), SolveStats(0, 0.0, True)

    if precond is None:
        diag = A.diagonal() if hasattr(A, "diagonal") else np.diag(A)
        diag = np.asarray(diag, dtype=float)
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry; Jacobi preconditioner "
                             "undefined")
        inv_diag = 1.0 / diag

        def precond(r, out):
            np.multiply(inv_diag, r, out=out)

    bind = getattr(A, "bind", None)
    if bind is None:
        def matvec(v, out):
            out[...] = A @ v

        def bind(v, out):
            return partial(matvec, v, out)

    # solve for b times the power of two 2^-e that puts max |b| in
    # [0.5, 1), and scale x back: the scaling is exact and commutes with
    # every step, so the bits of a normal-range b stay those of its
    # unscaled solve, and the norm of a tiny b does not underflow to 0.
    # The scaled b is formed where it is read, first as r
    e = int(np.frexp(max(b.max(), -b.min()))[1])
    r = np.ldexp(b, -e)
    bnorm = np.linalg.norm(r)
    # the scaled r has max |r| < 1, so only an inf or a NaN in b (such
    # as finite point forces whose sum overflows) gets here
    if not np.isfinite(bnorm):
        raise ValueError("the right side must be finite")
    x = np.zeros(n)
    if bnorm == 0.0:
        return x, SolveStats(0, 0.0, True)

    # w holds A p, then alpha p, then M r
    w = getattr(precond, "out", None)
    if w is None:
        w = np.empty(n)
    precond(r, w)
    p = w.copy()
    # the two products of the loop, bound once to their vectors
    p_product, x_product = bind(p, w), bind(x, w)
    rz = float(r @ w)
    it = 0
    converged = False
    while it < max_iter:
        p_product()
        pAp = float(p @ w)
        if pAp <= 0.0:
            break
        alpha = rz / pAp
        w *= alpha
        r -= w
        np.multiply(p, alpha, out=w)
        x += w
        it += 1
        if callback is not None:
            callback(np.ldexp(x, e))
        if np.linalg.norm(r) <= rel_tol * bnorm:
            x_product()
            np.ldexp(b, -e, out=r)
            r -= w
            if np.linalg.norm(r) <= rel_tol * bnorm:
                converged = True
                break
            # recurrence drifted; keep the true residual and go on
            precond(r, w)
            p[...] = w
            rz = float(r @ w)
            continue
        precond(r, w)
        rz_new = float(r @ w)
        beta = rz_new / rz
        p *= beta
        p += w
        rz = rz_new

    # a converged loop broke with r = b - A x; otherwise form it
    if not converged:
        x_product()
        np.ldexp(b, -e, out=r)
        r -= w
    final_rel = float(np.linalg.norm(r) / bnorm)
    if converged:
        converged = final_rel <= rel_tol
    return np.ldexp(x, e, out=x), SolveStats(it, final_rel, converged)
