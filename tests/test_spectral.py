import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from elastopoint.assembly import (LameParams, PointLoadSet,
                                  vector_p1_form_matrix)
from elastopoint.convergence import _solve_level
from elastopoint.mesh import build_unit_box_mesh, cell_geometry
from elastopoint.multigrid import build_levels
from elastopoint import spectral
from elastopoint.spectral import (
    InfSupReport,
    _demo_weights,
    _largest_ritz,
    _pencil_lambda_min,
    check_band_size,
    discrete_infsup,
    discrete_korn_constant,
    kernel_basis,
    theorem31_report,
    weighted_pairing_demo,
    weighted_pairing_matrices,
)
from elastopoint.weights import WeightSpec, cell_weight_integrals

from oracles import (
    free_dof_numbering,
    infsup_oracle,
    largest_ritz_scipy,
    pencil_lambda_min_bisection,
    pencil_lambda_min_oracle,
    random_report_instance,
    same_bits,
    theorem31_oracle,
)


def _close(a, b, tol=1e-8):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def test_infsup_identity_cases():
    I3 = np.eye(3)
    assert discrete_infsup(I3, I3, I3) == pytest.approx(1.0, abs=1e-14)
    B = np.diag([2.0, 1.0])
    assert discrete_infsup(B, np.eye(2), np.eye(2)) == pytest.approx(1.0)
    B = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert discrete_infsup(B, np.eye(2), np.eye(2)) == pytest.approx(0.0, abs=1e-14)


def test_infsup_degenerate_shapes():
    assert discrete_infsup(np.zeros((0, 3)), np.eye(3), np.zeros((0, 0))) == math.inf
    assert discrete_infsup(np.ones((3, 2)), np.eye(2), np.eye(3)) == 0.0


def test_infsup_scaling_in_grams():
    # scaling the M metric by 4 scales the constant by 1/2
    rng = np.random.default_rng(3)
    B = rng.standard_normal((3, 5))
    G_Y = np.eye(5)
    G_M = np.eye(3)
    base = discrete_infsup(B, G_Y, G_M)
    scaled = discrete_infsup(B, G_Y, 4.0 * G_M)
    assert scaled == pytest.approx(0.5 * base, rel=1e-12)


def test_infsup_matches_sqrtm_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        nM = int(rng.integers(1, 7))
        nY = int(rng.integers(1, 7))
        B = rng.standard_normal((nM, nY))
        QY = rng.standard_normal((nY, nY))
        QM = rng.standard_normal((nM, nM))
        G_Y = QY @ QY.T + nY * np.eye(nY)
        G_M = QM @ QM.T + nM * np.eye(nM)
        got = discrete_infsup(B, G_Y, G_M)
        ref = infsup_oracle(B, G_Y, G_M)
        assert _close(got, ref, 1e-10)


def test_gram_validation():
    B = np.eye(2)
    with pytest.raises(ValueError):
        discrete_infsup(B, np.eye(3), np.eye(2))
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        discrete_infsup(B, asym, np.eye(2))
    indefinite = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        discrete_infsup(B, np.eye(2), indefinite)


def test_kernel_basis_trivial_and_full():
    G = np.eye(3)
    Z = kernel_basis(np.zeros((2, 3)), G)
    assert Z.shape == (3, 3)
    assert np.allclose(Z.T @ G @ Z, np.eye(3), atol=1e-12)
    Z = kernel_basis(np.eye(3), G)
    assert Z.shape == (3, 0)
    Z = kernel_basis(np.zeros((0, 3)), G)
    assert Z.shape == (3, 3)


def test_kernel_basis_random_properties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        nQ = int(rng.integers(1, 5))
        nX = int(rng.integers(1, 8))
        C = rng.standard_normal((nQ, nX))
        Q = rng.standard_normal((nX, nX))
        G = Q @ Q.T + nX * np.eye(nX)
        Z = kernel_basis(C, G)
        k = Z.shape[1]
        assert k == nX - np.linalg.matrix_rank(C)
        if k:
            assert np.max(np.abs(C @ Z)) < 1e-10
            assert np.allclose(Z.T @ G @ Z, np.eye(k), atol=1e-10)


def test_report_identity_instance():
    I3 = np.eye(3)
    rep = theorem31_report(I3, I3, I3, I3, I3, I3, I3)
    assert isinstance(rep, InfSupReport)
    assert rep.beta_B == pytest.approx(1.0)
    assert rep.beta_C == pytest.approx(1.0)
    assert rep.alpha_A_kernel == pytest.approx(1.0)
    assert rep.alpha_A_full == pytest.approx(1.0)
    assert rep.injective_on_kernels is True


def test_report_zero_constraints_instance():
    I3 = np.eye(3)
    Z = np.zeros((1, 3))
    rep = theorem31_report(I3, Z, Z, I3, I3, np.eye(1), np.eye(1))
    assert rep.beta_B == pytest.approx(0.0, abs=1e-14)
    assert rep.beta_C == pytest.approx(0.0, abs=1e-14)
    assert rep.alpha_A_kernel == pytest.approx(1.0)
    assert rep.alpha_A_full == pytest.approx(1.0)
    assert rep.injective_on_kernels is True


def test_report_kernel_vs_full_gap():
    # trial kernel e1, test kernel e1, but A couples e1 only to e2:
    # the kernel-restricted constant collapses while the full one stays 1
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[0.0, 1.0]])
    C = np.array([[0.0, 1.0]])
    I2 = np.eye(2)
    I1 = np.eye(1)
    rep = theorem31_report(A, B, C, I2, I2, I1, I1)
    assert rep.alpha_A_kernel == pytest.approx(0.0, abs=1e-14)
    assert rep.alpha_A_full == pytest.approx(1.0)
    assert rep.injective_on_kernels is False
    assert rep.alpha_A_kernel <= rep.alpha_A_full + 1e-10


def test_report_shape_validation():
    I3 = np.eye(3)
    with pytest.raises(ValueError):
        theorem31_report(I3, np.ones((1, 2)), np.zeros((1, 3)),
                         I3, I3, np.eye(1), np.eye(1))
    with pytest.raises(ValueError):
        theorem31_report(I3, np.ones((1, 3)), np.zeros((1, 2)),
                         I3, I3, np.eye(1), np.eye(1))


def test_report_matches_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        A, B, C, G_X, G_Y, G_M, G_Q = random_report_instance(rng)
        rep = theorem31_report(A, B, C, G_X, G_Y, G_M, G_Q)
        ref = theorem31_oracle(A, B, C, G_X, G_Y, G_M, G_Q)
        assert _close(rep.beta_B, ref["beta_B"])
        assert _close(rep.beta_C, ref["beta_C"])
        assert _close(rep.alpha_A_kernel, ref["alpha_A_kernel"])
        assert _close(rep.alpha_A_full, ref["alpha_A_full"])
        assert rep.injective_on_kernels == ref["injective_on_kernels"]
        if not math.isinf(rep.alpha_A_full):
            assert rep.alpha_A_kernel <= rep.alpha_A_full + 1e-10


def test_pairing_matrices_shapes_and_s_zero():
    mesh = build_unit_box_mesh(2, 2)
    A, B, C, G_X, G_Y, G_M, G_Q = weighted_pairing_matrices(mesh, 0.0,
                                                            [0.5, 0.5])
    nX = 3 * mesh.num_cells
    assert A.shape == G_X.shape == G_Y.shape == (nX, nX)
    assert B.shape == C.shape == (2, nX)
    assert G_M.shape == G_Q.shape == (2, 2)
    assert np.array_equal(A, G_X)
    assert np.array_equal(A, G_Y)
    assert np.array_equal(B, C)


def test_pairing_matrices_strain_entries():
    # B[(dof of z), (cell, a)] = vol * eps(z)|_cell : E_a, checked by a
    # hand loop over cells for the single interior hat field
    mesh = build_unit_box_mesh(2, 2)
    table = free_dof_numbering(mesh)
    _, B, _, _, _, _, _ = weighted_pairing_matrices(mesh, 0.0, [0.5, 0.5])
    vols, grads = cell_geometry(mesh)
    sq2 = 1.0 / math.sqrt(2.0)
    basis = [np.array([[1.0, 0.0], [0.0, 0.0]]),
             np.array([[0.0, 0.0], [0.0, 1.0]]),
             np.array([[0.0, sq2], [sq2, 0.0]])]
    expected = np.zeros_like(B)
    for ci, cell in enumerate(mesh.cells):
        for i in range(3):
            v = cell[i]
            g = grads[ci, i]
            for comp in range(2):
                row = table[v, comp]
                if row < 0:
                    continue
                gradfield = np.zeros((2, 2))
                gradfield[comp, :] = g
                eps = 0.5 * (gradfield + gradfield.T)
                for a in range(3):
                    expected[row, 3 * ci + a] += vols[ci] * float(
                        (eps * basis[a]).sum())
    assert np.allclose(B, expected, atol=1e-14)


def test_pairing_matrices_validation():
    mesh = build_unit_box_mesh(2, 2)
    with pytest.raises(ValueError):
        weighted_pairing_matrices(mesh, 1.0, [0.5, 0.5])
    with pytest.raises(ValueError):
        weighted_pairing_matrices(mesh, -1.0, [0.5, 0.5])
    with pytest.raises(ValueError):
        weighted_pairing_matrices(mesh, 0.5, [0.5, 0.0])
    with pytest.raises(ValueError):
        weighted_pairing_matrices(mesh, 0.5, [0.5])
    with pytest.raises(ValueError):
        weighted_pairing_matrices(build_unit_box_mesh(2, 1), 0.5, [0.5, 0.5])


def test_pairing_matrices_refuse_oversized_mesh():
    # 2D n=64: the dense demo would hold nine 24576 x 24576 arrays
    import tracemalloc

    mesh = build_unit_box_mesh(2, 64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n=64 .* MB"):
            weighted_pairing_matrices(mesh, 0.5, [0.5, 0.5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_demo_s_zero_is_exact():
    for dim, n in ((2, 2), (2, 4), (2, 16), (3, 3)):
        rep = weighted_pairing_demo(build_unit_box_mesh(dim, n), 0.0,
                                    [0.5] * dim)
        assert abs(rep.alpha_A_kernel - 1.0) < 1e-12
        assert abs(rep.alpha_A_full - 1.0) < 1e-12
        assert rep.injective_on_kernels is True


_DEMO_CENTERS = {2: ([0.5, 0.5], [0.37, 0.61]),
                 3: ([0.5, 0.5, 0.5], [0.37, 0.61, 0.43])}


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 4), (2, 6), (2, 8), (3, 2),
                                   (3, 3)])
def test_sparse_demo_matches_dense_report(dim, n):
    # the sparse demo against theorem31_report on the dense matrices,
    # centres on and off the lattice planes (3D n=3 off only: each dense
    # report there takes about a second)
    mesh = build_unit_box_mesh(dim, n)
    centers = _DEMO_CENTERS[dim][-1:] if (dim, n) == (3, 3) \
        else _DEMO_CENTERS[dim]
    for center in centers:
        for s in (0.5, -0.4, 0.3, 0.0):
            rep = weighted_pairing_demo(mesh, s, center)
            ref = theorem31_report(*weighted_pairing_matrices(mesh, s,
                                                              center))
            for name in ("beta_B", "beta_C", "alpha_A_kernel",
                         "alpha_A_full"):
                got, want = getattr(rep, name), getattr(ref, name)
                assert abs(got - want) <= 1e-12 * want, (name, center, s)
            assert rep.injective_on_kernels is ref.injective_on_kernels
            assert rep.alpha_A_kernel <= rep.alpha_A_full + 1e-10


def test_sparse_demo_is_bit_identical_across_calls():
    mesh = build_unit_box_mesh(3, 3)
    assert weighted_pairing_demo(mesh, 0.3, [0.37, 0.61, 0.43]) == \
        weighted_pairing_demo(mesh, 0.3, [0.37, 0.61, 0.43])


def test_sparse_demo_reports_lanczos_failure(monkeypatch):
    # a negative tolerance is never met: the Lanczos runs to the Krylov
    # dimension nX (96 solves here) and the demo refuses to report
    monkeypatch.setattr(spectral, "_RITZ_RTOL", -1.0)
    with pytest.raises(ValueError, match="Lanczos did not converge for "
                       "alpha_full at n=4"):
        weighted_pairing_demo(build_unit_box_mesh(2, 4), 0.5, [0.5, 0.5])


@pytest.mark.parametrize("gram", [False, True])
def test_largest_ritz_matches_eigh(gram):
    # T = K^-1 M, self-adjoint in the M inner product (M = I or SPD)
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    K = (Q * np.linspace(1.0, 9.0, 40)) @ Q.T
    M = np.diag(1.0 + rng.random(40)) if gram else np.eye(40)
    M = scipy.sparse.csr_matrix(M)
    calls = []

    def solve(v):
        calls.append(1)
        return np.linalg.solve(K, v)

    x = rng.standard_normal(40)
    nu, r, gap = _largest_ritz(solve, x, 40,
                               lambda nu, r, gap: r <= 1e-14 * nu, M)
    want = scipy.linalg.eigh(M.toarray(), K, eigvals_only=True)[-1]
    assert abs(nu - want) <= 1e-13 * want
    assert r <= 1e-14 * nu and gap > 0.0
    assert len(calls) < 40
    # the start vector is not modified, and a one-step cap returns the
    # first Ritz value, the Rayleigh quotient of x, with gap 0
    x0 = x.copy()
    nu1, _, gap1 = _largest_ritz(solve, x, 1, lambda nu, r, gap: False, M)
    assert np.array_equal(x, x0) and gap1 == 0.0
    Mx = M @ x
    assert abs(nu1 - (Mx @ np.linalg.solve(K, Mx)) / (x @ Mx)) <= 1e-14 * nu1


def test_sparse_demo_refuses_an_indefinite_strain_form(monkeypatch):
    # Korn's inequality makes the unweighted strain form E SPD; were it
    # not, the demo raises instead of reporting the kernels as
    # non-injective
    form = spectral.vector_p1_form_matrix

    def negated_e(mesh, weights, **coefficients):
        matrix = form(mesh, weights, **coefficients)
        return -matrix if weights is None else matrix

    monkeypatch.setattr(spectral, "vector_p1_form_matrix", negated_e)
    with pytest.raises(ValueError, match="degenerate strain form E: not "
                       "positive definite"):
        weighted_pairing_demo(build_unit_box_mesh(2, 4), 0.5, [0.5, 0.5])


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 12)])
def test_sparse_demo_peak_stays_within_the_band_bound(dim, n):
    # the pencils, then S, then E, each factored alone: the demo holds
    # one band array at a time and peaks below check_band_size's
    # estimate, which charges three, so that bound is what limits the
    # supported levels
    mesh = build_unit_box_mesh(dim, n)
    center = _DEMO_CENTERS[dim][-1]
    tracemalloc.start()
    try:
        weighted_pairing_demo(mesh, 0.5, center)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= check_band_size(dim, n)


def test_demo_refuses_non_finite_center():
    mesh = build_unit_box_mesh(2, 4)
    for s in (0.0, 0.5):
        with pytest.raises(ValueError, match="nan"):
            weighted_pairing_demo(mesh, s, [float("nan"), 0.5])


def test_report_refuses_oversized_pairing():
    # a direct call with nX = 20000 would hold 3.2 GB arrays per whitened
    # copy; the zero-stride inputs cost nothing
    import tracemalloc

    nX = 20000
    big = np.broadcast_to(0.0, (nX, nX))
    row = np.broadcast_to(0.0, (1, nX))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"20000 x 20000 .* MB"):
            theorem31_report(big, row, row, big, big, np.eye(1), np.eye(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (2, 5), (2, 8), (3, 2),
                                   (3, 3), (3, 4), (3, 5)])
def test_band_estimate_matches_assembled_forms(dim, n):
    # three (b + 1) x N band arrays, the margin over the one that is
    # held at a time, b the widest coupling of the strain and gradient
    # forms _pencil_lambda_min receives
    mesh = build_unit_box_mesh(dim, n)
    E = vector_p1_form_matrix(mesh, None, c_eps=1.0).tocoo()
    G = vector_p1_form_matrix(mesh, None, c_grad=1.0).tocoo()
    b = max(np.max(E.row - E.col), np.max(G.row - G.col))
    assert check_band_size(dim, n) == 3 * 8 * (b + 1) * mesh.num_free_dofs


def test_band_limit_admits_the_supported_range():
    assert check_band_size(3, 24) < 1.5e9
    assert check_band_size(2, 256) < 1.7e9
    assert check_band_size(2, 1) == 0
    with pytest.raises(ValueError, match=r"n=32 \(3D\) .* MB"):
        check_band_size(3, 32)


@pytest.mark.parametrize("s", [-0.5, 0.5])
@pytest.mark.parametrize("n", [2, 4])
def test_demo_invariant_and_symmetry(s, n):
    mesh = build_unit_box_mesh(2, n)
    rep = weighted_pairing_demo(mesh, s, [0.5, 0.5])
    assert 0.0 < rep.alpha_A_kernel <= rep.alpha_A_full + 1e-10
    assert rep.injective_on_kernels is True
    mirror = weighted_pairing_demo(mesh, -s, [0.5, 0.5])
    assert rep.beta_B == mirror.beta_C
    assert rep.beta_C == mirror.beta_B


def test_demo_matches_oracle_small():
    mesh = build_unit_box_mesh(2, 2)
    mats = weighted_pairing_matrices(mesh, 0.5, [0.5, 0.5])
    rep = theorem31_report(*mats)
    ref = theorem31_oracle(*mats)
    assert _close(rep.beta_B, ref["beta_B"])
    assert _close(rep.beta_C, ref["beta_C"])
    assert _close(rep.alpha_A_kernel, ref["alpha_A_kernel"])
    assert _close(rep.alpha_A_full, ref["alpha_A_full"])


@pytest.mark.parametrize("dim,n", [(2, 4), (2, 8), (3, 2), (2, 64)])
def test_korn_constant_unweighted_range(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    ch = discrete_korn_constant(mesh)
    lam = 1.0 / ch**2
    assert 0.5 - 1e-12 <= lam <= 1.0 + 1e-12
    assert ch >= 1.0


def _korn_pencil(dim, n, alpha, center=(0.37, 0.61, 0.5)):
    """Mesh, weight spec and the (strain, grad) form pair; the default
    weight centre sits off the lattice planes."""
    mesh = build_unit_box_mesh(dim, n)
    spec = wints = None
    if alpha is not None:
        spec = WeightSpec([center[:dim]], alpha)
        wints = cell_weight_integrals(mesh, spec)
    E = vector_p1_form_matrix(mesh, wints, c_eps=1.0)
    G = vector_p1_form_matrix(mesh, wints, c_grad=1.0)
    return mesh, spec, E, G


_KORN_CASES = [pytest.param(2, 4, None, id="2-4"),
               pytest.param(3, 2, None, id="3-2"),
               (2, 8, 1.0), (2, 8, -1.0), (3, 4, 1.0), (3, 4, -1.0)]


@pytest.mark.parametrize("dim,n,alpha", _KORN_CASES)
def test_korn_matches_pencil_oracle(dim, n, alpha):
    mesh, spec, E, G = _korn_pencil(dim, n, alpha)
    lam_ref = pencil_lambda_min_oracle(E, G)
    ch = discrete_korn_constant(mesh, spec)
    assert abs(1.0 / ch**2 - lam_ref) <= 1e-12 * lam_ref


def _has_cholesky(M):
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("dim,n,alpha", _KORN_CASES + [(2, 16, None)])
def test_korn_bisection_brackets_lambda_min(dim, n, alpha):
    # checked with a dense Cholesky, independent of the banded one
    _, _, E, G = _korn_pencil(dim, n, alpha)
    lam = _pencil_lambda_min(E, G)
    E = E.toarray()
    G = G.toarray()
    assert _has_cholesky(E - lam * (1.0 - 1e-12) * G)
    assert not _has_cholesky(E - lam * (1.0 + 1e-12) * G)


def _infsup_pencils(dim, n, s, center):
    """The (strain, gradient) form pairs behind beta_B and beta_C."""
    mesh = build_unit_box_mesh(dim, n)
    vols, _, w_pos, w_neg = _demo_weights(mesh, s, center)
    return [(vector_p1_form_matrix(mesh, vols ** 2 / eps_w, c_eps=1.0),
             vector_p1_form_matrix(mesh, grad_w, c_grad=1.0))
            for eps_w, grad_w in ((w_neg, w_pos), (w_pos, w_neg))]


_ALPHAS = [None, 1.0, -1.0, 1.9, -1.9]


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("dim,n", [(2, n) for n in range(2, 17)] + [(2, 32)]
                         + [(3, n) for n in range(2, 9)])
def test_korn_pencil_search_equals_bisection(dim, n, alpha):
    # exact float equality with the plain bisection, not a tolerance
    _, _, E, G = _korn_pencil(dim, n, alpha)
    assert _pencil_lambda_min(E, G) == pencil_lambda_min_bisection(E, G)


# the weight centres of the benchmark's diagnostics workload at seeds
# 1-3 (3D) and 0-3 (2D; seed 0 is the box centre)
_BENCH_CENTRES_3D = [[0.43189268659963687, 0.61537148137136177,
                      0.42127793171665795],
                     [0.4730523163219148, 0.56771891942980801,
                      0.4691138693080511],
                     [0.47225120816567112, 0.53471942857525623,
                      0.59513511491686399]]
_BENCH_CENTRES_2D = [[0.5, 0.5], [0.42473258080419418, 0.46933057958903024],
                     [0.5400402103862616, 0.59142421072471785],
                     [0.33765145689615966, 0.47325077609458949]]


@pytest.mark.parametrize("center", _BENCH_CENTRES_3D)
def test_benchmark_korn_pencil_search_equals_bisection(center):
    # the weighted 3D Korn pencils of `korn --dim 3 --levels 4 8 --alpha 1`
    for n in (4, 8):
        _, _, E, G = _korn_pencil(3, n, 1.0, center)
        assert _pencil_lambda_min(E, G) == pencil_lambda_min_bisection(E, G)


@pytest.mark.parametrize("center", _BENCH_CENTRES_2D)
def test_benchmark_infsup_pencil_search_equals_bisection(center):
    # the beta_B and beta_C pencils of `infsup-demo --dim 2 --levels 12
    # --alpha 1`, whose s is alpha / dim
    for E, G in _infsup_pencils(2, 12, 0.5, center):
        assert _pencil_lambda_min(E, G) == pencil_lambda_min_bisection(E, G)


@pytest.mark.parametrize("center", ["on", "off"])
@pytest.mark.parametrize("s", [0.5, -0.4, 0.3])
@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (2, 4), (2, 7), (2, 8),
                                   (2, 16), (3, 2), (3, 4)])
def test_infsup_pencil_search_equals_bisection(dim, n, s, center):
    point = [0.5] * dim if center == "on" else [0.41, 0.57, 0.63][:dim]
    for E, G in _infsup_pencils(dim, n, s, point):
        assert _pencil_lambda_min(E, G) == pencil_lambda_min_bisection(E, G)


@pytest.mark.parametrize("dim,n,alpha", [(2, 32, None), (3, 8, 1.0)])
def test_pencil_search_factorization_count(monkeypatch, dim, n, alpha):
    # the plain bisection factors 52 or 53 times, and the search 10 (2D)
    # and 11 (3D) times; the count is of the LAPACK routine the search
    # calls, so a search that stopped calling it would fail the lower
    # bound
    _, _, E, G = _korn_pencil(dim, n, alpha)
    calls = []
    factor = spectral.dpbtrf

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(spectral, "dpbtrf", counted)
    lam = _pencil_lambda_min(E, G)
    monkeypatch.undo()
    assert 1 <= len(calls) <= 11
    assert lam == pencil_lambda_min_bisection(E, G)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_demo_factors_each_strain_form_once(monkeypatch, n):
    # the demo's factorizations: at most 11 for each of the beta_B and
    # beta_C pencils (20, 19 and 20 in all at n = 4, 8, 12), and one each
    # for the strain forms S and E, whose solves reuse the factor
    calls = []
    pencils = []
    factor = spectral.dpbtrf
    search = spectral._pencil_lambda_min

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    def searched(E, G):
        before = len(calls)
        lam = search(E, G)
        pencils.append(len(calls) - before)
        return lam

    monkeypatch.setattr(spectral, "dpbtrf", counted)
    monkeypatch.setattr(spectral, "_pencil_lambda_min", searched)
    rep = weighted_pairing_demo(build_unit_box_mesh(2, n), 0.5, [0.37, 0.61])
    monkeypatch.undo()
    assert len(pencils) == 2 and all(1 <= k <= 11 for k in pencils)
    assert len(calls) - sum(pencils) == 2
    assert 0.0 < rep.alpha_A_kernel <= rep.alpha_A_full + 1e-10


def test_diagnostics_and_vcycle_call_no_scipy_solver_wrapper(monkeypatch):
    # the banded factor and solves, the tridiagonal eigensolve and the
    # V-cycle's dense bottom call their LAPACK routines directly
    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError("scipy.linalg.%s was called" % name)
        return call

    for name in ("cholesky_banded", "cho_solve_banded", "eigh_tridiagonal",
                 "cho_solve"):
        monkeypatch.setattr(scipy.linalg, name, refused(name))
    mesh = build_unit_box_mesh(2, 8)
    assert 1.0 <= discrete_korn_constant(mesh) <= math.sqrt(2.0)
    assert discrete_korn_constant(
        mesh, WeightSpec([[0.5, 0.5]], 1.0)) > 1.0
    assert 1.0 <= discrete_korn_constant(
        build_unit_box_mesh(3, 4)) <= math.sqrt(2.0)
    rep = weighted_pairing_demo(build_unit_box_mesh(2, 4), 0.5, [0.5, 0.5])
    assert 0.0 < rep.alpha_A_kernel <= rep.alpha_A_full + 1e-10
    levels = build_levels(2, 16, LameParams(1.0, 1.0))
    assert levels[-2].factor is not None
    _, _, stats = _solve_level(
        levels, PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]]), 1e-10, None)
    assert stats.converged


@pytest.mark.parametrize("dim,n", [(2, 4), (2, 8), (2, 16), (3, 4)])
def test_largest_ritz_matches_the_scipy_wrapper_oracle(monkeypatch, dim, n):
    # every Lanczos of the Korn pencils (weighted and not) and of the
    # inf-sup demo, and its one-step truncation, against the same
    # Lanczos through scipy's wrappers, on the same operator
    ritz = spectral._largest_ritz
    compared = []

    def checked(solve, x, steps, done, gram):
        got = ritz(solve, x, steps, done, gram)
        for cap in (steps, 1):
            want = largest_ritz_scipy(solve, x, cap, done, gram)
            have = got if cap == steps else ritz(solve, x, cap, done, gram)
            assert same_bits(np.array(have), np.array(want))
        compared.append(gram is None)
        return got

    monkeypatch.setattr(spectral, "_largest_ritz", checked)
    mesh = build_unit_box_mesh(dim, n)
    center = [0.5] * dim
    discrete_korn_constant(mesh)
    discrete_korn_constant(mesh, WeightSpec([center], 1.0))
    weighted_pairing_demo(mesh, 0.5, center)
    # one or more per pencil (two Korn, two demo betas), one per alpha
    assert compared.count(True) == 2 and compared.count(False) >= 4


def test_pencil_search_holds_only_the_band_arrays():
    # beyond the one band array held (check_band_size charges three
    # for margin), only O(N)
    # vectors: the Lanczos and work vectors and the band builder's
    # temporaries (about 12 vectors); a copy of a factor would add a
    # whole (b + 1) x N band array (174 vectors here)
    mesh, _, E, G = _korn_pencil(3, 8, 1.0)
    E = E.tocoo()
    G = G.tocoo()
    tracemalloc.start()
    try:
        _pencil_lambda_min(E, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector = 8 * mesh.num_free_dofs
    assert peak <= check_band_size(3, 8) + 32 * vector


def test_korn_degenerate_pencil_raises():
    _, _, E, G = _korn_pencil(2, 4, None)
    with pytest.raises(ValueError, match="degenerate pencil"):
        _pencil_lambda_min(-E, G)
    singular = E.tolil()
    singular[0, :] = 0.0
    singular[:, 0] = 0.0
    with pytest.raises(ValueError, match="degenerate pencil"):
        _pencil_lambda_min(singular.tocsr(), G)


def test_korn_matches_dense_eigh_at_2048_dofs():
    # 2d n=33 (2048 free dofs) against a dense generalized eigensolve
    mesh = build_unit_box_mesh(2, 33)
    assert mesh.num_free_dofs == 2048
    ch = discrete_korn_constant(mesh)
    import scipy.linalg

    E = vector_p1_form_matrix(mesh, None, c_eps=1.0).toarray()
    G = vector_p1_form_matrix(mesh, None, c_grad=1.0).toarray()
    lam_ref = scipy.linalg.eigh(E, G, eigvals_only=True,
                                subset_by_index=(0, 0))[0]
    assert abs(1.0 / ch**2 - lam_ref) < 1e-8


def test_korn_repeated_calls_are_bit_identical():
    # 2d n=34 (2178 free dofs): repeated bisections are bit-identical
    mesh = build_unit_box_mesh(2, 34)
    assert mesh.num_free_dofs == 2178
    assert discrete_korn_constant(mesh) == discrete_korn_constant(mesh)


def test_korn_weighted_stays_bounded():
    mesh = build_unit_box_mesh(2, 4)
    spec = WeightSpec([[0.5, 0.5]], 1.0)
    ch = discrete_korn_constant(mesh, spec)
    lam = 1.0 / ch**2
    assert 0.0 < lam <= 1.0 + 1e-12


def test_korn_requires_interior_vertices():
    with pytest.raises(ValueError):
        discrete_korn_constant(build_unit_box_mesh(2, 1))
