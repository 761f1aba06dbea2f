import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from elastopoint import assembly, mesh as mesh_module, multigrid
from elastopoint.assembly import (LameParams, PointLoadSet,
                                  assemble_point_load, assemble_stiffness,
                                  from_free, from_padded, to_padded)
from elastopoint.cli import main
from elastopoint.convergence import _solve_level
from elastopoint.mesh import build_unit_box_mesh
from elastopoint.multigrid import (VCycle, _restriction, build_levels,
                                   check_family_size)
from elastopoint.solver import cg_solve, default_max_iter

from oracles import (cg_allocating, dof_prolongation_kron,
                     jacobi_bound_plane_rows, jacobi_bound_whole_matrix,
                     pad_matrix, pad_vector, padded_positions, plane_rows,
                     plane_rows_product, product, same_bits,
                     vcycle_allocating)


def _load(dim):
    point = np.full(dim, 0.5) + 0.0123 * np.arange(1, dim + 1)
    return PointLoadSet([point], [np.eye(dim)[0]])


def _vcycle(levels, r):
    """One V-cycle of a fresh workspace applied to r, into a new vector."""
    out = np.empty_like(r)
    VCycle(levels)(r, out)
    return out


def _mg_cg(levels, b, **kwargs):
    """cg_solve at levels[0] preconditioned by a V-cycle workspace, on
    the padded b; returns the free-dof solution."""
    precond = VCycle(levels)
    mesh = levels[0].mesh
    x, stats = cg_solve(precond.A, to_padded(mesh, b), precond=precond,
                        max_iter=default_max_iter(mesh.num_free_dofs),
                        **kwargs)
    return from_padded(mesh, x), stats


def _random_padded(mesh, seed):
    """A padded vector with standard normal free dofs."""
    rng = np.random.default_rng(seed)
    return to_padded(mesh, rng.standard_normal(mesh.num_free_dofs))


def _float64_family(levels):
    """The levels with float64 operators, Jacobi data and transfers,
    1 / diag(A) formed in float64, so that a V-cycle on them runs in
    float64."""
    out = []
    for lv in levels:
        lv = replace(lv, cycle_A=lv.A)
        if lv.inv_diag is not None:
            inv = lv.A.jacobi_bound()[0]
            lv = replace(lv, inv_diag=to_padded(
                lv.mesh, np.tile(inv, lv.A.p ** (lv.A.dim - 1))))
        if lv.R is not None:
            # not R.astype, which sorts each row's columns
            R = sp.csr_matrix((lv.R.data.astype(np.float64), lv.R.indices,
                               lv.R.indptr), shape=lv.R.shape)
            lv = replace(lv, R=R)
        out.append(lv)
    return out


@pytest.mark.parametrize("lam", [1.0, 100.0])
@pytest.mark.parametrize("dim,n", [(2, 6), (2, 16), (3, 4), (3, 8)])
def test_galerkin_product_equals_rediscretization(dim, n, lam):
    params = LameParams(1.0, lam)
    fine, coarse = build_levels(dim, n, params)[:2]
    A_fine = assemble_stiffness(fine.mesh, params)
    # P between free dofs: its padded rows and columns at the free slots
    P = fine.R.T.toarray()[np.ix_(padded_positions(fine.mesh)[0],
                                  padded_positions(coarse.mesh)[0])]
    galerkin = P.T @ A_fine.toarray() @ P
    direct = assemble_stiffness(coarse.mesh, params).toarray()
    assert np.abs(galerkin - direct).max() <= 1e-14 * np.abs(direct).max()


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
def test_jacobi_data_is_the_gershgorin_bound(dim, n):
    params = LameParams(1.0, 3.0)
    for lv in build_levels(dim, n, params)[:-1]:
        A = assemble_stiffness(lv.mesh, params)
        inv_diag = 1.0 / A.diagonal()
        assert same_bits(lv.inv_diag,
                         pad_vector(lv.mesh, inv_diag.astype(np.float32)))
        # the same csr row sums as abs(A), so the bound is bit-identical
        bound = (inv_diag * (abs(A) @ np.ones(A.shape[0]))).max()
        assert lv.lmax == bound
        top = np.linalg.eigvals(inv_diag[:, None] * A.toarray()).real.max()
        assert top <= lv.lmax


# n <= 3 has no interior plane whose neighbours are both interior, so
# every row sum there is a truncated one
@pytest.mark.parametrize("dim,n", [(2, 3), (2, 33), (2, 64), (3, 9),
                                   (3, 16)])
def test_level_jacobi_bound_equals_whole_matrix(dim, n):
    for lam in (1.0, 1000.0):
        params = LameParams(1.0, lam)
        for lv in build_levels(dim, n, params):
            if lv.mesh.num_free_dofs == 0:
                assert lv.inv_diag is None and lv.lmax is None
                continue
            ref_inv_diag, ref_lmax = jacobi_bound_whole_matrix(
                assemble_stiffness(lv.mesh, params))
            assert same_bits(lv.inv_diag, pad_vector(
                lv.mesh, ref_inv_diag.astype(np.float32)))
            assert lv.lmax == ref_lmax
            # and the formula on one vertex plane's assembled rows
            plane_inv_diag, plane_lmax = jacobi_bound_plane_rows(
                plane_rows(lv.mesh, params), lv.mesh.n - 1)
            assert same_bits(plane_inv_diag, ref_inv_diag)
            assert plane_lmax == lv.lmax


# bytes of the assembled 3D n=32 stiffness in CSR: 3,153,339 nonzeros
# at 12 B each plus an indptr of 89,374 int32
CSR_BYTES_3D_32 = 38_197_564


def test_build_levels_peak_stays_below_its_csr():
    tracemalloc.start()
    try:
        levels = build_levels(3, 32, LameParams(1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert levels[0].mesh.num_free_dofs == 89_373
    assert peak < CSR_BYTES_3D_32


# what build_levels(3, 32) holds: 1.96 MB of float32 restrictions,
# Jacobi data and stencil tiles in float64 and float32 (tracemalloc);
# 3.0 MB when every mesh also stores its 1.0 MB of vertices, and 15.2
# MB when it stores its cell table and every level a transposed copy
# of its restriction
HELD_BYTES_3D_32 = 2_500_000


def test_build_levels_holds_no_cells_or_transfer_copies():
    tracemalloc.start()
    try:
        levels = build_levels(3, 32, LameParams(1.0, 1.0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(levels) == 6
    assert held < HELD_BYTES_3D_32
    # the V-cycle's stencil tiles are rounded once, here, and share the
    # float64 tiles' indices; a V-cycle's products run on them as they
    # are, in float32
    cycle = VCycle(levels)
    assert cycle.levels is levels
    rng = np.random.default_rng(32)
    for k, lv in enumerate(levels):
        A, A32 = lv.A, lv.cycle_A
        assert same_bits(A32.data, A.data.astype(np.float32))
        assert A32.indices is A.indices and A32.indptr is A.indptr
        if lv.factor is not None or not lv.mesh.num_free_dofs:
            continue
        x = cycle._vectors[k][1]
        x[...] = to_padded(lv.mesh, rng.standard_normal(
            lv.mesh.num_free_dofs))
        q = cycle._bound[k][0]()
        assert q.dtype == np.float32
        assert same_bits(q, product(A32, x))


def _same_csr(A, B):
    return (A.shape == B.shape
            and all(getattr(A, k).dtype == getattr(B, k).dtype
                    and np.array_equal(getattr(A, k), getattr(B, k))
                    for k in ("data", "indices", "indptr")))


def _kron_restriction(dim, n):
    """The restriction and its Kronecker-product oracle, moved to the
    padded layouts; the oracle's entries, 1 and 1/2, are exact in the
    restriction's float32."""
    fine, coarse = build_unit_box_mesh(dim, n), build_unit_box_mesh(dim, n // 2)
    oracle = dof_prolongation_kron(fine, coarse).T.tocsr()
    # scipy's astype sorts each row's columns, so it goes first
    return (_restriction(fine, coarse),
            pad_matrix(oracle.astype(np.float32), coarse, fine))


@pytest.mark.parametrize("dim,n", [(2, 4), (2, 6), (2, 8), (2, 64), (2, 128),
                                   (2, 256), (3, 4), (3, 6), (3, 8), (3, 16),
                                   (3, 32)])
def test_restriction_equals_the_kron_build(dim, n):
    R, oracle = _kron_restriction(dim, n)
    assert _same_csr(R, oracle)
    # a full stencil in every free row, nothing in the zero slots
    counts = np.diff(R.indptr)
    coarse = build_unit_box_mesh(dim, n // 2)
    assert same_bits(counts, pad_vector(coarse, np.full(
        coarse.num_free_dofs, 2 ** (dim + 1) - 1, dtype=counts.dtype)))


# the tracemalloc peak of the 3D n=64 restriction, which keeps 11.1 MB:
# 15.3 MB with int32 positions and offsets from the start, 29.2 MB with
# int64 ones and their int32 copy
RESTRICTION_PEAK_3D_64 = 18_000_000


def test_restriction_builds_in_int32():
    fine, coarse = build_unit_box_mesh(3, 64), build_unit_box_mesh(3, 32)
    tracemalloc.start()
    try:
        R = _restriction(fine, coarse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R.indices.dtype == R.indptr.dtype == np.int32
    assert R.data.dtype == np.float32
    assert peak < RESTRICTION_PEAK_3D_64


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(
    lambda dim: st.tuples(st.just(dim),
                          st.integers(2, 24 if dim == 2 else 9).map(
                              lambda k: 2 * k))))
def test_restriction_property(case):
    assert _same_csr(*_kron_restriction(*case))


def _kron_family(levels, dtype=np.float32):
    """The levels with R from the Kronecker-product oracle."""
    out = []
    for k, lv in enumerate(levels):
        if lv.R is not None:
            coarse = levels[k + 1].mesh
            R = dof_prolongation_kron(lv.mesh, coarse).T.tocsr()
            R = pad_matrix(R.astype(dtype), coarse, lv.mesh)
            lv = replace(lv, R=R)
        out.append(lv)
    return out


@pytest.mark.parametrize("dim,n", [(2, 64), (2, 96), (3, 16), (3, 32)])
def test_transfers_and_vcycle_match_the_kron_family(dim, n):
    levels = build_levels(dim, n, LameParams(1.0, 50.0))
    oracle = _kron_family(levels)
    rng = np.random.default_rng(n)
    for lv, ref, ref64 in zip(levels, oracle,
                              _kron_family(levels, np.float64)):
        if lv.R is None:
            continue
        v = rng.standard_normal(lv.R.shape[0])
        w = rng.standard_normal(lv.R.shape[1])
        # float64 vectors get the float64 matrices' bits, float32 ones
        # the float32 products of the V-cycle
        assert same_bits(lv.R.T @ v, ref64.R.T @ v)
        assert same_bits(lv.R @ w, ref64.R @ w)
        v, w = v.astype(np.float32), w.astype(np.float32)
        assert same_bits(lv.R.T @ v, ref.R.T @ v)
        assert same_bits(lv.R @ w, ref.R @ w)
    r = _random_padded(levels[0].mesh, n)
    Mr = _vcycle(levels, r)
    assert same_bits(Mr, _vcycle(oracle, r))
    assert same_bits(Mr, vcycle_allocating(oracle, r))


class _Assembled:
    """An assembled matrix behind the level-operator interface.

    Its products are scipy's public A @ x on the free slots of a padded
    vector, moved back to the padded layout.
    """

    def __init__(self, A, mesh, like):
        self.A, self.mesh = A, mesh
        self.shape, self.dim, self.p = like.shape, like.dim, like.p

    def _product(self, x, out):
        out[...] = pad_vector(self.mesh, self.A @ from_padded(self.mesh, x))
        return out

    def bind(self, x, out):
        return partial(self._product, x, out)


def _assembled_levels(levels, params):
    """The levels with the assembled stiffness, its Jacobi data and its
    dense bottom factor, cycle_A and inv_diag rounded to float32 as
    build_levels stores them."""
    out = []
    for lv in levels:
        A = assemble_stiffness(lv.mesh, params)
        inv_diag, lmax = (jacobi_bound_whole_matrix(A) if A.shape[0]
                          else (None, None))
        if inv_diag is not None:
            inv_diag = pad_vector(lv.mesh, inv_diag.astype(np.float32))
        factor = lv.factor
        if factor is not None:
            factor = scipy.linalg.cho_factor(A.toarray(), lower=True)
            assert same_bits(factor[0], lv.factor[0])
        out.append(replace(lv, A=_Assembled(A, lv.mesh, lv.A),
                           inv_diag=inv_diag, lmax=lmax, factor=factor,
                           cycle_A=_Assembled(A.astype(np.float32), lv.mesh,
                                              lv.A)))
    return out


# dyadic families, odd bottoms that are factored (2D n=6, 3D n=9) or
# only smoothed (2D n=66, 96 and 3D n=30), and the smallest meshes
@pytest.mark.parametrize("lam", [1.0, 50.0, 1000.0])
@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (2, 4), (2, 6), (2, 33),
                                   (2, 64), (2, 66), (2, 96), (3, 2),
                                   (3, 3), (3, 4), (3, 9), (3, 16), (3, 30)])
def test_plane_operators_solve_as_the_assembled_matrices(dim, n, lam):
    params = LameParams(1.0, lam)
    levels = build_levels(dim, n, params)
    oracle = _assembled_levels(levels, params)
    r = _random_padded(levels[0].mesh, n)
    Mr = _vcycle(levels, r)
    assert same_bits(Mr, _vcycle(oracle, r))
    assert same_bits(Mr, vcycle_allocating(oracle, r))
    _, u, stats = _solve_level(levels, _load(dim), 1e-10, None)
    _, u_ref, stats_ref = _solve_level(oracle, _load(dim), 1e-10, None)
    assert same_bits(u, u_ref)
    assert stats == stats_ref


def _load_point(dim, n, where, base, t):
    """A point of the mesh at n in the lattice cube base + [0, 1]^d.

    where is a lattice vertex, a Kuhn edge (the cube's main diagonal,
    an edge of all its cells), a cell face (y = z in 3D, the bottom
    edge of the cube in 2D) or a cell interior; t in (0, 1) places the
    point on it. base has entries in 1 .. n-1, so the point lies
    strictly inside the box.
    """
    s = 0.5 * t
    offset = {"vertex": [0.0] * dim,
              "edge": [t] * dim,
              "face": [t, s, s] if dim == 3 else [t, 0.0],
              "interior": [t, s, 0.5 * s][:dim]}[where]
    return (np.asarray(base, dtype=float) + offset) / n


# dyadic families; odd bottoms that are factored (2D n=6, 10, 3D n=6,
# 10) or only smoothed, above DENSE_BOTTOM_LIMIT dofs (2D n=33, 66, 3D
# n=11, 22)
_SIZES = {2: [4, 8, 16, 32, 64, 6, 10, 33, 66],
          3: [4, 8, 16, 6, 10, 11, 22]}


@pytest.mark.parametrize("dim,n", [(dim, n) for dim, sizes in _SIZES.items()
                                   for n in sizes])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data(), lam=st.floats(1.0, 1e3),
       where=st.sampled_from(["vertex", "edge", "face", "interior"]),
       t=st.sampled_from([0.25, 0.5, 0.75]))
def test_workspace_solve_equals_the_allocating_oracle(dim, n, data, lam,
                                                      where, t):
    base = data.draw(st.lists(st.integers(1, n - 1), min_size=dim,
                              max_size=dim))
    force = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim,
                               max_size=dim).filter(
                                   lambda f: max(map(abs, f)) > 0.1))
    loads = PointLoadSet([_load_point(dim, n, where, base, t)], [force])
    params = LameParams(1.0, lam)
    levels = build_levels(dim, n, params)
    mesh, u, stats = _solve_level(levels, loads, 1e-10, None)
    b = assemble_point_load(mesh, loads)
    x_ref, stats_ref = cg_allocating(
        levels[0].A, pad_vector(mesh, b),
        max_iter=default_max_iter(mesh.num_free_dofs),
        precond=partial(vcycle_allocating, levels))
    x_ref = from_padded(mesh, x_ref)
    assert same_bits(u, x_ref)
    assert stats == stats_ref
    if n <= 16:
        A = assemble_stiffness(mesh, params)
        x_direct = spla.spsolve(A.tocsc(), b)
        assert (np.linalg.norm(x_ref - x_direct)
                <= 1e-8 * np.linalg.norm(x_direct))


def _two_cpus(monkeypatch):
    """Let the stencil products split their rows whatever this host
    has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _zero_slots(mesh, x):
    """The entries of a padded vector that hold no free dof."""
    return np.delete(x, padded_positions(mesh)[0])


# scipy's private kernels behind the stencil product and the bound
# transfers must keep the bits of the public products; a scipy that
# changes them fails here. The stencil products are checked against one
# vertex plane's assembled rows times the plane-shifted stack of x, split by
# rows across two threads (every size crosses a zero threshold) and
# serial, in both precisions; pd = d (n-1)^(d-1) rows are even in 2D and
# odd in 3D for even n.
@pytest.mark.parametrize("dim,n", [(2, 4), (2, 8), (2, 16), (2, 32), (2, 64),
                                   (2, 128), (2, 256), (3, 4), (3, 8),
                                   (3, 16), (3, 32), (3, 64)])
def test_sparse_product_has_the_bits_of_the_public_products(dim, n,
                                                            monkeypatch):
    _two_cpus(monkeypatch)
    params = LameParams(1.0, 50.0)
    levels = build_levels(dim, n, params)
    lv = levels[0]
    W = plane_rows(lv.mesh, params)
    rng = np.random.default_rng(n)
    for A, dtype in ((lv.A, np.float64), (lv.cycle_A, np.float32)):
        x = rng.standard_normal(lv.mesh.num_free_dofs).astype(dtype)
        ref = plane_rows_product(W.astype(dtype), n - 1, x)
        for threshold in (0, np.inf):
            monkeypatch.setattr(assembly, "_SPLIT_MULTIPLY_ADDS", threshold)
            out = np.full(A.shape[0], np.nan, dtype=dtype)
            A.bind(to_padded(lv.mesh, x), out)()
            assert same_bits(from_padded(lv.mesh, out), ref)
            assert not np.any(_zero_slots(lv.mesh, out))
    # the V-cycle's bound transfers, in its float32: R r -> bc and
    # R.T xc -> q, each into a vector that holds the previous product
    precond = VCycle(levels)
    restrict, prolong = precond._bound[0][2:]
    r, _, q = precond._scratch[0]
    bc, xc = precond._vectors[1]
    for _ in range(2):
        r[...] = rng.standard_normal(lv.R.shape[1])
        assert restrict() is bc
        assert same_bits(bc, lv.R @ r)
        xc[...] = rng.standard_normal(lv.R.shape[0])
        assert prolong() is q
        assert same_bits(q, lv.R.T @ xc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from([2, 3]).flatmap(
    lambda dim: st.tuples(st.just(dim),
                          st.integers(2, 40 if dim == 2 else 12))),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 2.0 ** -60, 3.0e30]),
       split=st.booleans())
def test_stencil_product_equals_the_assembled_product(case, seed, scale,
                                                      split):
    dim, n = case
    params = LameParams(1.0, 7.0)
    lv = build_levels(dim, n, params)[0]
    A = assemble_stiffness(lv.mesh, params)
    x = np.random.default_rng(seed).standard_normal(A.shape[0]) * scale
    with pytest.MonkeyPatch.context() as patch:
        _two_cpus(patch)
        patch.setattr(assembly, "_SPLIT_MULTIPLY_ADDS",
                      0 if split else np.inf)
        for op, dtype in ((lv.A, np.float64), (lv.cycle_A, np.float32)):
            xd = x.astype(dtype)
            out = np.full(op.shape[0], np.nan, dtype=dtype)
            op.bind(to_padded(lv.mesh, xd), out)()
            assert same_bits(from_padded(lv.mesh, out),
                             A.astype(dtype) @ xd)
            assert not np.any(_zero_slots(lv.mesh, out))


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("dim,n", [(2, 2), (2, 7), (2, 16), (3, 2), (3, 5),
                                   (3, 8)])
def test_bound_product_equals_matvec_and_the_assembled_product(dim, n, split,
                                                               monkeypatch):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(assembly, "_SPLIT_MULTIPLY_ADDS",
                        0 if split else np.inf)
    params = LameParams(1.0, 7.0)
    lv = build_levels(dim, n, params)[0]
    A = assemble_stiffness(lv.mesh, params)
    rng = np.random.default_rng(n)
    for op, dtype in ((lv.A, np.float64), (lv.cycle_A, np.float32)):
        x = np.zeros(op.shape[0], dtype=dtype)
        out = np.full(op.shape[0], np.nan, dtype=dtype)
        bound = op.bind(x, out)
        # bound to x and out, not to their values at bind time
        for _ in range(2):
            xd = rng.standard_normal(A.shape[0]).astype(dtype)
            x[...] = to_padded(lv.mesh, xd)
            out.fill(np.nan)
            assert bound() is out
            assert same_bits(from_padded(lv.mesh, out), A.astype(dtype) @ xd)
            assert not np.any(_zero_slots(lv.mesh, out))
            # and a product bound afresh has the same bits
            assert same_bits(out, product(op, x))


def test_bound_split_product_runs_after_the_pool_is_forgotten(monkeypatch):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(assembly, "_SPLIT_MULTIPLY_ADDS", 0)
    # this test's workers are its own; the module's come back after it
    monkeypatch.setattr(assembly, "_row_pool", None)
    monkeypatch.setattr(assembly, "_row_pool_lock", threading.Lock())
    lv = build_levels(3, 8, LameParams(1.0, 1.0))[0]
    x = _random_padded(lv.mesh, 3)
    ref = product(lv.A, x)
    out = np.full_like(x, np.nan)
    bound = lv.A.bind(x, out)
    assert same_bits(bound(), ref)
    first = assembly._row_pool
    assert first is not None
    # what a forked child's hook does: the worker is looked up per
    # call, so the product makes a new one
    assembly._forget_row_pool()
    out.fill(np.nan)
    assert same_bits(bound(), ref)
    second = assembly._row_pool
    assert second is not None and second is not first
    first.shutdown()
    second.shutdown()


def _python_calls(f, *args):
    """Python-level calls of elastopoint's code made by f(*args), f's
    own included, counted by a profile hook; calls into numpy and scipy
    are not counted, so the count does not move with their versions."""
    package = os.path.dirname(assembly.__file__) + os.sep
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return len(calls)


# elastopoint's Python calls in one V-cycle: 90 at 2D n=128 (7 levels)
# and 51 at 2D n=16 (4 levels) when every product built its kernel
# arguments, views and split test on each call; 58 and 31 with the
# products bound once
@pytest.mark.parametrize("n,budget", [(128, 64), (16, 36)])
def test_vcycle_python_call_budget(n, budget):
    levels = build_levels(2, n, LameParams(1.0, 50.0))
    precond = VCycle(levels)
    r = _random_padded(levels[0].mesh, 5)
    out = np.empty_like(r)
    precond(r, out)
    assert _python_calls(precond, r, out) <= budget


def test_one_cpu_solve_starts_no_thread_and_has_the_split_bits(monkeypatch):
    levels = build_levels(3, 32, LameParams(1.0, 1.0))
    _two_cpus(monkeypatch)
    _, x_split, stats_split = _solve_level(levels, _load(3), 1e-10, None)
    assert assembly._row_pool is not None
    # hide the worker: a solve on one CPU must not make another
    monkeypatch.setattr(assembly, "_row_pool", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    threads = threading.active_count()
    _, x, stats = _solve_level(levels, _load(3), 1e-10, None)
    assert threading.active_count() == threads
    assert assembly._row_pool is None
    assert same_bits(x, x_split)
    assert stats == stats_split


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_split_product_raises_only_after_both_halves_stop(failing,
                                                          monkeypatch):
    _two_cpus(monkeypatch)
    monkeypatch.setattr(assembly, "_SPLIT_MULTIPLY_ADDS", 0)
    lv = build_levels(2, 8, LameParams(1.0, 1.0))[0]
    A = lv.A
    x = _random_padded(lv.mesh, 0)
    ref = product(A, x)
    kernel = assembly._sparsetools.csr_matvecs
    caller = threading.current_thread()
    stopped = []

    def matvecs(*args):
        # the worker's half is still running when the caller's is done
        if threading.current_thread() is not caller:
            time.sleep(0.1)
        try:
            if failing == ("caller" if threading.current_thread() is caller
                           else "worker"):
                raise RuntimeError(failing + " half")
            kernel(*args)
        finally:
            stopped.append(threading.current_thread() is caller)

    monkeypatch.setattr(assembly, "_sparsetools",
                        SimpleNamespace(csr_matvecs=matvecs))
    out = np.full(A.shape[0], np.nan)
    with pytest.raises(RuntimeError, match=failing + " half"):
        A.bind(x, out)()
    # the failing half stops at its first block, the other runs all
    # three, and the product returns only after both
    assert sorted(stopped) == ([False] + [True] * 3 if failing == "worker"
                               else [False] * 3 + [True])
    h = A.rows // 2
    rows = slice(h, None) if failing == "caller" else slice(None, h)
    lines = slice(A.margin, A.margin + A.rows * A.run)
    grid = out[lines].reshape(A.rows, A.p + 1)[rows, :A.p]
    want = ref[lines].reshape(A.rows, A.p + 1)[rows, :A.p]
    assert same_bits(grid, want)


def test_split_products_from_many_threads_keep_their_bits(monkeypatch):
    # more callers than cores share the one worker, which none of them
    # has made yet, with the interpreter switching threads often
    lv = build_levels(2, 16, LameParams(1.0, 1.0))[0]
    A = lv.A
    x = _random_padded(lv.mesh, 0)
    ref = product(A, x)
    _two_cpus(monkeypatch)
    monkeypatch.setattr(assembly, "_SPLIT_MULTIPLY_ADDS", 0)
    monkeypatch.setattr(assembly, "_row_pool", None)
    exact = []
    start = threading.Barrier(6, timeout=60)

    def products():
        out = np.empty_like(ref)
        start.wait()
        for _ in range(50):
            out.fill(np.nan)
            exact.append(same_bits(A.bind(x, out)(), ref))

    threads = threading.active_count()
    callers = [threading.Thread(target=products) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(exact) == 300 and all(exact)
    # one worker thread, however many callers raced to make it
    assert threading.active_count() == threads + 1


def _solve_after_fork(levels):
    # the child must not inherit the parent's worker, and makes its own
    assert assembly._row_pool is None
    _solve_level(levels, _load(3), 1e-10, None)
    assert assembly._row_pool is not None


def test_forked_child_solves_after_a_threaded_solve(monkeypatch):
    _two_cpus(monkeypatch)
    levels = build_levels(3, 32, LameParams(1.0, 1.0))
    _solve_level(levels, _load(3), 1e-10, None)
    assert assembly._row_pool is not None
    child = multiprocessing.get_context("fork").Process(
        target=_solve_after_fork, args=(levels,))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.parametrize("dim,n", [(2, 128), (3, 32)])
def test_vcycle_allocates_nothing_of_level_size(dim, n):
    levels = build_levels(dim, n, LameParams(1.0, 1.0))
    precond = VCycle(levels)
    r = _random_padded(levels[0].mesh, 1)
    out = np.empty_like(r)
    precond(r, out)
    tracemalloc.start()
    try:
        precond(r, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.5 kB: the dense bottom solve's vectors of 2 or 3 entries,
    # and at 3D n=32 up to 3.2 kB with the hand-off objects of the
    # products split across two threads (a future per product);
    # one vector of the top level is 258 kB (2D) or 715 kB (3D)
    assert peak < 4096


# a second solve on a family at 2D n=128 and 3D n=32 allocates this many
# vectors of the top level's free dofs: 15.0 when every step of CG and
# of the V-cycle allocates its results; 12.9 and 12.7 with the
# workspace and a float64 plane stack and product of 4 n values; 13.0
# and 13.4 when each solve also rounded the levels' plane rows to
# float32; 9.0 and 9.3 with copy-free products on padded vectors (the
# load, its padded copy, CG 5, and in float32 the scratch and every
# level's right side and iterate); 7.0 and 7.1 with CG's A p, alpha p
# and M r in one vector, VCycle.out, in the bytes of the V-cycle's
# residual and step scratch (CG 4)
SOLVE_VECTORS = 8


@pytest.mark.parametrize("dim,n", [(2, 128), (3, 32)])
def test_solve_allocates_at_most_8_level_vectors(dim, n):
    levels = build_levels(dim, n, LameParams(1.0, 1.0))
    _solve_level(levels, _load(dim), 1e-10, None)
    tracemalloc.start()
    try:
        _solve_level(levels, _load(dim), 1e-10, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SOLVE_VECTORS * 8 * levels[0].mesh.num_free_dofs


@pytest.mark.parametrize("data", ["float32", "float64"])
@pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
def test_solve_works_in_the_vcycle_output(dim, n, data):
    levels = build_levels(dim, n, LameParams(1.0, 50.0))
    if data == "float64":
        levels = _float64_family(levels)
    precond = VCycle(levels)
    out = precond.out
    assert out.dtype == np.float64 and out.shape == (precond.A.shape[0],)
    # the top level's residual and step scratch lie in out's bytes in
    # float32; in float64 out holds the residual scratch alone
    res, step, q = precond._scratch[0]
    assert np.shares_memory(res, out)
    assert np.shares_memory(step, out) == (data == "float32")
    assert not np.shares_memory(q, out)
    # CG binds both of its products to out, and passes out to every
    # preconditioner call
    A, bound, calls = precond.A, [], []

    class Products:
        shape = A.shape

        def bind(self, x, y):
            bound.append(y)
            return A.bind(x, y)

    def spy(r, y):
        calls.append(y)
        precond(r, y)
    spy.out = out

    b = to_padded(levels[0].mesh,
                  assemble_point_load(levels[0].mesh, _load(dim)))
    x, stats = cg_solve(Products(), b, precond=spy)
    assert stats.converged and len(calls) >= stats.iterations
    assert len(bound) == 2 and all(y is out for y in bound + calls)
    # a preconditioner without out gets a vector of CG's own, and the
    # same V-cycle, with its scratch apart from that vector, gives the
    # same bits
    other = VCycle(levels)
    x_ref, stats_ref = cg_solve(A, b, precond=lambda r, y: other(r, y))
    assert same_bits(x, x_ref) and stats == stats_ref


@pytest.mark.parametrize("dim,points", [
    (2, [[0.5, 0.5], [0.25, 0.75],          # coarse vertices
         [0.375, 0.5], [0.3, 0.25],         # on axis-parallel edges
         [0.3125, 0.3125], [0.6, 0.35]]),   # on a diagonal, interior
    (3, [[0.5, 0.5, 0.5], [0.25, 0.5, 0.75],
         [0.375, 0.5, 0.5], [0.3, 0.5, 0.5],
         [0.3, 0.3, 0.3], [0.61, 0.37, 0.43]]),
])
def test_restriction_of_point_loads_is_exact(dim, points):
    fine, coarse = build_levels(dim, 8, LameParams(1.0, 1.0))[:2]
    rng = np.random.default_rng(4)
    for x in points:
        loads = PointLoadSet([x], [rng.standard_normal(dim)])
        b_fine = to_padded(fine.mesh, assemble_point_load(fine.mesh, loads))
        b_coarse = assemble_point_load(coarse.mesh, loads)
        restricted = from_padded(coarse.mesh, fine.R @ b_fine)
        assert np.abs(restricted - b_coarse).max() <= 1e-14


# 2D n=66 bottoms out at n=33, whose 2048 free dofs are only smoothed;
# the float32 V-cycle is symmetric only up to float32 rounding, so the
# symmetry is checked on the family in float64
@pytest.mark.parametrize("dim,n", [(2, 16), (2, 66), (3, 8)])
def test_vcycle_is_symmetric_positive(dim, n):
    levels = _float64_family(build_levels(dim, n, LameParams(1.0, 10.0)))
    x, y = (_random_padded(levels[0].mesh, seed) for seed in (7, 8))
    Mx, My = _vcycle(levels, x), _vcycle(levels, y)
    scale = np.linalg.norm(Mx) * np.linalg.norm(y)
    assert abs(Mx @ y - x @ My) <= 1e-12 * scale
    assert Mx @ x > 0.0


# relative distance of the float32 V-cycle from the float64 one, in
# units of float32's eps: 0.94 to 1.68 over the cases below
FLOAT32_CYCLE_EPS = 4


@pytest.mark.parametrize("lam", [1.0, 1000.0])
@pytest.mark.parametrize("dim,n", [(2, 16), (2, 66), (2, 128), (3, 8),
                                   (3, 16)])
def test_float32_vcycle_rounds_the_float64_one(dim, n, lam):
    levels = build_levels(dim, n, LameParams(1.0, lam))
    assert levels[0].inv_diag.dtype == np.float32
    r = _random_padded(levels[0].mesh, 3)
    M32r = _vcycle(levels, r)
    M64r = _vcycle(_float64_family(levels), r)
    eps = np.finfo(np.float32).eps
    assert (np.linalg.norm(M32r - M64r)
            <= FLOAT32_CYCLE_EPS * eps * np.linalg.norm(M64r))


@pytest.mark.parametrize("dim,n", [(2, 16), (2, 33), (3, 8)])
@pytest.mark.parametrize("k", [200, -200])
def test_scaled_force_scales_the_solve_exactly(dim, n, k):
    # 2^200 is far outside float32's range, so without cg_solve's
    # power-of-two scaling of the right side the float32 V-cycle would
    # overflow or underflow on this solve
    levels = build_levels(dim, n, LameParams(1.0, 50.0))
    point, force = _load(dim).points, _load(dim).forces
    _, u, stats = _solve_level(levels, PointLoadSet(point, force), 1e-10,
                               None)
    _, u_k, stats_k = _solve_level(
        levels, PointLoadSet(point, force * 2.0 ** k), 1e-10, None)
    assert same_bits(u_k, u * 2.0 ** k)
    assert stats_k == stats


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_tiny_force_solves_as_the_unit_force_scaled(dim, n):
    # CG took the norm of b, 0 in float64 for a force of 2^-1000, and
    # returned x = 0 after no iteration
    levels = build_levels(dim, n, LameParams(1.0, 50.0))
    point, force = _load(dim).points, _load(dim).forces
    _, u, stats = _solve_level(levels, PointLoadSet(point, force), 1e-10,
                               None)
    _, u_tiny, stats_tiny = _solve_level(
        levels, PointLoadSet(point, force * 2.0 ** -1000), 1e-10, None)
    assert stats.converged and stats.iterations > 0
    assert stats_tiny == stats
    assert same_bits(u_tiny, u * 2.0 ** -1000)


@pytest.mark.parametrize("dim,n", [(2, 8), (2, 15), (2, 16), (2, 66),
                                   (3, 4), (3, 7), (3, 8)])
def test_multigrid_cg_matches_jacobi_cg_and_direct(dim, n):
    levels = build_levels(dim, n, LameParams(1.0, 5.0))
    top = levels[0]
    b = assemble_point_load(top.mesh, _load(dim))
    x_mg, st_mg = _mg_cg(levels, b, rel_tol=1e-12)
    A = assemble_stiffness(top.mesh, LameParams(1.0, 5.0))
    x_jac, st_jac = cg_allocating(A, b, rel_tol=1e-12)
    x_ref = spla.spsolve(A.tocsc(), b)
    assert st_mg.converged and st_jac.converged
    scale = np.linalg.norm(x_ref)
    assert np.linalg.norm(x_mg - x_ref) <= 1e-8 * scale
    assert np.linalg.norm(x_jac - x_ref) <= 1e-8 * scale
    assert st_mg.iterations <= st_jac.iterations


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_smallest_meshes_solve(dim, n):
    mesh, x, stats = _solve_level(
        build_levels(dim, n, LameParams(1.0, 1.0)), _load(dim), 1e-10, None)
    assert stats.converged
    assert mesh.num_free_dofs == dim * (n - 1) ** dim
    assert x.shape == (mesh.num_free_dofs,)
    full = from_free(mesh, x)
    assert full.shape == (mesh.num_vertices, dim)
    verts = mesh.vertices
    boundary = ((verts == 0.0) | (verts == 1.0)).any(axis=1)
    assert np.all(full[boundary] == 0.0)


def test_multigrid_iterations_are_few():
    levels = build_levels(2, 64, LameParams(1.0, 1.0))
    top = levels[0]
    b = assemble_point_load(top.mesh, _load(2))
    _, stats = _mg_cg(levels, b)
    assert stats.converged
    assert stats.iterations <= 30


# MG-CG iterations to a relative residual of 1e-10 for a 2D load at
# (0.4, 0.55) at n=64, mu = 1: the README's lambda table, which states
# the tested range (lambda up to 1e5)
README_LAMBDA_ITERATIONS = {50.0: 50, 1e3: 170, 1e4: 305, 1e5: 371}


@pytest.mark.parametrize("lam", sorted(README_LAMBDA_ITERATIONS))
def test_iterations_over_the_lambda_range(lam):
    levels = build_levels(2, 64, LameParams(1.0, lam))
    loads = PointLoadSet([[0.4, 0.55]], [[1.0, 0.0]])
    _, _, stats = _solve_level(levels, loads, 1e-10, None)
    assert stats.converged
    assert stats.iterations <= README_LAMBDA_ITERATIONS[lam]


def test_nearly_incompressible_solve_and_converge(tmp_path, capsys):
    # Jacobi-CG stops at its iteration cap here
    loads = tmp_path / "loads.txt"
    loads.write_text("point 0.4 0.55 1 0\n")
    rc = main(["solve", "--dim", "2", "--levels", "64", "--lambda", "1000",
               "--loads", str(loads)])
    assert rc == 0
    out = tmp_path / "study.csv"
    rc = main(["converge", "--dim", "2", "--levels", "4", "8", "16",
               "--lambda", "1000", "--loads", str(loads), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("n", [0, -4])
def test_nonpositive_size_fails_fast(n):
    with pytest.raises(ValueError, match="positive"):
        build_levels(2, n, LameParams(1.0, 1.0))


@pytest.mark.parametrize("lam", [1.000001e5, 1e9])
def test_lambda_over_mu_above_the_tested_range_fails_fast(lam, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    def no_mesh(*args):
        raise AssertionError("meshed before the parameter check")

    with monkeypatch.context() as patch:
        patch.setattr(mesh_module, "build_unit_box_mesh", no_mesh)
        patch.setattr(sys.modules["elastopoint.multigrid"],
                      "build_unit_box_mesh", no_mesh)
        with pytest.raises(ValueError, match=r"outside the supported "
                           r"range \(0, 1e\+05\]"):
            build_levels(2, 64, LameParams(1.0, lam))
        # the ratio counts, not lambda alone
        with pytest.raises(ValueError, match="supported range"):
            build_levels(3, 8, LameParams(0.5, lam / 2.0))
    # the top of the range is still built
    assert build_levels(2, 4, LameParams(1.0, 1e5))[0].lmax > 0
    loads = tmp_path / "loads.txt"
    loads.write_text("point 0.4 0.55 1 0\n")
    for argv in (["solve", "--dim", "2", "--levels", "64"],
                 ["converge", "--dim", "2", "--levels", "4", "8",
                  "--out", str(tmp_path / "study.csv")]):
        rc = main(argv + ["--lambda", repr(lam), "--loads", str(loads)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "outside the supported range (0, 1e+05]" in captured.err
    assert not (tmp_path / "study.csv").exists()


def test_family_limit_admits_the_supported_range():
    # the estimate alone: nothing here is built
    assert check_family_size(3, 128) < 2**31
    assert check_family_size(2, 1024) < 2**31
    assert check_family_size(3, 178) <= 2**31
    assert check_family_size(2, 2897) <= 2**31
    assert check_family_size(2, 1) == 0
    for dim, n in ((3, 179), (3, 256), (2, 2898)):
        with pytest.raises(ValueError, match=r"n=%d \(%dD\) needs about "
                           r"\d+ MB .* above the 2048 MB limit" % (n, dim)):
            check_family_size(dim, n)


@pytest.mark.parametrize("dim,n", [(2, 128), (3, 32)])
def test_family_estimate_covers_a_traced_build_and_solve(dim, n):
    tracemalloc.start()
    try:
        family = build_levels(dim, n, LameParams(1.0, 1.0))
        _solve_level(family, _load(dim), 1e-10, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= check_family_size(dim, n)


def test_oversized_family_fails_fast(tmp_path, capsys, monkeypatch):
    # 3D n=2^15 would need about 2^47 bytes; the refusal comes before
    # any mesh and allocates next to nothing
    def no_mesh(*args):
        raise AssertionError("meshed before the size check")

    monkeypatch.setattr(multigrid, "build_unit_box_mesh", no_mesh)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n=32768 \(3D\) .* MB"):
            build_levels(3, 2**15, LameParams(1.0, 1.0))
        loads = tmp_path / "loads.txt"
        loads.write_text("point 0.5 0.5 0.5 0 0 1\n")
        out = tmp_path / "study.csv"
        # the reference of levels 4, 8 with 12 extra levels is n=2^15
        rc = main(["converge", "--dim", "3", "--levels", "4", "8",
                   "--ref-extra", "12", "--loads", str(loads),
                   "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=32768 (3D) needs about" in captured.err
    assert "multigrid family and solve workspace" in captured.err
    assert not out.exists()
    assert peak < 2**20
