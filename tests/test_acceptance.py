"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line on the real stdout (bypassing
capture) and then asserts, so the verdicts are visible in any runner.
"""

import math
import time

import numpy as np
import pytest

from elastopoint.assembly import (
    LameParams,
    PointLoadSet,
    assemble_stiffness,
    point_load_nodal,
    vector_p1_form_matrix,
)
from elastopoint.cli import main as cli_main
from elastopoint.mesh import build_unit_box_mesh
from elastopoint.convergence import manufactured_sine_2d, run_convergence_study
from elastopoint.spectral import (
    discrete_korn_constant,
    theorem31_report,
    weighted_pairing_demo,
    weighted_pairing_matrices,
)
from elastopoint.weights import WeightSpec, a2_ball_products, \
    default_ball_family, estimate_a2

from oracles import random_report_instance, theorem31_oracle


@pytest.fixture
def verdict(capsys):
    """Print one [PASS]/[FAIL] line outside capture, then assert."""

    def emit(criterion, ok, detail):
        line = "[%s] criterion %d: %s" % ("PASS" if ok else "FAIL",
                                          criterion, detail)
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_criterion_1_dirac_rate_2d(verdict):
    t0 = time.perf_counter()
    params = LameParams(1.0, 1.0)
    loads = PointLoadSet([[0.5, 0.5]], [[1.0, 0.0]])
    report = run_convergence_study(2, [8, 16, 32, 64], params, loads,
                                   ref_extra_levels=2)
    elapsed = time.perf_counter() - t0
    last_eoc = report.rows[-1].eoc
    note = " (above 1.25, reported)" if last_eoc > 1.25 else ""
    ok = last_eoc >= 0.85 and elapsed <= 300.0
    verdict(1, ok, "2d point-load last EOC %.4f >= 0.85%s, %.1fs <= 300s"
            % (last_eoc, note, elapsed))


def test_criterion_2_dirac_rate_3d(verdict):
    t0 = time.perf_counter()
    params = LameParams(1.0, 1.0)
    loads = PointLoadSet([[0.5, 0.5, 0.5]], [[0.0, 0.0, 1.0]])
    report = run_convergence_study(3, [4, 8, 16], params, loads,
                                   ref_extra_levels=2)
    elapsed = time.perf_counter() - t0
    last_eoc = report.rows[-1].eoc
    ok = last_eoc >= 0.35 and elapsed <= 1200.0
    verdict(2, ok, "3d point-load last EOC %.4f >= 0.35, %.1fs <= 1200s"
            % (last_eoc, elapsed))


def test_criterion_3_manufactured_rate_2d(verdict):
    t0 = time.perf_counter()
    params = LameParams(1.0, 1.0)
    report = run_convergence_study(2, [8, 16, 32], params,
                                   manufactured_sine_2d(params))
    elapsed = time.perf_counter() - t0
    rates = [row.eoc for row in report.rows[1:]]
    ok = all(1.9 <= r <= 2.1 for r in rates) and elapsed <= 60.0
    verdict(3, ok, "manufactured EOCs %s within [1.9, 2.1], %.1fs <= 60s"
            % (["%.4f" % r for r in rates], elapsed))


def test_criterion_4_transform_identity(verdict):
    worst = 0.0
    for dim, n in ((2, 8), (3, 4)):
        mesh = build_unit_box_mesh(dim, n)
        for mu, lam in ((1.0, 1.0), (1.0, 10.0), (2.0, 0.5)):
            params = LameParams(mu, lam)
            A1 = assemble_stiffness(mesh, params)
            A2 = vector_p1_form_matrix(mesh, None, c_eps=2.0 * mu, c_div=lam)
            diff = abs(A1 - A2).max()
            worst = max(worst, float(diff))
    ok = worst <= 1e-10
    verdict(4, ok, "grad/eps stiffness max entry difference %.3e <= 1e-10"
            % worst)


def test_criterion_5_partition_of_unity(verdict):
    rng = np.random.default_rng(2023)
    worst = 0.0
    for dim, n in ((2, 8), (3, 4)):
        mesh = build_unit_box_mesh(dim, n)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            pts = 0.05 + 0.9 * rng.random((k, dim))
            forces = rng.standard_normal((k, dim))
            nodal = point_load_nodal(mesh, PointLoadSet(pts, forces))
            gap = np.max(np.abs(nodal.sum(axis=0) - forces.sum(axis=0)))
            worst = max(worst, float(gap))
    ok = worst <= 1e-13
    verdict(5, ok, "point-load column sums off by %.3e <= 1e-13" % worst)


def test_criterion_6_korn_sandwich(verdict):
    lams = {}
    for dim, sizes in ((2, (4, 8, 16)), (3, (2, 4))):
        for n in sizes:
            ch = discrete_korn_constant(build_unit_box_mesh(dim, n))
            lams[(dim, n)] = 1.0 / (ch * ch)
    ok = all(0.5 <= v <= 1.0 for v in lams.values())
    detail = ", ".join("%dd n=%d: %.4f" % (d, n, v)
                       for (d, n), v in sorted(lams.items()))
    verdict(6, ok, "korn pencil lambda_min in [0.5, 1.0] (%s)" % detail)


def _reports_match(rep, ref, tol=1e-8):
    pairs = [
        (rep.beta_B, ref["beta_B"]),
        (rep.beta_C, ref["beta_C"]),
        (rep.alpha_A_kernel, ref["alpha_A_kernel"]),
        (rep.alpha_A_full, ref["alpha_A_full"]),
    ]
    for a, b in pairs:
        if math.isinf(a) or math.isinf(b):
            if a != b:
                return False
        elif abs(a - b) > tol * max(1.0, abs(b)):
            return False
    return rep.injective_on_kernels == ref["injective_on_kernels"]


def test_criterion_7_infsup_restriction(verdict):
    rng = np.random.default_rng(31415)
    ok = True
    notes = []
    for _ in range(25):
        mats = random_report_instance(rng, max_dim=12)
        rep = theorem31_report(*mats)
        if not math.isinf(rep.alpha_A_full):
            if not rep.alpha_A_kernel <= rep.alpha_A_full + 1e-10:
                ok = False
                notes.append("random instance violates restriction")

    center = [0.5, 0.5]
    for n in (2, 4):
        mesh = build_unit_box_mesh(2, n)
        for s in (-0.5, 0.0, 0.5):
            rep = weighted_pairing_demo(mesh, s, center)
            if not rep.alpha_A_kernel <= rep.alpha_A_full + 1e-10:
                ok = False
                notes.append("demo n=%d s=%s violates restriction" % (n, s))
            if s == 0.0:
                if abs(rep.alpha_A_kernel - 1.0) > 1e-8 or \
                        abs(rep.alpha_A_full - 1.0) > 1e-8:
                    ok = False
                    notes.append("demo n=%d s=0 alphas not 1" % n)
            if n == 2:
                mats = weighted_pairing_matrices(mesh, s, center)
                ref = theorem31_oracle(*mats)
                if not _reports_match(theorem31_report(*mats), ref):
                    ok = False
                    notes.append("demo n=2 s=%s disagrees with oracle" % s)
    detail = "25 random + 6 demo reports: kernel <= full, s=0 exact, " \
             "n=2 oracle match" if ok else "; ".join(notes)
    verdict(7, ok, detail)


def test_criterion_8_a2_estimator(verdict):
    center = [0.5, 0.5]
    balls, radii = default_ball_family(2, center)
    exact_one = estimate_a2(WeightSpec([center], 0.0), balls, radii)
    min_prod = math.inf
    dual_gap = 0.0
    for alpha in (0.5, 1.0):
        for sgn in (1.0, -1.0):
            prods = a2_ball_products(WeightSpec([center], sgn * alpha),
                                     balls, radii)
            min_prod = min(min_prod, float(prods.min()))
        plus = estimate_a2(WeightSpec([center], alpha), balls, radii)
        minus = estimate_a2(WeightSpec([center], -alpha), balls, radii)
        dual_gap = max(dual_gap, abs(plus - minus) / plus)
    ok = exact_one == 1.0 and min_prod >= 1.0 - 1e-6 and dual_gap <= 0.01
    verdict(8, ok, "alpha=0 estimate %r, min ball product %.6f, "
            "duality gap %.2e <= 1%%" % (exact_one, min_prod, dual_gap))


def test_criterion_9_deterministic_csv(tmp_path, verdict):
    loads = tmp_path / "loads.txt"
    loads.write_text("point 0.5 0.5 1 0\n")
    argv = ["converge", "--dim", "2", "--levels", "4", "8",
            "--loads", str(loads), "--ref-extra", "2"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rc1 = cli_main(argv + ["--out", str(a)])
    rc2 = cli_main(argv + ["--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    verdict(9, ok, "converge twice in serial mode: byte-identical CSV "
            "(%d bytes)" % len(a.read_bytes()))
