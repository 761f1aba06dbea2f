import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastopoint.convergence import l2_norm_sq_p1
from elastopoint.mesh import build_unit_box_mesh, cell_volumes
from elastopoint import weights
from elastopoint.weights import (
    WeightSpec,
    _distances,
    _eval_many,
    a2_ball_products,
    cell_weight_integrals,
    default_ball_family,
    estimate_a2,
    weighted_h1_seminorm_sq,
)

from oracles import (
    box_integral_affine_squared,
    centered_ball_a2_product,
    mc_box_integral,
)


def test_weight_spec_validation():
    spec = WeightSpec([[0.5, 0.5]], 1.5)
    assert spec.dim == 2
    assert spec.centers.shape == (1, 2)
    with pytest.raises(ValueError):
        WeightSpec([[0.5, 0.5]], 2.0)
    with pytest.raises(ValueError):
        WeightSpec([[0.5, 0.5]], -2.0)
    with pytest.raises(ValueError):
        WeightSpec(np.empty((0, 2)), 0.5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="center .* is not finite"):
            WeightSpec([[0.5, 0.5], [0.3, bad]], 1.0)
    WeightSpec([[0.5, 0.5, 0.5]], -2.0)  # in range for d = 3


def test_eval_weight_formulas():
    spec = WeightSpec([[0.25, 0.25]], 0.0)
    assert np.array_equal(_eval_many(spec, [[0.9, 0.1], [0.25, 0.25]]),
                          [1.0, 1.0])
    spec = WeightSpec([[0.25, 0.25]], 1.0)
    assert abs(_eval_many(spec, [0.25, 0.65])[0] - 0.4) < 1e-15
    # several centers, positive exponent: farthest center wins
    spec = WeightSpec([[0.2, 0.5], [0.8, 0.5]], 1.0)
    assert abs(_eval_many(spec, [0.3, 0.5])[0] - 0.5) < 1e-15
    # negative exponent: max of powers is the nearest distance raised
    spec = WeightSpec([[0.2, 0.5], [0.8, 0.5]], -1.0)
    got = _eval_many(spec, [[0.3, 0.5], [0.6, 0.5]])
    assert np.allclose(got, [10.0, 5.0], rtol=1e-12, atol=0.0)


def test_eval_weight_pole():
    spec = WeightSpec([[0.5, 0.5]], -0.5)
    with pytest.raises(ValueError, match="weight pole"):
        _eval_many(spec, [[0.1, 0.2], [0.5, 0.5]])
    # nonnegative exponents are defined everywhere
    assert _eval_many(WeightSpec([[0.5, 0.5]], 0.5), [0.5, 0.5])[0] == 0.0


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_integrals_alpha_zero_are_volumes(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    spec = WeightSpec([np.full(dim, 0.5)], 0.0)
    wints = cell_weight_integrals(mesh, spec)
    assert np.allclose(wints, cell_volumes(mesh), rtol=1e-12)


def test_total_integral_alpha_one_2d():
    spec = WeightSpec([[0.5, 0.5]], 1.0)
    ref = mc_box_integral(2, lambda p: np.hypot(p[:, 0] - 0.5, p[:, 1] - 0.5))
    for n in (8, 16):
        mesh = build_unit_box_mesh(2, n)
        tot = cell_weight_integrals(mesh, spec).sum()
        assert abs(tot - ref) / ref < 1e-2


def test_total_integral_alpha_one_3d():
    spec = WeightSpec([[0.5, 0.5, 0.5]], 1.0)
    mesh = build_unit_box_mesh(3, 4)
    tot = cell_weight_integrals(mesh, spec).sum()
    ref = mc_box_integral(
        3, lambda p: np.linalg.norm(p - 0.5, axis=1), samples=200_000)
    assert abs(tot - ref) / ref < 1e-2


def test_singular_integral_matches_closed_form():
    # int |x - c|^(-1) over the unit square with c at the middle is
    # 4 ln(1 + sqrt 2); the split quadrature converges to it from below
    exact = 4.0 * math.log(1.0 + math.sqrt(2.0))
    spec = WeightSpec([[0.5, 0.5]], -1.0)
    errs = []
    for n in (8, 16):
        mesh = build_unit_box_mesh(2, n)
        tot = cell_weight_integrals(mesh, spec).sum()
        assert tot > 0
        errs.append(abs(tot - exact) / exact)
    assert errs[-1] < 1e-2
    assert errs[1] < errs[0]


def test_quad_order_and_dim_validation():
    mesh = build_unit_box_mesh(2, 2)
    spec = WeightSpec([[0.5, 0.5]], 1.0)
    # the quadrature is fixed; an order argument is refused, not ignored
    with pytest.raises(TypeError):
        cell_weight_integrals(mesh, spec, 3)
    with pytest.raises(TypeError):
        weighted_h1_seminorm_sq(mesh, np.zeros(mesh.num_vertices), spec, 4)
    with pytest.raises(ValueError, match="does not match mesh dimension"):
        cell_weight_integrals(mesh, WeightSpec([[0.5, 0.5, 0.5]], 1.0))


def test_weighted_norm_rejects_weight_of_other_dimension():
    mesh = build_unit_box_mesh(2, 2)
    spec = WeightSpec([[0.5, 0.5, 0.5]], 1.0)
    with pytest.raises(ValueError, match="does not match mesh dimension"):
        cell_weight_integrals(mesh, spec)
    with pytest.raises(ValueError, match="does not match mesh dimension"):
        weighted_h1_seminorm_sq(mesh, np.ones(mesh.num_vertices), spec)
    # the 3D weight on a 3D mesh is accepted
    cell_weight_integrals(build_unit_box_mesh(3, 1), spec)


def test_two_centers_in_one_cell_are_refused():
    # the split about the first center would leave the second pole to
    # plain quadrature; at n=16 the total is then off by 1.5%
    mesh = build_unit_box_mesh(2, 16)
    spec = WeightSpec([[0.52, 0.51], [0.56, 0.53]], -1.0)
    with pytest.raises(ValueError, match=r"\[0.52, 0.51\] and \[0.56, 0.53\]"):
        cell_weight_integrals(mesh, spec)
    with pytest.raises(ValueError, match="share cell"):
        weighted_h1_seminorm_sq(mesh, np.ones(mesh.num_vertices), spec)
    # once the centers are apart the totals agree across refinement
    t32, t64 = (cell_weight_integrals(build_unit_box_mesh(2, n), spec).sum()
                for n in (32, 64))
    assert abs(t32 - t64) < 1e-3 * t64
    # a constant weight has no pole to lose, and a repeated center is
    # the weight of a single one
    flat = WeightSpec(spec.centers, 0.0)
    assert np.allclose(cell_weight_integrals(mesh, flat), cell_volumes(mesh),
                       rtol=1e-12)
    assert np.array_equal(
        cell_weight_integrals(mesh, WeightSpec([[0.52, 0.51]] * 2, -1.0)),
        cell_weight_integrals(mesh, WeightSpec([[0.52, 0.51]], -1.0)))


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_unweighted_norm_matches_affine_integral(dim, n):
    mesh = build_unit_box_mesh(dim, n)
    coeffs = np.arange(1.0, dim + 1.0)
    consts = [0.5, -1.0]
    field = np.stack(
        [mesh.vertices @ np.roll(coeffs, c) + consts[c % 2] for c in range(dim)],
        axis=1,
    )
    exact = sum(
        box_integral_affine_squared(np.roll(coeffs, c), consts[c % 2], dim)
        for c in range(dim)
    )
    assert abs(l2_norm_sq_p1(mesh, field) - exact) < 1e-13


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_h1_seminorm_constant_gradient(alpha):
    mesh = build_unit_box_mesh(2, 4)
    spec = WeightSpec([[0.5, 0.5]], alpha)
    field = 3.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
    got = weighted_h1_seminorm_sq(mesh, field, spec)
    expected = 10.0 * cell_weight_integrals(mesh, spec).sum()
    assert abs(got - expected) < 1e-12 * max(1.0, expected)
    if alpha == 0.0:
        assert abs(got - 10.0) < 1e-12


def test_ball_products_alpha_zero_exact_one():
    spec = WeightSpec([[0.4, 0.6]], 0.0)
    centers, radii = default_ball_family(2, [0.4, 0.6])
    prods = a2_ball_products(spec, centers, radii)
    assert prods.shape == (50,)
    assert np.all(prods == 1.0)
    assert estimate_a2(spec, centers, radii) == 1.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, -0.5, 1.5])
def test_ball_products_at_least_one(alpha):
    spec = WeightSpec([[0.3, 0.7]], alpha)
    rng = np.random.default_rng(21)
    centers = rng.random((40, 2))
    radii = 0.05 + 0.3 * rng.random(40)
    prods = a2_ball_products(spec, centers, radii)
    assert np.all(prods >= 1.0 - 1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_centered_ball_product_analytic(monkeypatch, dim, alpha):
    # ball centered at the weight center: product d^2/((d+a)(d-a))
    spec = WeightSpec([np.full(dim, 0.5)], alpha)
    exact = centered_ball_a2_product(dim, alpha)
    got = a2_ball_products(spec, [np.full(dim, 0.5)], [0.2])[0]
    assert abs(got - exact) / exact < 5e-2
    if dim == 2:
        monkeypatch.setattr(weights, "_A2_POINTS_PER_AXIS", 160)
        fine = a2_ball_products(spec, [np.full(dim, 0.5)], [0.2])[0]
        assert abs(fine - exact) / exact < 1e-2
        assert abs(fine - exact) < abs(got - exact)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_single_center_duality(alpha):
    centers, radii = default_ball_family(2, [0.3, 0.6])
    plus = estimate_a2(WeightSpec([[0.3, 0.6]], alpha), centers, radii)
    minus = estimate_a2(WeightSpec([[0.3, 0.6]], -alpha), centers, radii)
    assert abs(plus - minus) / plus < 1e-12


def test_ball_family_layout():
    centers, radii = default_ball_family(3, [0.5, 0.5, 0.5], count=9)
    assert centers.shape == (9, 3)
    assert radii.shape == (9,)
    assert np.all(radii > 0)
    assert radii.max() == 0.4
    assert np.array_equal(centers[0], [0.5, 0.5, 0.5])
    assert np.array_equal(centers[2], [0.5, 0.5, 0.5])
    # odd entries are offset by half a radius along a cycling axis
    assert abs(centers[1, 1] - (0.5 + 0.5 * radii[1])) < 1e-15
    assert abs(centers[3, 0] - (0.5 + 0.5 * radii[3])) < 1e-15
    assert centers[3, 1] == 0.5 and centers[3, 2] == 0.5


def test_a2_estimator_validation():
    spec = WeightSpec([[0.5, 0.5]], 1.0)
    with pytest.raises(ValueError):
        a2_ball_products(spec, np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        a2_ball_products(spec, [[0.5, 0.5]], [0.1, 0.2])
    with pytest.raises(ValueError):
        a2_ball_products(spec, [[0.5, 0.5]], [0.0])
    with pytest.raises(ValueError):
        default_ball_family(2, [0.5, 0.5], count=0)
    with pytest.raises(ValueError):
        default_ball_family(2, [0.5, 0.5, 0.5])


@st.composite
def _points_and_centers(draw):
    """d in {2, 3}, K in {1, 2, 3} centers, and points of which some sit
    on a center."""
    dim = draw(st.sampled_from([2, 3]))
    coords = st.floats(-2.0, 3.0, allow_nan=False)
    centers = np.array(draw(st.lists(
        st.lists(coords, min_size=dim, max_size=dim), min_size=1,
        max_size=3)))
    points = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                           min_size=1, max_size=6))
    points += [list(centers[k]) for k in draw(st.lists(
        st.integers(0, len(centers) - 1), max_size=3))]
    return np.array(points), centers


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_points_and_centers())
def test_distances_have_the_bits_of_the_summed_squares(case):
    pts, centers = case
    diff = pts[:, None, :] - centers[None, :, :]
    want = np.sqrt((diff * diff).sum(axis=-1))
    got = _distances(pts, centers)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
