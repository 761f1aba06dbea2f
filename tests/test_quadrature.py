import itertools

import numpy as np
import pytest

from elastopoint.quadrature import simplex_rule

from oracles import simplex_monomial_integral


def _reference_points(dim, bary):
    # reference simplex vertices: origin plus unit basis vectors
    verts = np.vstack([np.zeros(dim), np.eye(dim)])
    return bary @ verts


@pytest.mark.parametrize("dim", [2, 3])
def test_rule_is_a_partition(dim):
    bary, weights = simplex_rule(dim)
    assert bary.shape == (weights.size, dim + 1)
    assert abs(weights.sum() - 1.0) < 1e-14
    assert np.all(weights > 0)
    assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-14)
    # nodes strictly inside the simplex
    assert np.all(bary > 0)
    assert np.all(bary < 1)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_monomial_exactness(dim, degree):
    # every monomial of total degree `degree` is integrated exactly
    bary, weights = simplex_rule(dim)
    pts = _reference_points(dim, bary)
    vol = simplex_monomial_integral([0] * dim)
    for exps in itertools.product(range(degree + 1), repeat=dim):
        if sum(exps) != degree:
            continue
        vals = np.prod(pts ** np.array(exps), axis=1)
        approx = vol * float(weights @ vals)
        exact = simplex_monomial_integral(exps)
        assert abs(approx - exact) < 1e-14, (exps, approx, exact)


@pytest.mark.parametrize("dim", [2, 3])
def test_order4_rule_is_degree_four(dim):
    # x^4, the highest advertised degree
    bary, weights = simplex_rule(dim)
    pts = _reference_points(dim, bary)
    vol = simplex_monomial_integral([0] * dim)
    exps = [4] + [0] * (dim - 1)
    vals = np.prod(pts ** np.array(exps), axis=1)
    assert abs(vol * float(weights @ vals) - simplex_monomial_integral(exps)) < 1e-14


def test_invalid_arguments():
    with pytest.raises(ValueError):
        simplex_rule(1)
    with pytest.raises(ValueError):
        simplex_rule(4)
