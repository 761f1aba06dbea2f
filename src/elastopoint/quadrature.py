"""The one quadrature rule on the reference simplices, exact to degree 4.

Every cellwise integral (load vectors, L2 errors, weight integrals and
the split pieces about a weight center) uses it. Nodes are given in
barycentric coordinates with weights summing to one, so an integral
over a simplex T is |T| * sum_q w_q f(x_q). All nodes are strictly
interior so that integrands with point singularities at simplex
vertices stay finite.
"""

import numpy as np

# triangle, degree 4 (Dunavant 6-point)
_TRI4_A = 0.445948490915965
_TRI4_WA = 0.223381589678011
_TRI4_B = 0.091576213509771
_TRI4_WB = 0.109951743655322

# tetrahedron, degree 5 (14-point, positive weights)
_TET5_S31_A1 = 0.0927352503108912
_TET5_W1 = 0.0734930431163619
_TET5_S31_A2 = 0.3108859192633005
_TET5_W2 = 0.1126879257180162
_TET5_S22_B = 0.0455037041256497
_TET5_W3 = 0.0425460207770812


def _s31(a):
    """Four barycentric permutations of (a, a, a, 1 - 3a)."""
    pts = np.full((4, 4), a)
    for i in range(4):
        pts[i, i] = 1.0 - 3.0 * a
    return pts


def _s22(b):
    """Six barycentric permutations of (b, b, 1/2 - b, 1/2 - b)."""
    c = 0.5 - b
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            p = np.full(4, c)
            p[i] = b
            p[j] = b
            out.append(p)
    return np.array(out)


def simplex_rule(dim):
    """The degree-4 quadrature rule on the reference simplex.

    Parameters
    ----------
    dim : int
        Simplex dimension, 2 or 3.

    Returns
    -------
    bary : ndarray, shape (nq, dim + 1)
        Barycentric coordinates of the nodes, rows summing to one,
        all entries strictly positive.
    weights : ndarray, shape (nq,)
        Weights summing to one (reference measure normalized out).
    """
    if dim == 2:
        a, b = _TRI4_A, _TRI4_B
        bary = np.array([
            [1.0 - 2.0 * a, a, a],
            [a, 1.0 - 2.0 * a, a],
            [a, a, 1.0 - 2.0 * a],
            [1.0 - 2.0 * b, b, b],
            [b, 1.0 - 2.0 * b, b],
            [b, b, 1.0 - 2.0 * b],
        ])
        return bary, np.array([_TRI4_WA] * 3 + [_TRI4_WB] * 3)
    if dim == 3:
        bary = np.vstack([_s31(_TET5_S31_A1), _s31(_TET5_S31_A2),
                          _s22(_TET5_S22_B)])
        return bary, np.concatenate([np.full(4, _TET5_W1),
                                     np.full(4, _TET5_W2),
                                     np.full(6, _TET5_W3)])
    raise ValueError("dim must be 2 or 3, got %r" % (dim,))
