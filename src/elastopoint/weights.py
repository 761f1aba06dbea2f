"""Power-of-distance Muckenhoupt weights and weighted quantities.

The weight is rho_alpha(x) = max_k |x - x_k|^alpha over a nonempty set
of centers, with alpha strictly between -d and d. The formula is
implemented verbatim; note that for alpha < 0 and several centers the
max of powers equals the distance to the NEAREST center raised to
alpha, which differs from the alpha-th power of the largest distance.

The A2 ball means of a one-center weight are exact: the flux of
(x - x_0) |x - x_0|^beta through a ball's sphere is (d + beta) times the
ball integral of |x - x_0|^beta (Lasserre, Proc. AMS 1998), a closed
form in 3D and a 128-node Fejer sum in 2D. With several
centers the means are sampled on a midpoint grid.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import cell_volumes, cells_containing_point
from .quadrature import simplex_rule

# barely-touching split pieces are dropped
_PIECE_TOL = 1e-14
# midpoint-grid nodes per axis of each ball in a2_ball_products with
# several centers
_A2_POINTS_PER_AXIS = 24
# nodes of the 2D flux integral in _unit_ball_means
_A2_FLUX_NODES = 128
# cap of the sinh-map range T of the 2D flux integral, which is infinite
# with the weight center on the circle: the capped map is linear below
# u = (pi/2) / sinh(40) = 1.3e-17, where the flux integrand, of order
# u^(beta + 2) there, adds less than 1e-17
_A2_SINH_RANGE = 40.0


@dataclass(frozen=True)
class WeightSpec:
    """Centers and exponent of rho_alpha, d = 2 or 3; alpha must lie in
    (-d, d)."""

    centers: np.ndarray
    alpha: float

    def __post_init__(self):
        ctr = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if ctr.ndim != 2 or ctr.shape[0] < 1:
            raise ValueError("centers must be a nonempty (K, d) array")
        if ctr.shape[1] not in (2, 3):
            raise ValueError("weight centers must have 2 or 3 coordinates, "
                             "got %d" % ctr.shape[1])
        bad = ~np.all(np.isfinite(ctr), axis=1)
        if np.any(bad):
            raise ValueError("weight center %s is not finite"
                             % (ctr[bad][0].tolist(),))
        d = ctr.shape[1]
        if not (-d < self.alpha < d):
            raise ValueError("alpha must lie strictly in (-%d, %d), got %r"
                             % (d, d, self.alpha))
        object.__setattr__(self, "centers", ctr)

    @property
    def dim(self):
        return self.centers.shape[1]


def _distances(pts, centers):
    """Euclidean distances of (m, d) points to (K, d) centers, (m, K).

    The squares are added one coordinate at a time, in axis order: the
    sum that (diff * diff).sum(axis=-1) forms for d <= 3, bit for bit,
    without the (m, K, d) difference array.
    """
    diff = pts[:, 0, None] - centers[:, 0]
    sq = diff * diff
    for k in range(1, pts.shape[1]):
        diff = pts[:, k, None] - centers[:, k]
        sq += diff * diff
    return np.sqrt(sq, out=sq)


def _eval_many(spec, pts):
    """Weight values at an (m, d) array of points.

    Raises ValueError when alpha < 0 and a point coincides with a
    center (pole).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    dist = _distances(pts, spec.centers)
    if spec.alpha < 0 and np.any(dist == 0.0):
        raise ValueError("weight pole: evaluation at a center with "
                         "alpha < 0")
    if spec.alpha == 0.0:
        return np.ones(pts.shape[0])
    return (dist ** spec.alpha).max(axis=1)


def _singular_cells(mesh, spec):
    """Cells whose closure contains a weight center.

    Returns {cell_index: barycentric coords of the center}. Two distinct
    centers in one cell closure raise ValueError unless alpha is zero:
    the split about one would leave the other's pole to plain quadrature.
    """
    found = {}
    for ctr in spec.centers:
        if np.any(ctr < -1e-12) or np.any(ctr > 1.0 + 1e-12):
            continue
        for loc in cells_containing_point(mesh, ctr):
            first = found.setdefault(loc.cell_index, (ctr, loc.barycentric))
            if spec.alpha != 0.0 and not np.array_equal(first[0], ctr):
                raise ValueError(
                    "weight centers %s and %s share cell %d; refine the "
                    "mesh until each cell holds at most one center"
                    % (first[0].tolist(), ctr.tolist(), loc.cell_index))
    return {ci: bary for ci, (_, bary) in found.items()}


def _split_pieces(center_bary, rule_bary):
    """Split a cell about an interior point, in parent barycentrics.

    Piece j replaces vertex j by the point; its volume fraction is the
    point's j-th barycentric coordinate. Degenerate pieces (point on
    the opposite face) are dropped. Yields (fraction, nodes) with nodes
    the quadrature rule mapped into parent barycentric coordinates.
    """
    m = len(center_bary)
    for j in range(m):
        frac = float(center_bary[j])
        if frac <= _PIECE_TOL:
            continue
        V = np.eye(m)
        V[j] = center_bary
        yield frac, rule_bary @ V


def cell_weight_integrals(mesh, spec):
    """Integral of the weight over every cell, shape (nc,).

    Every cell is integrated with the degree-4 rule; cells touching a
    center are split once about it, one rule per piece, so that no node
    lands on the singularity.
    """
    if spec.dim != mesh.dim:
        raise ValueError("weight dimension %d does not match mesh dimension"
                         " %d" % (spec.dim, mesh.dim))
    verts = mesh.vertices[mesh.cells]
    rule, qw = simplex_rule(mesh.dim)

    def quadrature(bary, cells):
        # rule nodes given in parent barycentrics of the selected cells
        pts = np.einsum("qi,xid->xqd", bary, verts[cells])
        vals = _eval_many(spec, pts.reshape(-1, mesh.dim))
        return vals.reshape(pts.shape[:2]) @ qw

    out = quadrature(rule, slice(None))
    for ci, cb in _singular_cells(mesh, spec).items():
        out[ci] = sum(frac * quadrature(nodes, [ci])[0]
                      for frac, nodes in _split_pieces(cb, rule))
    return cell_volumes(mesh) * out


@functools.cache
def _flux_nodes():
    """Nodes and weights on [0, 1] of Fejer's first rule with
    _A2_FLUX_NODES nodes (Waldvogel, BIT 2006), made on first use from
    cosines alone; the arrays are shared, so callers do not write to
    them."""
    n = _A2_FLUX_NODES
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    j = np.arange(1, n // 2 + 1)
    w = 1.0 - 2.0 * (np.cos(2.0 * np.outer(theta, j)) / (4.0 * j * j - 1.0)
                     ).sum(axis=1)
    return 0.5 * (1.0 + np.cos(theta)), w / n


def _unit_ball_means(dim, t):
    """beta -> means of |x|^beta over the balls of radius 1 centered at
    distances t (an array) from the origin, for beta in (-dim, dim).

    div(x |x|^beta) = (d + beta) |x|^beta, so (d + beta) times a ball's
    integral is the flux of x |x|^beta through its sphere, where
    x . n = (s + 1 - t^2) / 2 with s = |x|^2. The flux is axisymmetric
    about the line through the origin and the ball's center.
    - 3D: the sphere's area is uniform in s, so the flux is
      (pi / (2 t)) int (s + 1 - t^2) s^(beta/2) ds over
      [(1 - t)^2, (1 + t)^2], in closed form with a log at beta = -2;
      expm1 keeps it accurate for small t.
    - 2D: with the angle 2u from the point nearest the origin,
      s = (1 - t)^2 + 4 t sin^2 u and the flux is
      4 int (1 - t + 2 t sin^2 u) s^(beta/2) du over [0, pi/2]. It is
      near-singular at u = 0 within eps = |1 - t| / (2 sqrt t) when the
      origin lies near the circle, so u = (pi/2) sinh(T y) / sinh(T),
      T = asinh(pi / (2 eps)), spreads the _A2_FLUX_NODES nodes of
      Fejer's first rule in y over every scale from eps to pi/2.
      Measured against 30-digit quadrature for beta across (-2, 2):
      within 5.8e-12 relative for t from 0 to 1000, the circle itself
      and a float64 step off it included, and within 2e-16 for
      t = 0.5 (64 nodes: 3e-8 near the circle). Gauss-Legendre nodes
      would cost numpy.polynomial's import and leggauss, 5 ms a process.
    """
    if dim == 3:
        near = np.minimum(t, 1.0)
        with np.errstate(divide="ignore"):
            # log(s1 / s0) of the range [s0, s1] of s
            span = 2.0 * np.log1p(2.0 * near / np.abs(1.0 - t))
        top = (1.0 + t) ** 2
        gap = (1.0 - t) * (1.0 + t)

        def integral(p):
            # int s^(p - 1) ds over the range
            if p == 0.0:
                return span
            return top ** p * -np.expm1(-p * span) / p

        def means(beta):
            with np.errstate(divide="ignore", invalid="ignore"):
                # the second term vanishes with the origin on the sphere
                low = np.where(gap == 0.0, 0.0,
                               gap * integral(beta / 2.0 + 1.0))
                flux = integral(beta / 2.0 + 2.0) + low
                mean = 3.0 * flux / (8.0 * t * (3.0 + beta))
            return np.where(t == 0.0, 3.0 / (3.0 + beta), mean)
        return means

    y, w = _flux_nodes()
    with np.errstate(divide="ignore"):
        span = np.arcsinh(math.pi * np.sqrt(t) / np.abs(1.0 - t))
    # below eps (t < 1e-32) the map is u = (pi/2) y to roundoff
    span = np.clip(span, np.finfo(float).eps, _A2_SINH_RANGE)[:, None]
    scale = np.sinh(span)
    u = (math.pi / 2.0) * np.sinh(span * y) / scale
    # the weights of du times 4 / pi
    jac = 2.0 * span * np.cosh(span * y) / scale * w
    sin2 = np.sin(u) ** 2
    t = t[:, None]
    normal = jac * (1.0 - t + 2.0 * t * sin2)
    s = (1.0 - t) ** 2 + 4.0 * t * sin2

    def means(beta):
        return (normal * s ** (beta / 2.0)).sum(axis=1) / (2.0 + beta)
    return means


def _sampled_ball_products(spec, centers, radii):
    """a2_ball_products on a midpoint grid of _A2_POINTS_PER_AXIS nodes
    per axis in each ball; nodes on a weight center are left out."""
    m = _A2_POINTS_PER_AXIS
    d = spec.dim

    offsets = (np.arange(m) + 0.5) / m * 2.0 - 1.0
    axes = np.meshgrid(*([offsets] * d), indexing="ij")
    unit = np.stack([a.ravel() for a in axes], axis=1)
    inside = (unit * unit).sum(axis=1) <= 1.0
    unit = unit[inside]

    out = np.empty(centers.shape[0])
    for i, (c, r) in enumerate(zip(centers, radii)):
        dist = _distances(c[None, :] + r * unit, spec.centers)
        ok = np.all(dist > 0.0, axis=1)
        if spec.alpha == 0.0:
            w = np.ones(int(ok.sum()))
        else:
            w = (dist[ok] ** spec.alpha).max(axis=1)
        if w.size == 0:
            raise ValueError("no usable quadrature nodes in ball %d" % i)
        out[i] = float(w.mean() * (1.0 / w).mean())
    return out


def a2_ball_products(spec, ball_centers, radii):
    """Per-ball products mean(w) * mean(1/w), shape (n_balls,).

    With one weight center the means are exact
    (_unit_ball_means: a closed form in 3D, a quadrature within about
    6e-12 in 2D); the product depends only on the ratio of the center's
    distance to the radius, and alpha = 0 gives exactly 1.0. Otherwise
    each ball is sampled on a deterministic midpoint
    grid with _A2_POINTS_PER_AXIS nodes per axis, restricted to the
    ball; both means use the same nodes, so every product is >= 1 up to
    roundoff, and nodes falling exactly on a weight center (where w or
    1/w is undefined) are excluded from both means.
    """
    centers = np.atleast_2d(np.asarray(ball_centers, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if centers.shape[0] == 0:
        raise ValueError("empty ball family")
    if centers.ndim != 2 or centers.shape[1] != spec.dim:
        raise ValueError("ball centers must have the weight's %d "
                         "coordinates" % spec.dim)
    if not np.all(np.isfinite(centers)):
        raise ValueError("ball centers must be finite")
    if centers.shape[0] != radii.shape[0]:
        raise ValueError("ball centers and radii must have equal length")
    if not np.all((radii > 0) & np.isfinite(radii)):
        raise ValueError("ball radii must be positive and finite")
    if spec.centers.shape[0] > 1:
        return _sampled_ball_products(spec, centers, radii)
    if spec.alpha == 0.0:
        return np.ones(centers.shape[0])
    means = _unit_ball_means(spec.dim,
                             _distances(centers, spec.centers)[:, 0] / radii)
    return means(spec.alpha) * means(-spec.alpha)


def estimate_a2(spec, ball_centers, radii):
    """Lower bound of the Muckenhoupt characteristic.

    Maximum of the per-ball mean products over the given family (exact
    means with one center, sampled with several); a lower bound of the
    true supremum over all balls.
    """
    return float(a2_ball_products(spec, ball_centers, radii).max())


def default_ball_family(dim, focus, count=50):
    """Deterministic ball family probing a neighborhood of `focus`.

    Over a geometric range of radii r, ball i is offset from the focus
    along a cycling axis by t_i r, with the ratio t_i = 3 i / (count - 1)
    swept over [0, 3]: with one weight center the ball product depends
    on that ratio alone and peaks near t = 0.8 to 1. Meant as the
    standard family for A2 estimates around a weight center.
    """
    focus = np.asarray(focus, dtype=float).reshape(-1)
    if focus.shape != (dim,):
        raise ValueError("focus must have %d coordinates" % dim)
    if count < 1:
        raise ValueError("count must be >= 1")
    centers = np.empty((count, dim))
    radii = np.empty(count)
    for i in range(count):
        r = 0.4 * 0.85 ** (i // 2)
        e = np.zeros(dim)
        e[i % dim] = 1.0
        centers[i] = focus + 3.0 * i / max(count - 1, 1) * r * e
        radii[i] = r
    return centers, radii
