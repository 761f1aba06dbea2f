"""Power-of-distance Muckenhoupt weights and weighted quantities.

The weight is rho_alpha(x) = max_k |x - x_k|^alpha over a nonempty set
of centers, with alpha strictly between -d and d. The formula is
implemented verbatim; note that for alpha < 0 and several centers the
max of powers equals the distance to the NEAREST center raised to
alpha, which differs from the alpha-th power of the largest distance.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import cell_geometry, cell_volumes, cells_containing_point
from .quadrature import simplex_rule

# barely-touching split pieces are dropped
_PIECE_TOL = 1e-14
# midpoint-grid nodes per axis of each ball in a2_ball_products
_A2_POINTS_PER_AXIS = 24


@dataclass(frozen=True)
class WeightSpec:
    """Centers and exponent of rho_alpha; alpha must lie in (-d, d)."""

    centers: np.ndarray
    alpha: float

    def __post_init__(self):
        ctr = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if ctr.ndim != 2 or ctr.shape[0] < 1:
            raise ValueError("centers must be a nonempty (K, d) array")
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
    wints = cell_weight_integrals(mesh, spec)
    return float(gnorm2 @ wints)


def a2_ball_products(spec, ball_centers, radii):
    """Per-ball products mean(w) * mean(1/w), shape (n_balls,).

    Each ball is sampled on a deterministic midpoint grid with
    _A2_POINTS_PER_AXIS nodes per axis, restricted to the ball. Both
    means use the same nodes, so every product is >= 1 up to roundoff.
    Nodes falling exactly on a weight center (where w or 1/w is
    undefined) are excluded from both means.
    """
    centers = np.atleast_2d(np.asarray(ball_centers, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if centers.shape[0] == 0:
        raise ValueError("empty ball family")
    if centers.shape[0] != radii.shape[0]:
        raise ValueError("ball centers and radii must have equal length")
    if np.any(radii <= 0):
        raise ValueError("ball radii must be positive")
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


def estimate_a2(spec, ball_centers, radii):
    """Sampled lower bound of the Muckenhoupt characteristic.

    Maximum of the per-ball mean products over the given family; a
    lower bound of the true supremum over all balls.
    """
    return float(a2_ball_products(spec, ball_centers, radii).max())


def default_ball_family(dim, focus, count=50):
    """Deterministic ball family probing a neighborhood of `focus`.

    Alternates balls centered at the focus with balls offset by half
    a radius, over a geometric range of radii. Meant as the standard
    family for A2 estimates around a weight center.
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
        centers[i] = focus if i % 2 == 0 else focus + 0.5 * r * e
        radii[i] = r
    return centers, radii
