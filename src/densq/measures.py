"""Discrete measures in R^d: generators, spatial index, exact ball-mass queries.

A measure is a finite list of weighted atoms. All ball queries use the closed
convention |x_i - c| <= r, compared in squared distance so that the spatial
index and a brute-force scan select exactly the same atoms.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_POINT_BUDGET = 2_000_000

# pairs per chunk of a pairwise pass (summed over the value arrays a shell pass
# bins together): bounds the temporaries, and moves no result
_CHUNK_CELLS = 2 ** 21

# relative and absolute slack of the smallest enclosing ball's containment test
_ENCLOSING_TOL = 1e-12

class PointBudgetError(ValueError):
    """Generator would emit more atoms than the configured budget."""


@dataclass(frozen=True)
class SegmentLattice:
    """Atoms of one straight segment: sorted arc offsets from `origin` along `direction`.

    Uniform weight per atom. Lets ball masses be computed by interval counting
    (two binary searches per segment) instead of point-by-point distances.
    """

    origin: np.ndarray
    direction: np.ndarray  # unit vector
    arcs: np.ndarray       # sorted, ascending
    weight: float
    length: float


class WeightedPointMeasure:
    """Finite atomic approximation of a Radon measure: N points with positive weights.

    Immutable after construction; duplicate points are merged (weights added).
    Caches min_spacing, the smallest enclosing ball, and per-atom farthest
    distances lazily.
    """

    def __init__(self, points, weights, segments: list[SegmentLattice] | None = None):
        points = np.atleast_2d(np.asarray(points, dtype=float)) + 0.0
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need at least one atom with coordinate vectors")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must match points one-to-one")
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite coordinate")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("weights must be positive and finite")
        points, weights, merged = _merge_duplicates(points, weights)
        self.points = points
        self.weights = weights
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        self.total_mass = math.fsum(weights.tolist())
        # merging invalidates the per-segment atom layout
        self.segments = None if merged else segments
        self._index: BallIndex | None = None
        self._min_spacing: float | None = None
        self._farthest: np.ndarray | None = None

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def min_spacing(self) -> float:
        """Smallest pairwise distance; 0.0 for a single atom (no pairs, all
        scales count as resolved)."""
        if self._min_spacing is None:
            if self.n_atoms == 1:
                self._min_spacing = 0.0
            else:
                d, _ = self.ball_index().tree.query(self.points, k=2)
                self._min_spacing = float(d[:, 1].min())
        return self._min_spacing

    @functools.cached_property
    def _support(self) -> tuple[np.ndarray, float]:
        return _min_enclosing_ball(self.points)

    @property
    def support_center(self) -> np.ndarray:
        return self._support[0]

    @property
    def support_radius(self) -> float:
        """Radius of the smallest enclosing ball of the atoms."""
        return self._support[1]

    def ball_index(self) -> "BallIndex":
        if self._index is None:
            self._index = BallIndex(self)
        return self._index

    def farthest_distances(self) -> np.ndarray:
        """Per atom i, max_j |x_j - x_i|: the radius beyond which a ball at x_i
        contains the whole support.

        The farthest atom is a vertex of the convex hull, so only hull vertices
        are scanned; flat or degenerate sets scan every atom.
        """
        if self._farthest is None:
            if self.segments is not None:
                self._farthest = _segment_farthest(self.segments, self.points)
            else:
                cand = _hull_vertices(self.points)
                if cand is None:
                    cand = self.points
                n = self.n_atoms
                out = np.empty(n)
                step = max(1, min(n, _CHUNK_CELLS // len(cand)))
                for a in range(0, n, step):
                    d2 = ((self.points[a:a + step, None, :]
                           - cand[None, :, :]) ** 2).sum(-1)
                    out[a:a + step] = d2.max(axis=1)
                self._farthest = np.sqrt(out)
        return self._farthest

    @property
    def support_diameter(self) -> float:
        return float(self.farthest_distances().max())

    def save_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow([f"x{i}" for i in range(self.dim)] + ["w"])
            for p, w in zip(self.points, self.weights):
                wr.writerow([repr(float(v)) for v in p] + [repr(float(w))])

    @classmethod
    def load_csv(cls, path: str | Path) -> "WeightedPointMeasure":
        """Read a measure written by `save_csv`.

        The file holds atoms only, so a generated curve comes back without its
        segment layout: its ball masses run on the radial-shell engine instead
        of interval counting, which counts the same atoms but sums the weights
        in another order, so energy totals can differ in the last bits.
        """
        path = Path(path)
        with path.open(newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            if not header or header[-1] != "w" or len(header) < 2:
                raise ValueError(f"{path}: expected header x0,...,w")
            dim = len(header) - 1
            pts, ws = [], []
            for row in rd:
                if not row:
                    continue
                if len(row) != dim + 1:
                    raise ValueError(f"{path}: row with {len(row)} fields, expected {dim + 1}")
                pts.append([float(v) for v in row[:dim]])
                ws.append(float(row[dim]))
        return cls(np.array(pts), np.array(ws))


def _merge_duplicates(points, weights):
    """Merge exactly-equal points (first-occurrence order), summing weights in
    index order."""
    order = np.lexsort(points.T)
    ps = points[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ps[1:] != ps[:-1]).any(axis=1)
    if new.all():
        return points, weights, False
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]       # lexsort is stable: each group's lowest index
    by_first = np.argsort(first)
    merged_w = np.zeros(len(first))
    np.add.at(merged_w, inverse, weights)
    return points[first[by_first]], merged_w[by_first], True


def _hull_vertices(points):
    """Convex-hull vertices of a full-dimensional 2-d or 3-d set, counterclockwise
    in 2-d; None when the hull is degenerate (flat, collinear, too few points),
    for 1-d sets, and above 3-d, where the hull's facet count can grow like
    N^(d/2)."""
    if points.shape[1] not in (2, 3):
        return None
    from scipy.spatial import ConvexHull, QhullError
    try:
        return points[ConvexHull(points).vertices]
    except (QhullError, ValueError):
        return None


class BallIndex:
    """KD-tree accelerated, exactness-preserving closed-ball queries.

    The tree only prunes; membership is always decided by the same
    squared-distance comparison a brute-force scan would use. The index holds
    the measure's arrays, not the measure, so the two form no reference cycle.
    """

    def __init__(self, measure: WeightedPointMeasure):
        from scipy.spatial import cKDTree
        self.points = measure.points
        self.weights = measure.weights
        self.tree = cKDTree(measure.points)

    def _candidates(self, center, r_outer: float):
        """(ascending indices, squared distances) of the atoms the tree finds
        within a slightly padded r_outer of center."""
        center = np.asarray(center, dtype=float).reshape(-1)
        if center.shape[0] != self.points.shape[1]:
            raise ValueError(f"center has dim {center.shape[0]}, "
                             f"measure dim {self.points.shape[1]}")
        cand = np.array(self.tree.query_ball_point(center, r_outer * (1.0 + 1e-9)),
                        dtype=np.intp)
        cand.sort()
        return cand, ((self.points[cand] - center) ** 2).sum(axis=1)

    def ball_atoms(self, center, r: float) -> np.ndarray:
        """Indices of atoms with |x_i - center| <= r (closed ball)."""
        if not r >= 0:
            raise ValueError(f"radius must be nonnegative (and not nan); got {r}")
        cand, d2 = self._candidates(center, r)
        return cand[d2 <= r * r]

    def mass_in_ball(self, center, r: float) -> float:
        idx = self.ball_atoms(center, r)
        return float(self.weights[idx].sum())

    def annulus_atoms(self, center, r_inner: float, r_outer: float) -> np.ndarray:
        """Atoms with r_inner < |x_i - center| <= r_outer."""
        if not 0 <= r_inner <= r_outer:
            raise ValueError("need 0 <= r_inner <= r_outer")
        cand, d2 = self._candidates(center, r_outer)
        return cand[(d2 > r_inner * r_inner) & (d2 <= r_outer * r_outer)]


def mass_in_ball(index: BallIndex, center, r: float) -> float:
    """Total weight of atoms in the closed ball B(center, r)."""
    return index.mass_in_ball(center, r)


def ball_masses(measure: WeightedPointMeasure, centers: np.ndarray,
                radii: np.ndarray) -> np.ndarray:
    """(n_centers, n_radii) matrix of closed-ball masses.

    Dispatches to interval counting for segment-lattice measures, otherwise to
    a chunked radial-shell pass (`_shell_sums`) that sums the weights shell by
    shell. Both use the |x-c|^2 <= r^2 predicate.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii >= 0):
        raise ValueError("radii must be nonnegative (and not nan)")
    if measure.segments is not None:
        return _segment_ball_masses(measure.segments, centers, radii)
    w = measure.weights
    return _shell_sums(measure.points, centers, radii, lambda diff, d2: [w], 1)[0]


def _shell_sums(points, centers, radii, values, n_values):
    """Sums of per-(center, atom) values over closed balls, from one pass.

    `values(diff, d2)` gets one chunk of centers: `diff[k]` holds the k-th
    coordinate of x_atom - center and `d2` the squared distances, each of shape
    (chunk, n_atoms); it returns `n_values` arrays of that shape (or
    broadcastable to it). The result has shape (n_values, n_centers, n_radii):
    entry [v, i, j] sums values[v][i, a] over the atoms a with d2 <= r_j^2.

    Each atom falls in the shell of the first sorted radius it lies within
    (`searchsorted(r2, d2, side="left")`, exactly the predicate d2 <= r^2, ties
    included); the values are binned per shell and summed outward.
    """
    radii = np.asarray(radii, dtype=float)
    r2 = radii * radii
    order = np.argsort(r2, kind="stable")
    r2s = r2[order]
    m, (n, dim) = len(radii), centers.shape
    out = np.empty((n_values, n, m))
    step = max(1, min(n, _CHUNK_CELLS // (points.shape[0] * n_values)))
    for a in range(0, n, step):
        c = centers[a:a + step]
        rows = len(c)
        diff = [points[None, :, k] - c[:, k, None] for k in range(dim)]
        # one coordinate at a time rounds exactly as .sum(-1) does, which the
        # ball index and brute-force scans use, without its slow strided reduce
        d2 = diff[0] ** 2
        for dk in diff[1:]:
            d2 += dk ** 2
        shell = np.searchsorted(r2s, d2, side="left")
        shell += (np.arange(rows) * (m + 1))[:, None]
        shell = shell.ravel()
        for v, val in enumerate(values(diff, d2)):
            bins = np.bincount(shell, weights=np.broadcast_to(val, d2.shape).ravel(),
                               minlength=rows * (m + 1)).reshape(rows, m + 1)
            out[v, a:a + rows][:, order] = np.cumsum(bins[:, :m], axis=1)
    return out


def _segment_foot(sg, centers):
    """(t0, p2) per center: the arc offset of its foot on the segment's line,
    and its squared distance from that line."""
    rel = centers - sg.origin[None, :]
    t0 = rel @ sg.direction
    return t0, np.clip((rel ** 2).sum(axis=1) - t0 ** 2, 0.0, None)


def _segment_ball_masses(segments, centers, radii):
    out = np.zeros((centers.shape[0], len(radii)))
    for sg in segments:
        t0, p2 = _segment_foot(sg, centers)
        for j, r in enumerate(radii):
            # u2 < 0: the ball misses the line (u = 0 only keeps the root real)
            u2 = r * r - p2
            u = np.sqrt(np.maximum(u2, 0.0))
            lo = np.searchsorted(sg.arcs, t0 - u, side="left")
            hi = np.searchsorted(sg.arcs, t0 + u, side="right")
            out[:, j] += np.where(u2 >= 0.0, sg.weight * (hi - lo), 0.0)
    return out


def _segment_farthest(segments, centers):
    """Farthest atom distance per center; the farthest atom of a segment is its
    first or last one."""
    best = np.zeros(centers.shape[0])
    for sg in segments:
        t0, p2 = _segment_foot(sg, centers)
        for t_end in (sg.arcs[0], sg.arcs[-1]):
            d2 = (t_end - t0) ** 2 + p2
            np.maximum(best, d2, out=best)
    return np.sqrt(best)


# ---------------------------------------------------------------------------
# smallest enclosing ball (exact, randomized incremental)

def _circumsphere(support):
    p0 = support[0]
    if len(support) == 1:
        return p0.copy(), 0.0
    A = 2.0 * (support[1:] - p0)
    b = ((support[1:] - p0) ** 2).sum(axis=1)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = p0 + x
    r = float(np.sqrt(((support - center) ** 2).sum(axis=1).max()))
    return center, r


def _min_enclosing_ball(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if n == 1:
        return pts[0].copy(), 0.0
    rng = np.random.default_rng(0)
    pts = pts[rng.permutation(n)]

    def mb(upto: int, boundary: list[np.ndarray]):
        if boundary:
            c, r = _circumsphere(np.array(boundary))
        else:
            c, r = pts[0].copy(), 0.0
        if len(boundary) == d + 1:
            return c, r
        i = 0
        while i < upto:
            d2 = ((pts[i:upto] - c) ** 2).sum(axis=1)
            viol = np.flatnonzero(d2 > (r * (1.0 + _ENCLOSING_TOL)) ** 2 + _ENCLOSING_TOL)
            if viol.size == 0:
                return c, r
            j = i + int(viol[0])
            c, r = mb(j, boundary + [pts[j]])
            i = j + 1
        return c, r

    return mb(n, [])


# ---------------------------------------------------------------------------
# generators

def build_cantor(dim: int, s_target: float, depth: int, branching: int | None = None,
                 point_budget: int = DEFAULT_POINT_BUDGET) -> WeightedPointMeasure:
    """Self-similar corner Cantor construction in the unit cube.

    Generation-`depth` cell centers, each with weight branching^(-depth);
    contraction ratio lambda = branching^(-1/s_target) so that the s-density of
    generation cells is constant across generations.
    """
    if dim < 1 or depth < 0:
        raise ValueError("need dim >= 1 and depth >= 0")
    if branching is None:
        branching = 2 ** dim
    if not (1 < branching <= 2 ** dim):
        raise ValueError(f"branching must be in [2, 2^dim]; got {branching}")
    if not 0 < s_target < dim:
        raise ValueError(f"s_target must lie in (0, {dim})")
    lam = float(branching) ** (-1.0 / s_target)
    if lam >= 0.5:
        raise ValueError(
            f"contraction ratio {lam:.4f} >= 1/2: cells overlap "
            f"(need s_target < log2(branching) = {math.log2(branching):.4f})")
    n = branching ** depth
    if n > point_budget:
        raise PointBudgetError(f"cantor would emit {n} atoms > budget {point_budget}")
    corners = np.array([[(j >> i) & 1 for i in range(dim)]
                        for j in range(2 ** dim)], dtype=float)[:branching]
    pts = np.zeros((1, dim))
    scale = 1.0
    for _ in range(depth):
        off = corners * (scale * (1.0 - lam))
        pts = (pts[:, None, :] + off[None, :, :]).reshape(-1, dim)
        scale *= lam
    pts = pts + scale / 2.0
    w = np.full(len(pts), float(branching) ** (-depth))
    m = WeightedPointMeasure(pts, w)
    # sibling cell centers: exact nearest-neighbor distance
    if depth >= 1:
        m._min_spacing = (1.0 - lam) * lam ** (depth - 1)
    return m


def build_flat(dim: int, k: int, half_extent: float, spacing: float,
               jitter: float = 0.0, seed: int = 0,
               point_budget: int = DEFAULT_POINT_BUDGET) -> WeightedPointMeasure:
    """Regular k-dimensional lattice on the coordinate k-plane through the origin.

    Each point carries weight spacing^k so ball masses approximate k-dimensional
    Hausdorff measure. Optional jitter displaces points within their lattice
    cell (seeded).
    """
    if not 1 <= k < dim:
        raise ValueError("need 1 <= k < dim")
    if half_extent <= 0 or spacing <= 0:
        raise ValueError("half_extent and spacing must be positive")
    m_side = int(math.floor(half_extent / spacing + 1e-9))
    n = (2 * m_side + 1) ** k
    if n > point_budget:
        raise PointBudgetError(f"flat lattice would emit {n} atoms > budget {point_budget}")
    axis = (np.arange(-m_side, m_side + 1)) * spacing
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    pts = np.zeros((n, dim))
    for i, g in enumerate(grids):
        pts[:, i] = g.reshape(-1)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        pts[:, :k] += rng.uniform(-0.5, 0.5, size=(n, k)) * (jitter * spacing)
    w = np.full(n, spacing ** k)
    segments = None
    if k == 1 and jitter == 0.0:
        origin = np.zeros(dim)
        origin[0] = axis[0]
        direction = np.zeros(dim)
        direction[0] = 1.0
        segments = [SegmentLattice(origin=origin, direction=direction,
                                   arcs=axis - axis[0], weight=spacing,
                                   length=float(axis[-1] - axis[0]))]
    return WeightedPointMeasure(pts, w, segments=segments)


def build_dirac(dim: int, location, mass: float) -> WeightedPointMeasure:
    if mass <= 0:
        raise ValueError("mass must be positive")
    loc = np.asarray(location, dtype=float).reshape(1, -1)
    if loc.shape[1] != dim:
        raise ValueError("location has wrong dimension")
    return WeightedPointMeasure(loc, np.array([mass]))


def _sample_polyline(vertices, spacing, weight_scale=None,
                     point_budget=DEFAULT_POINT_BUDGET):
    """Midpoint arc-length samples per edge; weight = local arc share.

    Mass is conserved exactly per edge: n * (length/n) = length.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if vertices.shape[0] < 2:
        raise ValueError("polyline needs at least two vertices")
    nseg = vertices.shape[0] - 1
    if weight_scale is None:
        weight_scale = [1.0] * nseg
    pts_all, w_all, segments = [], [], []
    total = 0
    for i in range(nseg):
        a, b = vertices[i], vertices[i + 1]
        seg = b - a
        length = float(np.linalg.norm(seg))
        if length <= 0:
            raise ValueError(f"polyline edge {i} has zero length")
        n = max(1, int(math.ceil(length / spacing * (1.0 - 1e-12))))
        total += n
        if total > point_budget:
            raise PointBudgetError(f"polyline would emit > {point_budget} atoms")
        step = length / n
        arcs = (np.arange(n) + 0.5) * step
        direction = seg / length
        pts_all.append(a[None, :] + arcs[:, None] * direction[None, :])
        w_all.append(np.full(n, step * weight_scale[i]))
        segments.append(SegmentLattice(origin=a, direction=direction, arcs=arcs,
                                       weight=step * weight_scale[i], length=length))
    return WeightedPointMeasure(np.concatenate(pts_all), np.concatenate(w_all),
                                segments=segments)


def build_polyline(vertices, spacing: float,
                   point_budget: int = DEFAULT_POINT_BUDGET) -> WeightedPointMeasure:
    """Arc-length measure on a polyline, sampled by midpoints with step ~ spacing."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return _sample_polyline(vertices, spacing, point_budget=point_budget)


def build_gamma_curve(alpha: float, half_extent: float, spacing: float,
                      weighting: str = "hausdorff",
                      point_budget: int = DEFAULT_POINT_BUDGET) -> WeightedPointMeasure:
    """Tent graph: flat on [-L,-1/2] and [1/2,L], slopes +-tan(alpha) on the
    tent of base width 1, apex height tan(alpha)/2.

    weighting='hausdorff' gives arc-length mass; 'mu_alpha' multiplies tent
    sample weights by cos(alpha), making the measure 1-AD regular (the
    projection of the tent mass onto the axis has unit density).
    """
    if not 0 < alpha <= math.pi / 4:
        raise ValueError("alpha must lie in (0, pi/4]")
    if half_extent < 1:
        raise ValueError("half_extent must be >= 1")
    if not 0 < spacing <= 1 / 16:
        raise ValueError("spacing must be in (0, 1/16] to resolve the tent")
    if weighting not in ("hausdorff", "mu_alpha"):
        raise ValueError(f"unknown weighting {weighting!r}")
    apex = 0.5 * math.tan(alpha)
    verts = np.array([[-half_extent, 0.0], [-0.5, 0.0], [0.0, apex],
                      [0.5, 0.0], [half_extent, 0.0]])
    scale = None
    if weighting == "mu_alpha":
        c = math.cos(alpha)
        scale = [1.0, c, c, 1.0]
    return _sample_polyline(verts, spacing, weight_scale=scale,
                            point_budget=point_budget)


# ---------------------------------------------------------------------------
# declarative specs

_SPEC_PARAMS = {
    "cantor": {"dim", "s", "depth", "branching"},
    "flat": {"dim", "k", "half_extent", "spacing", "jitter"},
    "dirac": {"dim", "location", "mass"},
    "polyline": {"vertices", "spacing"},
    "gamma_curve": {"alpha", "half_extent", "spacing"},
    "mu_alpha": {"alpha", "half_extent", "spacing"},
}


@dataclass
class MeasureSpec:
    """Declarative generator configuration; JSON round-trips identically."""

    kind: str
    params: dict
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _SPEC_PARAMS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        unknown = set(self.params) - _SPEC_PARAMS[self.kind]
        if unknown:
            raise ValueError(f"unknown params for kind {self.kind!r}: {sorted(unknown)}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params, "seed": self.seed}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MeasureSpec":
        if not isinstance(obj, dict):
            raise ValueError("measure spec must be a JSON object")
        unknown = set(obj) - {"kind", "params", "seed"}
        if unknown:
            raise ValueError(f"unknown measure spec fields: {sorted(unknown)}")
        if "kind" not in obj or "params" not in obj:
            raise ValueError("measure spec needs 'kind' and 'params'")
        return cls(kind=obj["kind"], params=dict(obj["params"]),
                   seed=int(obj.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "MeasureSpec":
        return cls.from_json_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def build(self, point_budget: int = DEFAULT_POINT_BUDGET) -> WeightedPointMeasure:
        p = self.params
        if self.kind == "cantor":
            return build_cantor(int(p["dim"]), float(p["s"]), int(p["depth"]),
                                branching=p.get("branching"),
                                point_budget=point_budget)
        if self.kind == "flat":
            return build_flat(int(p["dim"]), int(p["k"]), float(p["half_extent"]),
                              float(p["spacing"]), jitter=float(p.get("jitter", 0.0)),
                              seed=self.seed, point_budget=point_budget)
        if self.kind == "dirac":
            return build_dirac(int(p["dim"]), p["location"], float(p["mass"]))
        if self.kind == "polyline":
            return build_polyline(p["vertices"], float(p["spacing"]),
                                  point_budget=point_budget)
        # gamma_curve or mu_alpha; build_gamma_curve rejects any other weighting
        return build_gamma_curve(float(p["alpha"]), float(p["half_extent"]),
                                 float(p["spacing"]),
                                 weighting="hausdorff" if self.kind == "gamma_curve"
                                 else self.kind, point_budget=point_budget)
