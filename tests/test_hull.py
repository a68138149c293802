"""The numpy 2-d hull against Qhull, the farthest-atom candidates (the 3-d
radius scan included) against brute force, and min_spacing, the closest-pair
sweep and grid on segment layouts and on other sets, against brute force and a
KD-tree. scipy serves only as the oracle here, imported inside the tests."""
import math
import time

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from densq import betas as bt
from densq import geometry as geo
from densq import spacing as sp
from densq import measures as ms
from densq import (WeightedPointMeasure, build_cantor, build_flat, build_gamma_curve,
                   build_polyline)


def qhull_vertices(points):
    """ConvexHull(points).vertices, or None where Qhull raises."""
    from scipy.spatial import ConvexHull, QhullError
    try:
        return ConvexHull(points).vertices
    except (QhullError, ValueError):
        return None


def assert_same_hull(points):
    """`hull_2d` gives Qhull's vertices, counterclockwise from any start, and
    None exactly where Qhull raises; where one of its decisions lies within 1%
    of the rule's 3R or 4R boundary (`near_a_boundary`), it keeps the stated
    rule instead (`assert_stated_rule`)."""
    got = geo.hull_2d(points)
    if near_a_boundary(points):
        assert_stated_rule(points, got)
        return
    want = qhull_vertices(points)
    assert (got is None) == (want is None)
    if got is None:
        return
    got, want = points[got], points[want]
    assert len(got) == len(want)
    start = np.flatnonzero((got == want[0]).all(axis=1))
    assert len(start) == 1
    np.testing.assert_array_equal(np.roll(got, -start[0], axis=0), want)


def near_a_boundary(points):
    """Whether `hull_2d` changes when its roundoff R moves by 1% either way, so
    that one of its decisions lies within 1% of the 3R flat or the 4R merge
    boundary: there the rounding of a distance decides, and Qhull's, which
    differs from the rule's, can decide otherwise."""
    roundoff, got = geo._roundoff, geo.hull_2d(points)
    for scale in (0.99, 1.01):
        geo._roundoff = lambda top, scale=scale: roundoff(top) * scale
        try:
            moved = geo.hull_2d(points)
        finally:
            geo._roundoff = roundoff
        if (moved is None) != (got is None) or not np.array_equal(moved, got):
            return True
    return False


def assert_stated_rule(points, hull):
    """`hull` is None exactly when no atom lies more than 3R from the chord of
    the x-extremes; otherwise its atoms turn counterclockwise, each more than
    4R from the chord of its neighbours unless only three are left."""
    x, y = points.T
    i, j = x.argmin(), x.argmax()
    r = geo._roundoff([np.abs(x).max(), np.abs(y).max()])
    flat = x[i] == x[j] or np.abs(geo._dist(points[i], points[j], (x, y))).max() <= 3 * r
    assert (hull is None) == flat
    if hull is not None:
        v = points[hull].tolist()
        height = [geo._dist(v[n - 1], v[(n + 1) % len(v)], v[n]) for n in range(len(v))]
        assert min(height) > (4 * r if len(v) > 3 else 0.0)


def _rotation(seed):
    t = np.random.default_rng(seed).uniform(0, 2 * math.pi)
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _tent(alpha, spacing):
    """An arc-length tent without its segment layout, as a CSV reads it back."""
    g = build_gamma_curve(alpha, 2.0, spacing)
    return WeightedPointMeasure(g.points, g.weights)


@st.composite
def point_sets(draw):
    kind = draw(st.sampled_from(["cloud", "lattice", "cantor", "duplicates", "line",
                                 "rotated line", "bump", "ball"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 300))
    if kind == "cloud":
        pts = rng.normal(size=(n, 2)) * rng.uniform(1e-3, 1e3) + rng.uniform(-1e3, 1e3, 2)
    elif kind == "lattice":
        pts = rng.integers(-4, 5, size=(n, 2)) / draw(st.sampled_from([1.0, 8.0, 1024.0]))
    elif kind == "cantor":
        pts = build_cantor(2, draw(st.floats(0.3, 1.9)), draw(st.integers(0, 5))).points
    elif kind == "duplicates":
        pts = np.repeat(rng.uniform(size=(max(1, n // 3), 2)), 3, axis=0)
    elif kind == "line":      # exactly collinear: Qhull finds it flat
        pts = rng.integers(-50, 50, size=(n, 1)) * rng.integers(-3, 4, size=2) + [0.5, 2.0]
    elif kind == "rotated line":      # collinear but for rounding
        pts = (np.c_[np.linspace(-1, 1, n), np.zeros(n)] @ _rotation(n).T
               + rng.uniform(-5, 5, 2))
    elif kind == "bump":      # a line and one atom a millionth off it
        pts = np.r_[np.c_[np.linspace(-1, 1, n), np.zeros(n)], [[0.3, 1e-6]]] @ _rotation(n).T
    else:                     # the atoms of a tent or Cantor ball, as beta_inf reads them
        m = (_tent(draw(st.floats(0.02, math.pi / 4)), 1 / draw(st.integers(32, 300)))
             if draw(st.booleans()) else build_cantor(2, draw(st.floats(0.3, 1.9)), 5))
        x = m.points[rng.integers(m.n_atoms)]
        r = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
        pts = m.points[m.ball_index().ball_atoms(x, r)] - x
    return pts


@given(point_sets())
def test_hull_2d_equals_qhull(points):
    assert_same_hull(points)


def test_hull_2d_when_an_x_extreme_lies_inside_an_edge():
    # the largest x is 4.0, and the chord's end (4, 1) lies inside the edge
    # from (4, 0) to (4, 3)
    assert_same_hull(np.array([[4.0, 1.0], [4.0, 3.0], [4.0, 0.0], [3.0, 4.0]]))


@pytest.mark.parametrize("height, vertices", [(3.5, 4), (4.5, 5)])
def test_hull_2d_merges_a_vertex_within_four_roundoffs_of_its_chord(height, vertices):
    # a vertex within 4R of the chord of its neighbours is merged away (R the
    # roundoff), as Qhull counts a point within 4R of a facet as coplanar
    r = geo._roundoff([1.0, 1.0])
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.3, -height * r]])
    assert_same_hull(square)
    assert len(geo.hull_2d(square)) == vertices


def test_hull_2d_on_a_large_cloud():
    # the octagon leaves the chain a few dozen of these atoms
    assert_same_hull(np.random.default_rng(5).normal(size=(200_000, 2)))


def test_beta_inf_on_tent_and_cantor_balls_is_the_qhull_result(monkeypatch):
    # beta_inf reads the hull edges in order; with Qhull's vertices it must
    # give the same bytes (the queries cover balls of 2 atoms to the support)
    rng = np.random.default_rng(11)
    queries = []
    for m in [_tent(a, sp) for a in (0.02, math.pi / 8, 0.4, math.pi / 4)
              for sp in (1 / 64, 1 / 128, 1 / 300)] + [build_cantor(2, s, 5)
                                                      for s in (0.6, 1.3, 1.7)]:
        for _ in range(60):
            queries.append((m, m.points[rng.integers(m.n_atoms)],
                            math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))))
    got = [bt.beta_inf(m, x, r)[0] for m, x, r in queries]
    near = [q for q, (m, x, r) in enumerate(queries)
            if near_a_boundary(bt._ball(m, x, r)[1])]
    monkeypatch.setattr(geo, "hull_2d", qhull_vertices)
    want = [bt.beta_inf(m, x, r)[0] for m, x, r in queries]
    # one ball lies at the flat boundary (`_FLAT_BALL`): flat by the rule,
    # a triangle by Qhull's rounding
    assert near == [256] and (got[256], want[256]) == (0.0, 9.883174014032358e-16)
    del got[256], want[256]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert 0 < sum(v == 0.0 for v in want) < len(want)


# the byte test's ball 256, a tent ball of three atoms: the middle one lies
# 2.97R from the chord of the other two
_FLAT_BALL = np.array([[-0.007142857142857173, 0.0029586683026649463], [0.0, 0.0],
                       [0.007142857142857145, -0.002958668302664974]])


def test_hull_2d_is_flat_within_three_roundoffs_of_the_chord():
    a, b, c = _FLAT_BALL
    r = geo._roundoff(np.abs(_FLAT_BALL).max(axis=0).tolist())
    d = geo._dist(a, c, b)
    assert 2.96 < abs(d) / r < 3.0 and geo.hull_2d(_FLAT_BALL) is None
    assert near_a_boundary(_FLAT_BALL)
    assert_same_hull(_FLAT_BALL)
    # the middle atom moved out along the chord's normal to 3.1R
    moved = _FLAT_BALL.copy()
    moved[1] = b + np.array([c[1] - a[1], a[0] - c[0]]) / math.hypot(*(c - a)) * (
        math.copysign(3.1 * r, d) - d)
    assert 3.05 < abs(geo._dist(a, c, moved[1])) / r < 3.15
    assert len(geo.hull_2d(moved)) == 3
    assert_same_hull(moved)


def brute_farthest(points):
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    return np.sqrt(d2.max(axis=1))


@st.composite
def far_sets(draw):
    kind = draw(st.sampled_from(["cloud", "noisy line", "cantor", "tent", "plane"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(3, 400))
    if kind == "cloud":
        return rng.uniform(size=(n, 2)) * [1.0, draw(st.sampled_from([1.0, 1e-6]))]
    if kind == "noisy line":
        # noise a few roundoffs wide, where the hull's merges are close calls
        t = rng.uniform(size=n)
        return (np.c_[t, 0.1 * t + rng.uniform(-1, 1, n) * draw(st.sampled_from(
            [1e-14, 1e-12, 1e-10]))] + draw(st.sampled_from([0.0, 1e3])))
    if kind == "cantor":
        return build_cantor(2, draw(st.floats(0.3, 1.9)), draw(st.integers(1, 5))).points
    if kind == "tent":
        return _tent(draw(st.floats(0.02, math.pi / 4)), 1 / draw(st.integers(16, 64))).points
    plane = build_flat(3, 2, 1.0, 1 / draw(st.integers(2, 16))).points
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return plane @ q.T * draw(st.sampled_from([1.0, 1e-3])) + rng.uniform(-3, 3, 3)


@given(far_sets())
def test_farthest_distances_equal_brute_force(points):
    m = WeightedPointMeasure(points, np.ones(len(points)))
    np.testing.assert_array_equal(m.farthest_distances(), brute_farthest(m.points))


def test_farthest_distances_keep_a_merged_atom_near_a_corner():
    # the last atom lies 2e-12 outside the bottom edge, within the hull's 4R
    # (R about 8.6e-13 at these coordinates), so the hull merges it away; yet
    # it is the farthest atom from (o + 0.5, o + 1), by 1.1e-12 in squared
    # distance. The 3 |s| E term of the candidate test keeps it.
    o = 1000.0
    pts = np.array([[o, o], [o + 1, o], [o + 1, o + 1], [o, o + 1], [o + 0.5, o + 1],
                    [o + 3e-12, o - 2e-12]])
    m = WeightedPointMeasure(pts, np.ones(len(pts)))
    assert len(geo.hull_2d(m.points)) == 4
    np.testing.assert_array_equal(m.farthest_distances(), brute_farthest(m.points))
    assert brute_farthest(m.points)[4] > math.sqrt(((m.points[4] - m.points[0]) ** 2).sum())


@pytest.mark.parametrize("rotation", [None, 3, 4])
def test_farthest_distances_on_a_plane_of_16641_atoms(tmp_path, rotation):
    # a flat 3-d set has no Qhull hull; scanning every atom takes 12-14 s
    pts = build_flat(3, 2, 1.0, 1 / 64).points
    if rotation is not None:
        q, _ = np.linalg.qr(np.random.default_rng(rotation).normal(size=(3, 3)))
        pts = pts @ q.T + 0.5
    m = WeightedPointMeasure(pts, np.ones(len(pts)))
    m.save_csv(tmp_path / "plane.csv")
    for m in (m, WeightedPointMeasure.load_csv(tmp_path / "plane.csv")):
        start = time.perf_counter()
        far = m.farthest_distances()
        assert time.perf_counter() - start < 0.1
        rows = np.random.default_rng(0).choice(m.n_atoms, 128, replace=False)
        d2 = ((m.points[None, :, :] - m.points[rows, None, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(far[rows], np.sqrt(d2.max(axis=1)))
    small = build_flat(3, 2, 1.0, 1 / 16)
    np.testing.assert_array_equal(small.farthest_distances(), brute_farthest(small.points))


def brute_min_spacing(points):
    d2 = ms._sq_rows((points[:, None, :] - points[None, :, :]).reshape(-1, points.shape[1]))
    d2 = d2.reshape(len(points), len(points))
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


SEGMENT_MEASURES = {
    "flat 2-d": lambda: build_flat(2, 1, 1.0, 0.002),
    "flat 3-d": lambda: build_flat(3, 1, 0.7, 1 / 64),
    "tent": lambda: build_gamma_curve(0.4, 2.0, 1 / 128),
    "tent at 45 degrees": lambda: build_gamma_curve(math.pi / 4, 1.5, 0.003),
    "mu_alpha tent": lambda: build_gamma_curve(0.3, 2.0, 1 / 100, weighting="mu_alpha"),
    "right angle": lambda: build_polyline([[0, 0], [1, 0], [1, 1]], 0.01),
    "rotated right angle": lambda: build_polyline([[0, 0], [1, 1], [2, 0]], 0.013),
    "3-d polyline": lambda: build_polyline([[0, 0, 0], [1, 0.5, 0.2], [1.5, 1.5, -0.3],
                                            [0.2, 2, 1]], 0.02),
    "one-atom edge": lambda: build_polyline([[0.0, 0.0], [1.0, 0.25], [1.01, 0.26]], 1 / 20),
    # a hairpin: the atoms nearest the turn are the closest pair
    "acute turn": lambda: build_polyline([[0, 0], [1, 0], [0.2, 0.1]], 0.01),
    # legs 0.005 apart: the closest pair is not consecutive
    "fold": lambda: build_polyline([[0, 0], [1, 0], [1, 0.005], [0, 0.005]], 0.01),
    "acute turn onto the first leg": lambda: build_polyline(
        [[0, 0], [1, 0], [0.5, 0.002], [0.5, 1]], 0.01),
    # steps below the rounding of x
    "sub-rounding lattice": lambda: build_polyline([[1e3, 0], [1e3 + 1e-10, 0]], 1e-12),
}


@pytest.mark.parametrize("name", sorted(SEGMENT_MEASURES))
def test_layout_min_spacing_is_brute_force(name):
    m = SEGMENT_MEASURES[name]()
    assert m.segments is not None
    assert m.min_spacing == brute_min_spacing(m.points)


def tree_min_spacing(points):
    """The KD-tree's spacing, as `min_spacing` took it before it had its own."""
    from scipy.spatial import cKDTree
    d, _ = cKDTree(points).query(points, k=2)
    return float(d[:, 1].min())


@st.composite
def spacing_sets(draw):
    kind = draw(st.sampled_from(["cloud", "few", "lattice", "cantor", "near duplicates",
                                 "columns", "square grid", "line"]))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 300))
    offset = rng.uniform(-1, 1, dim) * draw(st.sampled_from([0.0, 1.0, 1e3]))
    if kind == "cloud":
        pts = rng.normal(size=(n, dim)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    elif kind == "few":                  # the closest pair is rarely consecutive on the axis
        pts = rng.uniform(size=(draw(st.integers(2, 8)), dim)) * np.geomspace(1.0, 0.3, dim)
    elif kind == "lattice":
        pts = rng.integers(-4, 5, size=(n, dim)) / draw(st.sampled_from([1.0, 8.0, 1024.0]))
    elif kind == "cantor":
        s = draw(st.floats(0.3, dim - 0.1))
        pts = build_cantor(dim, s, draw(st.integers(1, 8 if dim == 1 else 6 // dim + 1))).points
    elif kind == "near duplicates":      # pairs a few roundoffs to a millionth apart
        base = rng.uniform(-1, 1, size=(n // 2 + 1, dim))
        gap = 10.0 ** -draw(st.integers(6, 15))
        pts = np.r_[base, base + rng.normal(size=base.shape) * gap]
    elif kind == "columns":              # stacked along the sweep axis
        col = rng.uniform(size=(n, 1)) * draw(st.sampled_from([1e-3, 1.0]))
        pts = np.c_[np.repeat([0.0, 100.0], (n + 1) // 2)[:n, None],
                    np.repeat(col, dim - 1, axis=1) if dim > 1 else col]
    elif kind == "square grid":
        k = max(2, math.isqrt(n))
        axes = np.meshgrid(*[np.arange(k) * draw(st.sampled_from([0.01, 1 / 16]))] * dim)
        pts = np.stack(axes, -1).reshape(-1, dim)
    else:                                # collinear but for rounding
        u = rng.normal(size=dim)
        pts = np.linspace(-1, 1, n)[:, None] * (u / np.linalg.norm(u))
    return pts + offset


@given(spacing_sets())
def test_min_spacing_equals_brute_force_and_the_kd_tree(points):
    m = WeightedPointMeasure(points, np.ones(len(points)))
    if m.n_atoms < 2:
        assert m.min_spacing == 0.0
        return
    want = brute_min_spacing(m.points)
    assert m.min_spacing == want == tree_min_spacing(m.points)
    # the sweep alone, the cell grid alone, and the grid with its side halved
    # down to a few pairs an atom
    shifts, pairs = sp._SWEEP_SHIFTS, sp._GRID_PAIRS
    try:
        sp._SWEEP_SHIFTS = len(m.points)
        assert sp.closest_pair(m.points) == want
        sp._SWEEP_SHIFTS = 1
        assert sp.closest_pair(m.points) == want
        sp._GRID_PAIRS = 4
        assert sp.closest_pair(m.points) == want
    finally:
        sp._SWEEP_SHIFTS, sp._GRID_PAIRS = shifts, pairs


@pytest.mark.parametrize("kind", ["two far columns", "square grid"])
def test_closest_pair_of_stacked_sets_takes_the_grid(monkeypatch, kind):
    # the sweep axis holds columns of 10,000 and 141 atoms: it would compare
    # about 5e7 and 2.8e6 pairs
    rng = np.random.default_rng(7)
    if kind == "two far columns":
        pts = np.c_[np.repeat([0.0, 100.0], 10_000), rng.uniform(size=20_000)]
    else:
        pts = np.stack(np.meshgrid(np.arange(141.0), np.arange(141.0)), -1).reshape(-1, 2) * 0.01
    calls = []
    grid = sp._grid_spacing

    def counted(*args):
        calls.append(1)
        return grid(*args)
    monkeypatch.setattr(sp, "_grid_spacing", counted)
    m = WeightedPointMeasure(pts, np.ones(len(pts)))
    start = time.perf_counter()
    got = m.min_spacing
    assert time.perf_counter() - start < 0.5
    assert calls == [1] and got == tree_min_spacing(m.points)


def _cloud_3d(kind):
    rng = np.random.default_rng(3)
    if kind.startswith("cantor"):
        return build_cantor(3, float(kind.split()[1]), 3).points
    if kind == "gaussian":
        return rng.normal(size=(1000, 3)) * 3.0 + 1e3
    if kind == "ball":
        v = rng.uniform(-1, 1, size=(1500, 3))
        return v[(v ** 2).sum(axis=1) <= 1.0]
    v = rng.normal(size=(800, 3))                    # a sphere shell
    return v / np.linalg.norm(v, axis=1)[:, None] * 2.0 - 5.0


@pytest.mark.parametrize("kind", ["cantor 1.5", "cantor 2.5", "gaussian", "ball", "sphere"])
def test_farthest_distances_of_3d_sets_by_the_radius_scan(monkeypatch, kind):
    calls = []
    scan = geo._radius_scan

    def counted(pts):
        calls.append(1)
        return scan(pts)
    monkeypatch.setattr(geo, "_radius_scan", counted)
    pts = _cloud_3d(kind)
    m = WeightedPointMeasure(pts, np.ones(len(pts)))
    np.testing.assert_array_equal(m.farthest_distances(), brute_farthest(m.points))
    assert calls == [1]
