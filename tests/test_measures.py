import gc
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import densq
from densq import (
    BallIndex,
    MeasureSpec,
    PointBudgetError,
    WeightedPointMeasure,
    ball_masses,
    build_cantor,
    build_dirac,
    build_flat,
    build_gamma_curve,
    build_polyline,
    mass_in_ball,
)
from densq.measures import _merge_duplicates, _min_enclosing_ball

from conftest import brute_ball_atoms, brute_mass, random_measure


# ---------------------------------------------------------------------------
# generators

def test_cantor_depth0_is_cube_center():
    m = build_cantor(2, 1.0, 0)
    assert m.n_atoms == 1
    np.testing.assert_allclose(m.points[0], [0.5, 0.5])
    assert m.total_mass == 1.0


def test_cantor_depth1_weights_and_ratio():
    # self-similarity forces lambda = 4^(-1/1) = 1/4 for s=1, branching 4
    m = build_cantor(2, 1.0, 1)
    assert m.n_atoms == 4
    np.testing.assert_allclose(sorted(m.weights), [0.25] * 4)
    lo, hi = 1 / 8, 7 / 8
    expect = {(lo, lo), (lo, hi), (hi, lo), (hi, hi)}
    got = {tuple(p) for p in m.points}
    assert got == expect
    assert m.min_spacing == pytest.approx(0.75)


def test_cantor_mass_exact_and_min_spacing_brute():
    for s, depth in [(0.5, 3), (0.8, 4), (1.5, 4)]:
        m = build_cantor(2, s, depth)
        assert m.total_mass == 1.0
        d2 = ((m.points[:, None, :] - m.points[None, :, :]) ** 2).sum(-1)
        d2[np.diag_indices_from(d2)] = np.inf
        assert m.min_spacing == pytest.approx(math.sqrt(d2.min()), rel=1e-12)


def test_cantor_generation_cell_masses_brute():
    # depth-3, s=0.5: lambda = 1/16; a generation-k cell holds mass 4^-k,
    # verified against the brute-force ball scan
    m = build_cantor(2, 0.5, 3)
    assert m.n_atoms == 64
    lam = 4.0 ** (-1 / 0.5)
    assert lam == pytest.approx(1 / 16)
    diam = m.support_diameter
    # generation-k cell center containing the first atom
    for k in [1, 2, 3]:
        cell = m.points[: 4 ** (3 - k)]
        center = cell.mean(axis=0)
        r = lam ** k * diam
        expect = brute_mass(m, center, r)
        assert expect == pytest.approx(4.0 ** (-k), rel=1e-12)
        assert m.ball_index().mass_in_ball(center, r) == expect


def test_cantor_domain_errors():
    with pytest.raises(ValueError):
        build_cantor(2, 2.0, 2)          # s = dim
    with pytest.raises(ValueError, match="overlap"):
        build_cantor(2, 1.5, 2, branching=2)  # lambda = 2^(-2/3) >= 1/2
    with pytest.raises(PointBudgetError) as err:
        build_cantor(2, 0.5, 10, point_budget=1000)
    assert "1048576" in str(err.value)


def test_flat_lattice_counts_and_mass():
    m = build_flat(2, 1, 1.0, 0.5)
    assert m.n_atoms == 5
    np.testing.assert_allclose(m.weights, 0.5)
    assert m.total_mass == pytest.approx(2.5)
    assert m.points[:, 1].max() == 0.0


def test_flat_riemann_mass_bound():
    m = build_flat(2, 1, 1.0, 0.01)
    h = 0.01
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = np.array([rng.uniform(-0.25, 0.25), 0.0])
        r = rng.uniform(4 * h, 0.25)
        assert abs(brute_mass(m, x, r) - 2 * r) <= 2 * h + 1e-12


def test_flat_k2_plane():
    m = build_flat(3, 2, 1.0, 0.5)
    assert m.n_atoms == 25
    assert m.total_mass == pytest.approx(25 * 0.25)
    with pytest.raises(ValueError):
        build_flat(2, 2, 1.0, 0.5)   # k must be < dim


def test_gamma_curve_masses():
    for alpha in [math.pi / 4, math.pi / 16]:
        L = 3.0
        g = build_gamma_curve(alpha, L, 1 / 32)
        expect = 2 * (L - 0.5) + 1.0 / math.cos(alpha)
        assert g.total_mass == pytest.approx(expect, rel=1e-12)
        mu = build_gamma_curve(alpha, L, 1 / 32, weighting="mu_alpha")
        tent = np.abs(mu.points[:, 0]) < 0.5
        tent_mass = mu.weights[tent & (mu.points[:, 1] > 0)].sum()
        assert tent_mass == pytest.approx(1.0, rel=1e-9)


def test_gamma_curve_apex():
    # tent side meets x=0 at height tan(alpha)/2; pi/4 gives apex 1/2
    g = build_gamma_curve(math.pi / 4, 2.0, 1 / 32)
    seg = g.segments[1]
    apex = seg.origin + seg.length * seg.direction
    np.testing.assert_allclose(apex, [0.0, 0.5], atol=1e-15)
    assert g.points[:, 1].max() <= 0.5


def test_gamma_curve_domain():
    with pytest.raises(ValueError):
        build_gamma_curve(0.0, 2.0, 1 / 32)
    with pytest.raises(ValueError):
        build_gamma_curve(math.pi / 3, 2.0, 1 / 32)
    with pytest.raises(ValueError):
        build_gamma_curve(math.pi / 8, 2.0, 1 / 8)   # spacing too coarse


def test_dirac_and_duplicate_merge():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    assert d.n_atoms == 1 and d.total_mass == 1.0
    assert d.support_radius == 0.0
    two = WeightedPointMeasure(np.zeros((2, 2)), np.array([1.0, 1.0]))
    assert two.n_atoms == 1
    assert two.total_mass == 2.0
    mixed = WeightedPointMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
        np.array([1.0, 2.0, 3.0]))
    assert mixed.n_atoms == 2
    assert mixed.min_spacing == 1.0
    np.testing.assert_allclose(mixed.points[0], [0.0, 0.0])  # first occurrence
    assert mixed.weights[0] == 4.0


def test_duplicate_merge_first_occurrence_and_index_order_sums(rng):
    pts = rng.integers(0, 4, size=(300, 2)).astype(float)
    w = rng.uniform(0.5, 1.5, size=300) / 3.0
    groups: dict = {}
    for p, wi in zip(map(tuple, pts), w):
        groups[p] = groups.get(p, 0.0) + wi     # insertion order, index order
    got_pts, got_w, merged = _merge_duplicates(pts, w)
    assert merged
    np.testing.assert_array_equal(got_pts, np.array(list(groups)))
    np.testing.assert_array_equal(got_w, np.array(list(groups.values())))
    distinct = np.array(list(groups))
    same_pts, same_w, merged = _merge_duplicates(distinct, w[:len(distinct)])
    assert not merged
    assert same_pts is distinct and same_w.shape == (len(distinct),)


def test_polyline_mass_conservation():
    verts = [[0, 0], [1, 0], [1, 2], [3, 2]]
    m = build_polyline(verts, 0.03)
    assert m.total_mass == pytest.approx(1 + 2 + 2, rel=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        WeightedPointMeasure(np.zeros((1, 2)), np.array([0.0]))
    with pytest.raises(ValueError):
        WeightedPointMeasure(np.zeros((1, 2)), np.array([-1.0]))
    with pytest.raises(ValueError):
        WeightedPointMeasure(np.array([[np.nan, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        build_dirac(2, [0.0, 0.0, 0.0], 1.0)


# ---------------------------------------------------------------------------
# ball index

def test_mass_in_ball_examples():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    assert mass_in_ball(d.ball_index(), [0.0, 0.0], 0.0) == 1.0
    m = build_cantor(2, 1.0, 1)
    center = np.array([0.5, 0.5])
    r = m.support_diameter / 2 * (1 + 1e-12)
    assert m.ball_index().mass_in_ball(center, r) == pytest.approx(1.0)
    assert m.ball_index().mass_in_ball(center, 0.1) == 0.0
    with pytest.raises(ValueError):
        m.ball_index().mass_in_ball(center, -1.0)
    with pytest.raises(ValueError):
        m.ball_index().mass_in_ball([0.0, 0.0, 0.0], 1.0)


def test_index_matches_brute_force_sets(rng):
    m = random_measure(rng, n=100)
    idx = m.ball_index()
    for _ in range(100):
        c = rng.uniform(-1.2, 1.2, size=2)
        r = rng.uniform(0.0, 2.5)
        got = idx.ball_atoms(c, r)
        expect = brute_ball_atoms(m, c, r)
        np.testing.assert_array_equal(np.sort(got), expect)
        assert idx.mass_in_ball(c, r) == pytest.approx(brute_mass(m, c, r),
                                                       rel=1e-12, abs=1e-300)


def test_index_scaling_covariance(rng):
    m = random_measure(rng, n=60)
    queries = [(rng.uniform(-1, 1, size=2), rng.uniform(0.1, 2.0))
               for _ in range(20)]
    for lam in [0.5, 2.0, 3.7, 1024.0]:
        scaled = WeightedPointMeasure(m.points * lam, m.weights)
        for c, r in queries:
            assert scaled.ball_index().mass_in_ball(c * lam, r * lam) == \
                m.ball_index().mass_in_ball(c, r)


def test_index_monotonicity(rng):
    m = random_measure(rng, n=80)
    idx = m.ball_index()
    for _ in range(30):
        c = rng.uniform(-1, 1, size=2)
        r1, r2 = sorted(rng.uniform(0, 2, size=2))
        assert idx.mass_in_ball(c, r1) <= idx.mass_in_ball(c, r2)


def test_annulus_atoms_strict_inner(rng):
    m = random_measure(rng, n=60)
    idx = m.ball_index()
    c = m.points[7]
    d = np.sqrt(((m.points - c) ** 2).sum(axis=1))
    r_in, r_out = np.quantile(d, 0.3), np.quantile(d, 0.8)
    got = idx.annulus_atoms(c, r_in, r_out)
    expect = np.flatnonzero((d > r_in) & (d <= r_out))
    np.testing.assert_array_equal(np.sort(got), expect)
    assert 7 not in idx.annulus_atoms(c, 0.0, r_out)  # self at distance 0


def test_ball_masses_engines_agree(rng):
    # segment fast path vs brute force on a tent curve, generic path on cantor
    g = build_gamma_curve(math.pi / 8, 2.0, 1 / 32)
    assert g.segments is not None
    centers = g.points[rng.integers(0, g.n_atoms, size=20)]
    radii = np.array([0.05, 0.3, 1.1, 4.0])
    fast = ball_masses(g, centers, radii)
    for i, c in enumerate(centers):
        for j, r in enumerate(radii):
            assert fast[i, j] == pytest.approx(brute_mass(g, c, r), rel=1e-12)
    m = build_cantor(2, 0.7, 3)
    got = ball_masses(m, m.points[:10], radii)
    for i in range(10):
        for j, r in enumerate(radii):
            assert got[i, j] == pytest.approx(brute_mass(m, m.points[i], r),
                                              rel=1e-12)


def test_ball_masses_reject_nan_radius_on_both_engines():
    # a nan radius used to give the total mass (shell engine) or 0 (segments)
    tent = build_gamma_curve(math.pi / 8, 2.0, 1 / 32)
    cantor = build_cantor(2, 0.7, 3)
    for m in (tent, cantor):
        assert (m.segments is not None) == (m is tent)
        with pytest.raises(ValueError, match="nonnegative"):
            ball_masses(m, m.points[:3], [0.5, float("nan")])
        # an infinite radius stays valid: every ball holds the whole measure
        got = ball_masses(m, m.points[:3], [float("inf")])
        np.testing.assert_allclose(got, m.total_mass, rtol=1e-12)


def test_segment_ball_masses_empty_when_ball_misses_the_line():
    # centers straight above atoms: the foot of each center is an atom, yet a
    # ball that does not reach the line holds nothing
    m = build_flat(2, 1, 1.0, 1 / 16)
    centers = m.points[::5] + np.array([0.0, 0.25])
    got = ball_masses(m, centers, [0.0, 0.1, 0.25 - 1e-12, 0.25])
    np.testing.assert_array_equal(got[:, :3], 0.0)
    np.testing.assert_array_equal(got[:, 3], 1 / 16)


def tie_radii(points, centers):
    """Radii r with r*r equal to a squared center-atom distance (so atoms sit
    exactly on the sphere), and their neighbours 1 ulp either side."""
    d2 = np.unique(((centers[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    r = np.sqrt(d2)
    r = r[(r * r == d2) & (r > 0)]
    assert r.size >= 5
    return np.concatenate([r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)])


def test_generic_ball_masses_exact_at_tie_radii(rng):
    # integer weights make every sum exact, so the shell sums must equal the
    # brute-force scan bit for bit, at radii equal to atom distances and one
    # ulp either side of them
    for dim in (1, 2, 3):
        pts = rng.integers(0, 7, size=(200, dim)).astype(float) * 0.25
        m = WeightedPointMeasure(pts, rng.integers(1, 10, size=200).astype(float))
        centers = np.concatenate([m.points[:25], rng.uniform(0, 2, size=(5, dim))])
        radii = tie_radii(m.points, centers)
        got = ball_masses(m, centers, radii)
        d2 = ((centers[:, None, :] - m.points[None, :, :]) ** 2).sum(-1)
        expect = np.array([[m.weights[d2[i] <= r * r].sum() for r in radii]
                           for i in range(len(centers))])
        np.testing.assert_array_equal(got, expect)


def test_farthest_distances(rng):
    g = build_gamma_curve(math.pi / 8, 2.0, 1 / 16)
    d2 = ((g.points[:, None, :] - g.points[None, :, :]) ** 2).sum(-1)
    np.testing.assert_allclose(g.farthest_distances(),
                               np.sqrt(d2.max(axis=1)), rtol=1e-12)
    m = random_measure(rng, n=40)
    d2 = ((m.points[:, None, :] - m.points[None, :, :]) ** 2).sum(-1)
    np.testing.assert_allclose(m.farthest_distances(),
                               np.sqrt(d2.max(axis=1)), rtol=1e-12)
    # generic sets scan hull vertices only, or every atom when there is no
    # full-dimensional hull: a flat line rebuilt without its segment layout
    # (collinear) and a 1-d set; all equal brute force exactly
    line = build_flat(2, 1, 1.0, 1 / 64)
    generic = WeightedPointMeasure(line.points, line.weights)
    assert generic.segments is None
    one_d = WeightedPointMeasure(np.linspace(-1.0, 2.0, 97)[:, None] ** 3,
                                 np.ones(97))
    for m in (generic, one_d, m, build_cantor(3, 1.2, 3), build_cantor(2, 0.7, 4)):
        d2 = ((m.points[:, None, :] - m.points[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(m.farthest_distances(),
                                      np.sqrt(d2.max(axis=1)))


# ---------------------------------------------------------------------------
# smallest enclosing ball

def _brute_seb_2d(pts):
    """Exact minimum enclosing ball by enumerating pair/triple support sets."""
    best = (math.inf, None)
    n = len(pts)
    for i, j in itertools.combinations(range(n), 2):
        c = (pts[i] + pts[j]) / 2
        r = float(np.linalg.norm(pts[i] - c))
        if np.sqrt(((pts - c) ** 2).sum(1)).max() <= r * (1 + 1e-12):
            if r < best[0]:
                best = (r, c)
    for i, j, k in itertools.combinations(range(n), 3):
        A = 2 * (pts[[j, k]] - pts[i])
        b = ((pts[[j, k]] - pts[i]) ** 2).sum(1)
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        c = pts[i] + x
        r = float(np.linalg.norm(pts[i] - c))
        if np.sqrt(((pts - c) ** 2).sum(1)).max() <= r * (1 + 1e-12):
            if r < best[0]:
                best = (r, c)
    return best


def test_min_enclosing_ball_vs_enumeration(rng):
    for trial in range(10):
        pts = rng.uniform(-1, 1, size=(12, 2))
        c, r = _min_enclosing_ball(pts)
        r_ref, _ = _brute_seb_2d(pts)
        assert r == pytest.approx(r_ref, rel=1e-9)
        assert np.sqrt(((pts - c) ** 2).sum(1)).max() <= r * (1 + 1e-9)


def test_min_enclosing_ball_degenerate():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    c, r = _min_enclosing_ball(pts)
    assert r == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(c, [1.0, 0.0], atol=1e-9)
    line = build_flat(2, 1, 1.0, 0.125)
    assert line.support_radius == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# serialization

def test_csv_round_trip(tmp_path, rng):
    m = random_measure(rng, n=37, dim=3)
    path = tmp_path / "m.csv"
    m.save_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,x2,w"
    back = WeightedPointMeasure.load_csv(path)
    np.testing.assert_array_equal(back.points, m.points)
    np.testing.assert_array_equal(back.weights, m.weights)


def test_csv_reload_drops_segments_but_keeps_ball_atoms(tmp_path):
    # a CSV holds atoms only: the curve read back runs the generic engine,
    # which counts the same atoms as the segment engine at untied radii
    tent = build_gamma_curve(0.4, 2.0, 1 / 128)
    path = tmp_path / "tent.csv"
    tent.save_csv(path)
    back = WeightedPointMeasure.load_csv(path)
    assert tent.segments is not None and back.segments is None
    centers = back.points[::23]
    radii = np.geomspace(0.0123, 1.7, 9)
    d2 = ((centers[:, None, :] - back.points[None, :, :]) ** 2).sum(-1)
    assert np.abs(d2[:, :, None] - radii ** 2).min() > 1e-9   # no ties
    mem, csv_ = ball_masses(tent, centers, radii), ball_masses(back, centers, radii)
    ref = np.array([[brute_mass(back, c, r) for r in radii] for c in centers])
    half = 0.5 * back.weights.min()
    assert np.abs(mem - ref).max() < half and np.abs(csv_ - ref).max() < half


def test_measure_with_index_freed_without_cycle_collector():
    # the ball index holds the measure's arrays, not the measure: reading
    # min_spacing (which builds the index) leaves no reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        curve = build_gamma_curve(math.pi / 8, 2.0, 1 / 64)
        assert curve.min_spacing > 0
        ref = weakref.ref(curve)
        del curve
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        WeightedPointMeasure.load_csv(p)


def test_measure_spec_round_trip():
    spec = MeasureSpec("cantor", {"dim": 2, "s": 0.5, "depth": 3}, seed=7)
    text = spec.to_json()
    again = MeasureSpec.from_json(text)
    assert again == spec
    assert json.loads(again.to_json()) == json.loads(text)
    m = spec.build()
    assert m.n_atoms == 64


def test_measure_spec_rejects_unknown():
    with pytest.raises(ValueError):
        MeasureSpec("lattice", {})
    with pytest.raises(ValueError):
        MeasureSpec("cantor", {"dim": 2, "s": 0.5, "depth": 3, "bogus": 1})
    with pytest.raises(ValueError):
        MeasureSpec.from_json('{"kind": "dirac", "params": {}, "extra": 1}')


def test_measure_spec_flat_jitter_seeded():
    spec = {"kind": "flat",
            "params": {"dim": 2, "k": 1, "half_extent": 1.0, "spacing": 0.1,
                       "jitter": 0.5},
            "seed": 11}
    a = MeasureSpec.from_json_dict(spec).build()
    b = MeasureSpec.from_json_dict(spec).build()
    np.testing.assert_array_equal(a.points, b.points)
    c = MeasureSpec.from_json_dict({**spec, "seed": 12}).build()
    assert not np.array_equal(a.points, c.points)


def test_all_spec_kinds_build():
    specs = [
        MeasureSpec("cantor", {"dim": 2, "s": 0.5, "depth": 2}),
        MeasureSpec("flat", {"dim": 2, "k": 1, "half_extent": 1.0, "spacing": 0.25}),
        MeasureSpec("dirac", {"dim": 3, "location": [1, 2, 3], "mass": 2.0}),
        MeasureSpec("polyline", {"vertices": [[0, 0], [1, 1]], "spacing": 0.05}),
        MeasureSpec("gamma_curve", {"alpha": 0.5, "half_extent": 2.0,
                                    "spacing": 0.05}),
        MeasureSpec("mu_alpha", {"alpha": 0.5, "half_extent": 2.0,
                                 "spacing": 0.05}),
    ]
    for sp in specs:
        m = sp.build()
        assert m.n_atoms >= 1


def test_import_loads_no_scipy():
    # scipy loads on first use: the KD-tree, the hull and beta_p's line search
    src = str(Path(densq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, densq; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
