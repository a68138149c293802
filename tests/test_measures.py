import gc
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import densq
from densq import measures as ms
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

from conftest import brute_ball_atoms, brute_mass, random_measure, whole


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
        build_cantor(2, 0.5, 11)          # 4^11 atoms > POINT_BUDGET
    assert "4194304" in str(err.value)



def test_cantor_builds_only_the_kept_corners():
    # all 2^dim cube corners used to be built before `branching` of them were
    # kept, so a 2-branch set in R^40 never finished; the alarm stops a build
    # that takes over a second
    def stop(signum, frame):
        raise TimeoutError("build_cantor took over a second")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        m = build_cantor(40, 0.5, 5, branching=2)
        single = build_cantor(64, 1.0, 0)     # depth 0 builds no corner
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert m.n_atoms == 32 and m.total_mass == 1.0
    np.testing.assert_array_equal(m.points[:, :1], build_cantor(1, 0.5, 5).points)
    np.testing.assert_array_equal(m.points[:, 1:], np.full((32, 39), m.points[0, 1]))
    assert single.n_atoms == 1

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
    apex = g.segments[2].origin          # where the falling side starts
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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scan_queries_equal_brute_force_at_tied_radii(rng, dim):
    # radii at atom distances and one ulp either side, 0 and inf; centers on an
    # atom and off the atoms
    m = random_measure(rng, n=40, dim=dim)
    index = m.ball_index()
    for center in (m.points[3], rng.uniform(-1.0, 1.0, dim)):
        d = np.sqrt(((m.points - center) ** 2).sum(axis=1))
        radii = np.concatenate([d, np.nextafter(d, 0.0), np.nextafter(d, np.inf),
                                [0.0, np.inf]])
        for r in radii:
            atoms = brute_ball_atoms(m, center, r)
            assert index.ball_atoms(center, r).tolist() == atoms.tolist()
            assert index.mass_in_ball(center, r) == float(m.weights[atoms].sum())
        for r_in, r_out in itertools.combinations(np.sort(radii)[::5], 2):
            expect = np.setdiff1d(brute_ball_atoms(m, center, r_out),
                                  brute_ball_atoms(m, center, r_in))
            assert index.annulus_atoms(center, r_in, r_out).tolist() == expect.tolist()


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_sq_dist_rounds_as_the_radial_shell_pass(rng, dim):
    m = random_measure(rng, n=30, dim=dim)
    for c in (m.points[0], rng.uniform(-1.0, 1.0, dim)):
        assert m.ball_index().sq_dist(c).tobytes() == ms._sq_rows(m.points - c).tobytes()


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
    # generic sets scan hull vertices only, sets with no full-dimensional hull
    # (1-d sets, a flat line rebuilt without its segment layout) the atoms
    # near the ends of their principal axis; all equal brute force exactly
    line = build_flat(2, 1, 1.0, 1 / 64)
    generic = WeightedPointMeasure(line.points, line.weights)
    assert generic.segments is None
    one_d = WeightedPointMeasure(np.linspace(-1.0, 2.0, 97)[:, None] ** 3,
                                 np.ones(97))
    for m in (generic, one_d, build_cantor(1, 0.6, 10), WeightedPointMeasure([[2.5]], [1.0]),
              m, build_cantor(3, 1.2, 3), build_cantor(2, 0.7, 4)):
        d2 = ((m.points[:, None, :] - m.points[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(m.farthest_distances(),
                                      np.sqrt(d2.max(axis=1)))



def test_farthest_distances_in_1d_scan_the_two_extreme_atoms(rng, monkeypatch):
    # 65,536 atoms: two candidates per atom, so a pair budget of 2 n suffices
    # (scanning every atom took 4.3e9 pairs, twice the default budget)
    m = build_cantor(1, 0.6, 16)
    monkeypatch.setattr(ms, "PAIR_BUDGET", 2 * m.n_atoms)
    far = m.farthest_distances()
    idx = rng.choice(m.n_atoms, 64, replace=False)
    d2 = (m.points - m.points[idx, 0]) ** 2
    np.testing.assert_array_equal(far[idx], np.sqrt(d2.max(axis=0)))


def _rotation(dim, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    return q


def test_farthest_distances_on_collinear_sets_equal_brute_force(tmp_path):
    # rotated lines, generated and read back from CSV, a 3-d straight polyline
    # without its segments, lines with small offsets off the axis, and a plane
    line = build_flat(3, 1, 1.0, 1 / 64).points
    sets = [line[:, :2] @ _rotation(2, 1).T + [0.3, -2.0],
            line @ _rotation(3, 2).T + 5.0,
            build_polyline([[0.1, 0.2, 0.3], [1.1, -0.7, 2.3]], 1 / 200).points,
            np.linspace(0.0, 1.0, 301)[:, None] * [1.0, 3.0] + [0.0, 1e-3],
            line[:, :2] + np.random.default_rng(3).uniform(0, 1e-7, (len(line), 2)),
            build_flat(3, 2, 1.0, 1 / 8).points @ _rotation(3, 4).T]
    for k, pts in enumerate(sets):
        m = WeightedPointMeasure(pts, np.ones(len(pts)))
        m.save_csv(tmp_path / f"{k}.csv")
        for m in (m, WeightedPointMeasure.load_csv(tmp_path / f"{k}.csv")):
            assert m.segments is None
            d2 = ((m.points[:, None, :] - m.points[None, :, :]) ** 2).sum(-1)
            np.testing.assert_array_equal(m.farthest_distances(), np.sqrt(d2.max(axis=1)))
    # an exact line keeps a few atoms at either end
    assert len(WeightedPointMeasure(sets[1], np.ones(len(line)))._far_candidates) <= 6


@pytest.mark.parametrize("spacing", [1 / 4096, 1 / 32768])
def test_farthest_distances_on_long_collinear_lines_scan_a_few_atoms(rng, monkeypatch,
                                                                     spacing):
    # 8,193 and 65,537 atoms: scanning every atom took 3.6 s and 4.3e9 pairs
    # (twice the default budget); a few candidates per atom suffice
    line = build_flat(2, 1, 1.0, spacing)
    pts = line.points @ _rotation(2, 5).T
    m = WeightedPointMeasure(pts, line.weights)
    monkeypatch.setattr(ms, "PAIR_BUDGET", 8 * m.n_atoms)
    start = time.perf_counter()
    far = m.farthest_distances()
    if spacing == 1 / 4096:
        assert time.perf_counter() - start < 0.1
    idx = rng.choice(m.n_atoms, 64, replace=False)
    d2 = ((m.points[None, :, :] - m.points[idx, None, :]) ** 2).sum(-1)
    np.testing.assert_array_equal(far[idx], np.sqrt(d2.max(axis=1)))


def test_segment_layout_must_hold_the_atoms_one_to_one():
    # the segment engine reads atom k of segment s at row offset_s + k
    g = build_gamma_curve(math.pi / 8, 2.0, 1 / 32)
    short = g.segments[:-1] + [ms.SegmentLattice(g.segments[-1].origin,
                                                 g.segments[-1].direction,
                                                 g.segments[-1].arcs[:-1], 1 / 32)]
    for segments in (short, g.segments[1:], g.segments + g.segments[:1]):
        with pytest.raises(ValueError, match="one-to-one"):
            WeightedPointMeasure(g.points, g.weights, segments=segments)
    assert WeightedPointMeasure(g.points, g.weights, segments=g.segments).segments


def test_check_budget_admits_the_budget_and_rejects_nan_and_infinity():
    ms._check_budget(10, 10, "atoms")
    for count in (11, math.inf, math.nan):
        with pytest.raises(PointBudgetError, match="atoms"):
            ms._check_budget(count, 10, "atoms")


def test_pair_passes_over_budget_raise_before_any_chunk(tiny_pair_budget):
    m = build_cantor(2, 0.5, 2)          # 16 atoms, 4 of them hull vertices
    with pytest.raises(PointBudgetError, match="16 > budget 10"):
        ball_masses(m, m.points[:1], [0.1, 1.0])
    with pytest.raises(PointBudgetError, match="64 > budget 10"):
        m.farthest_distances()


def test_farthest_distances_at_chosen_atoms(rng):
    # reading the evaluation atoms alone gives the bits of the full array
    for m in (build_gamma_curve(0.4, 2.0, 1 / 128), build_cantor(2, 0.6, 5)):
        full = m.farthest_distances()
        window = np.flatnonzero(m.points[:, 0] <= np.median(m.points[:, 0]))
        for idx in (window, rng.choice(m.n_atoms, 37, replace=False),
                    np.array([m.n_atoms - 1]), np.array([], dtype=int)):
            np.testing.assert_array_equal(m.farthest_distances(idx), full[idx])


def test_chunk_bound_moves_no_result(monkeypatch, rng):
    # the pairwise passes split their centers into chunks of at most
    # _CHUNK_CELLS pairs, the segment engine into chunks of an eighth of that
    # in (center, radius) cells; chunks of one center give the same bytes
    from densq import ScaleGrid, betas, measures, sup_riesz_energy
    m = random_measure(rng, n=150)
    tent = build_gamma_curve(math.pi / 8, 2.0, 1 / 32)
    t = np.linspace(0.0, 2 * math.pi, 120, endpoint=False)
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)     # 120 hull vertices
    radii = np.array([0.0, 0.05, 0.2, 0.5, 1.0, 3.0])

    def run():
        width, direction, point = betas._min_width_strip_2d(ring)
        rep = sup_riesz_energy(m, 0.5, ScaleGrid(0.05, 1.0, 1.2), kappa=0.0)
        return (ball_masses(m, m.points, radii).tobytes(),
                ball_masses(tent, tent.points, radii).tobytes(),
                json.dumps(rep.to_json_dict(), sort_keys=True),
                whole(betas._beta2_profile(m, m.points, radii[1:])).tobytes(),
                m.farthest_distances().tobytes(),
                (width, direction.tobytes(), point.tobytes()))

    before = run()
    monkeypatch.setattr(measures, "_CHUNK_CELLS", 64)
    assert run() == before


def test_shell_pruning_moves_no_bit(monkeypatch, rng):
    # small chunks give small boxes, so some atoms lie beyond the largest
    # radius of a chunk and are left out; keeping them all gives the same bytes
    from densq import ScaleGrid, betas, measures, sup_riesz_energy
    m = random_measure(rng, n=150)
    tent = build_gamma_curve(math.pi / 8, 2.0, 1 / 32)
    generic_tent = WeightedPointMeasure(tent.points, tent.weights)
    radii = np.array([0.0, 0.05, 0.2, 0.5])
    monkeypatch.setattr(measures, "_CHUNK_CELLS", 2000)
    near = measures._near_atoms
    dropped = []

    def run():
        rep = sup_riesz_energy(m, 0.5, ScaleGrid(0.05, 0.5, 1.2), kappa=0.0)
        return (ball_masses(m, m.points, radii).tobytes(),
                ball_masses(generic_tent, tent.points, radii).tobytes(),
                json.dumps(rep.to_json_dict(), sort_keys=True),
                whole(betas._beta2_profile(m, m.points, radii[1:])).tobytes())

    def counted(points, centers, pad):
        keep = near(points, centers, pad)
        dropped.append(len(keep) - keep.sum())
        return keep

    monkeypatch.setattr(measures, "_near_atoms", counted)
    pruned = run()
    assert sum(dropped) > 0
    monkeypatch.setattr(measures, "_near_atoms",
                        lambda points, centers, pad: np.ones(len(points), dtype=bool))
    assert run() == pruned
    # an infinite radius keeps every atom
    assert near(m.points, m.points[:2], math.inf).all()

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


def test_support_ball_from_candidates_vs_enumeration(rng):
    for trial in range(10):
        m = WeightedPointMeasure(rng.uniform(-1, 1, size=(12, 2)), np.ones(12))
        r_ref, _ = _brute_seb_2d(m.points)
        assert m.support_radius == pytest.approx(r_ref, rel=1e-9)


def _rotated(pts, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return pts @ q.T + 0.5


@pytest.mark.parametrize("pts", [
    np.random.default_rng(1).normal(size=(300, 2)),
    build_cantor(2, 0.7, 5).points,
    build_gamma_curve(0.3, 2.0, 1 / 64).points,
    _rotated(build_flat(3, 2, 1.0, 1 / 8).points, 2),
    np.random.default_rng(3).normal(size=(400, 3)),
    build_cantor(3, 1.2, 3).points,
    _rotated(np.c_[np.linspace(-1, 1, 50), np.zeros((50, 2))], 4),
    np.array([[0.25, -3.0, 7.0]]),
    np.repeat(np.random.default_rng(5).uniform(size=(40, 3)), 3, axis=0),
], ids=["cloud", "cantor", "tent", "plane", "cloud-3d", "cantor-3d", "line", "one atom",
        "duplicates"])
def test_support_ball_holds_every_atom(pts):
    m = WeightedPointMeasure(pts, np.ones(len(pts)))
    c, r = m.support_center, m.support_radius
    assert not ms._outside(m.points, c, r).any()
    c_all, r_all = _min_enclosing_ball(m.points)
    assert r == pytest.approx(r_all, rel=1e-9, abs=1e-15)
    np.testing.assert_allclose(c, c_all, rtol=0, atol=1e-9 * max(r_all, 1.0))


def test_support_ball_falls_back_to_every_atom(monkeypatch):
    # candidates without the far atom: their ball leaves it out, so the ball
    # of every atom is taken instead
    from densq import geometry
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [10.0, 0.5]])
    monkeypatch.setattr(geometry, "far_atoms", lambda points: points[:-1])
    m = WeightedPointMeasure(pts, np.ones(len(pts)))
    c, r = _min_enclosing_ball(m.points)
    assert m.support_radius == r > 5.0 > math.sqrt(0.5)
    np.testing.assert_array_equal(m.support_center, c)


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
    # the ball index holds the measure's arrays, not the measure: building it
    # leaves no reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        curve = build_gamma_curve(math.pi / 8, 2.0, 1 / 64)
        assert curve.ball_index().mass_in_ball([0.0, 0.0], 1.0) > 0
        ref = weakref.ref(curve)
        del curve
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_csv_over_point_budget_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(ms, "POINT_BUDGET", 3)
    path = tmp_path / "m.csv"
    build_dirac(2, [0.0, 0.0], 1.0).save_csv(path)
    path.write_text(path.read_text() + "1.0,0.0,1.0\n\n2.0,0.0,1.0\n")
    assert WeightedPointMeasure.load_csv(path).n_atoms == 3   # blank rows skipped
    path.write_text(path.read_text() + "3.0,0.0,1.0\n")
    with pytest.raises(PointBudgetError, match="4 > budget 3"):
        WeightedPointMeasure.load_csv(path)


def test_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        WeightedPointMeasure.load_csv(p)


def test_atomic_write_failure_leaves_neither_target_nor_temp_file(tmp_path):
    target = tmp_path / "sub" / "out.txt"

    def fail(fh):
        fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        ms._atomic_write(target, fail)
    assert list((tmp_path / "sub").iterdir()) == []
    # a failed rewrite keeps the old file whole
    ms._atomic_write(target, lambda fh: fh.write("whole"))
    with pytest.raises(RuntimeError, match="writer failed"):
        ms._atomic_write(target, fail)
    assert target.read_text() == "whole"
    assert list((tmp_path / "sub").iterdir()) == [target]


def test_csv_writer_spells_float_subclasses_as_floats(tmp_path):
    path = tmp_path / "t.csv"
    ms._write_csv(path, ["i", "x", "name"],
                  [[np.int64(3), np.float64(0.1), "a"], [4, 1e-300, "b,c"]])
    assert path.read_text() == 'i,x,name\n3,0.1,a\n4,1e-300,"b,c"\n'


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


# a sys.meta_path finder that refuses every scipy module
_BLOCK_SCIPY = """
import importlib.abc, sys
class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(name + " is blocked")
sys.meta_path.insert(0, BlockScipy())
"""

# four suites at small configs; their reports, as JSON, on stdout
_SUITES = """
import json, math
from densq import experiments as ex
results = [
    ex.run_comparability({"s_list": [0.5, 1.2], "depth": 4, "drift_depth": 3}),
    ex.run_small_s_comparability({"depth": 4, "drift_depth": 3}),
    ex.run_tent_counterexample({"alpha_list": [math.pi / 4 * 2.0 ** -k for k in range(4)],
                                "sf_spacing": 1e-3}),
    ex.run_integer_degeneracy({"resolutions": [251]})]
print(json.dumps([r.to_json_dict() for r in results], sort_keys=True))
"""

# densq gen and every densq energy kind (beta at p = 2 and 3) on a 2-d and a
# 3-d Cantor CSV, run in the working directory, then the identity suite at a
# small config; what they print and write, as JSON, on the last line
_CLI = """
from densq import cli
out = {}
for name, params in (("c2", {"dim": 2, "s": 0.6, "depth": 1}),
                     ("c3", {"dim": 3, "s": 1.5, "depth": 1})):
    with open(name + ".json", "w") as fh:
        json.dump({"kind": "cantor", "params": params}, fh)
    runs = [["gen", name + ".json", "--out", name + ".csv"]]
    runs += [["energy", name + ".csv", "--kind", kind, "--s", "0.6", "--kappa", "1",
              "--out", kind + ".json"] for kind in ("sf", "wolff", "riesz-sup")]
    runs += [["energy", name + ".csv", "--kind", "beta", "--p", p, "--r-min", "1",
              "--r-max", "2", "--q", "2", "--out", "beta.json"] for p in ("2", "3")]
    for argv in runs:
        assert cli.main(argv) == 0
        with open(argv[-1]) as fh:
            out[" ".join(argv)] = fh.read()
out["identity"] = ex.run_identity_suite({"n_measures": 2, "n_atoms": 40,
                                         "n_queries": 4}).to_json_dict()
print(json.dumps(out, sort_keys=True))
"""


def _run_python(code, cwd=None):
    src = str(Path(densq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, cwd=cwd).stdout


def test_import_loads_no_scipy():
    # densq needs numpy alone; its geometry, spacing and line-search modules
    # load on first use
    code = ("import sys, densq; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy']); "
            "print([m for m in ('densq.geometry', 'densq.spacing', 'densq.line_search') "
            "if m in sys.modules])")
    scipy_modules, lazy_loaded = _run_python(code).splitlines()
    assert scipy_modules == "[]"
    assert lazy_loaded == "[]"


def test_small_s_and_identity_import_no_numpy_ma():
    # a plain np.unique imports numpy.ma (~11 ms, ~1.2 MB) to ask whether its
    # input is masked; densq takes distinct values by a sort instead
    code = ("import sys; from densq import experiments as ex; "
            "ex.run_small_s_comparability({'depth': 4, 'drift_depth': 3}); "
            "ex.run_identity_suite({'n_measures': 3, 'n_atoms': 25, 'n_queries': 3, "
            "'quad_points': 64}); "
            "print('numpy.ma' in sys.modules)")
    assert _run_python(code).split() == ["False"]


def test_suites_and_cli_run_without_scipy(tmp_path):
    # the suites, and densq on CSV-read measures: their spacing from the
    # closest-pair sweep, 3-d farthest atoms from the radius scan, beta_p's
    # line search at p = 3; with scipy blocked every output is what it is
    # with it
    (tmp_path / "blocked").mkdir()
    (tmp_path / "open").mkdir()
    blocked = _run_python(_BLOCK_SCIPY + _SUITES + _CLI, cwd=tmp_path / "blocked")
    assert blocked == _run_python(_SUITES + _CLI, cwd=tmp_path / "open")
    lines = blocked.splitlines()
    suites, cli_outputs = json.loads(lines[0]), json.loads(lines[-1])
    assert len(suites) == 4 and len(cli_outputs) == 2 * 6 + 1
    assert "min_spacing: " in blocked
