"""Reweighted segment measures and the per-segment ball counts a measure and
its reweightings share in one query: the mu_alpha tent built by reweighting,
byte-identical ball masses and reports from one query for several weightings
and from single ones, one count per segment in the tent suite, bad factors,
and concurrent queries."""
import collections
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from densq import (ScaleGrid, ball_masses, build_cantor, build_flat, build_gamma_curve,
                   build_polyline, square_function_and_wolff_energy)
from densq import experiments as ex
from densq import measures as ms
from densq import multiscale as msc

from conftest import whole


def _reference_mu_alpha(alpha, half_extent, spacing):
    """The mu_alpha tent sampled directly: midpoints of each edge, weight
    step * factor, the factor cos(alpha) on the two tent sides."""
    apex = 0.5 * math.tan(alpha)
    verts = np.array([[-half_extent, 0.0], [-0.5, 0.0], [0.0, apex],
                      [0.5, 0.0], [half_extent, 0.0]])
    c = math.cos(alpha)
    pts, ws, seg_w = [], [], []
    for a, b, f in zip(verts[:-1], verts[1:], [1.0, c, c, 1.0]):
        length = float(np.linalg.norm(b - a))
        n = max(1, math.ceil(min(length / spacing * (1.0 - 1e-12), ms.POINT_BUDGET + 1)))
        step = length / n
        arcs = (np.arange(n) + 0.5) * step
        pts.append(a[None, :] + arcs[:, None] * ((b - a) / length)[None, :])
        ws.append(np.full(n, step * f))
        seg_w.append(step * f)
    weights = np.concatenate(ws)
    return np.concatenate(pts), weights, math.fsum(weights.tolist()), seg_w


@pytest.mark.parametrize("alpha, spacing", [(math.pi / 4, 1 / 32), (0.1234, 1 / 200),
                                            (math.pi / 64, 1e-3)])
def test_mu_alpha_build_equals_the_direct_sampling_bit_for_bit(alpha, spacing):
    mu = build_gamma_curve(alpha, 3.0, spacing, weighting="mu_alpha")
    pts, weights, total, seg_w = _reference_mu_alpha(alpha, 3.0, spacing)
    assert mu.points.tobytes() == pts.tobytes()
    assert mu.weights.tobytes() == weights.tobytes()
    assert mu.total_mass == total
    assert [sg.weight for sg in mu.segments] == seg_w


def test_reweighted_shares_the_geometry_and_leaves_the_source_alone():
    g = build_gamma_curve(0.3, 2.0, 1 / 64)
    weights, index = g.weights.copy(), g.ball_index()
    m = g.reweighted([2.0, 0.5, 0.25, 1.0])
    assert m.points is g.points
    for a, b in zip(g.segments, m.segments):
        assert a.origin is b.origin and a.direction is b.direction and a.arcs is b.arcs
    assert g.weights.tobytes() == weights.tobytes() and g.ball_index() is index
    assert not m.weights.flags.writeable
    # the ball index reads the new weights
    assert m.ball_index().mass_in_ball([0.0, 0.0], 10.0) == pytest.approx(m.total_mass)


@pytest.mark.parametrize("factors", [[1.0, 1.0, 1.0], [1.0] * 5, [[1.0] * 4],
                                     [1.0, 0.0, 1.0, 1.0], [1.0, -0.5, 1.0, 1.0],
                                     [1.0, math.nan, 1.0, 1.0], [1.0, math.inf, 1.0, 1.0]])
def test_reweighted_rejects_bad_factors(factors):
    with pytest.raises(ValueError):
        build_gamma_curve(0.3, 2.0, 1 / 32).reweighted(factors)


def test_reweighted_rejects_weights_that_underflow_or_overflow():
    # atoms of weight about 1/32 times 5e-324 round to 0; the flat segments of
    # a polyline at spacing 16 hold one atom of weight 7.5, times 1e308 is inf
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        build_gamma_curve(0.3, 2.0, 1 / 32).reweighted([1.0, 5e-324, 1.0, 1.0])
    g = build_polyline([[-8.0, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [8.0, 0.0]], 16.0)
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        g.reweighted([1e308, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("factors", [
    ms.mu_alpha_factors(0.4),
    [1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 3.0],
    [1e16, 1.0, 1e-16, 1.0 / 3.0],
    [2.0 ** 600, 2.0 ** -600, 1.0, 0.1],
    [1.0 / 3.0, 1.0 / 7.0, 1.0 / 11.0, 1.0 / 13.0],
])
@pytest.mark.parametrize("alpha, spacing", [(0.3, 1 / 64), (math.pi / 4, 1 / 200),
                                            (0.05, 1e-3)])
def test_reweighted_total_is_the_fsum_over_the_atoms_bit_for_bit(factors, alpha, spacing):
    m = build_gamma_curve(alpha, 2.0, spacing).reweighted(factors)
    assert m.total_mass == math.fsum(m.weights.tolist())


def test_reweighted_total_matches_fsum_on_random_factors():
    rng = np.random.default_rng(7)
    g = build_gamma_curve(0.2, 3.0, 1 / 300)
    for _ in range(50):
        factors = 2.0 ** rng.uniform(-40, 40, 4) * rng.uniform(1, 2, 4)
        m = g.reweighted(factors)
        assert m.total_mass == math.fsum(m.weights.tolist())


def test_reweighted_needs_a_segment_layout():
    with pytest.raises(ValueError, match="segment layout"):
        build_cantor(2, 0.5, 2).reweighted([1.0])


def _tie_query(m, seed):
    """Centers on atoms and off the curve, and radii at atom distances, one
    ulp either side of them, 0 and inf."""
    rng = np.random.default_rng(seed)
    on = m.points[rng.choice(m.n_atoms, 6, replace=False)]
    centers = np.concatenate([on, on + rng.uniform(-0.05, 0.05, on.shape)])
    d = np.sqrt(((centers[:, None, :] - m.points[None, :, :]) ** 2).sum(-1))
    tied = d[np.arange(len(centers)), rng.integers(0, m.n_atoms, len(centers))]
    radii = np.concatenate([tied, np.nextafter(tied, 0.0), np.nextafter(tied, np.inf),
                            [0.0, np.inf]])
    return centers, radii


def _brute(m, centers, radii):
    """Per segment, weight x the atoms with |x_i - c|^2 <= r^2, summed in
    segment order from zeros."""
    d2 = ((centers[:, None, :] - m.points[None, :, :]) ** 2).sum(-1)
    rows = np.cumsum([0] + [len(sg.arcs) for sg in m.segments])
    out = np.zeros((len(centers), len(radii)))
    for s, sg in enumerate(m.segments):
        out += sg.weight * (d2[:, rows[s]:rows[s + 1], None] <= radii * radii).sum(axis=1)
    return out


def _tent_case(seed):
    """A tent, its mu_alpha weighting built afresh, and the factors between."""
    alpha = 0.05 + 0.7 * seed / 4
    factors = ms.mu_alpha_factors(alpha)
    return (build_gamma_curve(alpha, 1.5, 1 / 96),
            build_gamma_curve(alpha, 1.5, 1 / 96, weighting="mu_alpha"), factors)


def _long_polyline_case():
    """Two edges of 70,000 atoms and a short one, reweighted afresh."""
    vertices = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1e-4]]
    factors = [1.0 / 3.0, 7.0, 0.1]
    return (build_polyline(vertices, 1 / 70_000),
            build_polyline(vertices, 1 / 70_000).reweighted(factors), factors)


@pytest.mark.parametrize("seed", range(5))
def test_one_query_for_two_weightings_gives_the_bytes_of_single_queries(seed):
    # seeds 0-3 take tents of four slopes, seed 4 the long polyline
    g, fresh, factors = _tent_case(seed) if seed < 4 else _long_polyline_case()
    centers, radii = _tie_query(g, seed)
    m = g.reweighted(factors)
    both = whole(ms._segment_ball_masses(g.points, [g.segments, m.segments], centers, radii))
    assert len(both) == 2
    assert both[0].tobytes() == ball_masses(g, centers, radii).tobytes()
    assert both[1].tobytes() == ball_masses(fresh, centers, radii).tobytes()
    assert both[0].tobytes() == _brute(g, centers, radii).tobytes()
    assert both[1].tobytes() == _brute(m, centers, radii).tobytes()


def test_reports_of_one_query_equal_single_reports():
    g = build_gamma_curve(0.3, 2.0, 1 / 256)
    grid, idx = ScaleGrid(0.1, 0.5, 1.1), np.flatnonzero(np.abs(g.points[:, 0]) <= 1.0)
    together = msc._energies((g, g.reweighted(ms.mu_alpha_factors(0.3))), 1.0, (grid,),
                             2.0, ("square_function", "wolff"), idx, msc.DEFAULT_KAPPA)
    alone = [rep for w in ("hausdorff", "mu_alpha")
             for rep in square_function_and_wolff_energy(
                 build_gamma_curve(0.3, 2.0, 1 / 256, weighting=w), 1.0, grid,
                 eval_indices=idx)]
    assert [r.to_json_dict() for r in together] == [r.to_json_dict() for r in alone]
    assert [r.per_point.tobytes() for r in together] == [r.per_point.tobytes() for r in alone]


def test_energies_reject_measures_that_do_not_share_their_atoms():
    g = build_gamma_curve(0.3, 2.0, 1 / 64)
    twin = build_gamma_curve(0.3, 2.0, 1 / 64, weighting="mu_alpha")
    with pytest.raises(ValueError, match="share their atoms"):
        msc._energies((g, twin), 1.0, (ScaleGrid(0.1, 0.5, 1.1),), 2.0,
                      ("square_function",), None, msc.DEFAULT_KAPPA)


def test_the_tent_suite_counts_each_fine_segment_once_per_alpha_and_l(monkeypatch):
    calls, count = [], ms._segment_counts
    cells = collections.Counter()

    def counted(pts, sg, reach, r2):
        calls.append(pts)       # keeps the curve's points, so ids stay unique
        count_at = count(pts, sg, reach, r2)

        def cells_counted(c, *args):
            j0, j1, *rest = count_at(c, *args)
            cells["offered"] += len(c) * len(r2)
            cells["counted"] += len(c) * (j1 - j0)
            return (j0, j1, *rest)
        return cells_counted

    monkeypatch.setattr(ms, "_segment_counts", counted)
    alphas = [math.pi / 4 * 2.0 ** -k for k in range(4)]
    # at this spacing a block of 2,048 centers spans about 0.4 of the curve
    ex.run_tent_counterexample({"alpha_list": alphas, "sf_spacing": 2e-4})
    # one fine tent per (alpha, L), two half extents: its four segments once each
    per_curve = collections.Counter(id(pts.base) for pts in calls)
    assert len(per_curve) == 2 * len(alphas)
    assert set(per_curve.values()) == {4}
    # the blocks' boxes decide over 30% of the (center, radius, segment) cells
    assert 0 < cells["counted"] < 0.7 * cells["offered"]


def test_far_centers_within_the_step_bound_match_the_shell_engine():
    # 2 |c| / step stays below 2^510 here; ties at the center's distances
    flat = build_flat(2, 1, 1.0, 0.25)
    centers = np.array([[0.0, 1e152], [1e152, 0.0], [-4e152, 0.0], [0.0, 4e152]])
    d = np.sqrt(((centers[:, None] - flat.points[None]) ** 2).sum(-1)).ravel()
    radii = np.concatenate([d, np.nextafter(d, 0.0), np.nextafter(d, np.inf), [0.0, np.inf]])
    expect = ball_masses(ms.WeightedPointMeasure(flat.points, flat.weights), centers, radii)
    np.testing.assert_array_equal(ball_masses(flat, centers, radii), expect)


def test_concurrent_queries_on_one_layout_match_the_single_thread_ones():
    weightings = ["hausdorff", "mu_alpha"]
    g = build_gamma_curve(0.4, 1.5, 1 / 128)
    views = [g, g.reweighted(ms.mu_alpha_factors(0.4))]
    queries = [_tie_query(g, seed) for seed in range(3)]
    # single-thread results, each on a measure of its own
    expect = [[ball_masses(build_gamma_curve(0.4, 1.5, 1 / 128, weighting=w), c, r)
               for c, r in queries] for w in weightings]
    errors, rounds = [], 40

    def worker(t):
        try:
            for i in range(rounds):
                v, qi = (t + i) % 2, (t + 2 * i) % len(queries)
                got = ball_masses(views[v], *queries[qi])
                if got.tobytes() != expect[v][qi].tobytes():
                    errors.append((t, i))
        except Exception as exc:     # surfaced below, not lost in the thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range((os.cpu_count() or 1) + 2)]
        for th in threads:
            th.start()
        deadline = time.monotonic() + 60
        for th in threads:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
