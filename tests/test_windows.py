"""Several scale windows of a measure from one ball-mass pass: each window's
reports are the bytes of the reports it gets alone, and the counted shell pass
of a measure of one weight equals a brute-force count at ties."""
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from densq import (ScaleGrid, WeightedPointMeasure, ball_masses, build_cantor,
                   build_gamma_curve)
from densq import measures as ms
from densq import multiscale as msc

from conftest import brute_ball_atoms
from test_measures import tie_radii


def _grid_points(rng, n, dim):
    """Up to n distinct atoms on a dyadic grid, so that many atom distances are
    exact ties."""
    return np.unique(rng.integers(0, 9, size=(n, dim)), axis=0) * 0.125


@st.composite
def family(draw):
    """A measure, or a tent and its mu_alpha reweighting, and an atom subset."""
    kind = draw(st.sampled_from(["cantor", "one-weight", "weights", "tent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "cantor":
        fam = (build_cantor(2, draw(st.floats(0.3, 1.7)), 3),)
    elif kind == "tent":
        a = draw(st.floats(0.05, math.pi / 4))
        g = build_gamma_curve(a, 1.0, 1.0 / draw(st.integers(16, 32)))
        fam = (g, g.reweighted(ms.mu_alpha_factors(a)))
    else:
        pts = _grid_points(rng, 40, 2)
        w = 0.1 if kind == "one-weight" else rng.uniform(0.5, 1.5, len(pts))
        fam = (WeightedPointMeasure(pts, np.full(len(pts), w)),)
    n = fam[0].n_atoms
    idx = None if draw(st.booleans()) else np.sort(rng.choice(n, max(1, n // 3),
                                                             replace=False))
    return fam, idx


def _window_at(d, q, span):
    """A grid whose first sample radius r_min * sqrt(q) is the distance d, when
    an r_min a few ulps from d / sqrt(q) gives it, and holds `span` cells."""
    c, r = math.sqrt(q), d / math.sqrt(q)
    for _ in range(4):
        if r * c == d:
            break
        r = math.nextafter(r, math.inf if r * c < d else 0.0)
    return ScaleGrid(r, r * q ** (span + 0.5), q)


@given(family(), st.data())
def test_windows_of_one_pass_are_the_windows_alone(case, data):
    fam, idx = case
    m = fam[0]
    d2 = ((m.points[:8, None, :] - m.points[None, :, :]) ** 2).sum(-1).ravel()
    d = np.sqrt(d2)
    ties = d[(d * d == d2) & (d > 0)]
    q = data.draw(st.sampled_from([1.1, 1.265625, 1.5625, 2.0]))
    grids = [_window_at(float(data.draw(st.sampled_from(ties.tolist()))), q,
                        data.draw(st.integers(1, 12)))
             for _ in range(data.draw(st.integers(2, 4)))]
    s = data.draw(st.floats(0.3, 1.7))
    p = data.draw(st.sampled_from([1.0, 2.0, 3.0]))
    kappa = data.draw(st.sampled_from([0.0, msc.DEFAULT_KAPPA]))
    kinds = ("square_function", "wolff")
    together = msc._energies(fam, s, grids, p, kinds, idx, kappa)
    alone = [rep for g in grids
             for rep in msc._energies(fam, s, (g,), p, kinds, idx, kappa)]
    assert len(together) == len(alone) == len(grids) * len(fam) * 2

    def dump(reps):
        return [(json.dumps(r.to_json_dict(), sort_keys=True), r.per_point.tobytes())
                for r in reps]
    assert dump(together) == dump(alone)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("w", [0.1, 1 / 3, 2.0 ** -10])
def test_counted_shell_pass_equals_a_brute_force_count_at_ties(dim, w):
    # n atoms of weight w weigh n * w, rounded once, at radii that put atoms on
    # the sphere, one ulp either side, 0 and inf
    rng = np.random.default_rng(dim)
    pts = _grid_points(rng, 150, dim)
    m = WeightedPointMeasure(pts, np.full(len(pts), w))
    centers = np.concatenate([m.points[:20], rng.uniform(0, 1, size=(4, dim))])
    radii = np.concatenate([tie_radii(m.points, centers), [0.0, np.inf]])
    expect = np.array([[len(brute_ball_atoms(m, c, r)) * w for r in radii]
                       for c in centers])
    np.testing.assert_array_equal(ball_masses(m, centers, radii), expect)
