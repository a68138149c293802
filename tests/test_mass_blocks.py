"""The block contract of `measures._mass_blocks`: every block handed out is the
(n_radii, rows) matrix of closed-ball masses at its centers, radius-major,
on the radial-shell engine (weighted, and one weight) and on the segment
engine (a tent and its reweighting), and equals a brute-force scan of
|x_i - c|^2 <= r^2 at tie radii and one ulp either side."""
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from densq import WeightedPointMeasure, ball_masses, build_flat, build_gamma_curve
from densq import measures as ms


@st.composite
def family(draw):
    """A measure alone, or a tent and its reweighting: they share their atoms."""
    kind = draw(st.sampled_from(["weighted", "one-weight", "tent"]))
    if kind == "tent":
        a = draw(st.floats(0.05, math.pi / 4))
        g = build_gamma_curve(a, 1.0, 1.0 / draw(st.integers(16, 40)))
        return (g, g.reweighted(ms.mu_alpha_factors(a)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    dim = draw(st.integers(1, 3))
    pts = np.unique(rng.integers(-8, 9, size=(draw(st.integers(2, 60)), dim)), axis=0) / 8
    # dyadic weights: every partial sum is exact, in any order
    w = (np.full(len(pts), 3 / 64) if kind == "one-weight"
         else rng.integers(1, 64, size=len(pts)) / 64)
    return (WeightedPointMeasure(pts, w),)


def brute(measure, centers, radii):
    """(centers x radii) masses, added per segment as weight x count on a
    segment layout (as the segment engine adds them), else atom by atom."""
    d2 = ((centers[:, None, :] - measure.points[None, :, :]) ** 2).sum(-1)
    inside = d2[:, :, None] <= radii * radii
    if measure.segments is None:
        return (inside * measure.weights[None, :, None]).sum(axis=1)
    out, lo = np.zeros((len(centers), len(radii))), 0
    for sg in measure.segments:
        hi = lo + len(sg.arcs)
        out += sg.weight * inside[:, lo:hi].sum(axis=1)
        lo = hi
    return out


@given(family(), st.data())
def test_every_block_is_radius_major_and_exact_at_ties(fam, data):
    m = fam[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    centers = m.points[rng.choice(m.n_atoms, min(m.n_atoms, 25), replace=False)]
    centers = np.concatenate([centers, centers[:3] + rng.uniform(-0.2, 0.2, centers[:3].shape)])
    d2 = ((centers[:, None, :] - m.points[None, :, :]) ** 2).sum(-1).ravel()
    tied = np.sqrt(rng.choice(d2, 6))
    radii = rng.permutation(np.concatenate(
        [tied, np.nextafter(tied, 0.0), np.nextafter(tied, np.inf), [0.0, 0.3, np.inf]]))
    expect = [brute(mi, centers, radii) for mi in fam]
    cells = data.draw(st.sampled_from([ms._BLOCK_CELLS, 256, 7]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ms, "_BLOCK_CELLS", cells)
        start = 0
        for a, masses in ms._mass_blocks(fam, centers, radii):
            assert a == start and len(masses) == len(fam)
            rows = masses[0].shape[1]
            for mass, ex in zip(masses, expect):
                assert mass.shape == (len(radii), rows)
                np.testing.assert_array_equal(mass, ex[a:a + rows].T)
            start += rows
        assert start == len(centers)


def test_radii_whose_square_overflows_hold_every_atom_without_warnings():
    # r = 1e160 squares to inf, which holds every atom; r = 2e149 holds none
    flat = build_flat(2, 1, 1.0, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (flat, WeightedPointMeasure(flat.points, flat.weights)):
            np.testing.assert_array_equal(
                ball_masses(m, [[1e150, 0.0]], [1e160, 2e149]), [[2.25, 0.0]])
