"""Property test of the segment engine at ties: every drawn ball mass equals a
brute-force scan of |x_i - c|^2 <= r^2 exactly, on flat lattices, tents and
segments of one atom, at radii that put atoms on the sphere or one ulp off it.
Centers past a segment's ends and whole units off its line, and radii at each
center's nearest and farthest atom of every segment, test the radii a block's
box decides without counting; each center is also asked alone, so its block's
box is tight."""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from densq import (WeightedPointMeasure, ball_masses, build_flat, build_gamma_curve,
                   build_polyline)


@st.composite
def lattice(draw):
    kind = draw(st.sampled_from(["flat", "tent", "one-atom"]))
    if kind == "flat":
        # dyadic spacing and extent: every coordinate and every sum is exact
        h = 2.0 ** -draw(st.integers(2, 6))
        return build_flat(draw(st.integers(2, 3)), 1, h * draw(st.integers(1, 40)), h)
    if kind == "tent":
        return build_gamma_curve(draw(st.floats(0.02, math.pi / 4)),
                                 draw(st.floats(1.0, 1.5)), 1.0 / draw(st.integers(16, 48)))
    # an edge shorter than the spacing holds one atom, at its midpoint
    a = draw(st.floats(-math.pi, math.pi))
    b = [1.0 + math.cos(a) / 32, 0.25 + math.sin(a) / 32]
    return build_polyline([[0.0, 0.0], [1.0, 0.25], b], 1.0 / draw(st.integers(8, 40)))


def _normal(direction):
    """A unit vector orthogonal to `direction`."""
    v = np.zeros_like(direction)
    v[np.argmin(np.abs(direction))] = 1.0
    v -= (v @ direction) * direction
    return v / np.sqrt((v ** 2).sum())


@given(lattice(), st.data())
def test_segment_ball_masses_equal_brute_force_at_ties(m, data):
    atoms = st.integers(0, m.n_atoms - 1)
    on = data.draw(st.lists(atoms, min_size=1, max_size=6))
    above = data.draw(st.lists(st.tuples(atoms, st.integers(1, 32)), max_size=6))
    rows = np.cumsum([0] + [len(sg.arcs) for sg in m.segments])
    seg_of = np.searchsorted(rows, np.arange(m.n_atoms), side="right") - 1
    # lattice centers, and centers above an atom, off the line by t/32
    off = [m.points[i] + t / 32 * _normal(m.segments[seg_of[i]].direction)
           for i, t in above]
    # centers past either end of a segment, along its line, and whole units
    # off the line above an atom
    segs = st.integers(0, len(m.segments) - 1)
    past = [m.points[rows[s + 1] - 1] + t / 4 * m.segments[s].direction if last
            else m.points[rows[s]] - t / 4 * m.segments[s].direction
            for s, last, t in data.draw(st.lists(st.tuples(segs, st.booleans(),
                                                           st.integers(1, 8)), max_size=3))]
    units = [m.points[i] + u * _normal(m.segments[seg_of[i]].direction)
             for i, u in data.draw(st.lists(st.tuples(atoms, st.integers(1, 3)), max_size=3))]
    centers = np.array([m.points[i] for i in on] + off + past + units)
    d2 = ((centers[:, None, :] - m.points[None, :, :]) ** 2).sum(-1)
    # lattice multiples of the first segment's step, atom distances (interval
    # ends), each off-line center's distance to its line, 0 and inf
    h = m.segments[0].arcs[1] - m.segments[0].arcs[0]
    ks = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    ends = data.draw(st.lists(st.tuples(st.integers(0, len(centers) - 1), atoms),
                              min_size=1, max_size=6))
    tied = np.array([k * h for k in ks]
                    + [math.sqrt(d2[c, i]) for c, i in ends]
                    + [math.sqrt(d2[len(on) + j, i]) for j, (i, _) in enumerate(above)]
                    # each center's nearest and farthest atom of every segment
                    + [math.sqrt(f(d2[c, rows[s]:rows[s + 1]])) for c in range(len(centers))
                       for s in range(len(m.segments)) for f in (np.min, np.max)])
    radii = np.concatenate([tied, np.nextafter(tied, 0.0), np.nextafter(tied, np.inf),
                            [0.0, np.inf]])
    # some radii twice, all in a drawn order
    twice = data.draw(st.lists(st.integers(0, len(radii) - 1), max_size=4))
    radii = np.random.default_rng(data.draw(st.integers(0, 2 ** 16))).permutation(
        np.concatenate([radii, radii[twice]]))
    # brute force, summed in the engine's order: per segment, weight x count
    expect = np.zeros((len(centers), len(radii)))
    for s, sg in enumerate(m.segments):
        seg_d2 = d2[:, rows[s]:rows[s + 1], None]
        expect += sg.weight * (seg_d2 <= radii * radii).sum(axis=1)
    np.testing.assert_array_equal(ball_masses(m, centers, radii), expect)
    for i in range(len(centers)):
        np.testing.assert_array_equal(ball_masses(m, centers[i:i + 1], radii), expect[i:i + 1])
    # the shell engine on the same atoms selects the same atoms too: exactly
    # on dyadic flats, within half the lightest atom elsewhere
    generic = ball_masses(WeightedPointMeasure(m.points, m.weights), centers, radii)
    if len(m.segments) == 1:
        np.testing.assert_array_equal(generic, expect)
    else:
        assert np.all(np.abs(generic - expect) < 0.5 * m.weights.min())
