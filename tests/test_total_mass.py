"""A measure's total mass from its structure: bit for bit the fsum over its
atoms, from a segment layout's integer ratios or a streamed fsum, and built
without a Python float per atom."""
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from densq import (WeightedPointMeasure, build_cantor, build_dirac, build_gamma_curve,
                   build_polyline)
from densq import measures as ms

from test_blocks import traced_peak


@st.composite
def measures(draw):
    kind = draw(st.sampled_from(["polyline", "doubled back", "gamma", "cantor", "dirac",
                                 "weights", "csv"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "polyline":
        dim = draw(st.integers(1, 3))
        verts = rng.normal(size=(draw(st.integers(2, 6)), dim)) * 10.0 ** rng.uniform(-3, 3)
        step = float(np.abs(np.diff(verts, axis=0)).max()) / draw(st.integers(1, 3000))
        m = build_polyline(verts, step)
    elif kind == "doubled back":
        # out and back along a dyadic lattice: the atoms meet exactly and merge,
        # so the layout is dropped and the fsum path sums the merged weights
        m = build_polyline([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 3.0]],
                           2.0 ** -draw(st.integers(2, 10)))
        assert m.segments is None
    elif kind == "gamma":
        a = draw(st.floats(0.01, math.pi / 4))
        m = build_gamma_curve(a, draw(st.floats(1.0, 8.0)), draw(st.floats(1e-3, 1 / 16)),
                              draw(st.sampled_from(["hausdorff", "mu_alpha"])))
    elif kind == "cantor":
        dim = draw(st.integers(1, 3))
        m = build_cantor(dim, draw(st.floats(0.2, 0.95)) * min(dim, 2), draw(st.integers(0, 4)))
    elif kind == "dirac":
        m = build_dirac(2, rng.normal(size=2), float(10.0 ** rng.uniform(-300, 300)))
    else:
        # weights over 20 decades, more atoms than one streamed chunk
        n = draw(st.integers(1, 3 * ms._FSUM_CHUNK))
        m = WeightedPointMeasure(rng.normal(size=(n, 2)), 10.0 ** rng.uniform(-10, 10, n))
        if kind == "csv":
            with tempfile.TemporaryDirectory() as tmp:
                m.save_csv(Path(tmp) / "m.csv")
                m = WeightedPointMeasure.load_csv(Path(tmp) / "m.csv")
    if m.segments is not None and draw(st.booleans()):
        m = m.reweighted(10.0 ** rng.uniform(-5, 5, len(m.segments)))
    return m


@given(measures())
def test_total_mass_is_the_fsum_of_the_atoms(m):
    assert m.total_mass == math.fsum(m.weights.tolist())


def test_building_a_segment_layout_holds_no_float_per_atom():
    # 10^5 atoms on a 1-d polyline: the input, its copy, the weights and the
    # arcs, plus the duplicate merge's sort, peak at about 50 bytes an atom.
    # A list of every weight as a Python float took 32 more: 64 bytes an atom.
    m = []
    peak = traced_peak(lambda: m.append(build_polyline([[0.0], [1.0], [3.0]], 3e-5)))
    assert m[0].segments is not None
    assert peak < 7 * 8 * m[0].n_atoms
