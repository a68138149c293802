"""Energies streamed over blocks of centers: every report is the same bytes at
any block size, down to one center per block, and no (center, radius) matrix
of a whole pass is held."""
import contextlib
import json
import math
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from densq import (ScaleGrid, TruncationPair, WeightedPointMeasure, ad_regularity_diagnostic,
                   ball_masses, beta_energy, build_cantor, build_gamma_curve, build_polyline,
                   riesz_energy, sup_riesz_energy, square_function_energy)
from densq import betas as bt
from densq import measures as ms
from densq import multiscale as msc

ALL_ROWS = 2 ** 40
FEW_ROWS = [1, 2, 3, 5]


@contextlib.contextmanager
def block_rows(rows):
    """Every blocked pass takes `rows` centers per block (all, for ALL_ROWS)."""
    with pytest.MonkeyPatch.context() as mp:
        def fixed(n, cells):
            return max(1, min(n, rows))
        mp.setattr(ms, "_block_rows", fixed)
        mp.setattr(bt, "_block_rows", fixed)
        yield


def at_each_block_size(run):
    """run() with all centers in one block, then with a few per block: the
    results must be equal."""
    with block_rows(ALL_ROWS):
        whole = run()
    for rows in FEW_ROWS:
        with block_rows(rows):
            assert run() == whole, rows
    return whole


def dump(reports):
    return [(json.dumps(r.to_json_dict(), sort_keys=True), r.per_point.tobytes(),
             r.eval_indices.tobytes()) for r in reports]


@st.composite
def family(draw):
    """A measure, or a tent and its mu_alpha reweighting, on the generic
    (counted or weighted) or the segment engine, and an atom subset."""
    kind = draw(st.sampled_from(["cantor", "one-weight", "weights", "tent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "cantor":
        fam = (build_cantor(2, draw(st.floats(0.3, 1.7)), 3),)
    elif kind == "tent":
        a = draw(st.floats(0.05, math.pi / 4))
        g = build_gamma_curve(a, 1.0, 1.0 / draw(st.integers(16, 32)))
        fam = (g, g.reweighted(ms.mu_alpha_factors(a)))
    else:
        pts = np.unique(rng.integers(0, 9, size=(30, 2)), axis=0) * 0.125
        w = 0.1 if kind == "one-weight" else rng.uniform(0.5, 1.5, len(pts))
        fam = (WeightedPointMeasure(pts, np.full(len(pts), w)),)
    n = fam[0].n_atoms
    idx = draw(st.sampled_from(["all", "some", "none"]))
    if idx == "all":
        return fam, None
    return fam, np.sort(rng.choice(n, n // 3 if idx == "some" else 0, replace=False))


@given(family(), st.data())
def test_sf_and_wolff_reports_are_the_same_at_any_block_size(case, data):
    fam, idx = case
    q = data.draw(st.sampled_from([1.1, 1.25, 2.0 ** 0.25]))
    # windows that share r_min and q share radii, as integer degeneracy's do
    r_lo = data.draw(st.sampled_from([0.02, 0.05]))
    grids = tuple(ScaleGrid(r_lo, r_lo * q ** data.draw(st.integers(1, 30)), q)
                  for _ in range(data.draw(st.integers(1, 3))))
    s = data.draw(st.floats(0.3, 1.7))
    p = data.draw(st.sampled_from([1.0, 2.0, 3.0]))
    kinds = ("square_function", "wolff")
    radii = []

    def run():
        radii.clear()
        return dump(msc._energies(fam, s, grids, p, kinds, idx, 0.0))

    real = msc._mass_blocks

    def counted(family, centers, r):
        radii.append(len(r))
        return real(family, centers, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(msc, "_mass_blocks", counted)
        at_each_block_size(run)
    if all(ms._exact_per_ball(m) for m in fam):
        # one pass, each distinct radius counted once
        asked = np.concatenate([r for g in grids for r in (g.samples, 2.0 * g.samples)])
        assert radii == [len(np.unique(asked))]


@given(family(), st.sampled_from([1.1, 1.3]))
def test_beta2_reports_are_the_same_at_any_block_size(case, q):
    fam, idx = case
    m = fam[-1]
    grid = ScaleGrid(0.05, 0.8, q)
    at_each_block_size(lambda: json.dumps(beta_energy(m, grid, eval_indices=idx,
                                                      kappa=0.0).to_json_dict()))


@pytest.mark.parametrize("idx", [[2, 5, 7, 11], []])
def test_beta_p_reports_are_the_same_at_any_block_size(idx):
    m = build_cantor(2, 1.2, 2)
    grid = ScaleGrid(0.1, 0.5, 1.5)
    at_each_block_size(lambda: json.dumps(beta_energy(m, grid, p=3.0, eval_indices=idx,
                                                      kappa=0.0).to_json_dict()))


@given(family(), st.sampled_from([1.2, 1.5]))
def test_riesz_reports_are_the_same_at_any_block_size(case, q):
    # the last pair's column (and riesz_energy's only one) spans the blocks
    fam, idx = case
    m = fam[-1]
    grid = ScaleGrid(0.05, 1.0, q)

    def run():
        rep = sup_riesz_energy(m, 0.6, grid, eval_indices=idx, kappa=0.0, max_radii=12)
        one = riesz_energy(m, TruncationPair(0.1, 0.4), 0.6, eval_indices=idx)
        return json.dumps(rep.to_json_dict()), one
    at_each_block_size(run)


def test_energies_hold_no_whole_profile_matrix():
    # the depth-6 Cantor set at s = 0.5 (comparability's first s) and its
    # default grid: whole (centers x radii) matrices of masses, contributions
    # and cell widths peaked at 25 MB here, five times the bound
    m = build_cantor(2, 0.5, 6)
    grid = ScaleGrid.default_for(m)
    radii = np.unique(np.concatenate([grid.samples, 2.0 * grid.samples]))
    tracemalloc.start()
    try:
        msc._energies((m,), 0.5, (grid,), 2.0, ("square_function", "wolff"), None,
                      msc.DEFAULT_KAPPA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * m.n_atoms * len(radii) * 8


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("edges", [4, 16, 64])
def test_a_segment_pass_peak_does_not_grow_with_the_segment_count(edges):
    # a half circle of 4, 16 or 64 chords, 3,064-3,200 atoms: counting each
    # segment in temporaries of its own peaked at 6.4, 17.0 and 62.0 MB here
    t = np.linspace(0.0, math.pi, edges + 1)
    m = build_polyline(np.stack([np.cos(t), np.sin(t)], axis=1), 1e-3)
    m.farthest_distances()
    grid = ScaleGrid(0.05, 0.5, 1.1)
    peak = traced_peak(lambda: square_function_energy(m, 1.0, grid, kappa=0.0))
    # one scratch set of a segment block's 2^15 cells, its buffer and the
    # energy's own block arrays: about 2.2 MB at any segment count
    assert peak < 12 * (ms._BLOCK_CELLS // 2) * 8


@pytest.mark.parametrize("dim, s", [(2, 1.2), (3, 1.5)])
def test_a_beta2_profile_pass_holds_a_few_blocks(dim, s):
    # radii to 1.0 on sets of diameter below 1.5: the blocks keep most atoms.
    # With the six (ten in 3-d) moment arrays left out of the block size the
    # pass peaked at 12.9 (13.9) blocks of _BLOCK_CELLS doubles here, now 4.5
    m = build_cantor(dim, s, 5 if dim == 2 else 3)
    radii = ScaleGrid(0.01, 1.0, 1.1).samples

    def run():
        for _ in bt._beta2_profile(m, m.points, radii):
            pass
    assert traced_peak(run) < 6 * ms._BLOCK_CELLS * 8


def test_the_ad_regularity_diagnostic_streams_its_pass():
    # the depth-6 Cantor set at s = 0.8: the whole mass matrix and theta beside
    # it peaked at 6.69 MB here, now 3.44 MB
    m = build_cantor(2, 0.8, 6)
    grid = ScaleGrid.default_for(m)
    m.farthest_distances()      # far-atom candidates cached, as in a second call
    radii = grid.radii[grid.radii <= m.support_diameter]
    whole = ball_masses(m, m.points, radii) / radii ** 0.8
    expect = (float(whole.min()), float(whole.max()))
    del whole
    got = []
    peak = traced_peak(lambda: got.append(ad_regularity_diagnostic(m, 0.8, grid)))
    assert peak < m.n_atoms * len(radii) * 8
    assert got == [expect]


def test_the_ad_regularity_diagnostic_is_the_same_at_any_block_size():
    m = build_cantor(2, 0.8, 3)
    at_each_block_size(lambda: ad_regularity_diagnostic(m, 0.8, ScaleGrid(0.02, 1.0, 1.1),
                                                        eval_indices=[0, 9, 17, 40, 63]))
