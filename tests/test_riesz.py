import math

import numpy as np
import pytest

from densq import (
    PointBudgetError,
    ScaleGrid,
    TruncationPair,
    WeightedPointMeasure,
    build_cantor,
    build_dirac,
    build_flat,
    riesz_energy,
    riesz_kernel,
    sup_riesz_energy,
    truncated_riesz,
    wolff_energy,
)

from conftest import random_measure
from test_measures import tie_radii


def test_kernel_examples():
    np.testing.assert_allclose(riesz_kernel([1.0, 0.0], 1.0), [1.0, 0.0])
    np.testing.assert_allclose(riesz_kernel([0.0, 2.0], 1.0), [0.0, 0.5])
    with pytest.raises(ValueError):
        riesz_kernel([0.0, 0.0], 1.0)


def test_kernel_antisymmetry(rng):
    for _ in range(20):
        v = rng.standard_normal(3)
        s = rng.uniform(0.2, 1.8)
        np.testing.assert_allclose(riesz_kernel(-v, s), -riesz_kernel(v, s),
                                   rtol=1e-14)


def test_truncation_pair_validation():
    with pytest.raises(ValueError):
        TruncationPair(1.0, 0.5)
    with pytest.raises(ValueError):
        TruncationPair(0.0, 1.0)


def test_truncated_two_atoms():
    m = WeightedPointMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                             np.array([1.0, 1.0]))
    out = truncated_riesz(m, [0.0, 0.0], TruncationPair(0.5, 2.0), 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0])
    # empty annulus
    out = truncated_riesz(m, [0.0, 0.0], TruncationPair(2.0, 3.0), 1.0)
    np.testing.assert_allclose(out, [0.0, 0.0])


def test_truncated_self_exclusion():
    d = build_dirac(2, [0.3, -0.2], 5.0)
    for pair in [TruncationPair(1e-12, 1.0), TruncationPair(0.5, 7.0)]:
        np.testing.assert_array_equal(truncated_riesz(d, [0.3, -0.2], pair, 0.7),
                                      [0.0, 0.0])


def test_truncated_flat_interior_cancellation():
    m = build_flat(2, 1, 2.0, 0.01)
    out = truncated_riesz(m, [0.0, 0.0], TruncationPair(0.05, 1.0), 1.0)
    assert np.abs(out).max() < 1e-12


def test_truncated_square_symmetry():
    pts = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    m = WeightedPointMeasure(pts, np.ones(4))
    out = truncated_riesz(m, [0.0, 0.0], TruncationPair(0.5, 2.0), 1.0)
    assert np.abs(out).max() < 1e-12


def test_symmetric_measure_cancellation(rng):
    # atoms paired under x -> 2c - x: the transform at c vanishes
    c = np.array([0.3, -0.7])
    half = rng.uniform(-1, 1, size=(30, 2))
    pts = np.concatenate([c + half, c - half])
    m = WeightedPointMeasure(pts, np.ones(60))
    out = truncated_riesz(m, c, TruncationPair(0.1, 3.0), 0.8)
    assert np.abs(out).max() < 1e-12


def test_riesz_energy_two_atoms():
    m = WeightedPointMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                             np.array([1.0, 1.0]))
    assert riesz_energy(m, TruncationPair(0.5, 2.0), 1.0) == pytest.approx(2.0)


def test_riesz_energy_matches_direct_sum(rng):
    m = random_measure(rng, n=40)
    pair = TruncationPair(0.2, 1.5)
    s = 0.6
    direct = 0.0
    for i in range(m.n_atoms):
        v = truncated_riesz(m, m.points[i], pair, s)
        direct += m.weights[i] * float((v ** 2).sum())
    assert riesz_energy(m, pair, s) == pytest.approx(direct, rel=1e-10)


def test_riesz_energy_matches_direct_sum_at_tie_radii(rng):
    # truncation radii equal to atom distances: the annulus is half-open,
    # eps1 < |x_i - x| <= eps2, so atoms at eps2 count and atoms at eps1 do not
    pts = rng.integers(0, 6, size=(60, 2)).astype(float) * 0.25
    m = WeightedPointMeasure(pts, rng.uniform(0.5, 1.5, size=60))
    d = tie_radii(m.points, m.points)
    d = d[:len(d) // 3]
    for eps1, eps2 in [(d[0], d[3]), (d[1], d[4]), (np.nextafter(d[2], 0.0), d[4])]:
        pair = TruncationPair(float(eps1), float(eps2))
        direct = 0.0
        for i in range(m.n_atoms):
            diff = m.points - m.points[i]
            n2 = (diff ** 2).sum(1)
            sel = (n2 > eps1 * eps1) & (n2 <= eps2 * eps2)
            v = (m.weights[sel, None] * diff[sel]
                 / n2[sel, None] ** ((1.0 + 0.7) / 2.0)).sum(0)
            direct += m.weights[i] * float((v ** 2).sum())
        assert riesz_energy(m, pair, 0.7) == pytest.approx(direct, rel=1e-12)


def test_riesz_rejects_nonpositive_s(rng):
    m = random_measure(rng, n=10)
    for s in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="s must be positive"):
            riesz_energy(m, TruncationPair(0.1, 1.0), s)
        with pytest.raises(ValueError, match="s must be positive"):
            sup_riesz_energy(m, s, ScaleGrid(0.1, 1.0, 1.2), kappa=0.0)


def test_riesz_energy_flat_interior_vanishes():
    # dyadic spacing keeps lattice distances exact, so the left/right kernel
    # contributions cancel exactly inside the annulus
    for h in [1.0 / 64, 1.0 / 256]:
        m = build_flat(2, 1, 2.0, h)
        mask = np.flatnonzero(np.abs(m.points[:, 0]) <= 0.5)
        val = riesz_energy(m, TruncationPair(0.1, 1.0), 1.0, eval_indices=mask)
        assert val < 1e-20


def test_riesz_energy_comparable_to_wolff_cantor():
    m = build_cantor(2, 0.5, 4)
    grid = ScaleGrid(4 * m.min_spacing, 8 * m.support_radius, 1.1)
    wf = wolff_energy(m, 0.5, grid).total
    rz = riesz_energy(m, TruncationPair(grid.r_min, grid.r_max), 0.5)
    assert 1 / 30 <= rz / wf <= 30


def test_sup_riesz_two_atoms_bracket():
    m = WeightedPointMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                             np.array([1.0, 1.0]))
    rep = sup_riesz_energy(m, 1.0, ScaleGrid(0.5, 3.0, 1.3), kappa=0.0)
    assert rep.energy_at_best == pytest.approx(2.0)
    assert rep.best_pair.eps1 < 1.0 <= rep.best_pair.eps2
    assert rep.energy_at_best == max(e for _, _, e in rep.grid_of_pairs)
    assert rep.to_json_dict()["sup_is_lower_bound"] is True


def _zero_report(rep, grid):
    radii = grid.radii
    assert (rep.best_pair.eps1, rep.best_pair.eps2) == (radii[0], radii[1])
    assert rep.energy_at_best == 0.0
    assert all(e == 0.0 for _, _, e in rep.grid_of_pairs)


def test_sup_riesz_of_one_atom_is_zero_at_the_first_pair():
    # every pair energy is 0: the best pair used to be (r_0, r_0), which
    # raised "need 0 < eps1 < eps2"
    grid = ScaleGrid(0.1, 1.0, 1.5)
    _zero_report(sup_riesz_energy(build_dirac(2, [0.3, -0.2], 2.0), 0.7, grid), grid)


def test_sup_riesz_of_atoms_beyond_every_radius_is_zero_at_the_first_pair():
    m = WeightedPointMeasure(np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([1.0, 2.0]))
    grid = ScaleGrid(0.1, 1.0, 1.5)
    _zero_report(sup_riesz_energy(m, 0.5, grid, kappa=0.0), grid)


def test_sup_riesz_with_no_evaluation_atoms_is_zero_at_the_first_pair():
    m = build_cantor(2, 0.5, 3)
    grid = ScaleGrid(4.0 * m.min_spacing, 1.0, 1.3)
    _zero_report(sup_riesz_energy(m, 0.5, grid, eval_indices=[]), grid)


def test_sup_riesz_monotone_refinement(rng):
    m = random_measure(rng, n=25)
    coarse = ScaleGrid(0.1, 2.0, 1.44)
    fine = ScaleGrid(0.1, 2.0, 1.2)   # sqrt(1.44): superset of the coarse radii
    a = sup_riesz_energy(m, 0.7, coarse, kappa=0.0)
    b = sup_riesz_energy(m, 0.7, fine, kappa=0.0)
    assert b.energy_at_best >= a.energy_at_best * (1 - 1e-12)


def test_sup_riesz_floor_enforced():
    m = build_cantor(2, 0.5, 3)
    bad = ScaleGrid(m.min_spacing, 1.0, 1.2)   # below 4 * min_spacing
    with pytest.raises(ValueError, match="pass kappa=0 to override"):
        sup_riesz_energy(m, 0.5, bad)
    rep = sup_riesz_energy(m, 0.5, bad, kappa=0.0)
    assert rep.energy_at_best > 0


def test_sup_riesz_coarsening_cap(rng):
    m = random_measure(rng, n=15)
    rep = sup_riesz_energy(m, 0.5, ScaleGrid(0.01, 3.0, 1.02),
                           kappa=0.0, max_radii=16)
    assert len(rep.grid_radii) <= 16
    assert len(rep.grid_of_pairs) == len(rep.grid_radii) * (len(rep.grid_radii) - 1) // 2


@pytest.mark.parametrize("max_radii", [0, 1])
def test_sup_riesz_coarsening_below_two_radii_raises(rng, max_radii):
    # the two-radii check ran before the coarsening, where a ScaleGrid always
    # has two: 1 failed in TruncationPair and 0 in argmax of an empty matrix
    m = random_measure(rng, n=15)
    with pytest.raises(ValueError, match=f"need at least two usable radii; "
                                         f"max_radii={max_radii}"):
        sup_riesz_energy(m, 0.5, ScaleGrid(0.01, 3.0, 1.02), kappa=0.0,
                         max_radii=max_radii)
    assert len(sup_riesz_energy(m, 0.5, ScaleGrid(0.01, 3.0, 1.02), kappa=0.0,
                                max_radii=2).grid_radii) == 2


def test_rotation_equivariance_axis_permutation(rng):
    m = random_measure(rng, n=30)
    swapped = WeightedPointMeasure(m.points[:, ::-1], m.weights)
    pair = TruncationPair(0.2, 1.5)
    for i in [0, 7, 19]:
        a = truncated_riesz(m, m.points[i], pair, 0.9)
        b = truncated_riesz(swapped, swapped.points[i], pair, 0.9)
        np.testing.assert_array_equal(a, b[::-1])
    assert riesz_energy(m, pair, 0.9) == riesz_energy(swapped, pair, 0.9)


def test_rotation_invariance_general(rng):
    m = random_measure(rng, n=25)
    th = 0.6
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    rotated = WeightedPointMeasure(m.points @ R.T, m.weights)
    pair = TruncationPair(0.3, 2.0)
    assert riesz_energy(rotated, pair, 0.8) == pytest.approx(
        riesz_energy(m, pair, 0.8), rel=1e-10)


def test_sup_riesz_over_pair_budget_raises_before_any_chunk(tiny_pair_budget):
    m = build_cantor(2, 0.5, 2)          # 16 x 16 pairs, 2 values each
    with pytest.raises(PointBudgetError, match="512 > budget 10"):
        sup_riesz_energy(m, 0.5, ScaleGrid(0.1, 1.0, 1.5), kappa=0.0)
