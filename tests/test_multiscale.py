import math

import numpy as np
import pytest

from densq import (
    EnergyReport,
    RadialProfile,
    ScaleGrid,
    ThinBoundaryNotFound,
    WeightedPointMeasure,
    ad_regularity_diagnostic,
    beta2,
    beta_energy,
    build_cantor,
    build_dirac,
    build_flat,
    build_gamma_curve,
    density,
    density_difference,
    find_thin_boundary_radius,
    local_energy_ratio,
    resolved_floor,
    smoothed_density_difference,
    square_function_and_wolff_energy,
    square_function_energy,
    sup_riesz_energy,
    verify_convolution_identity,
    wolff_energy,
)
from densq import betas, multiscale, riesz
from densq.multiscale import as_atom_indices

from conftest import brute_mass, random_measure


# ---------------------------------------------------------------------------
# scale grid

def test_scale_grid_radii():
    g = ScaleGrid(1.0, 10.0, 2.0)
    np.testing.assert_allclose(g.radii, [1.0, 2.0, 4.0, 8.0])
    assert g.log_step == pytest.approx(math.log(2.0))


def test_scale_grid_validation():
    with pytest.raises(ValueError):
        ScaleGrid(0.0, 1.0, 1.1)
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 0.5, 1.1)
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 10.0, 2.5)     # q > 2
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 1.05, 1.1)     # fewer than two radii
    with pytest.raises(ValueError):
        ScaleGrid.default_for(build_dirac(2, [0, 0], 1.0))


def test_cell_widths_clip_to_floor_and_top():
    g = ScaleGrid(1.0, 10.0, 2.0)          # cells [1, 2), [2, 4), [4, 8), [8, 16)
    np.testing.assert_array_equal(g.cell_widths(0.0), np.full(4, math.log(2.0)))
    np.testing.assert_array_equal(
        g.cell_widths(3.0, 6.0), [0.0, math.log(4.0 / 3.0), math.log(6.0 / 4.0), 0.0])
    # a column of tops gives one row per top; a top below a cell empties it
    np.testing.assert_array_equal(
        g.cell_widths(0.0, np.array([[1.5], [20.0]])),
        [[math.log(1.5), 0.0, 0.0, 0.0], [math.log(2.0)] * 4])
    # a floor above the whole grid leaves every cell empty
    np.testing.assert_array_equal(g.cell_widths(16.0), np.zeros(4))


# ---------------------------------------------------------------------------
# densities

def test_density_dirac():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    assert density(d, [0, 0], 4.0, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        density(d, [0, 0], 0.0, 0.5)


def test_density_flat_lattice():
    m = build_flat(2, 1, 1.0, 0.005)
    for r in [0.05, 0.11, 0.21]:
        val = density(m, [0.0, 0.0], r, 1.0)
        assert abs(val - 2.0) <= 2 * 0.005 / r


def test_density_cantor_theta_constant_across_generations():
    # theta at generation-cell scales is constant by self-similarity
    m = build_cantor(2, 0.5, 4)
    lam = 1 / 16
    x = m.points[0]
    side = lambda k: lam ** k
    thetas = [density(m, x, math.sqrt(2) * side(k), 0.5) for k in [1, 2, 3]]
    assert max(thetas) / min(thetas) == pytest.approx(1.0, abs=1e-9)


def test_density_difference_dirac():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    got = density_difference(d, [0, 0], 1.0, 0.5)
    assert got == pytest.approx(1 - 1 / math.sqrt(2), rel=1e-12)
    # once both balls hold everything: M (1 - 2^-s) r^-s
    m = random_measure(np.random.default_rng(0), n=20)
    r = m.support_radius + float(np.linalg.norm(m.support_center)) + 1.0
    got = density_difference(m, [0, 0], r, 0.7)
    expect = m.total_mass * (1 - 2.0 ** -0.7) * r ** -0.7
    assert got == pytest.approx(expect, rel=1e-12)


def test_density_difference_flat_bound():
    h = 0.004
    m = build_flat(2, 1, 1.0, h)
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = np.array([rng.uniform(-0.2, 0.2), 0.0])
        r = rng.uniform(4 * h, 0.25)
        assert abs(density_difference(m, x, r, 1.0)) <= 4 * h / r


def test_delta_dilation_covariance(rng):
    m = random_measure(rng, n=30)
    s = 0.8
    for lam in [0.5, 3.0]:
        scaled = WeightedPointMeasure(m.points * lam, m.weights)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            r = rng.uniform(0.2, 1.5)
            a = density_difference(scaled, lam * x, lam * r, s)
            b = lam ** (-s) * density_difference(m, x, r, s)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# energies: closed forms and invariants

def test_sf_energy_dirac_pure_tail():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    rep = square_function_energy(d, 0.5, ScaleGrid(1.0, 100.0, 1.1))
    expect = (1 - 2.0 ** -0.5) ** 2   # / (2 * 0.5 * 1)
    assert rep.total == pytest.approx(expect, rel=1e-12)
    assert rep.tail == rep.total
    assert rep.discrete_total == 0.0


def test_wolff_energy_dirac_pure_tail():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    rep = wolff_energy(d, 0.5, ScaleGrid(1.0, 100.0, 1.1))
    assert rep.total == pytest.approx(1.0, rel=1e-12)


def test_wolff_flat_log_growth():
    m = build_flat(2, 1, 1.0, 0.002)
    mask = np.flatnonzero(np.abs(m.points[:, 0]) <= 0.5)
    grid = ScaleGrid(0.012, 0.2, 1.1)
    rep = wolff_energy(m, 1.0, grid, eval_indices=mask)
    eval_mass = float(m.weights[mask].sum())
    model = 4.0 * eval_mass * math.log(grid.r_max / grid.r_min)
    assert rep.discrete_total == pytest.approx(model, rel=0.05)


def test_energy_report_invariants(rng):
    m = random_measure(rng, n=40)
    grid = ScaleGrid(0.05, 3.0, 1.15)
    for fn in (square_function_energy, wolff_energy):
        rep = fn(m, 0.6, grid, include_per_point=True)
        recon = math.fsum(v for _, v in rep.per_scale) + rep.tail
        assert rep.total == pytest.approx(recon, rel=1e-12)
        assert all(v >= 0 for _, v in rep.per_scale)
        assert rep.per_point is not None
        assert math.fsum(rep.per_point.tolist()) == pytest.approx(rep.total,
                                                                  rel=1e-9)


def test_energy_translation_bit_identical():
    # dyadic translation of a dyadic measure: exact arithmetic end to end
    m = build_cantor(2, 1.0, 4)
    t = np.array([1.5, -2.25])
    shifted = WeightedPointMeasure(m.points + t, m.weights)
    grid = ScaleGrid(0.01, 4.0, 1.1)
    for fn in (square_function_energy, wolff_energy):
        a = fn(m, 0.5, grid)
        b = fn(shifted, 0.5, grid)
        assert a.total == b.total
        assert a.tail == b.tail


def test_energy_tail_against_quadrature():
    # closed-form tail over [T, 100T] vs a dense log-midpoint quadrature
    m = build_cantor(2, 0.5, 3)
    s, p = 0.5, 2.0
    M = m.total_mass
    T = 3.0
    coeff = (M * (1 - 2.0 ** -s)) ** p
    closed = coeff / (p * s) * (T ** (-p * s) - (100 * T) ** (-p * s))
    q = 1.05
    n = int(math.ceil(math.log(100) / math.log(q)))
    edges = T * q ** np.arange(n + 1)
    edges[-1] = 100 * T
    mids = np.sqrt(edges[:-1] * edges[1:])
    widths = np.log(edges[1:] / edges[:-1])
    numeric = float((coeff * mids ** (-p * s) * widths).sum())
    assert numeric == pytest.approx(closed, rel=0.01)
    # and the reported tail itself is the exact closed form from T_i
    rep = square_function_energy(m, s, ScaleGrid(1e-4, 8.0, 1.1))
    Ti = np.maximum(m.farthest_distances(), 1e-4)
    expect_tail = float((m.weights * coeff / (p * s * Ti ** (p * s))).sum())
    assert rep.tail == pytest.approx(expect_tail, rel=1e-12)


def test_energy_pure_tail_when_grid_above_support(rng):
    # grid entirely beyond the support: the report is exactly the closed-form
    # tail integral from r_min
    m = random_measure(rng, n=25)
    start = m.support_diameter + float(np.abs(m.points).max()) + 1.0
    grid = ScaleGrid(start, 100 * start, 1.1)
    s, p = 0.7, 2.0
    rep = square_function_energy(m, s, grid)
    assert rep.discrete_total == 0.0
    closed = float((m.weights * (m.total_mass * (1 - 2.0 ** -s)) ** p
                    / (p * s * start ** (p * s))).sum())
    assert rep.total == pytest.approx(closed, rel=1e-12)


def test_sf_dirac_diverges_as_grid_floor_shrinks():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    totals = [square_function_energy(d, 0.5, ScaleGrid(r_min, 10.0, 1.1)).total
              for r_min in (1.0, 0.01, 1e-4)]
    assert totals[0] < totals[1] < totals[2]
    assert totals[2] > 50 * totals[0]


def test_depth0_cantor_tail_ratio_closed_form():
    # single-atom degenerate family: both energies are pure tails and their
    # ratio is (1 - 2^-s)^2 independent of the grid
    for s in [0.5, 0.8, 1.2]:
        m = build_cantor(2, s, 0)
        grid = ScaleGrid(0.7, 31.0, 1.13)
        sf = square_function_energy(m, s, grid)
        wf = wolff_energy(m, s, grid)
        assert sf.discrete_total == wf.discrete_total == 0.0
        assert sf.total / wf.total == pytest.approx((1 - 2.0 ** -s) ** 2,
                                                    rel=1e-12)


def test_energy_quadrature_consistency_cantor():
    for s in [0.5, 1.2]:
        m = build_cantor(2, s, 5)
        grid_kwargs = dict(kappa=4.0)
        r_min, r_max = 4 * m.min_spacing, 8 * m.support_radius
        coarse = ScaleGrid(r_min, r_max, 1.2)
        dense = ScaleGrid(r_min, r_max, 1.02)
        for fn in (square_function_energy, wolff_energy):
            a = fn(m, s, coarse, **grid_kwargs).total
            b = fn(m, s, dense, **grid_kwargs).total
            assert a == pytest.approx(b, rel=0.05)


def test_sf_energy_matches_direct_quadrature_oracle():
    # independent oracle: direct per-atom loop using the pointwise
    # density_difference operation and explicit cell arithmetic
    m = build_cantor(2, 0.8, 3)
    s = 0.8
    grid = ScaleGrid(0.05, 1.0, 1.02)
    rep = square_function_energy(m, s, grid)
    q = grid.q
    floor = 4.0 * m.min_spacing
    total = 0.0
    for r in grid.radii:
        sample = r * math.sqrt(q)
        acc = 0.0
        for i in range(m.n_atoms):
            T = max(m.farthest_distances()[i], grid.r_min)
            width = math.log(min(T, r * q) / max(r, floor))
            if width <= 0:
                continue
            d = density_difference(m, m.points[i], sample, s)
            acc += m.weights[i] * d * d * width
        total += acc
    assert rep.discrete_total == pytest.approx(total, rel=1e-9)


def test_energy_eval_indices_subset(rng):
    m = random_measure(rng, n=30)
    grid = ScaleGrid(0.1, 2.0, 1.2)
    idx = np.arange(10)
    rep = square_function_energy(m, 0.5, grid, eval_indices=idx,
                                 include_per_point=True)
    assert rep.per_point.shape == (10,)
    full = square_function_energy(m, 0.5, grid, include_per_point=True)
    np.testing.assert_allclose(rep.per_point, full.per_point[:10], rtol=1e-12)


def test_cauchy_schwarz_coupling(rng):
    m = random_measure(rng, n=50)
    grid = ScaleGrid(0.05, 2.0, 1.1)
    e1 = square_function_energy(m, 0.7, grid, p=1.0)
    e2 = square_function_energy(m, 0.7, grid, p=2.0)
    J = len(grid.radii)
    bound = e1.discrete_total ** 2 / (m.total_mass * J * grid.log_step)
    assert e2.discrete_total >= bound * (1 - 1e-12)


def test_energy_rejects_bad_p(rng):
    m = random_measure(rng, n=10)
    with pytest.raises(ValueError):
        square_function_energy(m, 0.5, ScaleGrid(0.1, 1.0, 1.2), p=0.5)


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_energies_reject_p_outside_one_to_infinity(monkeypatch, p):
    # p = nan used to give total = nan and p = inf a total of 0.0
    import densq.betas
    import densq.multiscale

    def no_profile(*args, **kwargs):
        raise AssertionError("profile work before the p check")

    monkeypatch.setattr(densq.multiscale, "ball_masses", no_profile)
    monkeypatch.setattr(densq.betas, "_beta2_profile", no_profile)
    m = build_cantor(2, 0.5, 3)
    grid = ScaleGrid(0.01, 1.0, 1.1)
    for call in (lambda: square_function_energy(m, 0.5, grid, p=p),
                 lambda: wolff_energy(m, 0.5, grid, p=p),
                 lambda: square_function_and_wolff_energy(m, 0.5, grid, p=p),
                 lambda: beta_energy(m, grid, p=p)):
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            call()


def test_energy_rejects_nonpositive_s():
    # s = 0 used to give total = nan and s < 0 a negative tail
    m = build_cantor(2, 0.5, 3)
    grid = ScaleGrid.default_for(m)
    for fn in (square_function_energy, wolff_energy, square_function_and_wolff_energy):
        for s in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="s must be positive"):
                fn(m, s, grid)


def test_nan_radius_rejected_by_pointwise_queries():
    # a nan radius used to pass the r < 0 checks and find no atoms, so density
    # and density_difference returned nan
    m = build_cantor(2, 0.5, 3)
    index, x, nan = m.ball_index(), m.points[0], float("nan")
    for call in (lambda: density(m, x, nan, 0.5),
                 lambda: density_difference(m, x, nan, 0.5),
                 lambda: beta2(m, x, nan),
                 lambda: find_thin_boundary_radius(m, x, nan),
                 lambda: local_energy_ratio(m, x, nan, 0.5, 0.5),
                 lambda: index.ball_atoms(x, nan),
                 lambda: index.mass_in_ball(x, nan)):
        with pytest.raises(ValueError, match="not nan"):
            call()
    for inner, outer in ((nan, 1.0), (0.1, nan), (nan, nan)):
        with pytest.raises(ValueError, match="r_inner <= r_outer"):
            index.annulus_atoms(x, inner, outer)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -1.0])
def test_energies_reject_invalid_kappa(kappa):
    # nan and inf used to drop every grid cell (r_below: NaN, beta total nan)
    # and -1 acted as 0
    m = build_cantor(2, 0.5, 3)
    grid = ScaleGrid(0.01, 1.0, 1.1)
    calls = [lambda: resolved_floor(m, kappa),
             lambda: ScaleGrid.default_for(m, kappa=kappa),
             lambda: square_function_energy(m, 0.5, grid, kappa=kappa),
             lambda: wolff_energy(m, 0.5, grid, kappa=kappa),
             lambda: square_function_and_wolff_energy(m, 0.5, grid, kappa=kappa),
             lambda: beta_energy(m, grid, kappa=kappa),
             lambda: sup_riesz_energy(m, 0.5, grid, kappa=kappa),
             lambda: ad_regularity_diagnostic(m, 0.5, grid, kappa=kappa)]
    for call in calls:
        with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
            call()


def test_kappa_zero_resolves_every_scale():
    m = build_cantor(2, 0.5, 3)
    grid = ScaleGrid(1e-4, 1.0, 1.1)
    assert resolved_floor(m, 0.0) == 0.0
    assert resolved_floor(m, 4.0) == 4.0 * m.min_spacing
    for rep in (square_function_energy(m, 0.5, grid, kappa=0.0),
                beta_energy(m, grid, kappa=0.0)):
        assert rep.clipped_low_r == {"r_below": 1e-4, "note": "no low-r clipping"}


def test_eval_indices_out_of_range_rejected():
    m = build_cantor(2, 0.5, 3)
    n = m.n_atoms
    np.testing.assert_array_equal(as_atom_indices([0, n - 1], n), [0, n - 1])
    for bad in ([-1], [0, n], [n + 5]):
        with pytest.raises(ValueError, match="atom indices must lie in"):
            as_atom_indices(bad, n)
        with pytest.raises(ValueError, match="atom indices must lie in"):
            square_function_energy(m, 0.5, ScaleGrid(0.1, 1.0, 1.2), eval_indices=bad)


def test_energy_report_assemble_sums_and_echoes():
    m = build_cantor(2, 0.5, 2)
    grid = ScaleGrid(0.1, 1.0, 1.2)
    rep = EnergyReport.assemble("wolff", 0.5, 2.0, grid, m, 4.0, 0.2, 3,
                                [(0.1, 1e-17), (0.2, 1.0), (0.3, -1.0)], tail=0.5,
                                extra=7)
    assert rep.total == 0.5 + 1e-17          # exactly rounded, not 0.5
    assert rep.tail == 0.5 and rep.per_point is None
    assert rep.clipped_low_r == grid.low_r_clip(0.2)
    assert list(rep.params_echo) == ["kind", "s", "p", "grid", "kappa", "n_atoms",
                                     "eval_count", "extra", "total_mass", "sample_rule"]
    assert rep.params_echo["eval_count"] == 3 and rep.params_echo["extra"] == 7


def test_pair_reports_equal_single_functionals(rng):
    # generic engine with non-dyadic weights, a windowed segment curve, and
    # per-point breakdowns: each half of the pair is the single function's
    # report bit for bit
    g = build_gamma_curve(math.pi / 6, 3.0, 1 / 64)
    cases = [(random_measure(rng, n=120), 0.7, ScaleGrid(0.02, 4.0, 1.1), None),
             (g, 1.0, ScaleGrid(0.1, 1.0, 1.1),
              np.flatnonzero(np.abs(g.points[:, 0]) <= 1.5))]
    for m, s, grid, ev in cases:
        sf, wf = square_function_and_wolff_energy(m, s, grid, eval_indices=ev,
                                                  include_per_point=True)
        sf1 = square_function_energy(m, s, grid, eval_indices=ev,
                                     include_per_point=True)
        wf1 = wolff_energy(m, s, grid, eval_indices=ev, include_per_point=True)
        for pair_rep, single in ((sf, sf1), (wf, wf1)):
            assert pair_rep.to_json_dict() == single.to_json_dict()
            assert pair_rep.total == single.total
            np.testing.assert_array_equal(pair_rep.per_point, single.per_point)


# ---------------------------------------------------------------------------
# smoothed differences and the convolution identity

def test_profile_derivative_consistency():
    grid = np.linspace(0.05, 1.95, 300)
    for prof in [RadialProfile.gaussian(), RadialProfile.bump(),
                 RadialProfile.logistic_cap(25.0)]:
        err = prof.check_derivative(grid)
        assert err <= 1e-6


def test_smoothed_difference_gaussian_dirac():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    phi = RadialProfile.gaussian()
    for t, s in [(0.5, 0.5), (2.0, 1.3)]:
        got = smoothed_density_difference(d, phi, [0.0, 0.0], t, s)
        assert got == pytest.approx(t ** -s - (2 * t) ** -s, rel=1e-12)


def test_smoothed_difference_sharpens_to_indicator(rng):
    m = random_measure(rng, n=25)
    x = np.array([0.1, -0.2])
    s, r = 0.7, 0.9
    # keep the test radius away from atom distances so the limit is stable
    d = np.sqrt(((m.points - x) ** 2).sum(1))
    assert np.abs(d - r).min() > 1e-3 and np.abs(d - 2 * r).min() > 1e-3
    sharp = density_difference(m, x, r, s)
    vals = [smoothed_density_difference(m, RadialProfile.logistic_cap(k), x, r, s)
            for k in (50, 200, 1000, 5000)]
    errs = [abs(v - sharp) for v in vals]
    assert errs[-1] < 1e-3
    assert errs[-1] <= errs[0]


def test_convolution_identity_dirac():
    d = build_dirac(2, [0.3, 0.1], 2.0)
    for phi in [RadialProfile.gaussian(), RadialProfile.bump()]:
        # x at the atom and away from it
        r1 = verify_convolution_identity(d, phi, [0.3, 0.1], 1.7, 0.6)
        r2 = verify_convolution_identity(d, phi, [0.0, 0.0], 0.8, 1.2)
        assert r1 < 1e-6 and r2 < 1e-6


def test_convolution_identity_random_measure(rng):
    m = random_measure(rng, n=50)
    for phi in [RadialProfile.gaussian(), RadialProfile.bump()]:
        res = verify_convolution_identity(m, phi, [0.2, 0.4], 0.9, 0.8,
                                          quad_points=512)
        assert res < 1e-6


def test_convolution_identity_both_sides_zero(rng):
    # compactly supported profile, all atoms far outside its reach: 0 == 0
    m = random_measure(rng, n=10)
    phi = RadialProfile.bump()
    x = np.array([500.0, 0.0])
    assert verify_convolution_identity(m, phi, x, 1.0, 0.8) == 0.0


def test_convolution_identity_refuses_few_nodes(rng):
    m = random_measure(rng, n=5)
    with pytest.raises(ValueError):
        verify_convolution_identity(m, RadialProfile.gaussian(), [0, 0], 1.0,
                                    0.5, quad_points=8)


# ---------------------------------------------------------------------------
# thin boundary search

def test_thin_boundary_dirac_returns_r():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    assert find_thin_boundary_radius(d, [0.0, 0.0], 0.5) == 0.5


def test_thin_boundary_flat_line():
    m = build_flat(2, 1, 4.0, 0.01)
    rp = find_thin_boundary_radius(m, [0.0, 0.0], 0.5, t_thin=100.0)
    assert 0.5 <= rp <= 1.0


def test_thin_boundary_avoids_sphere_shell():
    # atoms concentrated on a circle of radius rho in (r, 2r): candidates near
    # rho fail, so the search must land away from the shell
    rng = np.random.default_rng(9)
    n = 400
    th = rng.uniform(0, 2 * math.pi, size=n)
    rho = 1.4
    pts = rho * np.stack([np.cos(th), np.sin(th)], axis=1)
    m = WeightedPointMeasure(pts, np.full(n, 1.0 / n))
    r = 1.0
    t_thin = 64.0
    rp = find_thin_boundary_radius(m, [0.0, 0.0], r, t_thin=t_thin)
    assert abs(rp - rho) / rp > 2.0 ** -10
    # verify the thin-boundary condition at the returned radius by brute force
    d = np.sqrt((pts ** 2).sum(1))
    m2 = m.weights[(d <= 2 * rp)].sum()
    for lam in [2.0 ** -j for j in range(11)]:
        band = m.weights[(d >= (1 - lam) * rp) & (d <= (1 + lam) * rp)].sum()
        assert band <= t_thin * lam * m2 + 1e-15
    # a candidate sitting on the shell violates the condition
    for lam in [2.0 ** -j for j in range(11)]:
        band = m.weights[(d >= (1 - lam) * rho) & (d <= (1 + lam) * rho)].sum()
        if band > t_thin * lam * m.weights[d <= 2 * rho].sum():
            break
    else:
        pytest.fail("shell radius unexpectedly satisfies the condition")


def test_thin_boundary_not_found_payload():
    # single shell exactly at every candidate: force failure with tiny t
    rng = np.random.default_rng(4)
    th = rng.uniform(0, 2 * math.pi, size=200)
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    m = WeightedPointMeasure(pts, np.full(200, 1.0 / 200))
    with pytest.raises(ThinBoundaryNotFound) as err:
        find_thin_boundary_radius(m, [0.0, 0.0], 0.5, t_thin=1e-9)
    assert err.value.best_radius >= 0.5
    assert err.value.worst_ratio > 1.0


def test_thin_boundary_zero_bound_reports_largest_lambda():
    # t_thin = 0 makes every bound 0: each candidate fails at the largest lam
    # with an infinite ratio, and the first candidate is reported
    m = build_flat(2, 1, 1.0, 1 / 64)
    with pytest.raises(ThinBoundaryNotFound) as err:
        find_thin_boundary_radius(m, [0.0, 0.0], 0.2, t_thin=0.0,
                                  lambda_grid=[0.25, 0.5])
    assert err.value.best_radius == 0.2
    assert err.value.worst_ratio == math.inf
    assert err.value.worst_lambda == 0.5


def test_thin_boundary_shell_includes_its_inner_sphere():
    # the shell |d - r'| <= lam r' is closed at both ends: at r' = r the atom at
    # distance (1 - lam) r is in it and the band exceeds the bound, and every
    # larger candidate leaves it out
    m = WeightedPointMeasure([[0.0, 0.0], [0.5, 0.0]], [1.0, 1.0])
    rp = find_thin_boundary_radius(m, [0.0, 0.0], 1.0, t_thin=0.5, lambda_grid=[0.5])
    assert rp == 1.0 + 1.0 / 63


def direct_thin_boundary(m, x, r, t_thin, lams):
    """Candidate-by-candidate scan with brute-force ball and shell sums:
    the radius found, or the (ratio, radius, lam) reported on failure."""
    d2 = ((m.points - x) ** 2).sum(axis=1)
    w = m.weights
    lams = sorted(lams, reverse=True)
    best = (math.inf, r, lams[0])
    n = 64
    for rp in r + (r / (n - 1)) * np.arange(n):
        m2 = w[d2 <= (2.0 * rp) ** 2].sum()
        for lam in lams:
            shell = (d2 <= ((1.0 + lam) * rp) ** 2) & (d2 >= ((1.0 - lam) * rp) ** 2)
            band, bound = w[shell].sum(), t_thin * lam * m2
            if band > bound:
                ratio = band / bound if bound > 0 else math.inf
                if ratio < best[0]:
                    best = (ratio, rp, lam)
                break
        else:
            return float(rp)
    return tuple(float(v) for v in best)


def test_thin_boundary_matches_direct_scan(rng):
    # lattice atoms sit on many candidate shells; integer weights keep every
    # sum exact, so the result must match the direct scan exactly
    lams = [2.0 ** (-j) for j in range(11)]
    for trial in range(40):
        pts = rng.integers(-8, 9, size=(150, 2)).astype(float) / 8.0
        m = WeightedPointMeasure(pts, rng.integers(1, 6, size=150).astype(float))
        x = m.points[0]
        r = int(rng.integers(1, 8)) / 16.0
        t_thin = [0.5, 2.0, 8.0, 64.0][trial % 4]
        grid = lams if trial % 2 else list(rng.uniform(0.05, 1.0, size=4))
        expect = direct_thin_boundary(m, x, r, t_thin, grid)
        try:
            got = find_thin_boundary_radius(m, x, r, t_thin=t_thin, lambda_grid=grid)
        except ThinBoundaryNotFound as err:
            got = (err.worst_ratio, err.best_radius, err.worst_lambda)
        assert got == expect


def test_thin_boundary_requires_mass():
    d = build_dirac(2, [10.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        find_thin_boundary_radius(d, [0.0, 0.0], 0.5)


# ---------------------------------------------------------------------------
# local energy ratio

def test_local_ratio_dirac_closed_form():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    s, r0, delta = 0.5, 1.0, 0.25
    got = local_energy_ratio(d, [0.0, 0.0], r0, s, delta, q=1.002)
    # analytic: (1 - 2^-s)^2 int_{d r0}^{r0/d} r^(-2s-1) dr * r0^(2s)
    c = (1 - 2.0 ** -s) ** 2
    expect = c / (2 * s) * (delta ** (-2 * s) - delta ** (2 * s))
    assert got == pytest.approx(expect, rel=5e-3)


def test_local_ratio_flat_negligible():
    m = build_flat(2, 1, 2.0, 0.002)
    ratio = local_energy_ratio(m, [0.0, 0.0], 0.25, 1.0, 0.5)
    assert ratio < 1e-3


def test_local_ratio_cantor_depth_stable():
    vals = []
    for depth in [5, 6]:
        m = build_cantor(2, 0.5, depth)
        # a generation-2 cell ball
        cell = m.points[: 4 ** (depth - 2)]
        center = cell.mean(axis=0)
        r0 = math.sqrt(2) * (1 / 16) ** 2
        vals.append(local_energy_ratio(m, center, r0, 0.5, 0.25))
    assert vals[0] > 0
    assert abs(vals[1] / vals[0] - 1) <= 0.20


def test_local_ratio_degenerate_ball():
    d = build_dirac(2, [5.0, 5.0], 1.0)
    with pytest.raises(ValueError):
        local_energy_ratio(d, [0.0, 0.0], 0.5, 0.5, 0.25)


# ---------------------------------------------------------------------------
# AD-regularity diagnostic

def test_ad_diagnostic_cantor_bounded():
    m = build_cantor(2, 0.5, 5)
    grid = ScaleGrid(4 * m.min_spacing, 8 * m.support_radius, 1.1)
    lo, hi = ad_regularity_diagnostic(m, 0.5, grid)
    assert hi / lo <= 64.0
    # brute-force check of the extrema over the same radii
    radii = grid.radii
    radii = radii[(radii >= 4 * m.min_spacing) & (radii <= m.support_diameter)]
    theta = np.array([[brute_mass(m, x, r) / r ** 0.5 for r in radii]
                      for x in m.points[::37]])
    assert theta.min() >= lo - 1e-12
    assert theta.max() <= hi + 1e-12


def test_ad_diagnostic_flat_near_one():
    spreads = []
    for h in [0.02, 0.005]:
        m = build_flat(2, 1, 1.0, h)
        inner = np.flatnonzero(np.abs(m.points[:, 0]) <= 0.5)
        grid = ScaleGrid(0.08, 0.4, 1.1)
        lo, hi = ad_regularity_diagnostic(m, 1.0, grid, eval_indices=inner)
        assert lo == pytest.approx(2.0, abs=2 * h / 0.08)
        spreads.append(hi / lo - 1.0)
        assert spreads[-1] <= 2 * h / 0.08
    assert spreads[1] < spreads[0]


def test_ad_diagnostic_dirac_unbounded():
    d = build_dirac(2, [0.0, 0.0], 1.0)
    grid = ScaleGrid(1e-4, 10.0, 1.2)
    lo, hi = ad_regularity_diagnostic(d, 0.5, grid)
    # theta = r^-s over the whole grid: the spread is the full grid's s-power
    assert hi / lo > 100.0
    assert hi == pytest.approx(1e-4 ** -0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# the resolution floor, read only where it can bind

def _floor_readers(m, grid, win, kappa):
    """The reports of every function that reads the resolution floor."""
    sf, wf = square_function_and_wolff_energy(m, 1.0, grid, eval_indices=win,
                                              kappa=kappa, include_per_point=True)
    out = [sf.to_json_dict(), wf.to_json_dict(), sf.per_point.tobytes(),
           wf.per_point.tobytes(),
           beta_energy(m, grid, eval_indices=win, kappa=kappa).to_json_dict(),
           ad_regularity_diagnostic(m, 1.0, grid, eval_indices=win, kappa=kappa)]
    try:
        out.append(sup_riesz_energy(m, 1.0, grid, eval_indices=win,
                                    kappa=kappa).to_json_dict())
    except ValueError as exc:       # the grid starts below the floor
        out.append(str(exc))
    return out


def _tent_window():
    m = build_gamma_curve(0.4, 2.0, 1 / 128)
    return m, np.flatnonzero(np.abs(m.points[:, 0]) <= 0.5)


def test_windowed_tent_calls_skip_the_spacing_search():
    m, win = _tent_window()
    _floor_readers(m, ScaleGrid(0.125, 1.0, 1.1), win, 4.0)
    assert m._index is None and m._min_spacing is None


def test_floor_shortcut_matches_the_exact_floor(monkeypatch):
    m, win = _tent_window()
    kappa = 4.0
    edge = kappa * math.dist(m.points[0], m.points[1])
    floor = kappa * m.min_spacing
    assert floor < np.nextafter(edge, 0.0)      # the tent's flanks are denser
    r_mins = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), floor,
              0.5 * floor, edge * (1.0 + 1e-9), 0.125]
    fast = [_floor_readers(m, ScaleGrid(r, 1.0, 1.1), win, kappa) for r in r_mins]
    for mod in (multiscale, betas, riesz):
        monkeypatch.setattr(mod, "_floor_for", lambda m, k, r: resolved_floor(m, k))
    exact = [_floor_readers(m, ScaleGrid(r, 1.0, 1.1), win, kappa) for r in r_mins]
    assert fast == exact
    assert isinstance(exact[4][-1], str)        # the floor binds at 0.5 * floor
