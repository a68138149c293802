import math

import numpy as np
import pytest

from densq import (
    ScaleGrid,
    WeightedPointMeasure,
    beta2,
    beta_energy,
    beta_inf,
    beta_p,
    build_cantor,
    build_flat,
    build_gamma_curve,
)

from densq.betas import _beta2_profile

from conftest import brute_ball_atoms, brute_mass, random_measure
from test_measures import tie_radii


# ---------------------------------------------------------------------------
# scan oracles (independent of the library's internals)

def scan_beta2(measure, x, r, n_angles=4001):
    """Dense direction scan plus ternary refinement around the best angle; for
    each line direction the best offset is the weighted mean of the normal
    projections."""
    x = np.asarray(x, dtype=float)
    d2 = ((measure.points - x) ** 2).sum(axis=1)
    sel = d2 <= r * r
    pts = measure.points[sel] - x
    w = measure.weights[sel]

    def val(th):
        n_vec = np.array([-math.sin(th), math.cos(th)])
        proj = pts @ n_vec
        mu = (w * proj).sum() / w.sum()
        return float((w * (proj - mu) ** 2).sum())

    thetas = np.linspace(0.0, math.pi, n_angles, endpoint=False)
    vals = [val(t) for t in thetas]
    k = int(np.argmin(vals))
    lo = thetas[k] - math.pi / n_angles
    hi = thetas[k] + math.pi / n_angles
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if val(m1) <= val(m2):
            hi = m2
        else:
            lo = m1
    best = min(min(vals), val(0.5 * (lo + hi)))
    return math.sqrt(best / r ** 3)


def scan_beta1(measure, x, r, n_angles=4001):
    x = np.asarray(x, dtype=float)
    d2 = ((measure.points - x) ** 2).sum(axis=1)
    sel = d2 <= r * r
    pts = measure.points[sel] - x
    w = measure.weights[sel]
    best = math.inf
    for th in np.linspace(0.0, math.pi, n_angles, endpoint=False):
        n_vec = np.array([-math.sin(th), math.cos(th)])
        proj = pts @ n_vec
        order = np.argsort(proj)
        cw = np.cumsum(w[order])
        b = proj[order][np.searchsorted(cw, 0.5 * cw[-1])]
        best = min(best, float((w * np.abs(proj - b)).sum()))
    return (best / r ** 2) ** 1.0


def scan_beta_inf(measure, x, r):
    """Minimal strip half-width over all pair directions (hull edges included)."""
    x = np.asarray(x, dtype=float)
    d2 = ((measure.points - x) ** 2).sum(axis=1)
    pts = measure.points[d2 <= r * r] - x
    n = len(pts)
    if n == 1:
        return 0.0
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            e = pts[j] - pts[i]
            ln = np.linalg.norm(e)
            if ln == 0:
                continue
            nv = np.array([-e[1], e[0]]) / ln
            h = pts @ nv
            best = min(best, float(h.max() - h.min()))
    return best / 2.0 / r


# ---------------------------------------------------------------------------

def test_collinear_atoms_all_betas_zero():
    m = build_flat(2, 1, 1.0, 0.1)
    x, r = [0.0, 0.0], 0.7
    assert beta2(m, x, r)[0] == pytest.approx(0.0, abs=1e-12)
    assert beta_p(m, x, r, 1.0)[0] == pytest.approx(0.0, abs=1e-9)
    val, fit = beta_inf(m, x, r)
    assert val == 0.0
    assert fit.method == "hull_width"


def test_beta2_three_atoms_vs_scan(rng):
    for h in [0.1, 0.45, 1.3]:
        pts = np.array([[-1.0, 0.0], [0.0, h], [1.0, 0.0]])
        m = WeightedPointMeasure(pts, np.ones(3))
        val, fit = beta2(m, [0.0, 0.3], 3.0)
        ref = scan_beta2(m, [0.0, 0.3], 3.0)
        assert val == pytest.approx(ref, abs=1e-6)
        assert fit.method == "moment_closed_form"
        assert abs(np.linalg.norm(fit.direction) - 1.0) < 1e-12


def test_beta2_random_configs_vs_scan(rng):
    for _ in range(25):
        m = random_measure(rng, n=rng.integers(3, 30))
        x = rng.uniform(-0.5, 0.5, size=2)
        r = rng.uniform(0.5, 2.0)
        d2 = ((m.points - x) ** 2).sum(axis=1)
        if not (d2 <= r * r).any():
            continue
        val = beta2(m, x, r)[0]
        ref = scan_beta2(m, x, r)
        assert val == pytest.approx(ref, abs=1e-6)


def test_beta_p_equals_beta2_at_p2(rng):
    m = random_measure(rng, n=20)
    a = beta_p(m, [0.0, 0.0], 1.5, 2.0)
    b = beta2(m, [0.0, 0.0], 1.5)
    assert a[0] == b[0]
    assert a[1].method == b[1].method == "moment_closed_form"


def test_beta1_three_atoms_vs_scan():
    pts = np.array([[-1.0, 0.0], [0.0, 0.35], [1.0, 0.0]])
    m = WeightedPointMeasure(pts, np.ones(3))
    val, fit = beta_p(m, [0.0, 0.2], 2.5, 1.0)
    ref = scan_beta1(m, [0.0, 0.2], 2.5)   # already normalized by r^2
    assert fit.upper_bound
    assert val == pytest.approx(ref, abs=1e-4)


def test_beta_inf_square_corners():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    m = WeightedPointMeasure(pts, np.ones(4))
    val, fit = beta_inf(m, [0.5, 0.5], 1.0)
    assert val == pytest.approx(0.5, rel=1e-12)
    ref = scan_beta_inf(m, [0.5, 0.5], 1.0)
    assert val == pytest.approx(ref, rel=1e-12)


def test_beta_inf_tent_matches_scan():
    g = build_gamma_curve(math.pi / 8, 2.0, 1 / 32)
    apex = np.array([0.0, 0.5 * math.tan(math.pi / 8)])
    val, fit = beta_inf(g, apex, 0.5)
    ref = scan_beta_inf(g, apex, 0.5)
    assert val == pytest.approx(ref, rel=1e-9)
    assert val > 0


def test_beta_inf_random_vs_scan(rng):
    for _ in range(15):
        m = random_measure(rng, n=rng.integers(3, 15))
        x = rng.uniform(-0.5, 0.5, size=2)
        r = rng.uniform(0.8, 2.0)
        d2 = ((m.points - x) ** 2).sum(axis=1)
        if not (d2 <= r * r).any():
            continue
        assert beta_inf(m, x, r)[0] == pytest.approx(scan_beta_inf(m, x, r),
                                                     rel=1e-9, abs=1e-12)


def test_beta_inf_strip_holds_every_ball_atom(rng):
    # hull-edge strips and the degenerate sets without a 2-d hull: the line
    # through fit.point along fit.direction is within val * r of every atom
    a = 0.5 * math.tan(math.pi / 8)
    tent = build_gamma_curve(math.pi / 8, 2.0, 1 / 64)
    flank = tent.points[(tent.points[:, 0] > 0.05) & (tent.points[:, 0] < 0.45)]
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cases = [(WeightedPointMeasure(square, np.ones(4)), [0.5, 0.5], 1.0, 0.5),
             (build_flat(2, 1, 1.0, 1 / 16), [0.1, 0.0], 0.6, 0.0),
             (WeightedPointMeasure([[0.0, 0.0], [0.3, 0.4]], np.ones(2)),
              [0.0, 0.0], 1.0, 0.0),
             (WeightedPointMeasure([[0.2, -0.1]], np.ones(1)), [0.0, 0.0], 1.0, 0.0),
             (tent, [0.25, a / 2], 0.15, None),
             (WeightedPointMeasure(flank, np.ones(len(flank))), flank[7], 0.5, None)]
    for _ in range(20):
        m = random_measure(rng, n=rng.integers(3, 40))
        cases.append((m, m.points[0], rng.uniform(0.3, 2.0), None))
    for m, x, r, expected in cases:
        val, fit = beta_inf(m, x, r)
        if expected is not None:
            assert val == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert fit.method == "hull_width"
        assert abs(np.linalg.norm(fit.direction) - 1.0) <= 1e-12
        rel = m.points[brute_ball_atoms(m, x, r)] - fit.point
        off = rel - np.outer(rel @ fit.direction, fit.direction)
        assert np.sqrt((off ** 2).sum(axis=1)).max() <= val * r + 1e-12


@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("r", [0.0, -1.0])
def test_beta_p_rejects_nonpositive_radius(p, r):
    m = build_flat(2, 1, 1.0, 0.25)
    with pytest.raises(ValueError, match="r must be positive"):
        beta_p(m, [0.0, 0.0], r, p)


def test_beta2_apex_scales_linearly_in_alpha():
    # ball at the tent apex: beta_2 ~ c sin(alpha); fit the log-log slope
    alphas = [math.pi / 4 * 2.0 ** (-k) for k in range(4)]
    vals = []
    for a in alphas:
        g = build_gamma_curve(a, 2.0, 1 / 64)
        apex = np.array([0.0, 0.5 * math.tan(a)])
        val = beta2(g, apex, 0.25)[0]
        ref = scan_beta2(g, apex, 0.25)
        assert val == pytest.approx(ref, abs=1e-6)
        vals.append(val)
    lx = np.log([math.sin(a) for a in alphas])
    ly = np.log(vals)
    slope = np.polyfit(lx, ly, 1)[0]
    assert 0.8 <= slope <= 1.2


def test_holder_ordering(rng):
    # beta_2 <= sqrt(mass/r) * beta_inf on every queried ball
    for _ in range(30):
        m = random_measure(rng, n=rng.integers(3, 25))
        x = rng.uniform(-0.5, 0.5, size=2)
        r = rng.uniform(0.5, 2.0)
        d2 = ((m.points - x) ** 2).sum(axis=1)
        sel = d2 <= r * r
        if not sel.any():
            continue
        mass = float(m.weights[sel].sum())
        b2 = beta2(m, x, r)[0]
        binf = beta_inf(m, x, r)[0]
        assert b2 <= math.sqrt(mass / r) * binf + 1e-12


def test_beta_invariance(rng):
    m = random_measure(rng, n=20)
    x = np.array([0.1, -0.3])
    r = 1.2
    b2 = beta2(m, x, r)[0]
    binf = beta_inf(m, x, r)[0]
    # translation
    t = np.array([2.5, -1.0])
    mt = WeightedPointMeasure(m.points + t, m.weights)
    assert beta2(mt, x + t, r)[0] == pytest.approx(b2, abs=1e-12)
    assert beta_inf(mt, x + t, r)[0] == pytest.approx(binf, abs=1e-12)
    # rotation
    th = 0.7
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    mr = WeightedPointMeasure(m.points @ R.T, m.weights)
    assert beta2(mr, R @ x, r)[0] == pytest.approx(b2, abs=1e-12)
    assert beta_inf(mr, R @ x, r)[0] == pytest.approx(binf, abs=1e-12)
    # joint dilation: beta_inf invariant, beta_p scales by lam^(-1/p)
    lam = 3.0
    md = WeightedPointMeasure(m.points * lam, m.weights)
    assert beta_inf(md, x * lam, r * lam)[0] == pytest.approx(binf, rel=1e-12)
    assert beta2(md, x * lam, r * lam)[0] == pytest.approx(
        b2 * lam ** -0.5, rel=1e-12)
    b1 = beta_p(m, x, r, 1.0)[0]
    b1d = beta_p(md, x * lam, r * lam, 1.0)[0]
    assert b1d == pytest.approx(b1 * lam ** -1.0, rel=1e-6)


def test_beta2_profile_matches_beta2_at_tie_radii(rng):
    # radii equal to atom distances (and 1 ulp either side) decide membership
    # exactly as the closed-ball query behind beta2 does
    pts = rng.integers(0, 6, size=(80, 2)).astype(float) * 0.25
    m = WeightedPointMeasure(pts, rng.integers(1, 5, size=80).astype(float))
    centers = m.points[:6]
    radii = tie_radii(m.points, centers)
    prof = _beta2_profile(m, centers, radii)
    for i, c in enumerate(centers):
        for j, r in enumerate(radii):
            val, _ = beta2(m, c, r)
            assert prof[i, j] == pytest.approx(val ** 2, rel=1e-9, abs=1e-15)


def test_beta_energy_flat_negligible():
    m = build_flat(2, 1, 2.0, 1 / 64)
    mask = np.flatnonzero(np.abs(m.points[:, 0]) <= 0.5)
    rep = beta_energy(m, ScaleGrid(0.125, 0.5, 1.1), eval_indices=mask)
    assert rep.total == pytest.approx(0.0, abs=1e-20)
    assert rep.tail == 0.0


def _tail_radius(rep):
    """R, the end of the report's last cell, where the closed-form tail starts
    (no floor above it)."""
    return rep.per_scale[-1][0] * math.sqrt(rep.grid["q"])


def test_beta_energy_grid_continues_to_the_support(rng):
    m = random_measure(rng, n=30)
    grid = ScaleGrid(0.2, 1.0, 1.2)
    rep = beta_energy(m, grid)
    reach = m.farthest_distances().max()
    R = _tail_radius(rep)
    # R is the first cell end at or past every support-covering radius, and
    # every ball at R holds the whole measure
    assert R >= reach * (1 - 1e-12) and R / grid.q < reach
    for x in m.points:
        assert brute_mass(m, x, R) == pytest.approx(m.total_mass, rel=1e-12)
    assert rep.tail > 0
    assert rep.total == math.fsum([v for _, v in rep.per_scale] + [rep.tail])
    # the added cells continue the grid: r_J q^k samples, log q wide
    n = len(grid.radii)
    assert len(rep.per_scale) > n
    for k, (r, value) in enumerate(rep.per_scale[n:]):
        assert r == pytest.approx(grid.radii[-1] * grid.q ** (k + 1.5), rel=1e-12)
        direct = math.fsum(w * beta2(m, x, r)[0] ** 2
                           for x, w in zip(m.points, m.weights)) * grid.log_step
        assert value == pytest.approx(direct, rel=1e-9)


def test_beta_energy_grid_above_the_support_adds_no_cell():
    m = build_cantor(2, 0.6, 3)
    grid = ScaleGrid.default_for(m)     # r_max = 8 * support radius
    rep = beta_energy(m, grid)
    assert len(rep.per_scale) == len(grid.radii)
    assert _tail_radius(rep) == pytest.approx(grid.radii[-1] * grid.q, rel=1e-12)
    assert rep.tail > 0


def test_beta_energy_tail_starts_at_a_floor_above_the_support():
    # kappa * min_spacing = 4 lies past the support (diameter ~1.1): every
    # cell is unresolved and the tail runs from the floor, not from R
    m = WeightedPointMeasure(np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]),
                             np.array([1.0, 2.0, 0.5]))
    floor = 4.0 * m.min_spacing
    assert floor > m.farthest_distances().max()
    rep = beta_energy(m, ScaleGrid(0.5, 1.0, 1.1))
    assert all(v == 0.0 for _, v in rep.per_scale)
    direct = math.fsum(w * beta2(m, x, floor)[0] ** 2 for x, w in zip(m.points, m.weights))
    assert rep.tail == pytest.approx(direct / 3.0, rel=1e-12)
    assert rep.total == rep.tail > 0


def test_beta2_energy_tail_matches_a_fine_quadrature(rng):
    # past R, beta_2(x, r)^2 = Mom/r^3, whose integral against dr/r is
    # beta_2(x, R)^2 / 3; a log-midpoint rule on [R, 1e3 R] at q = 1.01 plus
    # the closed remainder past 1e3 R agrees to the rule's O(log(q)^2) error
    m = random_measure(rng, n=20)
    rep = beta_energy(m, ScaleGrid(0.1, 0.5, 1.1))
    R = _tail_radius(rep)
    fine = ScaleGrid(R, 1e3 * R, 1.01)
    top = fine.radii[-1] * fine.q
    quad = [w * beta2(m, x, r)[0] ** 2 * fine.log_step
            for x, w in zip(m.points, m.weights) for r in fine.samples]
    rest = [w * beta2(m, x, top)[0] ** 2 / 3.0 for x, w in zip(m.points, m.weights)]
    assert rep.tail == pytest.approx(math.fsum(quad + rest), rel=1e-4)


@pytest.mark.parametrize("case", ["flat", "single_atom"])
def test_beta_energy_zero_on_a_line_ends_quickly(case):
    # the octave extension this replaces never stopped on a zero energy: it
    # ran all 120 octaves (960 cells at q = 1.1)
    if case == "flat":
        m = build_flat(2, 1, 2.0, 1 / 64)
        ev = np.flatnonzero(np.abs(m.points[:, 0]) <= 0.5)
    else:
        m = WeightedPointMeasure(np.array([[0.3, -0.2]]), np.array([2.0]))
        ev = [0]
    grid = ScaleGrid(0.125, 0.5, 1.1)
    rep = beta_energy(m, grid, eval_indices=ev)
    assert rep.total == 0.0 and rep.tail == 0.0
    top = grid.radii[-1] * grid.q
    reach = m.farthest_distances()[ev].max()
    added = len(rep.per_scale) - len(grid.radii)
    assert added <= math.ceil(math.log(max(reach, top) / top) / grid.log_step)
    assert (added == 0) == (case == "single_atom")


def test_beta_energy_mu_alpha_quadratic_scaling():
    alphas = [math.pi / 4 * 2.0 ** (-k) for k in range(4)]
    vals = []
    for a in alphas:
        mu = build_gamma_curve(a, 4.0, 1 / 32, weighting="mu_alpha")
        mask = np.flatnonzero(np.abs(mu.points[:, 0]) <= 1.8)
        rep = beta_energy(mu, ScaleGrid(0.125, 1.0, 1.1), eval_indices=mask)
        vals.append(rep.total)
    lx = np.log([math.sin(a) for a in alphas])
    slope = np.polyfit(lx, np.log(vals), 1)[0]
    assert 1.7 <= slope <= 2.3


def test_beta_empty_ball_errors():
    m = build_flat(2, 1, 1.0, 0.25)
    with pytest.raises(ValueError):
        beta2(m, [10.0, 10.0], 0.5)
    with pytest.raises(ValueError):
        beta_inf(m, [10.0, 10.0], 0.5)
    with pytest.raises(ValueError):
        beta_p(m, [0.0, 0.0], 0.5, p=0.5)


def test_beta_p_2d_scan_tries_the_principal_axis(rng):
    # the 2-d scan used to try only its 128 fixed directions, so atoms on a
    # line between two of them got beta_1 ~ 1e-5 and beta_3 ~ 2e-6
    th = rng.uniform(0.0, math.pi)
    u = np.array([math.cos(th), math.sin(th)])
    t = np.arange(-6, 7) * 0.1
    m = WeightedPointMeasure(0.2 + t[:, None] * u[None, :],
                             rng.uniform(0.5, 1.5, len(t)))
    for p in (1.0, 3.0):
        val, fit = beta_p(m, m.points[3], 0.5, p)
        assert 0.0 <= val <= 1e-12
        assert abs(abs(fit.direction @ u) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# beta_p with p != 2 and beta_inf in three dimensions

def test_betas_vanish_on_collinear_atoms_in_3d(rng):
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    t = np.arange(-6, 7) * 0.1
    m = WeightedPointMeasure(0.2 + t[:, None] * u[None, :],
                             rng.uniform(0.5, 1.5, len(t)))
    x, r = m.points[3], 0.5
    for p in (1.0, 3.0):
        val, fit = beta_p(m, x, r, p)
        assert 0.0 <= val <= 1e-12
        assert fit.upper_bound
    val, fit = beta_inf(m, x, r)
    assert 0.0 <= val <= 1e-12
    assert fit.method == "direction_scan"


def test_beta_p3_zero_offset_spread_on_a_flat_line():
    # the scan direction along the line projects every atom to one offset
    m = build_flat(2, 1, 1.0, 0.1)
    assert beta_p(m, [0.0, 0.0], 0.7, 3.0)[0] == 0.0


def test_beta_inf_3d_line_fit_holds_every_ball_atom(rng):
    for _ in range(5):
        m = random_measure(rng, n=int(rng.integers(4, 30)), dim=3)
        x, r = m.points[0], rng.uniform(0.5, 2.0)
        val, fit = beta_inf(m, x, r)
        assert fit.upper_bound
        assert abs(np.linalg.norm(fit.direction) - 1.0) <= 1e-12
        rel = m.points[brute_ball_atoms(m, x, r)] - fit.point
        off = rel - np.outer(rel @ fit.direction, fit.direction)
        assert np.sqrt((off ** 2).sum(axis=1)).max() <= val * r + 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_beta_p3_holder_bound(rng, dim):
    # for any line L: int dist^2 <= (int dist^3)^(2/3) mass^(1/3), and the
    # beta_2 line minimizes int dist^2, so
    # beta_3^3 r^4 >= (beta_2^2 r^3)^(3/2) mass^(-1/2)
    for _ in range(3):
        m = random_measure(rng, n=int(rng.integers(10, 20)), dim=dim)
        x, r = m.points[0], rng.uniform(1.0, 2.0)
        ball = brute_ball_atoms(m, x, r)
        assert len(ball) >= 4      # not collinear, so beta_2 is far from rounding
        mass = float(m.weights[ball].sum())
        b3 = beta_p(m, x, r, 3.0)[0]
        b2 = beta2(m, x, r)[0]
        bound = (b2 ** 2 * r ** 3) ** 1.5 / math.sqrt(mass)
        assert b3 ** 3 * r ** 4 >= bound * (1 - 1e-12)


def test_beta_energy_p3_matches_direct_cells(rng):
    m = random_measure(rng, n=5)
    ev = [0, 3]
    grid = ScaleGrid(0.5, 1.0, 2.0)
    rep = beta_energy(m, grid, p=3.0, eval_indices=ev, kappa=0.0)
    # with no floor, every cell, on the grid and added up to R, is log q wide
    for r, value in rep.per_scale:
        direct = math.fsum(m.weights[i] * beta_p(m, m.points[i], r, 3.0)[0] ** 2
                           for i in ev) * grid.log_step
        assert value == pytest.approx(direct, rel=1e-12)
    # past R, beta_3^2 = c r^(-8/3), whose integral against dr/r is 3/8 of it at R
    R = _tail_radius(rep)
    assert R >= m.farthest_distances()[ev].max() * (1 - 1e-12)
    direct = math.fsum(m.weights[i] * beta_p(m, m.points[i], R, 3.0)[0] ** 2
                       for i in ev) * 3.0 / 8.0
    assert rep.tail == pytest.approx(direct, rel=1e-12)
    assert rep.total == math.fsum([v for _, v in rep.per_scale] + [rep.tail])
