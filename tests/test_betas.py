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
    build_flat,
    build_gamma_curve,
)

from densq.betas import _beta2_profile

from conftest import random_measure
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


def test_beta_energy_extension_recorded(rng):
    m = random_measure(rng, n=30)
    rep = beta_energy(m, ScaleGrid(0.2, 1.0, 1.2))
    assert rep.params_echo["extended_octaves"] >= 1
    # extension converges: last octave contributes < 1e-4 of the total
    assert rep.kind == "beta"
    assert rep.total == pytest.approx(math.fsum(v for _, v in rep.per_scale),
                                      rel=1e-12)


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
