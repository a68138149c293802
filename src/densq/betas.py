"""Jones beta numbers: normalized L^p deviation of a measure from a line.

beta_p(x, r)^p = inf_L int_{B(x,r)} dist(y, L)^p / r^(p+1) d(mu),
beta_inf(x, r) = inf_L sup dist(y, L) / r  over supported atoms in the ball.

beta_2 is exact (weighted second moments); beta_1 and beta_inf in dimension
> 2 are scan-based upper bounds, tagged as such in the returned line fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (_CHUNK_CELLS, WeightedPointMeasure, _hull_vertices,
                       _min_enclosing_ball, _shell_sums)
from .multiscale import (DEFAULT_KAPPA, EnergyReport, ScaleGrid, as_atom_indices,
                         _check_p, _floor_for)


@dataclass
class LineFit:
    """Best line found for one beta evaluation."""

    point: np.ndarray
    direction: np.ndarray
    objective: float
    method: str            # moment_closed_form | direction_scan | hull_width
    upper_bound: bool = False


def _ball_atoms(measure, x, r):
    if r <= 0:
        raise ValueError("r must be positive")
    idx = measure.ball_index().ball_atoms(x, r)
    if idx.size == 0:
        raise ValueError("empty ball: no atoms within r")
    return idx


def _scatter(measure, idx, x):
    """Centroid (absolute), then the eigenvalues (ascending) and eigenvectors of
    the scatter matrix about it; coordinates are shifted by x first to keep the
    moment cancellation well conditioned."""
    dy = measure.points[idx] - x
    w = measure.weights[idx]
    mean = (w[:, None] * dy).sum(axis=0) / float(w.sum())
    c = dy - mean
    S = (w[:, None, None] * c[:, :, None] * c[:, None, :]).sum(axis=0)
    lam, vec = np.linalg.eigh(S)
    return x + mean, lam, vec


def _direction_fan(axis, seed, count):
    """`axis`, then `count` seeded random unit directions around it."""
    rng = np.random.default_rng(seed)
    fan = [axis + 0.5 * rng.standard_normal(len(axis)) for _ in range(count)]
    return [axis] + [v / np.linalg.norm(v) for v in fan]


def beta2(measure: WeightedPointMeasure, x, r: float) -> tuple[float, LineFit]:
    """Exact beta_2 from weighted second moments: the minimizing line passes
    through the weighted centroid along the leading principal axis."""
    x = np.asarray(x, dtype=float)
    idx = _ball_atoms(measure, x, r)
    centroid, lam, vec = _scatter(measure, idx, x)
    moment = max(float(lam[:-1].sum()), 0.0)   # trace - lambda_max
    val = math.sqrt(moment / r ** 3)
    fit = LineFit(point=centroid, direction=vec[:, -1], objective=val,
                  method="moment_closed_form")
    return val, fit


def _offset_objective(proj, w, p):
    """min over offsets b of sum w |proj - b|^p (convex in b)."""
    if p == 1.0:
        order = np.argsort(proj, kind="stable")
        cw = np.cumsum(w[order])
        k = int(np.searchsorted(cw, 0.5 * cw[-1]))
        b = proj[order][min(k, len(proj) - 1)]
        return float((w * np.abs(proj - b)).sum())
    lo, hi = float(proj.min()), float(proj.max())
    if lo == hi:
        return 0.0
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda b: float((w * np.abs(proj - b) ** p).sum()),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * max(1.0, hi - lo)})
    return float(res.fun)


def beta_p(measure: WeightedPointMeasure, x, r: float,
           p: float = 2.0) -> tuple[float, LineFit]:
    """beta_p via a direction/offset scan seeded at the principal axis.

    p = 2 routes to the closed form. Other p return the best line found,
    an upper bound on the infimum.
    """
    _check_p(p)
    if p == 2.0:
        return beta2(measure, x, r)
    x = np.asarray(x, dtype=float)
    idx = _ball_atoms(measure, x, r)
    w = measure.weights[idx]
    dy = measure.points[idx] - x
    centroid, _, vec = _scatter(measure, idx, x)
    d = measure.dim

    def objective(u):
        # distance to the best line with direction u: offsets of the
        # orthogonal projection, optimized per complement axis jointly for d=2;
        # for d>2 distances need the full complement, handled via norm.
        if d == 2:
            n_vec = np.array([-u[1], u[0]])
            return _offset_objective(dy @ n_vec, w, p)
        from scipy.optimize import minimize_scalar
        # complement basis via QR
        q, _ = np.linalg.qr(np.concatenate([u[:, None],
                                            np.eye(d)[:, :-1]], axis=1))
        comp = dy @ q[:, 1:]
        # offset: minimize sum w |comp - b|_2^p over b in R^(d-1); use the
        # weighted mean as a convex-problem starting point, then coordinate
        # refinement
        b = (w[:, None] * comp).sum(axis=0) / w.sum()
        for _ in range(3):
            for j in range(comp.shape[1]):
                rest = comp - b[None, :]
                rest[:, j] = 0.0
                base = (rest ** 2).sum(axis=1)
                res = minimize_scalar(
                    lambda t: float((w * (base + (comp[:, j] - t) ** 2)
                                     ** (p / 2.0)).sum()),
                    bounds=(float(comp[:, j].min()), float(comp[:, j].max())),
                    method="bounded")
                b[j] = res.x
        return float((w * ((comp - b[None, :]) ** 2).sum(axis=1)
                      ** (p / 2.0)).sum())

    if d == 2:
        th = np.linspace(0.0, math.pi, 128, endpoint=False)
        cands = [vec[:, -1]] + list(np.stack([np.cos(th), np.sin(th)], axis=1))
        span = math.pi / len(th)
    else:
        cands = _direction_fan(vec[:, -1], 12345, 64)
        span = 0.5
    best_u, best_val = None, math.inf
    for u in cands:
        v = objective(u)
        if v < best_val:
            best_val, best_u = v, u
    # local refinement around the best direction
    for _ in range(12):
        span /= 2.0
        improved = False
        for sign in (-1.0, 1.0):
            if d == 2:
                th = math.atan2(best_u[1], best_u[0]) + sign * span
                u = np.array([math.cos(th), math.sin(th)])
            else:
                perturb = np.zeros(d)
                perturb[int(np.argmin(np.abs(best_u)))] = sign * span
                u = best_u + perturb
                u = u / np.linalg.norm(u)
            v = objective(u)
            if v < best_val:
                best_val, best_u, improved = v, u, True
        if not improved and span < 1e-8:
            break
    val = (best_val / r ** (p + 1.0)) ** (1.0 / p)
    fit = LineFit(point=centroid, direction=best_u, objective=val,
                  method="direction_scan", upper_bound=True)
    return val, fit


def _min_width_strip_2d(pts: np.ndarray):
    """(width, direction, centerline point): thinnest strip containing pts.

    The optimal strip is flush with a hull edge, so it suffices to score the
    edges. A set without a 2-d hull (collinear, or fewer than three distinct
    points) has width 0 along the line through its two extreme points.
    """
    hull = _hull_vertices(pts)
    if hull is None:
        a = pts[np.argmax(((pts - pts[0]) ** 2).sum(axis=1))]
        d = pts[np.argmax(((pts - a) ** 2).sum(axis=1))] - a
        n = np.linalg.norm(d)
        return 0.0, (d / n if n > 0 else np.array([1.0, 0.0])), a
    # dot products as matmuls, which round as np.linalg.norm and `@` do on
    # one edge at a time
    e = np.roll(hull, -1, axis=0) - hull
    e /= np.sqrt((e[:, None, :] @ e[:, :, None]).ravel())[:, None]
    normal = np.stack([-e[:, 1], e[:, 0]], axis=1)
    m = len(hull)
    hmax, hmin = np.empty(m), np.empty(m)
    step = max(1, _CHUNK_CELLS // m)     # bounds the (edges, vertices) temporaries
    for a in range(0, m, step):
        # h[i, k]: offset of vertex k from edge a + i along that edge's normal
        h = ((hull[None, :, :] - hull[a:a + step, None, :])
             @ normal[a:a + step, :, None])[..., 0]
        hmax[a:a + step], hmin[a:a + step] = h.max(axis=1), h.min(axis=1)
    i = int(np.argmin(hmax - hmin))
    return (float(hmax[i] - hmin[i]), e[i],
            hull[i] + normal[i] * (0.5 * (hmax[i] + hmin[i])))


def beta_inf(measure: WeightedPointMeasure, x, r: float) -> tuple[float, LineFit]:
    """Sup-norm beta: half the minimal strip width over r.

    Exact in the plane via the convex hull; in higher dimension an upper bound
    from a principal-axis direction scan (minimum enclosing ball of the
    orthogonal projections gives the best sup-offset per direction).
    """
    x = np.asarray(x, dtype=float)
    idx = _ball_atoms(measure, x, r)
    pts = measure.points[idx]
    if measure.dim == 2:
        width, direction, center = _min_width_strip_2d(pts - x)
        fit = LineFit(point=x + center, direction=direction,
                      objective=width / 2.0 / r, method="hull_width")
        return fit.objective, fit
    _, _, vec = _scatter(measure, idx, x)
    best = (math.inf, None, None)
    dy = pts - x
    for u in _direction_fan(vec[:, -1], 98765, 96):
        q, _ = np.linalg.qr(np.concatenate([u[:, None],
                                            np.eye(measure.dim)[:, :-1]], axis=1))
        proj = dy @ q[:, 1:]
        c, rad = _min_enclosing_ball(proj)
        if rad < best[0]:
            best = (rad, u, q[:, 1:] @ c)
    fit = LineFit(point=x + best[2], direction=best[1], objective=best[0] / r,
                  method="direction_scan", upper_bound=True)
    return fit.objective, fit


def _beta2_profile(measure, centers, radii):
    """beta_2(c, r)^2 for every center c and radius r, from the weighted
    zeroth, first and second moments of dy = x - c summed over closed balls in
    one radial-shell pass. Shape (n_centers, n_radii)."""
    radii = np.asarray(radii, dtype=float)
    w, d = measure.weights, measure.dim
    lower = [(a, b) for a in range(d) for b in range(a + 1)]

    def moments(dy, d2):
        wdy = [w * v for v in dy]
        return [w] + wdy + [wdy[a] * dy[b] for a, b in lower]

    sums = _shell_sums(measure.points, centers, radii, moments, 1 + d + len(lower))
    s0 = sums[0]
    mean = sums[1:1 + d] / s0
    scatter = np.empty(s0.shape + (d, d))
    for k, (a, b) in enumerate(lower):
        scatter[..., a, b] = scatter[..., b, a] = (sums[1 + d + k]
                                                   - s0 * mean[a] * mean[b])
    lam = np.linalg.eigvalsh(scatter)
    moment = np.clip(lam[..., :-1].sum(axis=-1), 0.0, None)
    return moment / radii ** 3


def beta_energy(measure: WeightedPointMeasure, grid: ScaleGrid, p: float = 2.0,
                eval_indices=None, kappa: float = DEFAULT_KAPPA) -> EnergyReport:
    """Integral of beta_p(x, r)^2 d(mu) dr/r: the grid cells by the log-midpoint
    rule, plus an analytic tail.

    Past the support-covering radius T_i the ball at x_i holds every atom, so
    its best line is fixed and beta_p(x_i, r)^2 = c_i r^(-2(p+1)/p) exactly.
    The grid is continued in whole cells to the first cell end R >= max T_i,
    and the integral from R on, w_i beta_p(x_i, R)^2 p / (2(p+1)) per atom,
    is the tail. One profile pass evaluates every cell and R.
    """
    _check_p(p)
    floor = _floor_for(measure, kappa, grid.r_min)
    eval_indices = as_atom_indices(eval_indices, measure.n_atoms)
    wc = measure.weights[eval_indices]
    reach = float(measure.farthest_distances()[eval_indices].max(initial=0.0))
    # the grid continued with its own r_min and q, so its cells come first and
    # unchanged; the tail starts at the first cell end past every T_i (or floor)
    cells = ScaleGrid(grid.r_min, max(grid.r_max, reach), grid.q)
    sample = cells.samples
    tail_r = max(cells.radii[-1] * grid.q, floor)
    radii = np.append(sample, tail_r)
    if p == 2.0:
        b2 = _beta2_profile(measure, measure.points[eval_indices], radii)
    else:
        b2 = np.array([[beta_p(measure, measure.points[i], r, p)[0] ** 2 for r in radii]
                       for i in eval_indices]).reshape(len(wc), len(radii))
    per_scale = (b2[:, :-1] * cells.cell_widths(floor) * wc[:, None]).sum(axis=0)
    tail = float((wc * b2[:, -1]).sum()) * p / (2.0 * (p + 1.0))
    return EnergyReport.assemble("beta", None, p, grid, measure, kappa, floor, len(wc),
                                 list(zip(sample.tolist(), per_scale.tolist())),
                                 tail=tail)
