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

from .measures import (WeightedPointMeasure, _block_rows, _check_budget,
                       _min_enclosing_ball, _pair_step, _shell_sums)
from .multiscale import (DEFAULT_KAPPA, EnergyReport, ScaleGrid, as_atom_indices,
                         _check_p, _floor_for)

# one p != 2 beta energy's (evaluation atom, radius) cells, tail included, x max(1,
# d - 1) offset coordinates x max(atoms, 1024), as a cell's fixed search costs ~1024
# atoms; 12-79 us a unit (3-20000 atoms, R^2-R^20, one core): 2^20 take <= ~83 s
BETA_SCAN_BUDGET = 2 ** 20


@dataclass
class LineFit:
    """Best line found for one beta evaluation."""

    point: np.ndarray
    direction: np.ndarray
    objective: float
    method: str            # moment_closed_form | direction_scan | hull_width
    upper_bound: bool = False


def _ball(measure, x, r):
    """(x, dy, w): the center as an array, and the offsets from it and the
    weights of the atoms in the closed ball B(x, r)."""
    if r <= 0:
        raise ValueError("r must be positive")
    x = np.asarray(x, dtype=float)
    idx = measure.ball_index().ball_atoms(x, r)
    if idx.size == 0:
        raise ValueError("empty ball: no atoms within r")
    return x, measure.points[idx] - x, measure.weights[idx]


def _scatter(dy, w):
    """Centroid offset, then the eigenvalues (ascending) and eigenvectors of
    the scatter matrix about it; offsets from the ball center keep the moment
    cancellation well conditioned."""
    mean = (w[:, None] * dy).sum(axis=0) / float(w.sum())
    c = dy - mean
    S = (w[:, None, None] * c[:, :, None] * c[:, None, :]).sum(axis=0)
    lam, vec = np.linalg.eigh(S)
    return mean, lam, vec


def _direction_fan(axis, seed, count):
    """`axis`, then `count` seeded random unit directions around it."""
    rng = np.random.default_rng(seed)
    fan = [axis + 0.5 * rng.standard_normal(len(axis)) for _ in range(count)]
    return [axis] + [v / np.linalg.norm(v) for v in fan]


def _complement(u):
    """Orthonormal basis (columns) of the complement of the unit vector u: the
    normal (-u1, u0) in the plane, a QR factor otherwise."""
    if len(u) == 2:
        return np.array([[-u[1]], [u[0]]])
    q, _ = np.linalg.qr(np.concatenate([u[:, None], np.eye(len(u))[:, :-1]], axis=1))
    return q[:, 1:]


def beta2(measure: WeightedPointMeasure, x, r: float) -> tuple[float, LineFit]:
    """Exact beta_2 from weighted second moments: the minimizing line passes
    through the weighted centroid along the leading principal axis."""
    x, dy, w = _ball(measure, x, r)
    mean, lam, vec = _scatter(dy, w)
    moment = max(float(lam[:-1].sum()), 0.0)   # trace - lambda_max
    val = math.sqrt(moment / r ** 3)
    fit = LineFit(point=x + mean, direction=vec[:, -1], objective=val,
                  method="moment_closed_form")
    return val, fit


def beta_p(measure: WeightedPointMeasure, x, r: float,
           p: float = 2.0) -> tuple[float, LineFit]:
    """beta_p via a direction/offset scan seeded at the principal axis.

    p = 2 routes to the closed form. Other p return the best line found, through
    its best offset: an upper bound on the infimum, attained by that line.
    """
    _check_p(p)
    if p == 2.0:
        return beta2(measure, x, r)
    from .line_search import line_offset
    x, dy, w = _ball(measure, x, r)
    _, _, vec = _scatter(dy, w)
    d = measure.dim

    def line(u):
        # (objective, direction, point offset) of the best line along u
        basis = _complement(u)
        val, b = line_offset(dy @ basis, w, p)
        return val, u, basis @ b

    if d == 2:
        th = np.linspace(0.0, math.pi, 128, endpoint=False)
        cands = [vec[:, -1]] + list(np.stack([np.cos(th), np.sin(th)], axis=1))
        span = math.pi / len(th)
    else:
        cands = _direction_fan(vec[:, -1], 12345, 64)
        span = 0.5
    best = min((line(u) for u in cands), key=lambda cand: cand[0])
    # local refinement around the best direction
    for _ in range(12):
        span /= 2.0
        for sign in (-1.0, 1.0):
            u = best[1]
            if d == 2:
                th = math.atan2(u[1], u[0]) + sign * span
                u = np.array([math.cos(th), math.sin(th)])
            else:
                perturb = np.zeros(d)
                perturb[int(np.argmin(np.abs(u)))] = sign * span
                u = u + perturb
                u = u / np.linalg.norm(u)
            cand = line(u)
            if cand[0] < best[0]:
                best = cand
    val = (best[0] / r ** (p + 1.0)) ** (1.0 / p)
    fit = LineFit(point=x + best[2], direction=best[1], objective=val,
                  method="direction_scan", upper_bound=True)
    return val, fit


def _min_width_strip_2d(pts: np.ndarray):
    """(width, direction, centerline point): thinnest strip containing pts.

    The optimal strip is flush with a hull edge, so it suffices to score the
    edges. A set without a 2-d hull (collinear, or fewer than three distinct
    points) has width 0 along the line through its two extreme points.
    """
    from .geometry import hull_vertices
    hull = hull_vertices(pts)
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
    step = _pair_step(m, m, "strip-width (edge, vertex) pairs")
    hmax, hmin = np.empty(m), np.empty(m)
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
    x, dy, w = _ball(measure, x, r)
    if measure.dim == 2:
        width, direction, center = _min_width_strip_2d(dy)
        fit = LineFit(point=x + center, direction=direction,
                      objective=width / 2.0 / r, method="hull_width")
        return fit.objective, fit
    _, _, vec = _scatter(dy, w)
    best = (math.inf, None, None)
    for u in _direction_fan(vec[:, -1], 98765, 96):
        basis = _complement(u)
        c, rad = _min_enclosing_ball(dy @ basis)
        if rad < best[0]:
            best = (rad, u, basis @ c)
    fit = LineFit(point=x + best[2], direction=best[1], objective=best[0] / r,
                  method="direction_scan", upper_bound=True)
    return fit.objective, fit


def _beta2_profile(measure, centers, radii):
    """beta_2(c, r)^2 for every center c and radius r, from the weighted
    zeroth, first and second moments of dy = x - c summed over closed balls in
    one radial-shell pass: an iterator of (a, b2), b2 of shape (rows, n_radii)
    at centers[a:a + rows] (`_shell_sums`)."""
    radii = np.asarray(radii, dtype=float)
    d = measure.dim
    lower = [(a, b) for a in range(d) for b in range(a + 1)]

    def moments(dy, d2, w):
        wdy = [w * v for v in dy]
        return [w] + wdy + [wdy[a] * dy[b] for a, b in lower]

    for a, sums in _shell_sums(measure.points, measure.weights, centers, radii, moments,
                               1 + d + len(lower)):
        s0 = sums[0]
        mean = sums[1:1 + d] / s0
        cov = [sums[1 + d + k] - s0 * mean[i] * mean[j] for k, (i, j) in enumerate(lower)]
        if d == 2:
            moment = _least_eigenvalue_2x2(*cov)
        else:
            scatter = np.empty(s0.shape + (d, d))
            for (i, j), c in zip(lower, cov):
                scatter[..., i, j] = scatter[..., j, i] = c
            moment = np.linalg.eigvalsh(scatter)[..., :-1].sum(axis=-1)
        yield a, np.clip(moment, 0.0, None) / radii ** 3


def _least_eigenvalue_2x2(a, b, c):
    """The smaller eigenvalue of each symmetric [[a, b], [b, c]], elementwise:
    det / lambda_max with lambda_max = (a + c)/2 + hypot((a - c)/2, b), which
    cancels no digits when the matrix is nearly singular; 0 where lambda_max
    <= 0, where the matrix is negative semidefinite and its moment clips to 0."""
    lmax = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    return np.divide(a * c - b * b, lmax, out=np.zeros_like(lmax), where=lmax > 0)


def _beta_p_profile(measure, centers, radii, p):
    """beta_p(c, r)^2 from `beta_p`'s scans, as `_beta2_profile` gives beta_2."""
    rows = _block_rows(len(centers), len(radii))
    for a in range(0, len(centers), rows):
        yield a, np.array([[beta_p(measure, c, r, p)[0] ** 2 for r in radii]
                           for c in centers[a:a + rows]]).reshape(-1, len(radii))


def _check_scan_budget(measure, evals, radii, p):
    """Raise PointBudgetError where a beta_p energy with p != 2 at `evals`
    atoms and `radii` radii would pass BETA_SCAN_BUDGET."""
    if p != 2.0:
        work = evals * radii * max(1, measure.dim - 1) * max(measure.n_atoms, 1024)
        _check_budget(work, BETA_SCAN_BUDGET, "beta direction scans (cells x coords x atoms)")


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
    reach = float(measure.farthest_distances(eval_indices).max(initial=0.0))
    # the grid continued with its own r_min and q, so its cells come first and
    # unchanged; the tail starts at the first cell end past every T_i (or floor)
    cells = ScaleGrid(grid.r_min, max(grid.r_max, reach), grid.q)
    sample = cells.samples
    tail_r = max(cells.radii[-1] * grid.q, floor)
    radii = np.append(sample, tail_r)
    centers = measure.points[eval_indices]
    if p == 2.0:
        profile = _beta2_profile(measure, centers, radii)
    else:
        _check_scan_budget(measure, len(wc), len(radii), p)
        profile = _beta_p_profile(measure, centers, radii, p)
    # per block: its rows' profile at R, and its cells added to the running
    # per-scale sums row after row (`multiscale._energies`)
    widths = cells.cell_widths(floor)
    per_scale, at_tail = np.zeros(len(sample)), np.empty(len(wc))
    for a, b2 in profile:
        rows = slice(a, a + len(b2))
        at_tail[rows] = b2[:, -1]
        cell = b2[:, :-1] * widths * wc[rows, None]
        cell[0] += per_scale
        cell.sum(axis=0, out=per_scale)
        del b2, cell
    tail = float((wc * at_tail).sum()) * p / (2.0 * (p + 1.0))
    return EnergyReport.assemble("beta", None, p, grid, measure, kappa, floor, len(wc),
                                 list(zip(sample.tolist(), per_scale.tolist())),
                                 tail=tail)
