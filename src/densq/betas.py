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
from scipy.optimize import minimize_scalar

from .measures import WeightedPointMeasure, _min_enclosing_ball, _shell_sums
from .multiscale import DEFAULT_KAPPA, EnergyReport, ScaleGrid, as_atom_indices


@dataclass
class LineFit:
    """Best line found for one beta evaluation."""

    point: np.ndarray
    direction: np.ndarray
    objective: float
    method: str            # moment_closed_form | direction_scan | hull_width
    upper_bound: bool = False


def _ball_atoms(measure, x, r):
    idx = measure.ball_index().ball_atoms(x, r)
    if idx.size == 0:
        raise ValueError("empty ball: no atoms within r")
    return idx


def _scatter(measure, idx, x):
    """Mass, centroid (absolute), scatter matrix about the centroid; coordinates
    are shifted by x first to keep the moment cancellation well conditioned."""
    dy = measure.points[idx] - x
    w = measure.weights[idx]
    m0 = float(w.sum())
    mean = (w[:, None] * dy).sum(axis=0) / m0
    c = dy - mean
    S = (w[:, None, None] * c[:, :, None] * c[:, None, :]).sum(axis=0)
    return m0, x + mean, S


def beta2(measure: WeightedPointMeasure, x, r: float) -> tuple[float, LineFit]:
    """Exact beta_2 from weighted second moments: the minimizing line passes
    through the weighted centroid along the leading principal axis."""
    if r <= 0:
        raise ValueError("r must be positive")
    x = np.asarray(x, dtype=float)
    idx = _ball_atoms(measure, x, r)
    m0, centroid, S = _scatter(measure, idx, x)
    lam, vec = np.linalg.eigh(S)
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
    res = minimize_scalar(lambda b: float((w * np.abs(proj - b) ** p).sum()),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * max(1.0, hi - lo)})
    return float(res.fun)


def _scan_directions_2d(n: int) -> np.ndarray:
    th = np.linspace(0.0, math.pi, n, endpoint=False)
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def beta_p(measure: WeightedPointMeasure, x, r: float,
           p: float = 2.0) -> tuple[float, LineFit]:
    """beta_p via a direction/offset scan seeded at the principal axis.

    p = 2 routes to the closed form. Other p return the best line found,
    an upper bound on the infimum.
    """
    if p < 1 or not math.isfinite(p):
        raise ValueError("p must be finite and >= 1")
    if p == 2.0:
        return beta2(measure, x, r)
    x = np.asarray(x, dtype=float)
    idx = _ball_atoms(measure, x, r)
    w = measure.weights[idx]
    dy = measure.points[idx] - x
    _, centroid, S = _scatter(measure, idx, x)
    lam, vec = np.linalg.eigh(S)
    d = measure.dim

    def objective(u):
        # distance to the best line with direction u: offsets of the
        # orthogonal projection, optimized per complement axis jointly for d=2;
        # for d>2 distances need the full complement, handled via norm.
        if d == 2:
            n_vec = np.array([-u[1], u[0]])
            return _offset_objective(dy @ n_vec, w, p)
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
        cands = list(_scan_directions_2d(128))
    else:
        rng = np.random.default_rng(12345)
        cands = [vec[:, -1]]
        for _ in range(64):
            v = vec[:, -1] + 0.5 * rng.standard_normal(d)
            cands.append(v / np.linalg.norm(v))
    best_u, best_val = None, math.inf
    for u in cands:
        v = objective(u)
        if v < best_val:
            best_val, best_u = v, u
    # local refinement around the best direction
    span = math.pi / len(cands) if d == 2 else 0.5
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


def _hull_2d(pts: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counterclockwise, no repeated endpoint."""
    uniq = np.unique(pts, axis=0)
    if uniq.shape[0] <= 2:
        return uniq
    order = np.lexsort((uniq[:, 1], uniq[:, 0]))
    P = uniq[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for q in P:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper: list[np.ndarray] = []
    for q in P[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    return np.array(lower[:-1] + upper[:-1])


def _min_width_strip_2d(pts: np.ndarray):
    """(width, direction, centerline point): thinnest strip containing pts.

    The optimal strip is flush with a hull edge, so it suffices to scan edges.
    """
    hull = _hull_2d(pts)
    if hull.shape[0] <= 2:
        if hull.shape[0] == 2:
            d = hull[1] - hull[0]
            n = np.linalg.norm(d)
            direction = d / n if n > 0 else np.array([1.0, 0.0])
        else:
            direction = np.array([1.0, 0.0])
        return 0.0, direction, hull[0].copy()
    best = (math.inf, None, None)
    m = hull.shape[0]
    for i in range(m):
        a, b = hull[i], hull[(i + 1) % m]
        e = b - a
        ln = np.linalg.norm(e)
        if ln == 0:
            continue
        e = e / ln
        n_vec = np.array([-e[1], e[0]])
        h = (hull - a) @ n_vec
        wmax, wmin = float(h.max()), float(h.min())
        width = wmax - wmin
        if width < best[0]:
            center = a + n_vec * (0.5 * (wmax + wmin))
            best = (width, e.copy(), center)
    return best


def beta_inf(measure: WeightedPointMeasure, x, r: float) -> tuple[float, LineFit]:
    """Sup-norm beta: half the minimal strip width over r.

    Exact in the plane via the convex hull; in higher dimension an upper bound
    from a principal-axis direction scan (minimum enclosing ball of the
    orthogonal projections gives the best sup-offset per direction).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    x = np.asarray(x, dtype=float)
    idx = _ball_atoms(measure, x, r)
    pts = measure.points[idx]
    if measure.dim == 2:
        width, direction, center = _min_width_strip_2d(pts - x)
        fit = LineFit(point=x + center, direction=direction,
                      objective=width / 2.0 / r, method="hull_width")
        return width / 2.0 / r, fit
    _, centroid, S = _scatter(measure, idx, x)
    lam, vec = np.linalg.eigh(S)
    rng = np.random.default_rng(98765)
    cands = [vec[:, -1]]
    for _ in range(96):
        v = vec[:, -1] + 0.5 * rng.standard_normal(measure.dim)
        cands.append(v / np.linalg.norm(v))
    best = (math.inf, None, None)
    dy = pts - x
    for u in cands:
        q, _ = np.linalg.qr(np.concatenate([u[:, None],
                                            np.eye(measure.dim)[:, :-1]], axis=1))
        proj = dy @ q[:, 1:]
        c, rad = _min_enclosing_ball(proj)
        if rad < best[0]:
            best = (rad, u, q[:, 1:] @ c)
    fit = LineFit(point=x + best[2], direction=best[1], objective=best[0] / r,
                  method="direction_scan", upper_bound=True)
    return best[0] / r, fit


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
                eval_indices=None, kappa: float = DEFAULT_KAPPA,
                extend_tol: float = 1e-4, max_extra_octaves: int = 120) -> EnergyReport:
    """Sum_i w_i beta_p(x_i, r_j)^2 over resolved scales, dr/r log-midpoint rule.

    No closed-form tail exists (beta decays like 1/r once balls swallow the
    support but with a geometry-dependent constant), so the grid is extended
    upward octave by octave until an octave contributes less than `extend_tol`
    of the running total.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    radii = grid.radii
    sample = radii * math.sqrt(grid.q)
    floor = kappa * measure.min_spacing
    widths = np.clip(np.log(radii * grid.q / np.maximum(radii, floor)), 0.0, None)
    eval_indices = as_atom_indices(eval_indices, measure.n_atoms)
    wc = measure.weights[eval_indices]

    def beta_sq_matrix(rs):
        if p == 2.0:
            return _beta2_profile(measure, measure.points[eval_indices], rs)
        out = np.empty((len(eval_indices), len(rs)))
        for i, ei in enumerate(eval_indices):
            for j, rr in enumerate(rs):
                out[i, j] = beta_p(measure, measure.points[ei], rr, p)[0] ** 2
        return out

    b2 = beta_sq_matrix(sample)
    per_scale_vals = (b2 * widths[None, :] * wc[:, None]).sum(axis=0)
    per_scale = list(zip(sample.tolist(), per_scale_vals.tolist()))
    running = math.fsum(per_scale_vals.tolist())

    # upward octave extension
    lnq = grid.log_step
    steps_per_octave = max(1, int(math.ceil(math.log(2.0) / lnq)))
    r_next = radii[-1] * grid.q
    extended = 0
    while extended < max_extra_octaves:
        rs = r_next * grid.q ** np.arange(steps_per_octave)
        svals = rs * math.sqrt(grid.q)
        b2e = beta_sq_matrix(svals)
        vals = (b2e * lnq * wc[:, None]).sum(axis=0)
        add = float(vals.sum())
        running += add
        per_scale.extend(zip(svals.tolist(), vals.tolist()))
        r_next = rs[-1] * grid.q
        extended += 1
        if running > 0 and add < extend_tol * running:
            break

    total = math.fsum(v for _, v in per_scale)
    clipped = {
        "r_below": float(max(floor, grid.r_min)),
        "note": ("scales below r_below omitted: unresolved below kappa*min_spacing"
                 if floor > grid.r_min else "no low-r clipping"),
    }
    echo = {"kind": "beta", "s": None, "p": p, "grid": grid.summary(),
            "kappa": kappa, "n_atoms": measure.n_atoms,
            "eval_count": int(len(wc)), "extended_octaves": extended,
            "total_mass": measure.total_mass,
            "sample_rule": "geometric cell midpoint"}
    return EnergyReport(kind="beta", s=None, p=p, grid=grid.summary(),
                        total=total, tail=0.0, per_scale=per_scale,
                        clipped_low_r=clipped, params_echo=echo)
