"""Reference computations written apart from densq, used to check its outputs.

Everything here is a direct O(N) or O(N^2) numpy evaluation of a definition:
closed balls are `|x_i - c|^2 <= r^2`, Riesz annuli are
`eps1^2 < |x_i - x|^2 <= eps2^2`, and beta_2 comes from the eigenvalues of the
weighted covariance of the atoms in the ball.
"""
from __future__ import annotations

import math

import numpy as np

# rows of centers per chunk in the O(n_centers * N) oracles: keeps each
# temporary near 16 MB so the checks never raise the run's peak memory
_CHUNK_CELLS = 2 ** 21


def _sq_dist(points, center):
    return ((points - center) ** 2).sum(axis=-1)


def ball_masses(points, weights, centers, radii):
    """(n_centers, n_radii) closed-ball masses by a plain scan."""
    centers = np.atleast_2d(centers)
    radii = np.asarray(radii, dtype=float)
    out = np.empty((len(centers), len(radii)))
    step = max(1, _CHUNK_CELLS // len(points))
    r2 = radii * radii
    for a in range(0, len(centers), step):
        d2 = _sq_dist(points[None, :, :], centers[a:a + step, None, :])
        for j, rr in enumerate(r2):
            out[a:a + step, j] = np.where(d2 <= rr, weights[None, :], 0.0).sum(axis=1)
    return out


def same_atoms(mass_a, mass_b, w_min):
    """True where two ball masses hold the same atoms: they differ by less than
    half the lightest atom, which summation order can never reach."""
    return np.abs(np.asarray(mass_a) - np.asarray(mass_b)) < 0.5 * w_min


def close(a, b, rel, scale=None):
    """|a - b| <= rel * scale, with scale defaulting to max(|a|, |b|)."""
    if scale is None:
        scale = max(abs(a), abs(b))
    return abs(a - b) <= rel * scale


def riesz_field(points, weights, x, eps1, eps2, s):
    """Sum of w_i (x_i - x) / |x_i - x|^(1+s) over eps1 < |x_i - x| <= eps2,
    and the sum of the terms' norms (a scale for comparisons)."""
    diff = points - x
    d2 = (diff ** 2).sum(axis=1)
    sel = (d2 > eps1 * eps1) & (d2 <= eps2 * eps2)
    terms = weights[sel, None] * diff[sel] / d2[sel, None] ** ((1.0 + s) / 2.0)
    return terms.sum(axis=0), float(np.sqrt((terms ** 2).sum(axis=1)).sum())


def riesz_energy(points, weights, eval_idx, eps1, eps2, s):
    """Sum over evaluation atoms of w_i |R_(eps1, eps2) mu (x_i)|^2."""
    total = []
    for i in eval_idx:
        field, _ = riesz_field(points, weights, points[i], eps1, eps2, s)
        total.append(weights[i] * float((field ** 2).sum()))
    return math.fsum(total)


def beta2_moment(points, weights, x, r):
    """(trace - largest eigenvalue, trace) of the weighted covariance of the
    atoms in the closed ball B(x, r): r^3 beta_2(x, r)^2 and its scale."""
    sel = _sq_dist(points, x) <= r * r
    dy = points[sel] - x
    w = weights[sel]
    mean = (w[:, None] * dy).sum(axis=0) / w.sum()
    c = dy - mean
    cov = (w[:, None] * c).T @ c
    lam = np.linalg.eigvalsh(cov)
    return float(lam.sum() - lam[-1]), float(lam.sum())


def is_thin(points, weights, x, radius, t_thin, lambdas):
    """The thin-boundary condition at `radius`, from one scan of the atoms:
    mass{|d - radius| <= lam radius} <= t_thin lam mass(B(x, 2 radius))."""
    d2 = _sq_dist(points, x)
    m2 = weights[d2 <= (2.0 * radius) ** 2].sum()
    for lam in lambdas:
        band = (d2 >= ((1.0 - lam) * radius) ** 2) & (d2 <= ((1.0 + lam) * radius) ** 2)
        if weights[band].sum() > t_thin * lam * m2 * (1.0 + 1e-12):
            return False
    return True
