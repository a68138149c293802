"""The offset line search of `betas.beta_p` for p != 2, loaded on first use.

For a direction u, the best line along u through offset b in the complement
of u minimises sum w |comp - b|^p, convex in b for p >= 1. Each coordinate's
search brackets its minimum by the sign of the objective's slope, in numpy
alone. `betas` imports this module inside `beta_p`, so `import densq`
compiles and loads none of it.
"""
from __future__ import annotations

import math

import numpy as np


def line_offset(comp, w, p):
    """(objective, offset b): min over b of sum w |comp - b|^p, for the
    complement coordinates `comp` (n, k) of the ball atoms.

    k = 1: the exact weighted median at p = 1, else one line search.
    k > 1: from the weighted mean, three sweeps of per-coordinate line searches.
    """
    if comp.shape[1] == 1 and p == 1.0:
        proj = comp[:, 0]
        order = np.argsort(proj, kind="stable")
        cw = np.cumsum(w[order])
        b = proj[order][min(int(np.searchsorted(cw, 0.5 * cw[-1])), len(proj) - 1)]
        return float((w * np.abs(proj - b)).sum()), np.array([b])
    b = (w[:, None] * comp).sum(axis=0) / w.sum()
    for _ in range(3 if comp.shape[1] > 1 else 1):
        for j in range(comp.shape[1]):
            rest = comp - b[None, :]
            rest[:, j] = 0.0
            b[j] = coordinate_min(comp[:, j], (rest ** 2).sum(axis=1), w, p)
    return float((w * ((comp - b[None, :]) ** 2).sum(axis=1) ** (p / 2.0)).sum()), b


def coordinate_min(c, base, w, p):
    """The t in [min c, max c] that minimises sum w (base + (c - t)^2)^(p/2),
    within the tolerance of `argmin_convex`: the objective is convex for
    p >= 1. An atom where base + (c - t)^2 = 0 adds 0 to the slope, a
    subgradient at p = 1."""
    e = p / 2.0 - 1.0

    def slope(t):
        d = c - t
        q = base + d * d
        g = q ** e if e >= 0 else np.power(q, e, out=np.zeros_like(q), where=q > 0)
        return -float(w @ (g * d))
    return argmin_convex(slope, float(c.min()), float(c.max()))


def argmin_convex(slope, lo, hi):
    """A minimiser, within tol = 1e-12 max(1, hi - lo), of a convex function
    on [lo, hi] whose slope (any subgradient, from `slope`) is <= 0 at lo and
    >= 0 at hi.

    The bracket keeps slope <= 0 at its low end and > 0 at its high end, and
    each step reads the sign at one point: the ITP point (Oliveira and Takahashi
    2020), the root of the chord between the end slopes moved toward the
    midpoint by a term that makes the far end move too, and kept within the
    distance of the midpoint that still ends within one step more than
    bisection would.
    """
    s_lo, s_hi = slope(lo), slope(hi)
    if s_lo >= 0 or s_hi <= 0:
        return lo if s_lo >= 0 else hi
    tol = 1e-12 * max(1.0, hi - lo)
    k1, steps = 0.2 / (hi - lo), math.ceil(math.log2(max((hi - lo) / tol, 1.0))) + 1
    for j in range(steps):
        if hi - lo <= tol:
            break
        mid, width = 0.5 * (lo + hi), hi - lo
        chord = (s_hi * lo - s_lo * hi) / (s_hi - s_lo)
        toward = math.copysign(1.0, mid - chord)
        shift = k1 * width * width
        t = chord + toward * shift if shift <= abs(mid - chord) else mid
        reach = tol * 2.0 ** (steps - j - 1) - 0.5 * width
        if abs(t - mid) > reach:
            t = mid - toward * reach
        s = slope(t)
        if s == 0:
            return t
        if s > 0:
            hi, s_hi = t, s
        else:
            lo, s_lo = t, s
    return 0.5 * (lo + hi)
