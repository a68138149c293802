"""Hull and farthest-atom geometry of point sets, loaded on first use.

The 2-d convex hull (a monotone chain, with one stated rule for flat sets and
for vertices within rounding of a chord) and the atoms that can be farthest
from another. `measures` and `betas` import this module inside the calls that
need it, so `import densq` compiles and loads none of it.
"""
from __future__ import annotations

import math

import numpy as np

from .measures import _BLOCK_CELLS, _CHUNK_CELLS, _sq_rows

# atoms per block of the radius scan of a full-dimensional 3-d set
_SCAN_BLOCK = 64


def hull_2d(points):
    """Indices of the convex-hull vertices of 2-d points, counterclockwise, or
    None where the set is flat. With R the rounding of a distance at these
    coordinates (`_roundoff`):
    - the set is flat when no atom lies more than 3R from the chord of its two
      x-extremes (so also with fewer than three distinct points);
    - otherwise the hull is Andrew's monotone chain, which pops every turn
      with cross <= 0, and then the vertex nearest the chord of its two
      neighbours is merged away while its signed distance from that chord
      (`_dist`) is at most 4R and more than three vertices are left.

    The chain runs only on the atoms that the octagon of extreme atoms along
    x, y, x + y and x - y (Akl and Toussaint) does not hold more than
    8R + 32 eps E inside (E the extent of the set). Those lie inside the hull
    by more than rounding moves a turn, and more than 4R, so the chain would
    not make them vertices.
    """
    x, y = np.ascontiguousarray(points.T)
    i, j, low, high = int(x.argmin()), int(x.argmax()), int(y.argmin()), int(y.argmax())
    (x0, y0), (x1, y1) = points[i].tolist(), points[j].tolist()
    y0_min, y1_max = float(y[low]), float(y[high])
    r = _roundoff([max(-x0, x1), max(-y0_min, y1_max)])
    if x0 == x1 or np.abs(_dist((x0, y0), (x1, y1), (x, y))).max() <= 3 * r:
        return None
    plus, minus = x + y, x - y
    extreme = [j, int(plus.argmax()), high, int(minus.argmin()),
               i, int(plus.argmin()), low, int(minus.argmax())]
    ring = points[[a for n, a in enumerate(extreme) if a != extreme[n - 1]]].tolist()
    # inside edge ab by more than `margin` where (b - a) x p > (b - a) x a +
    # margin |b - a|; the form rounds by under 6 eps max|x| |b - a| <= 2R |b - a|,
    # so a dropped atom lies more than 4R inside
    margin = 8 * r + 32 * np.finfo(float).eps * math.hypot(x1 - x0, y1_max - y0_min)
    form, bound = [], []
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        ex, ey = bx - ax, by - ay
        form.append((-ey, ex))
        bound.append(ex * ay - ey * ax + margin * math.hypot(ex, ey))
    form, bound = np.array(form).T, np.array(bound)
    keep = np.empty(len(points), dtype=bool)
    step = max(1, _BLOCK_CELLS // len(ring))
    for a in range(0, len(points), step):
        np.any(points[a:a + step] @ form <= bound, axis=1, out=keep[a:a + step])
    order = np.flatnonzero(keep)
    order = order[np.lexsort((y[order], x[order]))]
    atoms = list(zip(x[order].tolist(), y[order].tolist(), order.tolist()))
    # one atom of each location
    atoms = [a for n, a in enumerate(atoms) if n == 0 or a[:2] != atoms[n - 1][:2]]

    def half(seq):
        chain = []
        for atom in seq:
            px, py, _ = atom
            while len(chain) > 1:
                (ax, ay, _), (bx, by, _) = chain[-2], chain[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0.0:
                    break
                chain.pop()
            chain.append(atom)
        return chain[:-1]

    chain = half(atoms) + half(atoms[::-1])
    hull, v = [a[2] for a in chain], [a[:2] for a in chain]
    if len(hull) > 3:
        height = [_dist(v[n - 1], v[(n + 1) % len(v)], v[n]) for n in range(len(v))]
    while len(hull) > 3:
        n = min(range(len(hull)), key=height.__getitem__)
        if height[n] > 4 * r:
            break
        del hull[n], v[n], height[n]
        for n in (n - 1, n % len(v)):      # the two neighbours of the merged vertex
            height[n] = _dist(v[n - 1], v[(n + 1) % len(v)], v[n])
    return np.array(hull) if len(hull) > 2 else None


def _roundoff(top):
    """The rounding of a point-to-line distance, from the largest
    |coordinate k| per k, as Qhull bounds it (qh_distround): eps (d min(sqrt(d)
    M, sum_k top_k) 1.01 + M), M the largest of those."""
    d, big = len(top), max(top)
    return np.finfo(float).eps * (d * min(math.sqrt(d) * big, sum(top)) * 1.01 + big)


def _dist(p0, p1, q):
    """The signed distance of q from the line through p0 and p1 (pairs of
    floats; q's may be arrays), positive to the right of p0 -> p1: the
    determinant of p0 - q and p1 - q over |p1 - p0|, which swapping p0 and p1
    negates exactly."""
    return (((p0[1] - q[1]) * (p1[0] - q[0]) - (p0[0] - q[0]) * (p1[1] - q[1]))
            / math.hypot(p1[0] - p0[0], p1[1] - p0[1]))


def far_atoms(points):
    """The atoms that can be farthest from another atom: for a 2-d set, and
    for a 3-d one in the coordinates of its principal plane, those `_near_hull`
    keeps; for a 3-d set where that keeps more than an eighth of the atoms, a
    prefix of the atoms by distance from the centroid (`_radius_scan`); else
    (collinear sets, 1-d and 4-d and up) the atoms near either end of the
    principal axis (`_line_ends`)."""
    dim = points.shape[1]
    if dim in (2, 3):
        flat, h = points, 0.0
        if dim == 3:
            rel = points - points.mean(axis=0)
            basis = np.linalg.eigh(rel.T @ rel)[1]
            flat, h = rel @ basis[:, 1:], float(np.abs(rel @ basis[:, 0]).max())
        hull = hull_2d(flat)
        if hull is not None:
            keep = _near_hull(flat, hull, h, math.hypot(*np.ptp(points, axis=0)))
            if dim == 2 or 8 * np.count_nonzero(keep) <= len(points):
                return points[keep]
            return _radius_scan(points)
    return _line_ends(points)


def _radius_scan(points):
    """The atoms in descending order of their distance rho from the centroid
    g, up to the last one that can be farthest from some atom.

    Every atom x is a center. As |y - x| <= rho_y + rho_x, the scan reads the
    atoms in blocks of _SCAN_BLOCK and drops x once the next block starts at
    rho_y with rho_y + rho_x + 64 eps rho_max <= the farthest distance of x so
    far: the slack covers the rounding of the radii and of the distances. A
    center near g drops after a block or two; a sphere keeps every center to
    the end.
    """
    g = points.mean(axis=0)
    rho = np.sqrt(_sq_rows(points - g))
    order = np.argsort(-rho, kind="stable")
    p, rho = points[order], rho[order]
    slack = 64 * np.finfo(float).eps * float(rho[0])
    live, far, end = np.arange(len(p)), np.zeros(len(p)), 0
    while end < len(p):
        live = live[rho[end] + rho[live] + slack > far[live]]
        if live.size == 0:
            break
        block, end = p[end:end + _SCAN_BLOCK], end + _SCAN_BLOCK
        step = max(1, _CHUNK_CELLS // len(block))
        for a in range(0, len(live), step):
            c = live[a:a + step]
            d2 = ((p[c, None, :] - block[None, :, :]) ** 2).sum(-1).max(axis=1)
            far[c] = np.maximum(far[c], np.sqrt(d2))
    return p[:end]


def _near_hull(flat, hull, h, ext):
    """Mask of the atoms that can be farthest from another atom, given their
    2-d coordinates `flat`, a convex polygon flat[hull] (counterclockwise)
    whose vertices are atoms, the largest offset h of the atoms from the plane
    of `flat` (0 in 2-d), and a bound `ext` on the distance of two atoms.

    Take for atom q the edge AB (length L) whose line it lies least inside of,
    its outward offset s from that line, and its arc t from A along AB. For
    any atom x, the convex combination of |x - A|^2 and |x - B|^2 with weights
    1 - t/L and t/L exceeds |x - q|^2 by t (L - t) + 2 s s_x - s^2 in the plane
    (s_x the offset of x), so max(|x - A|^2, |x - B|^2) - |x - q|^2 >=
    t (L - t) - 3 |s| ext - 4 h^2. And when q lies deeper than 2h + sigma inside
    every edge, the polygon holds the point 2h + sigma beyond q on the ray from
    x, so some vertex e has |e - x| - |q - x| >= 2h + sigma in the plane and
    |e - x|^2 - |x - q|^2 >= sigma |e - x|. With sigma = 64 eps ext, and the
    first gap above 64 eps ext^2, either beats the rounding of the offsets,
    the projection and the squared distances, so such a q is never farthest.
    Only the atoms that pass neither test are kept.
    """
    v = flat[hull]
    edges = np.roll(v, -1, axis=0) - v
    length = np.sqrt(_sq_rows(edges))
    u = edges / length[:, None]
    s = np.full(len(flat), -math.inf)
    edge = np.zeros(len(flat), dtype=np.intp)
    for i in range(len(v)):
        off = u[i, 1] * (flat[:, 0] - v[i, 0]) - u[i, 0] * (flat[:, 1] - v[i, 1])
        out = off > s
        s[out], edge[out] = off[out], i
    t = ((flat - v[edge]) * u[edge]).sum(axis=1)
    sigma = 64 * np.finfo(float).eps * ext
    deep = s < -(2 * h + sigma)
    mid = t * (length[edge] - t) > 3 * np.abs(s) * ext + 4 * h * h + sigma * ext
    return ~(deep | mid)


def _line_ends(points):
    """The atoms whose projection t on the principal axis lies within
    2h + 64 eps S of either end (h the largest offset from the axis, S the
    largest |x - mean|): no other atom is farthest from any atom. For y that
    far below the end atom e and t_x <= t_y, |x - e|^2 - |x - y|^2 >=
    32 eps S (t_e - t_x), more than rounding moves the two squared distances;
    the rest of the slack covers the rounding of t and h."""
    rel = points - points.mean(axis=0)
    u = np.linalg.eigh(rel.T @ rel)[1][:, -1]
    t = rel @ u
    h = math.sqrt(((rel - t[:, None] * u) ** 2).sum(axis=1).max())
    slack = 2 * h + 64 * np.finfo(float).eps * math.sqrt((rel ** 2).sum(axis=1).max())
    return points[(t <= t.min() + slack) | (t >= t.max() - slack)]
