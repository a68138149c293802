"""The smallest distance between two atoms, loaded on first use.

`min_spacing` of every measure, segment layouts included: the exact closest
pair of the stored coordinates, by a sweep with a cell-grid fallback, in numpy
alone. `measures` imports this module inside the property, so `import densq`
compiles and loads none of it.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .measures import _CHUNK_CELLS, _distinct, _sq_rows

# shifts the closest-pair sweep tries before the pairs it has left go to a cell grid
_SWEEP_SHIFTS = 32

# candidate pairs per atom a closest-pair cell grid may hold before its side halves
_GRID_PAIRS = 64


def min_spacing(points):
    """The smallest distance between two atoms: the least
    sqrt(_sq_rows(x_i - x_j)) over all pairs, the value a brute-force scan
    gives (`closest_pair`); 0.0 for a single atom."""
    return 0.0 if len(points) == 1 else closest_pair(points)


def closest_pair(points):
    """The least sqrt(_sq_rows(x_i - x_j)) over the pairs of two or more
    atoms, exact: the value of a brute-force scan, and up to 7 coordinates of
    a KD-tree's `cKDTree(points).query(points, k=2)`, which sums the squares
    in the same order.

    A sweep sorts the atoms along the axis of widest spread and compares atom
    i with atom i + k for k = 1, 2, ... No pair is closer than its gap along
    the axis, so pair (i, i + k), and with it every later shift from i, drops
    out once that gap less a slack reaches the best distance so far. The
    slack, 64 eps max|x|, covers the rounding of the gap and of the distance.
    Atoms stacked along the axis keep the sweep going; past _SWEEP_SHIFTS
    shifts a cell grid (`_grid_spacing`) takes over from the best so far.
    """
    axis = int(np.ptp(points, axis=0).argmax())
    p = points[np.argsort(points[:, axis], kind="stable")]
    t = p[:, axis].copy()
    slack = 64 * np.finfo(float).eps * float(np.abs(points).max())
    best, start = math.inf, np.arange(len(p) - 1)
    for k in range(1, _SWEEP_SHIFTS + 1):
        start = start[:np.searchsorted(start, len(p) - k)]
        start = start[t[start + k] - t[start] - slack < best]
        if start.size == 0 or best == 0.0:
            return best
        best = min(best, math.sqrt(float(_sq_rows(p[start + k] - p[start]).min())))
    return _grid_spacing(p, best, slack)


def _grid_spacing(p, best, slack):
    """`closest_pair` of the atoms p from cell grids, given the distance
    `best` of some pair and the sweep's slack.

    On a grid of side h + 2 slack, two atoms less than h + slack apart along
    every axis lie in the same or adjacent cells, rounding included. So the
    pairs of each cell and of the cells about it hold every pair closer than
    h (Rabin 1976; Khuller and Matias 1995). h starts at best and halves while
    the grid holds more than _GRID_PAIRS pairs an atom. The least distance of
    a grid's pairs is the closest when it is below that grid's h; when it is
    not, the grid one level up is read, up to h = best.
    """
    levels = [best]
    while (slack < levels[-1] < math.inf
           and _grid_pairs(p, levels[-1] + 2 * slack, count=True) > _GRID_PAIRS * len(p)):
        levels.append(levels[-1] / 2)
    for h in reversed(levels):
        d = math.sqrt(_grid_pairs(p, h + 2 * slack))
        if d < h:
            return d
    return best


def _grid_pairs(p, side, count=False):
    """The least _sq_rows(x_i - x_j) over the pairs of atoms in the same or
    adjacent cells of the grid of the given side (inf for none), or with
    `count` the number of those pairs. The grid spans the atoms' (up to)
    three axes of widest spread."""
    # three axes keep the rank key below 2^63 up to 2^21 atoms
    axes = np.argsort(-np.ptp(p, axis=0), kind="stable")[:3 if len(p) < 2 ** 21 else 2]
    cell = np.floor((p[:, axes] - p[:, axes].min(axis=0)) / side)
    cell = np.minimum(cell, 2.0 ** 52).astype(np.int64)
    order = np.lexsort(cell.T[::-1])
    p, cell = p[order], cell[order]
    cols = [_distinct(c) for c in cell.T]

    def key(off):
        # the rank key of each atom's cell moved by `off`, and whether the
        # moved cell's coordinates occur at all
        k, seen = np.zeros(len(p), dtype=np.int64), np.ones(len(p), dtype=bool)
        for c, u, o in zip(cell.T, cols, off):
            r = np.searchsorted(u, c + o)
            seen &= u[np.minimum(r, len(u) - 1)] == c + o
            k = k * len(u) + r
        return k, seen

    own = key((0,) * len(axes))[0]          # ascending: the atoms are in cell order
    total, least = 0, math.inf
    # each atom meets the later atoms of its cell, then the atoms of the cells
    # at the offsets of half the neighbourhood: atoms first[a]:first[a] + n[a]
    for off in itertools.product((-1, 0, 1), repeat=len(axes)):
        if off < (0,) * len(axes):
            continue
        if any(off):
            k, seen = key(off)
            first = np.searchsorted(own, k)
            n = np.where(seen, np.searchsorted(own, k, side="right") - first, 0)
        else:
            first = np.arange(1, len(p) + 1)
            n = np.searchsorted(own, own, side="right") - first
        total += int(n.sum())
        if count or not n.any():
            continue
        cum = np.cumsum(n)
        cuts = np.searchsorted(cum, np.arange(_CHUNK_CELLS, cum[-1], _CHUNK_CELLS)).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(p)]):
            m = n[a:b]
            if m.any():
                i = np.repeat(np.arange(a, b), m)
                j = np.repeat(first[a:b] - (np.cumsum(m) - m), m) + np.arange(int(m.sum()))
                least = min(least, float(_sq_rows(p[j] - p[i]).min()))
    return total if count else least
