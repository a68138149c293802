"""Truncated vector Riesz transforms and their L^2(mu) energies.

The kernel K(v) = v / |v|^(1+s) is odd; the doubly truncated transform sums it
over the annulus eps1 < |y - x| <= eps2. Energies over many truncation pairs
share per-atom sums of the kernel over the closed balls at every grid radius,
taken shell by shell in one radial pass, so the full pair grid costs one
O(N^2) pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import WeightedPointMeasure, _distinct, _shell_sums
from .multiscale import (DEFAULT_KAPPA, ScaleGrid, _check_s, _floor_for,
                         as_atom_indices)


@dataclass(frozen=True)
class TruncationPair:
    """Annulus radii 0 < eps1 < eps2."""

    eps1: float
    eps2: float

    def __post_init__(self):
        if not 0 < self.eps1 < self.eps2:
            raise ValueError("need 0 < eps1 < eps2")


@dataclass
class RieszEnergyReport:
    """Energies over a grid of truncation pairs; the grid max is a lower bound
    for the true supremum over all pairs."""

    s: float
    best_pair: TruncationPair
    energy_at_best: float
    grid_of_pairs: list  # [(eps1, eps2, energy), ...]
    grid_radii: list

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "best": {"eps1": self.best_pair.eps1, "eps2": self.best_pair.eps2,
                     "energy": self.energy_at_best},
            "grid": [[e1, e2, en] for e1, e2, en in self.grid_of_pairs],
            "grid_radii": list(self.grid_radii),
            "sup_is_lower_bound": True,
        }


def _kernel(diff, d2, s):
    """K(v) = v / |v|^(1+s), written over `diff`, the arrays of v's
    coordinates (rows of one array, or a list of arrays), from d2 = |v|^2;
    returns diff. K is 0 where d2 = 0: an atom exerts no force on itself (or
    on an exact duplicate)."""
    e = (1.0 + s) / 2.0
    # pow(x, 1) == x for every double, and numpy takes no shortcut for it
    norm = d2.copy() if e == 1.0 else d2 ** e
    norm[d2 == 0.0] = np.inf
    for dk in diff:
        dk /= norm
    return diff


def riesz_kernel(v, s: float) -> np.ndarray:
    """K(v) = v / |v|^(1+s); odd, singular at the origin."""
    _check_s(s)
    v = np.asarray(v, dtype=float)
    n2 = (v ** 2).sum()
    if n2 == 0.0:
        raise ValueError("Riesz kernel is singular at the zero vector")
    return v / n2 ** ((1.0 + s) / 2.0)


def truncated_riesz(measure: WeightedPointMeasure, x, pair: TruncationPair,
                    s: float) -> np.ndarray:
    """Sum of w_i K(x_i - x) over atoms with eps1 < |x_i - x| <= eps2.

    An atom exactly at x sits at distance 0 <= eps1 and is always excluded.
    """
    _check_s(s)
    x = np.asarray(x, dtype=float)
    idx = measure.ball_index().annulus_atoms(x, pair.eps1, pair.eps2)
    diff = measure.points[idx] - x
    k = _kernel(diff.T, (diff ** 2).sum(axis=1), s).T
    return (measure.weights[idx][:, None] * k).sum(axis=0)


def _pair_energy_matrix(measure, s, radii, eval_indices):
    """E[a, b] = sum_i w_i |R_(r_a, r_b)(x_i)|^2 for all a < b, from the
    kernel sums over the closed balls B(x_i, r_a), a block of evaluation atoms
    at a time: each block adds its column sums to the running rows of E, as
    `multiscale._energies` adds its per-scale sums. The last pair's terms are
    one column, whose sum numpy takes pairwise, so they are kept whole."""
    pts, w = measure.points, measure.weights
    eval_indices = as_atom_indices(eval_indices, measure.n_atoms)
    m = len(radii)
    we = w[eval_indices]
    E, last = np.zeros((m, m)), np.empty(len(eval_indices))

    def weighted(diff, d2, wk):
        kernel = _kernel(diff, d2, s)
        for k in kernel:
            k *= wk
        return kernel

    # S[k][i, a] = sum of w K_k(x - x_i) over the closed ball B(x_i, r_a)
    for start, S in _shell_sums(pts, w, pts[eval_indices], radii, weighted, measure.dim):
        rows = slice(start, start + S.shape[1])
        for a in range(m - 1):
            # |S_b - S_a|^2 one coordinate at a time, as `_sq_rows` adds them
            dS = S[0][:, a + 1:] - S[0][:, a, None]
            sq = np.square(dS, out=dS)
            for Sk in S[1:]:
                dS = Sk[:, a + 1:] - Sk[:, a, None]
                sq += np.square(dS, out=dS)
            sq *= we[rows, None]
            if a == m - 2:
                last[rows] = sq[:, 0]
            else:
                sq[0] += E[a, a + 1:]
                sq.sum(axis=0, out=E[a, a + 1:])
    if m > 1:
        E[m - 2, m - 1] = last.sum()
    return E


def riesz_energy(measure: WeightedPointMeasure, pair: TruncationPair, s: float,
                 eval_indices=None) -> float:
    """Sum_i w_i |R_(eps1,eps2)(x_i)|^2 over the evaluation atoms."""
    _check_s(s)
    E = _pair_energy_matrix(measure, s, [pair.eps1, pair.eps2], eval_indices)
    return float(E[0, 1])


def sup_riesz_energy(measure: WeightedPointMeasure, s: float, scale_grid: ScaleGrid,
                     eval_indices=None, max_radii: int = 64,
                     kappa: float = DEFAULT_KAPPA) -> RieszEnergyReport:
    """Max energy over all truncation pairs (r_a, r_b), a < b, from the grid.

    The grid must start at or above the resolved floor kappa * min_spacing
    (kappa = 0: no floor). It is coarsened to at most `max_radii` radii. The
    reported maximum is a lower bound for the continuum supremum (flagged in
    the report).
    """
    _check_s(s)
    radii = scale_grid.radii
    floor = _floor_for(measure, kappa, scale_grid.r_min)
    if scale_grid.r_min < floor * (1.0 - 1e-12):
        raise ValueError(
            f"grid r_min {scale_grid.r_min:.3g} below the resolved floor "
            f"{floor:.3g} (= kappa*min_spacing); pass kappa=0 to override")
    if len(radii) > max_radii:
        sel = _distinct(np.linspace(0, len(radii) - 1, max_radii).round().astype(int))
        radii = radii[sel]
    if len(radii) < 2:
        raise ValueError(f"need at least two usable radii; max_radii={max_radii}")
    E = _pair_energy_matrix(measure, s, radii, eval_indices)
    # the pairs a < b in row-major order; the first largest wins, so all-zero
    # energies give (r_0, r_1)
    pairs = np.triu_indices(len(radii), 1)
    energies = E[pairs].tolist()
    k = int(np.argmax(energies))
    ai, bi = pairs[0][k], pairs[1][k]
    grid_list = [(float(radii[a]), float(radii[b]), e)
                 for a, b, e in zip(*pairs, energies)]
    best = TruncationPair(float(radii[ai]), float(radii[bi]))
    return RieszEnergyReport(s=s, best_pair=best, energy_at_best=energies[k],
                             grid_of_pairs=grid_list,
                             grid_radii=[float(r) for r in radii])
