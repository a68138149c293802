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

from .measures import WeightedPointMeasure, _shell_sums
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
    """K(v) = v / |v|^(1+s), one array per coordinate of v, from those
    coordinates `diff` and d2 = |v|^2. K is 0 where d2 = 0: an atom exerts no
    force on itself (or on an exact duplicate)."""
    norm = np.where(d2 == 0.0, np.inf, d2 ** ((1.0 + s) / 2.0))
    return [dk / norm for dk in diff]


def riesz_kernel(v, s: float) -> np.ndarray:
    """K(v) = v / |v|^(1+s); odd, singular at the origin."""
    v = np.asarray(v, dtype=float)
    n2 = (v ** 2).sum()
    if n2 == 0.0:
        raise ValueError("Riesz kernel is singular at the zero vector")
    return np.array(_kernel(v, n2, s))


def truncated_riesz(measure: WeightedPointMeasure, x, pair: TruncationPair,
                    s: float) -> np.ndarray:
    """Sum of w_i K(x_i - x) over atoms with eps1 < |x_i - x| <= eps2.

    An atom exactly at x sits at distance 0 <= eps1 and is always excluded.
    """
    x = np.asarray(x, dtype=float)
    idx = measure.ball_index().annulus_atoms(x, pair.eps1, pair.eps2)
    diff = measure.points[idx] - x
    k = np.stack(_kernel(diff.T, (diff ** 2).sum(axis=1), s), axis=1)
    return (measure.weights[idx][:, None] * k).sum(axis=0)


def _pair_energy_matrix(measure, s, radii, eval_indices):
    """E[a, b] = sum_i w_i |R_(r_a, r_b)(x_i)|^2 for all a < b, from the
    kernel sums over the closed balls B(x_i, r_a)."""
    pts, w = measure.points, measure.weights
    eval_indices = as_atom_indices(eval_indices, measure.n_atoms)
    m = len(radii)
    # S[i, a] = sum of w K(x - x_i) over the closed ball B(x_i, r_a)
    S = np.moveaxis(_shell_sums(pts, pts[eval_indices], radii,
                                lambda diff, d2: [k * w for k in _kernel(diff, d2, s)],
                                measure.dim), 0, -1)
    we = w[eval_indices]
    E = np.zeros((m, m))
    for ai in range(m):
        dS = S[:, ai + 1:, :] - S[:, ai, None, :]
        E[ai, ai + 1:] = ((dS ** 2).sum(-1) * we[:, None]).sum(axis=0)
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
    if len(radii) < 2:
        raise ValueError("need at least two usable radii")
    if len(radii) > max_radii:
        sel = np.unique(np.linspace(0, len(radii) - 1, max_radii).round().astype(int))
        radii = radii[sel]
    E = _pair_energy_matrix(measure, s, radii, eval_indices)
    ai, bi = np.unravel_index(int(np.argmax(E)), E.shape)
    grid_list = [(float(radii[a]), float(radii[b]), float(E[a, b]))
                 for a in range(len(radii)) for b in range(a + 1, len(radii))]
    best = TruncationPair(float(radii[ai]), float(radii[bi]))
    return RieszEnergyReport(s=s, best_pair=best, energy_at_best=float(E[ai, bi]),
                             grid_of_pairs=grid_list,
                             grid_radii=[float(r) for r in radii])
