"""Multi-scale densities and energies of discrete measures.

Density theta(x, r) = mass(B(x,r)) / r^s and the dyadic density difference
theta(x, r) - theta(x, 2r) drive two energy functionals: the square-function
energy (difference squared) and the Wolff energy (density squared), both
integrated against d(mu) x dr/r over a log-spaced scale grid with an analytic
power-law tail once balls swallow the whole support.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .measures import WeightedPointMeasure, ball_masses

DEFAULT_KAPPA = 4.0

# absolute floor of the identity residual's denominator, in units of
# total_mass / R^s: when both sides are ~0 (no atom where phi' lives) the
# relative residual would otherwise compare rounding noise with itself
IDENTITY_RESIDUAL_FLOOR = 1e-12


def as_atom_indices(eval_indices, n_atoms: int) -> np.ndarray:
    """Normalize an atom-subset argument: None -> all, bool mask -> indices."""
    if eval_indices is None:
        return np.arange(n_atoms)
    arr = np.asarray(eval_indices)
    if arr.dtype == bool:
        if arr.shape != (n_atoms,):
            raise ValueError("boolean eval mask must have one entry per atom")
        return np.flatnonzero(arr)
    return arr.astype(np.intp)


@dataclass(frozen=True)
class ScaleGrid:
    """Log-spaced radii r_j = r_min * q^j, j = 0..J, with r_J <= r_max."""

    r_min: float
    r_max: float
    q: float = 1.1

    def __post_init__(self):
        if not self.r_min > 0:
            raise ValueError("r_min must be positive")
        if not self.r_max > self.r_min:
            raise ValueError("r_max must exceed r_min")
        if not 1.0 < self.q <= 2.0:
            raise ValueError("q must lie in (1, 2]")
        if self.r_min * self.q > self.r_max * (1.0 + 1e-12):
            raise ValueError("grid must contain at least two radii (J >= 1)")

    @property
    def radii(self) -> np.ndarray:
        j = int(math.floor(math.log(self.r_max / self.r_min) / math.log(self.q)
                           + 1e-12))
        return self.r_min * self.q ** np.arange(j + 1)

    @property
    def log_step(self) -> float:
        return math.log(self.q)

    def summary(self) -> dict:
        return {"r_min": self.r_min, "r_max": self.r_max, "q": self.q}

    @classmethod
    def default_for(cls, measure: WeightedPointMeasure, q: float = 1.1,
                    kappa: float = DEFAULT_KAPPA) -> "ScaleGrid":
        """r_min = kappa * min_spacing, r_max = 8 * support_radius."""
        r_min = kappa * measure.min_spacing
        r_max = 8.0 * measure.support_radius
        if r_min <= 0 or r_max <= r_min:
            raise ValueError(
                "degenerate default grid (single atom or zero spread); "
                "pass an explicit ScaleGrid")
        return cls(r_min, r_max, q)


@dataclass
class EnergyReport:
    """One energy functional evaluated on one measure and scale grid."""

    kind: str
    s: float | None
    p: float
    grid: dict
    total: float
    tail: float
    per_scale: list   # [(radius, contribution), ...]
    clipped_low_r: dict
    params_echo: dict
    per_point: np.ndarray | None = None

    @property
    def discrete_total(self) -> float:
        return math.fsum(v for _, v in self.per_scale)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "s": self.s,
            "p": self.p,
            "grid": self.grid,
            "total": self.total,
            "tail": self.tail,
            "per_scale": [[r, v] for r, v in self.per_scale],
            "clipped_low_r": self.clipped_low_r,
            "params_echo": self.params_echo,
        }

    def save_per_point_csv(self, path) -> None:
        if self.per_point is None:
            raise ValueError("report carries no per-point breakdown")
        import csv
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["atom_index", "contribution"])
            for i, v in enumerate(self.per_point):
                wr.writerow([i, repr(float(v))])


# ---------------------------------------------------------------------------
# pointwise densities

def density(measure: WeightedPointMeasure, x, r: float, s: float) -> float:
    """Average s-dimensional density mass(B(x,r)) / r^s."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return measure.ball_index().mass_in_ball(x, r) / r ** s


def density_difference(measure: WeightedPointMeasure, x, r: float, s: float) -> float:
    """density(x, r) - density(x, 2r); vanishes for exactly s-homogeneous mass."""
    return density(measure, x, r, s) - density(measure, x, 2.0 * r, s)


# ---------------------------------------------------------------------------
# energies

def _tail_start(farthest: np.ndarray, r_min: float) -> np.ndarray:
    # analytic tail begins where the ball is guaranteed to hold the support,
    # but never before the grid starts
    return np.maximum(farthest, r_min)


def _check_s(s: float) -> None:
    if not s > 0:
        raise ValueError(f"s must be positive; got {s}")


def _energies(measure, s, grid, p, kinds, eval_indices, kappa, include_per_point):
    """Reports of the given kinds, all read from one ball-mass profile at the
    sample radii and their doubles, so each report is the same whichever
    others are asked for with it."""
    _check_s(s)
    if p < 1:
        raise ValueError("p must be >= 1")
    if measure.n_atoms < 1:
        raise ValueError("measure is empty")
    radii = grid.radii
    sample = radii * math.sqrt(grid.q)
    floor = kappa * measure.min_spacing
    eval_indices = as_atom_indices(eval_indices, measure.n_atoms)
    centers = measure.points[eval_indices]
    wc = measure.weights[eval_indices]
    far = measure.farthest_distances()[eval_indices]

    T = _tail_start(far, grid.r_min)
    # exact per-cell log widths: cell [r_j, r_j q) clipped to [floor, T_i)
    lo = np.maximum(radii[None, :], floor)
    hi = np.minimum(T[:, None], radii[None, :] * grid.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        width = np.log(hi / lo)
    width = np.where(hi > lo, width, 0.0)

    m_all = ball_masses(measure, centers, np.concatenate([sample, 2.0 * sample]))
    th_r = m_all[:, :len(sample)] / sample[None, :] ** s
    clipped = {
        "r_below": float(max(floor, grid.r_min)),
        "note": ("scales below r_below omitted: unresolved below kappa*min_spacing"
                 if floor > grid.r_min else "no low-r clipping"),
    }
    reports = []
    for kind in kinds:
        if kind == "square_function":
            th_2r = m_all[:, len(sample):] / (2.0 * sample[None, :]) ** s
            integrand = np.abs(th_r - th_2r) ** p
            tail_coeff = (measure.total_mass * (1.0 - 2.0 ** (-s))) ** p
        elif kind == "wolff":
            integrand = np.abs(th_r) ** p
            tail_coeff = measure.total_mass ** p
        else:
            raise ValueError(f"unknown energy kind {kind!r}")

        contrib = integrand * width * wc[:, None]
        per_scale_vals = contrib.sum(axis=0)
        tail_i = wc * tail_coeff / (p * s * T ** (p * s))
        tail = float(tail_i.sum())
        total = math.fsum(per_scale_vals.tolist() + [tail])
        echo = {
            "kind": kind, "s": s, "p": p, "grid": grid.summary(), "kappa": kappa,
            "n_atoms": measure.n_atoms, "eval_count": int(len(wc)),
            "total_mass": measure.total_mass, "sample_rule": "geometric cell midpoint",
        }
        per_point = contrib.sum(axis=1) + tail_i if include_per_point else None
        reports.append(EnergyReport(
            kind=kind, s=s, p=p, grid=grid.summary(), total=total, tail=tail,
            per_scale=list(zip(sample.tolist(), per_scale_vals.tolist())),
            clipped_low_r=dict(clipped), params_echo=echo, per_point=per_point))
    return reports


def square_function_energy(measure: WeightedPointMeasure, s: float, grid: ScaleGrid,
                           p: float = 2.0, eval_indices=None,
                           kappa: float = DEFAULT_KAPPA,
                           include_per_point: bool = False) -> EnergyReport:
    """Integral of |theta(x,r) - theta(x,2r)|^p d(mu) dr/r plus analytic tail.

    The scale integral uses geometric-midpoint sampling of each grid cell with
    exact cell widths, clipped below kappa*min_spacing (reported) and above by
    the per-atom support-covering radius, beyond which the integrand is the
    exact power law integrated in closed form (the tail).
    """
    return _energies(measure, s, grid, p, ("square_function",), eval_indices, kappa,
                     include_per_point)[0]


def wolff_energy(measure: WeightedPointMeasure, s: float, grid: ScaleGrid,
                 p: float = 2.0, eval_indices=None, kappa: float = DEFAULT_KAPPA,
                 include_per_point: bool = False) -> EnergyReport:
    """Integral of theta(x,r)^p d(mu) dr/r plus analytic tail."""
    return _energies(measure, s, grid, p, ("wolff",), eval_indices, kappa,
                     include_per_point)[0]


def square_function_and_wolff_energy(
        measure: WeightedPointMeasure, s: float, grid: ScaleGrid, p: float = 2.0,
        eval_indices=None, kappa: float = DEFAULT_KAPPA,
        include_per_point: bool = False) -> tuple[EnergyReport, EnergyReport]:
    """(square_function_energy, wolff_energy) from one ball-mass pass; each
    report is bit-identical to the one the single function returns."""
    sf, wolff = _energies(measure, s, grid, p, ("square_function", "wolff"),
                          eval_indices, kappa, include_per_point)
    return sf, wolff


# ---------------------------------------------------------------------------
# smoothed differences and the scale-convolution identity

@dataclass
class RadialProfile:
    """Smooth radial profile phi with an explicit derivative evaluator.

    `support` bounds where phi is non-negligible; `flat_zero_radius` is a
    radius below which phi' vanishes identically (0.0 if none); `deriv_lo` is
    where the derivative starts to matter for quadrature.
    """

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    support: float
    name: str
    flat_zero_radius: float = 0.0
    deriv_lo: float = 1e-6

    def deriv_range(self) -> tuple[float, float]:
        lo = self.flat_zero_radius if self.flat_zero_radius > 0 else self.deriv_lo
        return lo, self.support

    def check_derivative(self, grid: np.ndarray, tol: float = 1e-6) -> float:
        """Max |central difference - derivative| over the grid; must be <= tol."""
        grid = np.asarray(grid, dtype=float)
        h = 1e-6
        fd = (self.value(grid + h) - self.value(grid - h)) / (2 * h)
        err = float(np.abs(fd - self.derivative(grid)).max())
        if err > tol:
            raise ValueError(f"profile {self.name}: derivative inconsistent ({err:.2e})")
        return err

    @staticmethod
    def gaussian(cutoff: float = 8.0) -> "RadialProfile":
        return RadialProfile(
            value=lambda u: np.exp(-np.asarray(u, dtype=float) ** 2),
            derivative=lambda u: -2.0 * np.asarray(u, dtype=float)
            * np.exp(-np.asarray(u, dtype=float) ** 2),
            support=cutoff, name="gaussian")

    @staticmethod
    def bump(inner: float = 0.5, outer: float = 2.0) -> "RadialProfile":
        """C-infinity profile: 1 on [0, inner], 0 beyond outer, smooth between."""
        if not 0 < inner < outer:
            raise ValueError("need 0 < inner < outer")
        span = outer - inner

        def f(x):
            out = np.zeros_like(x)
            pos = x > 0
            out[pos] = np.exp(-1.0 / x[pos])
            return out

        def fp(x):
            out = np.zeros_like(x)
            pos = x > 0
            out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
            return out

        def value(u):
            u = np.asarray(u, dtype=float)
            v = (u - inner) / span
            v = np.clip(v, 0.0, 1.0)
            a, b = f(1.0 - v), f(v)
            return a / (a + b)

        def derivative(u):
            u = np.asarray(u, dtype=float)
            v = (u - inner) / span
            inside = (v > 0.0) & (v < 1.0)
            out = np.zeros_like(v)
            vi = v[inside]
            a, b = f(1.0 - vi), f(vi)
            ap, bp = fp(1.0 - vi), fp(vi)
            # d/dv [a/(a+b)] with da/dv = -ap, db/dv = bp
            out[inside] = (-ap * b - a * bp) / (a + b) ** 2 / span
            return out

        return RadialProfile(value=value, derivative=derivative, support=outer,
                             name="bump", flat_zero_radius=inner)

    @staticmethod
    def logistic_cap(sharpness: float = 20.0) -> "RadialProfile":
        """Smooth approximation of the [0,1] indicator; sharpens as the
        parameter grows."""

        def value(u):
            u = np.asarray(u, dtype=float)
            return 1.0 / (1.0 + np.exp(np.clip(sharpness * (u - 1.0), -60, 60)))

        def derivative(u):
            u = np.asarray(u, dtype=float)
            z = np.clip(sharpness * (u - 1.0), -60, 60)
            e = np.exp(z)
            return -sharpness * e / (1.0 + e) ** 2

        return RadialProfile(value=value, derivative=derivative,
                             support=1.0 + 60.0 / sharpness,
                             name=f"logistic_cap({sharpness:g})")


def smoothed_density_difference(measure: WeightedPointMeasure, phi: RadialProfile,
                                x, t: float, s: float) -> float:
    """Sum_i w_i (t^-s phi(d_i/t) - (2t)^-s phi(d_i/(2t))), d_i = |x_i - x|."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    d = np.sqrt(((measure.points - x) ** 2).sum(axis=1))
    vals = (measure.weights * (phi.value(d / t) / t ** s
                               - phi.value(d / (2.0 * t)) / (2.0 * t) ** s))
    return math.fsum(vals.tolist())


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def verify_convolution_identity(measure: WeightedPointMeasure, phi: RadialProfile,
                                x, R: float, s: float,
                                quad_points: int = 512) -> float:
    """Relative residual of the identity

        smoothed difference at scale R  ==  -int_0^inf t^s phi'(t) D(x, tR) dt,

    where D is the sharp density difference, as |lhs - rhs| divided by
    max(|lhs|, |rhs|, IDENTITY_RESIDUAL_FLOOR * total_mass / R^s). The
    integral runs over a log grid of `quad_points` base nodes covering where
    phi' is non-negligible, refined at the integrand's jump radii (atom
    distances), with Gauss-Legendre panels.
    """
    if quad_points < 16:
        raise ValueError("quad_points must be >= 16")
    if R <= 0:
        raise ValueError("R must be positive")
    x = np.asarray(x, dtype=float)
    d2 = ((measure.points - x) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    d2s = d2[order]
    cumw = np.cumsum(measure.weights[order])
    d = np.sqrt(d2s)

    lo, hi = phi.deriv_range()
    if not (0 < lo < hi):
        raise ValueError(f"profile {phi.name} has empty derivative range")
    base = np.exp(np.linspace(math.log(lo), math.log(hi), quad_points))
    jumps = np.concatenate([d / R, d / (2.0 * R)])
    jumps = jumps[(jumps > lo) & (jumps < hi)]
    edges = np.unique(np.concatenate([base, jumps]))

    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    tt = mid[:, None] + half[:, None] * _GL_NODES[None, :]   # (panels, 8)
    flat = tt.reshape(-1)
    u1, u2 = flat * R, 2.0 * flat * R
    m1 = _cummass(d2s, cumw, u1)
    m2 = _cummass(d2s, cumw, u2)
    delta = m1 / u1 ** s - m2 / u2 ** s
    g = flat ** s * phi.derivative(flat) * delta
    rhs = -float(((g.reshape(tt.shape) * _GL_WEIGHTS[None, :]).sum(axis=1)
                  * half).sum())
    lhs = smoothed_density_difference(measure, phi, x, R, s)
    denom = max(abs(lhs), abs(rhs),
                IDENTITY_RESIDUAL_FLOOR * measure.total_mass / R ** s)
    return abs(lhs - rhs) / denom


def _cummass(sorted_d2, cumw, radii):
    pos = np.searchsorted(sorted_d2, np.asarray(radii) ** 2, side="right")
    return np.where(pos > 0, cumw[np.maximum(pos, 1) - 1], 0.0)


# ---------------------------------------------------------------------------
# thin-boundary radius search

class ThinBoundaryNotFound(RuntimeError):
    """No candidate radius satisfied the thin-boundary condition."""

    def __init__(self, best_radius: float, worst_ratio: float, worst_lambda: float):
        self.best_radius = best_radius
        self.worst_ratio = worst_ratio
        self.worst_lambda = worst_lambda
        super().__init__(
            f"no thin-boundary radius found; best candidate {best_radius:.6g} "
            f"violates by factor {worst_ratio:.3g} at lambda={worst_lambda:.3g}")


def find_thin_boundary_radius(measure: WeightedPointMeasure, x, r: float,
                              t_thin: float | None = None,
                              lambda_grid: Sequence[float] | None = None,
                              n_candidates: int = 64) -> float:
    """First radius r' in [r, 2r] whose boundary sphere is mass-thin:

        mass{y in B(x,2r'): |dist(y,x) - r'| <= lam*r'}  <=  t_thin * lam * mass(B(x,2r'))

    for every lam in the grid. Candidates are equispaced in [r, 2r].
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if t_thin is None:
        t_thin = 32.0 * measure.dim
    if lambda_grid is None:
        lambda_grid = [2.0 ** (-j) for j in range(11)]
    lams = np.asarray(sorted(lambda_grid, reverse=True), dtype=float)
    if lams.size == 0 or np.any(lams <= 0) or np.any(lams > 1):
        raise ValueError("lambda_grid must be a nonempty subset of (0, 1]")
    x = np.asarray(x, dtype=float)
    idx = measure.ball_index().ball_atoms(x, 4.0 * r)
    if measure.weights[idx].sum() <= 0 or idx.size == 0:
        raise ValueError("mass(x, 4r) must be positive")
    d2 = ((measure.points[idx] - x) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    d2s = d2[order]
    cumw = np.cumsum(measure.weights[idx][order])

    def cmass_right(rad):
        pos = np.searchsorted(d2s, rad * rad, side="right")
        return cumw[pos - 1] if pos > 0 else 0.0

    def cmass_left(rad):
        pos = np.searchsorted(d2s, rad * rad, side="left")
        return cumw[pos - 1] if pos > 0 else 0.0

    candidates = r + (r / (n_candidates - 1)) * np.arange(n_candidates)
    best = (math.inf, candidates[0], lams[0])
    for rp in candidates:
        m2 = cmass_right(2.0 * rp)
        ok = True
        for lam in lams:
            band = cmass_right((1.0 + lam) * rp) - cmass_left((1.0 - lam) * rp)
            bound = t_thin * lam * m2
            if band > bound:
                ok = False
                ratio = band / bound if bound > 0 else math.inf
                if ratio < best[0]:
                    best = (ratio, rp, lam)
                break
        if ok:
            return float(rp)
    raise ThinBoundaryNotFound(best_radius=float(best[1]), worst_ratio=float(best[0]),
                               worst_lambda=float(best[2]))


# ---------------------------------------------------------------------------
# local energy ratio and AD-regularity diagnostic

def local_energy_ratio(measure: WeightedPointMeasure, ball_center, r0: float,
                       s: float, delta_param: float, q: float = 1.1) -> float:
    """Ratio of the local square-function energy to theta(B0)^2 * mass(B0).

    Numerator: integral of the squared density difference over atoms in the
    delta^-1-dilated ball and scales [delta*r0, r0/delta] (log-midpoint rule).
    The scale window is exactly as requested: no resolution floor is applied,
    so r0 should sit inside the measure's resolved range.
    """
    if not 0 < delta_param < 1:
        raise ValueError("delta_param must lie in (0, 1)")
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    center = np.asarray(ball_center, dtype=float)
    index = measure.ball_index()
    m0 = index.mass_in_ball(center, r0)
    if m0 <= 0:
        raise ValueError("degenerate ball: mass(B0) = 0")
    idx = index.ball_atoms(center, r0 / delta_param)
    lo_r, hi_r = delta_param * r0, r0 / delta_param
    grid = ScaleGrid(lo_r, hi_r, q)
    radii = grid.radii
    sample = radii * math.sqrt(q)
    widths = np.log(np.minimum(radii * q, hi_r) / radii)
    m_all = ball_masses(measure, measure.points[idx],
                        np.concatenate([sample, 2.0 * sample]))
    m_r, m_2r = m_all[:, :len(sample)], m_all[:, len(sample):]
    dl = m_r / sample[None, :] ** s - m_2r / (2.0 * sample[None, :]) ** s
    lhs = float((dl ** 2 * widths[None, :] * measure.weights[idx][:, None]).sum())
    rhs = (m0 / r0 ** s) ** 2 * m0
    return lhs / rhs


def ad_regularity_diagnostic(measure: WeightedPointMeasure, s: float,
                             grid: ScaleGrid, eval_indices=None,
                             kappa: float = DEFAULT_KAPPA) -> tuple[float, float]:
    """(min, max) of theta(x, r) over the evaluation atoms and resolved radii.

    Radii are restricted to [kappa*min_spacing, support diameter]; a bounded
    max/min ratio indicates s-AD regularity at the resolved scales. A single
    atom has no diameter, so all grid radii count (and the ratio correctly
    blows up like r^-s).
    """
    radii = grid.radii
    lo = kappa * measure.min_spacing
    hi = measure.support_diameter if measure.support_diameter > 0 else math.inf
    radii = radii[(radii >= lo) & (radii <= hi)]
    if radii.size == 0:
        raise ValueError("no grid radii inside the resolved range")
    centers = measure.points[as_atom_indices(eval_indices, measure.n_atoms)]
    masses = ball_masses(measure, centers, radii)
    theta = masses / radii[None, :] ** s
    return float(theta.min()), float(theta.max())
