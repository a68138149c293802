"""Multi-scale densities and energies of discrete measures.

Density theta(x, r) = mass(B(x,r)) / r^s and the dyadic density difference
theta(x, r) - theta(x, 2r) drive two energy functionals: the square-function
energy (difference squared) and the Wolff energy (density squared), both
integrated against d(mu) x dr/r over a log-spaced scale grid with an analytic
power-law tail once balls swallow the whole support.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .measures import WeightedPointMeasure, ball_masses

DEFAULT_KAPPA = 4.0

# absolute floor of the identity residual's denominator, in units of
# total_mass / R^s: when both sides are ~0 (no atom where phi' lives) the
# relative residual would otherwise compare rounding noise with itself
IDENTITY_RESIDUAL_FLOOR = 1e-12

# equispaced candidate radii in [r, 2r] tried by find_thin_boundary_radius
THIN_BOUNDARY_CANDIDATES = 64

# where a profile without a flat zero core starts to matter for quadrature, and
# the largest finite-difference error check_derivative accepts
PROFILE_DERIV_LO = 1e-6
PROFILE_DERIV_TOL = 1e-6


def as_atom_indices(eval_indices, n_atoms: int) -> np.ndarray:
    """Normalize an atom-subset argument: None -> all, bool mask -> indices.
    Every index must lie in [0, n_atoms)."""
    if eval_indices is None:
        return np.arange(n_atoms)
    arr = np.asarray(eval_indices)
    if arr.dtype == bool:
        if arr.shape != (n_atoms,):
            raise ValueError("boolean eval mask must have one entry per atom")
        return np.flatnonzero(arr)
    arr = arr.astype(np.intp)
    if not np.all((arr >= 0) & (arr < n_atoms)):
        raise ValueError(f"atom indices must lie in [0, {n_atoms})")
    return arr


def resolved_floor(measure: WeightedPointMeasure, kappa: float) -> float:
    """kappa * min_spacing: the smallest scale the atoms resolve."""
    if not 0.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 0; got {kappa}")
    return kappa * measure.min_spacing


def _floor_for(measure: WeightedPointMeasure, kappa: float, r_min: float) -> float:
    """max(resolved_floor, r_min), all a grid starting at r_min reads of it, with
    no spacing search while kappa * |x_0 - x_1| (which bounds the floor) stays
    below r_min by a margin rounding cannot cross; a bad kappa still raises."""
    if (measure.n_atoms > 1 and kappa >= 0.0 and r_min > kappa * (1.0 + 1e-12)
            * math.dist(measure.points[0], measure.points[1])):
        return r_min
    return max(resolved_floor(measure, kappa), r_min)


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
    def samples(self) -> np.ndarray:
        """Geometric midpoint r_j * sqrt(q) of each cell [r_j, r_j q)."""
        return self.radii * math.sqrt(self.q)

    @property
    def log_step(self) -> float:
        return math.log(self.q)

    def cell_widths(self, floor: float, top=math.inf) -> np.ndarray:
        """Log width of each cell [r_j, r_j q) clipped to [floor, top):
        log(min(top, r_j q) / max(r_j, floor)), or 0 for an empty cell. A
        column of per-row tops gives one row of widths per top."""
        lo = np.maximum(self.radii, floor)
        hi = np.minimum(top, self.radii * self.q)
        return np.where(hi > lo, np.log(hi / lo), 0.0)

    def low_r_clip(self, floor: float) -> dict:
        """A report's `clipped_low_r` record for the resolution floor
        kappa * min_spacing: scales below max(floor, r_min) are omitted."""
        return {
            "r_below": float(max(floor, self.r_min)),
            "note": ("scales below r_below omitted: unresolved below kappa*min_spacing"
                     if floor > self.r_min else "no low-r clipping"),
        }

    def summary(self) -> dict:
        return {"r_min": self.r_min, "r_max": self.r_max, "q": self.q}

    @classmethod
    def default_for(cls, measure: WeightedPointMeasure, q: float = 1.1,
                    kappa: float = DEFAULT_KAPPA) -> "ScaleGrid":
        """r_min = kappa * min_spacing, r_max = 8 * support_radius."""
        r_min = resolved_floor(measure, kappa)
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

    @classmethod
    def assemble(cls, kind, s, p, grid, measure, kappa, floor, eval_count,
                 per_scale, tail=0.0, per_point=None, **echo) -> "EnergyReport":
        """The report of per-scale values and a tail: the total is their
        exactly rounded sum, and `echo` adds entries to `params_echo`."""
        params_echo = {"kind": kind, "s": s, "p": p, "grid": grid.summary(),
                       "kappa": kappa, "n_atoms": measure.n_atoms,
                       "eval_count": eval_count, **echo,
                       "total_mass": measure.total_mass,
                       "sample_rule": "geometric cell midpoint"}
        return cls(kind=kind, s=s, p=p, grid=grid.summary(),
                   total=math.fsum([v for _, v in per_scale] + [tail]), tail=tail,
                   per_scale=per_scale, clipped_low_r=grid.low_r_clip(floor),
                   params_echo=params_echo, per_point=per_point)

    @property
    def discrete_total(self) -> float:
        return math.fsum(v for _, v in self.per_scale)

    def to_json_dict(self) -> dict:
        """Every field but the per-point array."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "per_point"}

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

def _check_s(s: float) -> None:
    if not s > 0:
        raise ValueError(f"s must be positive; got {s}")


def _check_p(p: float) -> None:
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1; got {p}")


def _density_and_gap(measure, centers, sample, s):
    """theta(x, r) and theta(x, r) - theta(x, 2r) at each center and sample
    radius, from one ball-mass profile at the radii and their doubles."""
    m = ball_masses(measure, centers, np.concatenate([sample, 2.0 * sample]))
    th_r = m[:, :len(sample)] / sample ** s
    return th_r, th_r - m[:, len(sample):] / (2.0 * sample) ** s


def _energies(measure, s, grid, p, kinds, eval_indices, kappa, include_per_point):
    """Reports of the given kinds, all read from one ball-mass profile at the
    sample radii and their doubles, so each report is the same whichever
    others are asked for with it."""
    _check_s(s)
    _check_p(p)
    sample = grid.samples
    floor = _floor_for(measure, kappa, grid.r_min)
    eval_indices = as_atom_indices(eval_indices, measure.n_atoms)
    wc = measure.weights[eval_indices]

    # analytic tail begins where the ball is guaranteed to hold the support,
    # but never before the grid starts
    T = np.maximum(measure.farthest_distances()[eval_indices], grid.r_min)
    width = grid.cell_widths(floor, T[:, None])

    th_r, gap = _density_and_gap(measure, measure.points[eval_indices], sample, s)
    reports = []
    for kind in kinds:
        if kind == "square_function":
            integrand = np.abs(gap) ** p
            tail_coeff = (measure.total_mass * (1.0 - 2.0 ** (-s))) ** p
        elif kind == "wolff":
            integrand = np.abs(th_r) ** p
            tail_coeff = measure.total_mass ** p
        else:
            raise ValueError(f"unknown energy kind {kind!r}")

        contrib = integrand * width * wc[:, None]
        tail_i = wc * tail_coeff / (p * s * T ** (p * s))
        reports.append(EnergyReport.assemble(
            kind, s, p, grid, measure, kappa, floor, int(len(wc)),
            list(zip(sample.tolist(), contrib.sum(axis=0).tolist())),
            tail=float(tail_i.sum()),
            per_point=contrib.sum(axis=1) + tail_i if include_per_point else None))
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
    return tuple(_energies(measure, s, grid, p, ("square_function", "wolff"),
                           eval_indices, kappa, include_per_point))


# ---------------------------------------------------------------------------
# smoothed differences and the scale-convolution identity

@dataclass
class RadialProfile:
    """Smooth radial profile phi with an explicit derivative evaluator.

    `support` bounds where phi is non-negligible; `flat_zero_radius` is a
    radius below which phi' vanishes identically (0.0 if none, and then
    quadrature starts at PROFILE_DERIV_LO).
    """

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    support: float
    name: str
    flat_zero_radius: float = 0.0

    def deriv_range(self) -> tuple[float, float]:
        lo = self.flat_zero_radius if self.flat_zero_radius > 0 else PROFILE_DERIV_LO
        return lo, self.support

    def check_derivative(self, grid: np.ndarray) -> float:
        """Max |central difference - derivative| over the grid; must be
        <= PROFILE_DERIV_TOL."""
        grid = np.asarray(grid, dtype=float)
        h = 1e-6
        fd = (self.value(grid + h) - self.value(grid - h)) / (2 * h)
        err = float(np.abs(fd - self.derivative(grid)).max())
        if err > PROFILE_DERIV_TOL:
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
            out, pos = f(x), x > 0
            out[pos] /= x[pos] ** 2
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
    d2s, cumw = _sorted_masses(measure.points, measure.weights, x)
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
    m1 = _mass_within(d2s, cumw, u1 * u1)
    m2 = _mass_within(d2s, cumw, u2 * u2)
    delta = m1 / u1 ** s - m2 / u2 ** s
    g = flat ** s * phi.derivative(flat) * delta
    rhs = -float(((g.reshape(tt.shape) * _GL_WEIGHTS[None, :]).sum(axis=1)
                  * half).sum())
    lhs = smoothed_density_difference(measure, phi, x, R, s)
    denom = max(abs(lhs), abs(rhs),
                IDENTITY_RESIDUAL_FLOOR * measure.total_mass / R ** s)
    return abs(lhs - rhs) / denom


def _sorted_masses(points, weights, x):
    """(d2s, cumw): squared distances from x in ascending order, and
    cumw[k] = weight of the k nearest atoms (cumw[0] = 0)."""
    d2 = ((points - np.asarray(x, dtype=float)) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    return d2[order], np.concatenate([[0.0], np.cumsum(weights[order])])


def _mass_within(d2s, cumw, r2):
    """Weight of the atoms with d2 <= r2, from `_sorted_masses`."""
    return cumw[np.searchsorted(d2s, r2, side="right")]


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
                              lambda_grid: Sequence[float] | None = None) -> float:
    """First radius r' in [r, 2r] whose boundary sphere is mass-thin:

        mass{y in B(x,2r'): |dist(y,x) - r'| <= lam*r'}  <=  t_thin * lam * mass(B(x,2r'))

    for every lam in the grid. THIN_BOUNDARY_CANDIDATES candidates are equispaced
    in [r, 2r].
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
    d2s, cumw = _sorted_masses(measure.points[idx], measure.weights[idx], x)

    n, k = THIN_BOUNDARY_CANDIDATES, len(lams)
    candidates = r + (r / (n - 1)) * np.arange(n)
    rp = candidates[:, None]
    # per candidate, the closed balls of radii 2r' and (1 + lam) r' and the open
    # balls of radii (1 - lam) r' (d2 < R^2 is d2 <= the float below R^2)
    outer = np.concatenate([2.0 * rp, (1.0 + lams) * rp], axis=1)
    inner = (1.0 - lams) * rp
    mass = _mass_within(d2s, cumw, np.concatenate(
        [outer * outer, np.nextafter(inner * inner, -np.inf)], axis=1))
    band = mass[:, 1:k + 1] - mass[:, k + 1:]
    bound = t_thin * lams * mass[:, :1]
    fails = band > bound
    passing = np.flatnonzero(~fails.any(axis=1))
    if passing.size:
        return float(candidates[passing[0]])
    first = fails.argmax(axis=1)     # each candidate's largest violating lam
    band, bound = band[np.arange(n), first], bound[np.arange(n), first]
    ratio = np.divide(band, bound, out=np.full(n, math.inf), where=bound > 0)
    i = int(np.argmin(ratio))        # the mildest first violation
    raise ThinBoundaryNotFound(best_radius=float(candidates[i]),
                               worst_ratio=float(ratio[i]),
                               worst_lambda=float(lams[first[i]]))


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
    hi_r = r0 / delta_param
    idx = index.ball_atoms(center, hi_r)
    grid = ScaleGrid(delta_param * r0, hi_r, q)
    sample = grid.samples
    widths = grid.cell_widths(0.0, hi_r)
    _, gap = _density_and_gap(measure, measure.points[idx], sample, s)
    lhs = float((gap ** 2 * widths[None, :] * measure.weights[idx][:, None]).sum())
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
    lo = _floor_for(measure, kappa, grid.r_min)
    hi = measure.support_diameter if measure.support_diameter > 0 else math.inf
    radii = radii[(radii >= lo) & (radii <= hi)]
    if radii.size == 0:
        raise ValueError("no grid radii inside the resolved range")
    centers = measure.points[as_atom_indices(eval_indices, measure.n_atoms)]
    masses = ball_masses(measure, centers, radii)
    theta = masses / radii[None, :] ** s
    return float(theta.min()), float(theta.max())
