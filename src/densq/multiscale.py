"""Multi-scale densities and energies of discrete measures.

Density theta(x, r) = mass(B(x,r)) / r^s and the dyadic density difference
theta(x, r) - theta(x, 2r) drive two energy functionals: the square-function
energy (difference squared) and the Wolff energy (density squared), both
integrated against d(mu) x dr/r over a log-spaced scale grid with an analytic
power-law tail once balls swallow the whole support.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .measures import (POINT_BUDGET, WeightedPointMeasure, _check_budget, _exact_per_ball,
                       _mass_blocks, _write_csv, ball_masses)

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
    """Log-spaced radii r_j = r_min * q^j, j = 0..J, with r_J <= r_max; at
    most POINT_BUDGET of them."""

    r_min: float
    r_max: float
    q: float = 1.1

    def __post_init__(self):
        if not self.r_min > 0:
            raise ValueError("r_min must be positive")
        if not self.r_min < self.r_max < math.inf:
            raise ValueError("r_max must be finite and exceed r_min")
        if not 1.0 < self.q <= 2.0:
            raise ValueError("q must lie in (1, 2]")
        if self.r_min * self.q > self.r_max * (1.0 + 1e-12):
            raise ValueError("grid must contain at least two radii (J >= 1)")
        # J + 1 radii; an overflowing r_max / r_min gives an infinite J
        top = self._top
        _check_budget(math.floor(top) + 1 if top < math.inf else top, POINT_BUDGET,
                      "scale grid radii")

    @property
    def _top(self) -> float:
        """J, before rounding down."""
        return math.log(self.r_max / self.r_min) / math.log(self.q) + 1e-12

    @property
    def radii(self) -> np.ndarray:
        return self.r_min * self.q ** np.arange(int(math.floor(self._top)) + 1)

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
        width = np.minimum(top, self.radii * self.q)
        empty = width <= lo
        width /= lo
        np.log(width, out=width)
        width[empty] = 0.0
        return width

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
    eval_indices: np.ndarray | None = None  # the atom of each per_point entry

    @classmethod
    def assemble(cls, kind, s, p, grid, measure, kappa, floor, eval_count,
                 per_scale, tail=0.0, per_point=None,
                 eval_indices=None) -> "EnergyReport":
        """The report of per-scale values and a tail: the total is their
        exactly rounded sum."""
        params_echo = {"kind": kind, "s": s, "p": p, "grid": grid.summary(),
                       "kappa": kappa, "n_atoms": measure.n_atoms,
                       "eval_count": eval_count, "total_mass": measure.total_mass,
                       "sample_rule": "geometric cell midpoint"}
        return cls(kind=kind, s=s, p=p, grid=grid.summary(),
                   total=math.fsum([v for _, v in per_scale] + [tail]), tail=tail,
                   per_scale=per_scale, clipped_low_r=grid.low_r_clip(floor),
                   params_echo=params_echo, per_point=per_point,
                   eval_indices=eval_indices)

    @property
    def discrete_total(self) -> float:
        return math.fsum(v for _, v in self.per_scale)

    def to_json_dict(self) -> dict:
        """Every field but the per-point arrays."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("per_point", "eval_indices")}

    def save_per_point_csv(self, path) -> None:
        """One row per evaluated atom: its index in the measure and its
        contribution."""
        if self.per_point is None or self.eval_indices is None:
            raise ValueError("report carries no per-point breakdown")
        _write_csv(path, ["atom_index", "contribution"],
                   zip(self.eval_indices.tolist(), self.per_point))


# ---------------------------------------------------------------------------
# pointwise densities

def density(measure: WeightedPointMeasure, x, r: float, s: float) -> float:
    """Average s-dimensional density mass(B(x,r)) / r^s."""
    _check_scale("radius", r)
    _check_s(s)
    return measure.ball_index().mass_in_ball(x, r) / r ** s


def density_difference(measure: WeightedPointMeasure, x, r: float, s: float) -> float:
    """density(x, r) - density(x, 2r); vanishes for exactly s-homogeneous mass."""
    return density(measure, x, r, s) - density(measure, x, 2.0 * r, s)


# ---------------------------------------------------------------------------
# energies

def _check_s(s: float) -> None:
    if not 0 < s < math.inf:
        raise ValueError(f"s must be positive and finite; got {s}")


def _check_scale(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive, finite and not nan; got {value}")


def _check_p(p: float) -> None:
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1; got {p}")


def _density_and_gap(masses, sample, s):
    """theta(x, r) and theta(x, r) - theta(x, 2r) at each sample radius and
    center, from the (radii x centers) ball masses at the radii and their
    doubles; both are views of `masses`, overwritten in place: one division
    by the column [r^s, (2r)^s], then one subtraction."""
    masses /= np.concatenate([sample ** s, (2.0 * sample) ** s])[:, None]
    th_r, gap = masses[:len(sample)], masses[len(sample):]
    np.subtract(th_r, gap, out=gap)
    return th_r, gap


def _energies(family, s, grids, p, kinds, eval_indices, kappa):
    """Reports of the given kinds for each window of `grids` and, in each, each
    measure of `family` in turn (a measure and its reweightings: they share
    their atoms), all read from one ball-mass pass at every window's distinct
    sample radii and their doubles. Each report is the same whichever others
    are asked for with it: a measure whose weighted sums round by the radii
    they share a pass with (`_exact_per_ball`) gets one pass per window.

    The pass comes a block of centers at a time, radius-major, and no
    matrix outlives its block: each kind copies the theta or gap rows it
    reads, transposed, into a (centers x radii) C-ordered matrix, where it
    takes its contributions; each block writes its rows of
    the per-point sums and adds its column sums to each report's running
    per-scale sums. The running sums go into the block's first row before
    its column sum, so the rows are added one after another, as a whole
    matrix's column sum (of two or more columns) adds them.
    """
    _check_s(s)
    _check_p(p)
    measure = family[0]
    if any(m.points is not measure.points for m in family[1:]):
        raise ValueError("measures asked for together must share their atoms")
    if len(grids) > 1 and not all(_exact_per_ball(m) for m in family):
        return [rep for grid in grids
                for rep in _energies(family, s, (grid,), p, kinds, eval_indices, kappa)]
    eval_indices = as_atom_indices(eval_indices, measure.n_atoms)
    centers, far = measure.points[eval_indices], measure.farthest_distances(eval_indices)
    samples = [grid.samples for grid in grids]
    radii, cols = _distinct_columns(
        np.concatenate([r for sample in samples for r in (sample, 2.0 * sample)]),
        [2 * len(sample) for sample in samples])
    floors = [_floor_for(measure, kappa, grid.r_min) for grid in grids]
    # analytic tail begins where the ball is guaranteed to hold the support,
    # but never before the grid starts
    tops = [np.maximum(far, grid.r_min) for grid in grids]
    wcs = [m.weights[eval_indices] for m in family]
    # per report, in report order: its running per-scale sums and per-point values
    sums = [(np.zeros(len(sample)), np.empty(len(centers)))
            for sample in samples for _ in family for _ in kinds]
    for a, masses in _mass_blocks(family, centers, radii):
        rows, acc = slice(a, a + masses[0].shape[1]), iter(sums)
        for grid, sample, col, floor, T in zip(grids, samples, cols, floors, tops):
            width = grid.cell_widths(floor, T[rows, None])
            for wc, mass in zip(wcs, masses):
                th_r, gap = _density_and_gap(
                    mass[col] if isinstance(col, slice) else mass.take(col, axis=0), sample, s)
                contrib = np.empty_like(width)
                for kind, (per_scale, per_point) in zip(kinds, acc):
                    # the rows it reads, copied (centers x radii): one transposition
                    contrib[...] = (gap if kind == "square_function" else th_r).T
                    np.abs(contrib, out=contrib)
                    contrib **= p
                    contrib *= width
                    contrib *= wc[rows, None]
                    contrib.sum(axis=1, out=per_point[rows])
                    contrib[0] += per_scale
                    contrib.sum(axis=0, out=per_scale)
        del masses, th_r, gap, contrib, width     # one block's matrices at a time
    reports, acc = [], iter(sums)
    for grid, sample, floor, T in zip(grids, samples, floors, tops):
        for m, wc in zip(family, wcs):
            for kind, (per_scale, per_point) in zip(kinds, acc):
                if kind == "square_function":
                    tail_coeff = (m.total_mass * (1.0 - 2.0 ** (-s))) ** p
                else:       # wolff
                    tail_coeff = m.total_mass ** p
                tail_i = wc * tail_coeff / (p * s * T ** (p * s))
                per_point += tail_i
                reports.append(EnergyReport.assemble(
                    kind, s, p, grid, m, kappa, floor, int(len(wc)),
                    list(zip(sample.tolist(), per_scale.tolist())),
                    tail=float(tail_i.sum()), per_point=per_point,
                    eval_indices=eval_indices))
    return reports


def _distinct_columns(radii, sizes):
    """(distinct, cols): the distinct `radii` in the order first asked for,
    and each window's columns among them (the windows' radii come one window
    after another, `sizes` of them each). A window whose radii are asked for
    once in all gets them as one run, a slice it may overwrite in place;
    another gets an index array."""
    _, first, inverse = np.unique(radii, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    col_of = rank[inverse]
    once = np.bincount(col_of) == 1
    return radii[np.sort(first)], [slice(col[0], col[-1] + 1) if once[col].all() else col
                                   for col in np.split(col_of, np.cumsum(sizes)[:-1])]


def square_function_energy(measure: WeightedPointMeasure, s: float, grid: ScaleGrid,
                           p: float = 2.0, eval_indices=None,
                           kappa: float = DEFAULT_KAPPA) -> EnergyReport:
    """Integral of |theta(x,r) - theta(x,2r)|^p d(mu) dr/r plus analytic tail.

    The scale integral uses geometric-midpoint sampling of each grid cell with
    exact cell widths, clipped below kappa*min_spacing (reported) and above by
    the per-atom support-covering radius, beyond which the integrand is the
    exact power law integrated in closed form (the tail).
    """
    return _energies((measure,), s, (grid,), p, ("square_function",), eval_indices, kappa)[0]


def wolff_energy(measure: WeightedPointMeasure, s: float, grid: ScaleGrid,
                 p: float = 2.0, eval_indices=None,
                 kappa: float = DEFAULT_KAPPA) -> EnergyReport:
    """Integral of theta(x,r)^p d(mu) dr/r plus analytic tail."""
    return _energies((measure,), s, (grid,), p, ("wolff",), eval_indices, kappa)[0]


def square_function_and_wolff_energy(
        measure: WeightedPointMeasure, s: float, grid: ScaleGrid, p: float = 2.0,
        eval_indices=None,
        kappa: float = DEFAULT_KAPPA) -> tuple[EnergyReport, EnergyReport]:
    """(square_function_energy, wolff_energy) from one ball-mass pass; each
    report is bit-identical to the one the single function returns."""
    return tuple(_energies((measure,), s, (grid,), p, ("square_function", "wolff"),
                           eval_indices, kappa))


# ---------------------------------------------------------------------------
# smoothed differences and the scale-convolution identity

@dataclass
class RadialProfile:
    """Smooth radial profile phi with an explicit derivative evaluator; both
    act elementwise on arrays of any shape.

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

        def value(u):
            u = np.asarray(u, dtype=float)
            v = np.clip((u - inner) / span, 0.0, 1.0)
            a, b = f(1.0 - v), f(v)
            return a / (a + b)

        def derivative(u):
            u = np.asarray(u, dtype=float)
            v = (u - inner) / span
            inside = (v > 0.0) & (v < 1.0)
            out = np.zeros_like(v)
            vi = v[inside]
            c = 1.0 - vi       # vi and c lie in (0, 1): no mask, unlike f's
            a, b = np.exp(-1.0 / c), np.exp(-1.0 / vi)
            ap, bp = a / c ** 2, b / vi ** 2
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
    _check_scale("t", t)
    _check_s(s)
    d = np.sqrt(measure.ball_index().sq_dist(x))
    return _smoothed_sums(phi, d[None], measure.weights, [t], s)[0]


def _smoothed_sums(phi, d, w, ts, s):
    """The smoothed differences of atoms of weights w at distances d, row k
    of d at scale ts[k], as a list; each exactly rounded, so the atoms' order
    does not matter. The powers t^s are Python-float powers."""
    tc = np.array(ts, dtype=float).reshape(-1, 1)
    v1, v2 = phi.value(np.stack([d / tc, d / (2.0 * tc)]))
    vals = w * (v1 / np.array([t ** s for t in ts]).reshape(-1, 1)
                - v2 / np.array([(2.0 * t) ** s for t in ts]).reshape(-1, 1))
    return [math.fsum(row) for row in vals.tolist()]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_PANELS = 512              # panels per block of Gauss-Legendre nodes: 32 kB arrays
_IDENTITY_CELLS = 2 ** 13     # (query, edge) cells per group of identity queries


def verify_convolution_identity(measure: WeightedPointMeasure, phi: RadialProfile,
                                x, R: float, s: float,
                                quad_points: int = 512) -> float:
    """Relative residual of the identity

        smoothed difference at scale R  ==  -int_0^inf t^s phi'(t) D(x, tR) dt,

    where D is the sharp density difference, as |lhs - rhs| divided by
    max(|lhs|, |rhs|, IDENTITY_RESIDUAL_FLOOR * total_mass / R^s). The
    integral runs over a log grid of `quad_points` base nodes covering where
    phi' is non-negligible, refined at the integrand's jump radii (atom
    distances), with Gauss-Legendre panels. The jump radii are panel edges, so
    the masses M(tR) and M(2tR) are constant on each panel and are read once,
    at its midpoint; and the powers cancel,
    t^s D(x, tR) = (M(tR) - 2^-s M(2tR)) / R^s, so each panel contributes its
    constant times a Gauss-Legendre quadrature of phi' alone. The one-query
    case of `_identity_sides`.
    """
    lhs, rhs = _identity_sides(measure, phi, [x], [R], s, quad_points)
    return _identity_residual(measure, lhs.item(), rhs.item(), R, s)


def _identity_residual(measure, lhs, rhs, R, s):
    """The relative residual of `verify_convolution_identity` from its sides."""
    denom = max(abs(lhs), abs(rhs),
                IDENTITY_RESIDUAL_FLOOR * measure.total_mass / R ** s)
    return abs(lhs - rhs) / denom


def _identity_sides(measure, phi, xs, Rs, s, quad_points):
    """(lhs, rhs): arrays of the two sides of the identity of
    `verify_convolution_identity` at the queries (xs[k], Rs[k]).

    The queries are taken a group at a time, so that no array outgrows
    _IDENTITY_CELLS (query, edge) cells whatever the number of queries. Row k
    of a group's (queries, atoms) matrices holds query k's squared distances,
    their stable sort and the cumulative weights in that order
    (`_sorted_masses`). A base panel that no jump splits has the same
    Gauss-Legendre value for every query, so those values are computed once;
    `_identity_rhs` evaluates phi' only on the sub-panels the jumps cut. Each
    side of a query has the bits a one-query call gives it.
    """
    if quad_points < 16:
        raise ValueError("quad_points must be >= 16")
    for R in Rs:
        _check_scale("R", R)
    _check_s(s)
    lo, hi = phi.deriv_range()
    if not (0 < lo < hi):
        raise ValueError(f"profile {phi.name} has empty derivative range")
    Rs = [float(R) for R in Rs]
    index, w = measure.ball_index(), measure.weights
    base = np.exp(np.linspace(math.log(lo), math.log(hi), quad_points))
    base_quad = _gl_quad(phi, 0.5 * (base[:-1] + base[1:]), 0.5 * (base[1:] - base[:-1]))
    rows = max(1, _IDENTITY_CELLS // (quad_points + 2 * len(w)))
    lhs, rhs = [], []
    for g in range(0, len(Rs), rows):
        gR = Rs[g:g + rows]
        d2 = np.array([index.sq_dist(x) for x in xs[g:g + rows]])
        d2s, ws, cumw = _sorted_masses(d2, w)
        d = np.sqrt(d2s)
        lhs += _smoothed_sums(phi, d, ws, gR, s)
        rhs += _identity_rhs(phi, (lo, hi), base, base_quad, d, d2s, cumw, gR, s)
    return np.array(lhs), np.array(rhs)


def _identity_rhs(phi, deriv_range, base, base_quad, d, d2s, cumw, Rs, s):
    """The rhs of `_identity_sides` at a group of queries, as a list: the rows
    of d, d2s and cumw are theirs, and base_quad holds the base panels'
    quadratures of phi'."""
    lo, hi = deriv_range
    nb, n_q = len(base), len(Rs)
    Rc = np.array(Rs).reshape(-1, 1)
    jumps = np.concatenate([d / Rc, d / (2.0 * Rc)], axis=1)   # [d/R | d/(2R)]
    # a query's panel edges are the distinct values of its row of [base nodes,
    # jumps in (lo, hi)]; a stable sort puts a base node first among equal
    # values, and `src` holds each sorted value's column
    inside = (jumps > lo) & (jumps < hi)
    row = np.empty((n_q, nb + jumps.shape[1]))
    row[:, :nb] = base
    row[:, nb:] = np.where(inside, jumps, np.inf)
    src = np.argsort(row, axis=1, kind="stable")
    row = row.ravel()[src + np.arange(0, row.size, row.shape[1])[:, None]]
    first = np.arange(row.shape[1]) < nb + inside.sum(axis=1, keepdims=True)
    first[:, 1:] &= row[:, 1:] != row[:, :-1]       # the first of each edge value
    sizes = first.sum(axis=1).tolist()              # edges per query
    keep = np.flatnonzero(first)
    edges, k = row.ravel()[keep], src.ravel()[keep]
    del row, src, first, keep       # before the quadrature's arrays are made
    # panel p runs from edge p to edge p + 1, the queries' edges one after
    # another: query q's panels are bounds[q] .. bounds[q + 1] - 2, and the
    # pair of its last edge and the next query's first is no panel
    bounds = list(itertools.accumulate(sizes, initial=0))
    spans = [(i, j - 1) for i, j in zip(bounds, bounds[1:])]
    a, b, ka, kb = edges[:-1], edges[1:], k[:-1], k[1:]

    # phi' quadrature per panel: the shared value on a base panel, whose edges
    # are base nodes k and k + 1 (other panels read a placeholder there)
    mid = 0.5 * (a + b)
    quad = base_quad[np.minimum(ka, nb - 2)]
    cut = np.flatnonzero((ka >= nb - 1) | (kb != ka + 1))
    if cut.size:
        quad[cut] = _gl_quad(phi, mid[cut], 0.5 * (b[cut] - a[cut]))

    # the masses M(tR) and M(2tR) at each panel's midpoint. A query's
    # r2 = (mid R)^2 and 4 r2 = (2 mid R)^2 rise with its panels, so its k-th
    # nearest atom lies within them from the first panel searchsorted finds
    # on. The mass cumw[q, k] of the k nearest atoms holds on the run of
    # panels up to the (k + 1)-th atom's first, the last run taking the slot
    # that ends the query
    r2 = (mid * np.repeat(Rs, sizes)[:-1]) ** 2
    r4 = 4.0 * r2
    runs = np.empty((2, n_q, d2s.shape[1] + 2), dtype=np.intp)
    runs[:, :, 0], runs[:, :, -1] = bounds[:-1], bounds[1:]
    for q, (i, j) in enumerate(spans):
        runs[0, q, 1:-1] = r2[i:j].searchsorted(d2s[q])
        runs[1, q, 1:-1] = r4[i:j].searchsorted(d2s[q])
    runs[:, :, 1:-1] += np.array(bounds[:-1])[:, None]
    m1, m2 = (np.repeat(cumw.ravel(), (r[:, 1:] - r[:, :-1]).ravel())[:-1] for r in runs)
    terms = (m1 - 2.0 ** -s * m2) * quad
    return [-float(terms[i:j].sum()) / R ** s for (i, j), R in zip(spans, Rs)]


def _gl_quad(phi, mid, half):
    """The 8-node Gauss-Legendre quadrature of phi' over each panel
    [mid - half, mid + half], _GL_PANELS panels at a time."""
    out = np.empty_like(mid)
    for a in range(0, len(mid), _GL_PANELS):
        m, h = mid[a:a + _GL_PANELS], half[a:a + _GL_PANELS]
        tt = m + h * _GL_NODES[:, None]     # (8, panels): row k holds node k
        out[a:a + _GL_PANELS] = (phi.derivative(tt) * _GL_WEIGHTS[:, None]).sum(axis=0) * h
    return out


def _sorted_masses(d2, weights):
    """(d2s, ws, cumw) along the last axis of d2, a row of the atoms' squared
    distances per query: d2s in stable ascending order, ws the weights in
    that order, and cumw[..., k] = weight of the k nearest atoms (cumw[..., 0]
    = 0), so the atoms with d2 <= r2 weigh cumw[searchsorted(d2s, r2,
    side="right")]."""
    order = np.argsort(d2, axis=-1, kind="stable")
    ws = weights[order]
    cumw = np.zeros(d2.shape[:-1] + (d2.shape[-1] + 1,))
    np.cumsum(ws, axis=-1, out=cumw[..., 1:])
    return np.take_along_axis(d2, order, axis=-1), ws, cumw


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
    _check_scale("r", r)
    if t_thin is None:
        t_thin = 32.0 * measure.dim
    if lambda_grid is None:
        lambda_grid = [2.0 ** (-j) for j in range(11)]
    if not 0 <= t_thin < math.inf:
        raise ValueError(f"t_thin must be nonnegative and finite; got {t_thin}")
    lams = np.asarray(sorted(lambda_grid, reverse=True), dtype=float)
    if lams.size == 0 or not np.all((lams > 0) & (lams <= 1)):
        raise ValueError("lambda_grid must be a nonempty subset of (0, 1]")
    d2 = measure.ball_index().sq_dist(x)
    near = d2 <= (4.0 * r) * (4.0 * r)
    if not near.any():
        raise ValueError("mass(x, 4r) must be positive")
    d2s, _, cumw = _sorted_masses(d2[near], measure.weights[near])

    n, k = THIN_BOUNDARY_CANDIDATES, len(lams)
    candidates = r + (r / (n - 1)) * np.arange(n)
    rp = candidates[:, None]
    # per candidate, the closed balls of radii 2r' and (1 + lam) r' and the open
    # balls of radii (1 - lam) r' (d2 < R^2 is d2 <= the float below R^2)
    outer = np.concatenate([2.0 * rp, (1.0 + lams) * rp], axis=1)
    inner = (1.0 - lams) * rp
    mass = cumw[np.searchsorted(d2s, np.concatenate(
        [outer * outer, np.nextafter(inner * inner, -np.inf)], axis=1), side="right")]
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
    _check_scale("r0", r0)
    _check_s(s)
    index = measure.ball_index()
    m0 = index.mass_in_ball(ball_center, r0)
    if m0 <= 0:
        raise ValueError("degenerate ball: mass(B0) = 0")
    hi_r = r0 / delta_param
    idx = index.ball_atoms(ball_center, hi_r)
    grid = ScaleGrid(delta_param * r0, hi_r, q)
    sample = grid.samples
    widths = grid.cell_widths(0.0, hi_r)
    masses = ball_masses(measure, measure.points[idx], np.concatenate([sample, 2.0 * sample]))
    _, gap = _density_and_gap(masses.T, sample, s)
    lhs = float((gap.T ** 2 * widths * measure.weights[idx][:, None]).sum())
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
    _check_s(s)
    radii = grid.radii
    lo = _floor_for(measure, kappa, grid.r_min)
    diameter = measure.support_diameter
    hi = diameter if diameter > 0 else math.inf
    radii = radii[(radii >= lo) & (radii <= hi)]
    if radii.size == 0:
        raise ValueError("no grid radii inside the resolved range")
    centers = measure.points[as_atom_indices(eval_indices, measure.n_atoms)]
    if not len(centers):
        raise ValueError("no evaluation atoms: theta has no min or max")
    # a running min and max over the blocks of one pass
    th_min, th_max, scale = math.inf, -math.inf, (radii ** s)[:, None]
    for _, (theta,) in _mass_blocks((measure,), centers, radii):
        theta /= scale
        th_min, th_max = min(th_min, float(theta.min())), max(th_max, float(theta.max()))
    return th_min, th_max
