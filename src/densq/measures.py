"""Discrete measures in R^d: generators, spatial index, exact ball-mass queries.

A measure is a finite list of weighted atoms. All ball queries use the closed
convention |x_i - c| <= r, compared in squared distance from the stored
coordinates, so every engine and a brute-force scan select exactly the same
atoms.
"""
from __future__ import annotations

import copy
import csv
import bisect
import functools
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# atoms a generator may emit or a CSV may hold
POINT_BUDGET = 2_000_000

# (center, atom) pairs of one pairwise pass x the values a shell pass bins per pair:
# at ~28 ns each (0.468 s for 1.68e7 one-value pairs, one x86 core) 2^31 take ~60 s
PAIR_BUDGET = 2 ** 31

# pairs per chunk of a pairwise pass (summed over the value arrays a shell pass
# bins together): bounds the temporaries to a few MB each, and moves no result
_CHUNK_CELLS = 2 ** 18

# kept (pair, value) cells per block of a radial-shell chunk, entries of the
# largest bucket table of its shell lookup, and (atom, edge) cells per block of
# the 2-d hull's octagon filter (`geometry.hull_2d`): each stays within about
# 1 MB, in cache
_BLOCK_CELLS = _SHELL_TABLE_CAP = 2 ** 16

# relative and absolute slack of the smallest enclosing ball's containment test
_ENCLOSING_TOL = 1e-12

# weights per Python list of a streamed fsum (`_total_mass`): about 130 kB
_FSUM_CHUNK = 2 ** 12

class PointBudgetError(ValueError):
    """A call would pass a fixed work budget, on atoms, (center, atom) pairs or
    beta direction scans; raised before the work starts."""


def _check_budget(count, budget, what):
    """Raise PointBudgetError unless count <= budget; a nan count fails too."""
    if not count <= budget:
        raise PointBudgetError(f"{what}: {count} > budget {budget}")


def _pair_step(rows, cols, what):
    """Rows per chunk of a rows x cols pairwise pass, once it fits PAIR_BUDGET."""
    _check_budget(rows * cols, PAIR_BUDGET, what)
    return max(1, min(rows, _CHUNK_CELLS // cols))


def _atomic_write(path, write) -> None:
    """Call write(fh) on a text file opened beside `path` (no newline
    translation), then rename it into place: a failed write leaves neither the
    target nor the temp file. The file gets the mode a plain open would give."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            umask = os.umask(0o022)     # read the umask: os has no getter
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj) -> None:
    """A report: sorted keys, one-space indent and a trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    _atomic_write(path, lambda fh: fh.write(text))


def _write_csv(path, header, rows) -> None:
    """A header line, then one line per row; floats, of any float subclass, as
    repr(float(v)), the shortest text that reads back to the same double."""
    def write(fh):
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                     for row in rows)
    _atomic_write(path, write)


@dataclass(frozen=True)
class SegmentLattice:
    """Atoms of one straight segment: sorted arc offsets from `origin` along `direction`.

    Uniform weight per atom. Lets ball masses be counted by index arithmetic
    on the lattice arcs[0] + k * step instead of point-by-point distances.
    """

    origin: np.ndarray
    direction: np.ndarray  # unit vector
    arcs: np.ndarray       # sorted, ascending
    weight: float


class WeightedPointMeasure:
    """Finite atomic approximation of a Radon measure: N points with positive weights.

    Immutable after construction; duplicate points are merged (weights added).
    `total_mass` is the fsum of the weights, bit for bit, read from a segment
    layout's per-segment weights and counts when there is one (`_total_mass`).
    Caches min_spacing, the atoms that can be farthest from another
    (`geometry.far_atoms`) and the smallest enclosing ball, found from those
    atoms and checked against every atom, lazily.
    """

    def __init__(self, points, weights, segments: list[SegmentLattice] | None = None):
        points = np.atleast_2d(np.asarray(points, dtype=float)) + 0.0
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 2 or 0 in points.shape:
            raise ValueError("need at least one atom with coordinate vectors")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must match points one-to-one")
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite coordinate")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("weights must be positive and finite")
        if segments is not None and sum(len(sg.arcs) for sg in segments) != len(points):
            raise ValueError("segment lattices must hold the atoms one-to-one")
        points, weights, merged = _merge_duplicates(points, weights)
        self.points = points
        self.weights = weights
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        # merging invalidates the per-segment atom layout
        self.segments = None if merged else segments
        self.total_mass = _total_mass(weights, self.segments)
        self._index: BallIndex | None = None
        self._min_spacing: float | None = None

    def reweighted(self, factors) -> "WeightedPointMeasure":
        """The same atoms with segment s's weight times factors[s].

        The result shares the read-only points, the segment geometry and every
        cache that depends on the points alone; the points were checked and
        merged when this measure was built, so nothing is checked or merged
        again. Ball masses of a measure and its reweightings can be counted
        together (`_segment_ball_masses`).
        """
        if self.segments is None:
            raise ValueError("reweighting needs a segment layout")
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (len(self.segments),):
            raise ValueError(f"need one factor per segment ({len(self.segments)}); "
                             f"got shape {factors.shape}")
        if not np.all((factors > 0) & (factors < math.inf)):
            raise ValueError("factors must be positive and finite")
        out = copy.copy(self)
        out.segments = [replace(sg, weight=sg.weight * f)
                        for sg, f in zip(self.segments, factors.tolist())]
        out.weights = np.repeat([sg.weight for sg in out.segments],
                                [len(sg.arcs) for sg in out.segments])
        if not np.all((out.weights > 0) & (out.weights < math.inf)):
            raise ValueError("reweighted weights must be positive and finite")
        out.weights.setflags(write=False)
        out.total_mass = _total_mass(out.weights, out.segments)
        out._index = None       # it holds the weights
        return out

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def min_spacing(self) -> float:
        """Smallest pairwise distance: the exact closest pair of the stored
        coordinates (`spacing.min_spacing`), layouts included; 0.0 for a
        single atom (no pairs, all scales count as resolved)."""
        if self._min_spacing is None:
            from .spacing import min_spacing
            self._min_spacing = min_spacing(self.points)
        return self._min_spacing

    @functools.cached_property
    def _support(self) -> tuple[np.ndarray, float]:
        """The smallest enclosing ball of `_far_candidates`, kept when every
        atom passes its containment test; else that of every atom. The
        candidates need not hold every atom on the ball: in 3-d they can be a
        prefix of the atoms by distance from the centroid."""
        c, r = _min_enclosing_ball(self._far_candidates)
        pts = self.points
        step = max(1, _CHUNK_CELLS // self.dim)
        if any(_outside(pts[a:a + step], c, r).any() for a in range(0, len(pts), step)):
            return _min_enclosing_ball(pts)
        return c, r

    @property
    def support_center(self) -> np.ndarray:
        return self._support[0]

    @property
    def support_radius(self) -> float:
        """Radius of the smallest enclosing ball of the atoms."""
        return self._support[1]

    def ball_index(self) -> "BallIndex":
        if self._index is None:
            self._index = BallIndex(self)
        return self._index

    @functools.cached_property
    def _far_candidates(self) -> np.ndarray:
        from .geometry import far_atoms
        return far_atoms(self.points)

    def farthest_distances(self, indices=None) -> np.ndarray:
        """Per atom i in `indices` (default: every atom), max_j |x_j - x_i|: the
        radius beyond which a ball at x_i contains the whole support.

        A segment layout reads each segment's end atoms from its lattice
        geometry (`_segment_farthest`), which can differ from the
        stored-coordinate distance in the last bits, either way. Otherwise
        only the atoms that `geometry.far_atoms` cannot rule out are scanned:
        the atoms near the hull's corners in 2-d and on planes, those far from
        the centroid of a full-dimensional 3-d set, and those near either end of
        a line. There the stored-coordinate distances decide, so the result
        is exact.
        """
        centers = self.points if indices is None else self.points[indices]
        if self.segments is not None:
            return _segment_farthest(self.segments, centers)
        cand, n = self._far_candidates, len(centers)
        step = _pair_step(n, len(cand), "farthest-atom (center, atom) pairs")
        out = np.empty(n)
        for a in range(0, n, step):
            d2 = ((centers[a:a + step, None, :] - cand[None, :, :]) ** 2).sum(-1)
            out[a:a + step] = d2.max(axis=1)
        return np.sqrt(out)

    @property
    def support_diameter(self) -> float:
        return float(self.farthest_distances().max())

    def save_csv(self, path: str | Path) -> None:
        _write_csv(path, [f"x{i}" for i in range(self.dim)] + ["w"],
                   (p.tolist() + [w] for p, w in zip(self.points, self.weights)))

    @classmethod
    def load_csv(cls, path: str | Path) -> "WeightedPointMeasure":
        """Read a measure written by `save_csv`.

        The file holds atoms only, so a generated curve comes back without its
        segment layout: its ball masses run on the radial-shell engine instead
        of interval counting, which counts the same atoms but sums the weights
        in another order, so energy totals can differ in the last bits.
        """
        path = Path(path)
        with path.open(newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            if not header or header[-1] != "w" or len(header) < 2:
                raise ValueError(f"{path}: expected header x0,...,w")
            dim = len(header) - 1
            pts, ws, rows = [], [], filter(None, rd)
            for row in itertools.islice(rows, POINT_BUDGET):
                if len(row) != dim + 1:
                    raise ValueError(f"{path}: row with {len(row)} fields, expected {dim + 1}")
                pts.append([float(v) for v in row[:dim]])
                ws.append(float(row[dim]))
            # any row left is one past the budget, read but not stored
            _check_budget(len(ws) + any(rows), POINT_BUDGET, f"{path}: atoms")
        return cls(np.array(pts), np.array(ws))


def _total_mass(weights, segments):
    """The fsum of the weights, bit for bit, without a Python float per atom
    at once. Segment s of a layout holds n_s copies of w_s = p_s / 2^k_s:
    their exact sum over one power-of-two denominator, rounded once by the
    correctly rounded int / int, is that fsum at O(segments) cost. Other
    measures stream one fsum over chunks of _FSUM_CHUNK weights."""
    if segments is not None:
        ratios = [(len(sg.arcs), *sg.weight.as_integer_ratio()) for sg in segments]
        den = max(d for _, _, d in ratios)
        return sum(n * p * (den // d) for n, p, d in ratios) / den
    return math.fsum(itertools.chain.from_iterable(
        weights[a:a + _FSUM_CHUNK].tolist() for a in range(0, len(weights), _FSUM_CHUNK)))


def _merge_duplicates(points, weights):
    """Merge exactly-equal points (first-occurrence order), summing weights in
    index order."""
    order = np.lexsort(points.T)
    # a sorted atom is new where any coordinate differs from its predecessor's
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for col in points.T:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    if new.all():
        return points, weights, False
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]       # lexsort is stable: each group's lowest index
    by_first = np.argsort(first)
    merged_w = np.zeros(len(first))
    np.add.at(merged_w, inverse, weights)
    return points[first[by_first]], merged_w[by_first], True


class BallIndex:
    """Exact closed-ball queries at one center: a scan of the stored coordinates.

    Every query reads the squared distances `sq_dist`, summed one coordinate at
    a time as the radial-shell pass sums them, so membership is the predicate
    |x_i - c|^2 <= r^2 of every engine, ties included. The index holds the
    measure's arrays, not the measure, so the two form no reference cycle.
    """

    def __init__(self, measure: WeightedPointMeasure):
        self.coords = np.ascontiguousarray(measure.points.T)
        self.weights = measure.weights

    def sq_dist(self, center) -> np.ndarray:
        """|x_i - center|^2 per atom, summed one coordinate at a time as
        `_sq_rows(points - center)` sums them; center must be a finite vector
        of length dim."""
        center = np.asarray(center, dtype=float)
        c, dim = center.tolist(), len(self.coords)
        if center.shape != (dim,) or not all(map(math.isfinite, c)):
            raise ValueError(f"x must be a finite vector of length {dim}")
        d2 = (self.coords[0] - c[0]) ** 2
        for xk, ck in zip(self.coords[1:], c[1:]):
            d2 += (xk - ck) ** 2
        return d2

    def ball_atoms(self, center, r: float) -> np.ndarray:
        """Indices of atoms with |x_i - center| <= r (closed ball), ascending."""
        if not r >= 0:
            raise ValueError(f"radius must be nonnegative (and not nan); got {r}")
        return np.flatnonzero(self.sq_dist(center) <= r * r)

    def mass_in_ball(self, center, r: float) -> float:
        return float(self.weights[self.ball_atoms(center, r)].sum())

    def annulus_atoms(self, center, r_inner: float, r_outer: float) -> np.ndarray:
        """Atoms with r_inner < |x_i - center| <= r_outer, ascending."""
        if not 0 <= r_inner <= r_outer:
            raise ValueError("need 0 <= r_inner <= r_outer")
        d2 = self.sq_dist(center)
        return np.flatnonzero((d2 > r_inner * r_inner) & (d2 <= r_outer * r_outer))


def mass_in_ball(index: BallIndex, center, r: float) -> float:
    """Total weight of atoms in the closed ball B(center, r)."""
    return index.mass_in_ball(center, r)


def ball_masses(measure: WeightedPointMeasure, centers: np.ndarray,
                radii: np.ndarray) -> np.ndarray:
    """(n_centers, n_radii) matrix of closed-ball masses: the blocks of
    `_mass_blocks`, written one after another."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float)
    out = np.empty((len(centers), len(radii)))
    for a, (mass,) in _mass_blocks((measure,), centers, radii):
        out[a:a + len(mass)] = mass
    return out


def _mass_blocks(family, centers, radii):
    """Closed-ball masses of each measure of `family` (a measure and its
    reweightings: they share their atoms), a block of centers at a time.

    Returns an iterator of (a, masses): masses[k] is the (rows, n_radii)
    matrix of family[k] at centers[a:a + rows], valid until the next block is
    asked for. Segment-lattice measures are counted by interval arithmetic,
    each segment once for the whole family (`_segment_ball_masses`); others
    run a radial-shell pass each (`_shell_sums`) that sums the weights shell
    by shell, or for a measure of one weight w counts its atoms and rounds
    each count n once to n * w. All use the |x-c|^2 <= r^2 predicate, so a
    center whose squared distance to the atoms' far box corner overflows is
    refused.
    """
    dim = family[0].dim
    if centers.ndim != 2 or centers.shape[1] != dim or not np.isfinite(centers).all():
        raise ValueError(f"centers must be finite vectors of length {dim}")
    pts = family[0].points
    if family[0].segments is not None:      # the end atoms bound the rest on each axis
        stops = np.cumsum([len(sg.arcs) for sg in family[0].segments])
        pts = pts[np.concatenate([[0], stops[:-1], stops - 1])]
    with np.errstate(over="ignore"):
        far2 = sum(np.maximum(c - x.min(), x.max() - c) ** 2 for c, x in zip(centers.T, pts.T))
    if not np.isfinite(far2).all():
        raise ValueError("centers too far from the atoms: squared distances overflow")
    if not np.all(radii >= 0):
        raise ValueError("radii must be nonnegative (and not nan)")
    if family[0].segments is not None:
        return _segment_ball_masses(family[0].points, [m.segments for m in family],
                                    centers, radii)
    passes = zip(*(_shell_masses(m, centers, radii) for m in family))
    return ((blocks[0][0], [mass for _, mass in blocks]) for blocks in passes)


def _shell_masses(measure, centers, radii):
    """(a, masses) blocks of one measure's radial-shell pass."""
    # a measure of one weight w counts its atoms (no weights) and scales by w
    w = measure.weights[0] if _exact_per_ball(measure) else None
    sums = _shell_sums(measure.points, measure.weights if w is None else None, centers,
                       radii, None, 1)
    return ((a, out[0] if w is None else np.multiply(out[0], w, out=out[0]))
            for a, out in sums)


def _exact_per_ball(measure):
    """Whether `ball_masses` rounds each ball's mass on its own: segment counts
    and the counts of a measure of one weight are exact integers, while a
    weighted shell sum adds shell by shell, so its bits depend on the radii."""
    return measure.segments is not None or np.ptp(measure.weights) == 0


def _block_rows(n, cells):
    """Centers per block of a blocked pass whose blocks hold `cells` values
    per center: _BLOCK_CELLS in all, at least one center and at most n."""
    return max(1, min(n, _BLOCK_CELLS // max(cells, 1)))


def _shell_sums(points, weights, centers, radii, values, n_values):
    """Sums of per-(center, atom) values over closed balls, from one pass, a
    block of centers at a time.

    `values(diff, d2, w)` gets one block of centers and the atoms it keeps:
    `diff[k]` holds the k-th coordinate of x_atom - center and `d2` the
    squared distances, each of shape (block, kept atoms), and `w` the kept
    atoms' weights; it returns `n_values` arrays of that shape (or
    broadcastable to it), or None to count the atoms, and may overwrite
    diff's arrays (the Riesz kernel divides in place). `values` None sums the
    weights (counts the atoms if `weights` is None too), and the pass keeps
    no coordinate differences. Yields (a, sums), one per block of
    `_block_rows` centers: sums has shape (n_values, rows, n_radii), entry
    [v, i, j] sums values[v][a + i, atom] over the atoms with d2 <= r_j^2,
    and is valid until the next block is asked for. The budget
    check, the radius sort and the shell lookup are done once per pass,
    before the first block.

    Each atom falls in the shell of the first sorted radius it lies within,
    exactly the predicate d2 <= r^2, ties included (`_shell_lookup`); the
    values are binned per shell and summed outward. A chunk keeps only the
    atoms inside its centers' bounding box grown by the largest radius (and a
    rounding margin): the others lie beyond every radius, in the outer shell
    that is dropped, so leaving them out moves no bit. The work budget counts
    every atom. A block of a chunk holds at most _BLOCK_CELLS kept (pair,
    value) cells, or one row: rows are never split, so each row's values are
    binned in atom order whatever the block size. The coordinate differences,
    d2, the shell indices and the lookup's scratch live in one scratch set
    sized once per pass for the largest block, and freed before the last block
    is handed out; `values` must not keep them past its call.
    """
    radii = np.asarray(radii, dtype=float)
    r2 = radii * radii
    order = np.argsort(r2, kind="stable")
    m, (n, dim) = len(radii), centers.shape
    step = _pair_step(n, len(points) * n_values, "radial-shell (center, atom, value) cells")
    block_rows = _block_rows(n, m * n_values)
    shell_of = _shell_lookup(r2[order])
    scale = max(np.abs(points).max(), np.abs(centers).max(initial=0.0))
    # the box margin: 1e-9 relative dwarfs the rounding of its bounds and of d2
    pad = radii.max(initial=0.0)
    pad += 1e-9 * (pad + scale)
    coords = np.ascontiguousarray(points.T)
    n_diff = 0 if values is None else dim
    # a block's kept pairs: at most _BLOCK_CELLS // n_values, or one row
    cells = min(min(n, step) * len(points), max(len(points), _BLOCK_CELLS // n_values))
    buf = np.empty((n_values, block_rows, m))

    def chunk(out, cs, fbuf, ibuf, above):
        # the sums at the centers cs into out, from the atoms near them
        xs, w = coords, weights
        keep = _near_atoms(points, cs, pad)
        if not keep.all():
            xs, w = coords[:, keep], None if weights is None else weights[keep]
        block = max(1, _BLOCK_CELLS // max(xs.shape[1] * n_values, 1))
        for a in range(0, len(cs), block):
            c = cs[a:a + block]
            rows = len(c)
            size = rows * xs.shape[1]
            *diff, d2, tmp = (b[:size].reshape(rows, -1) for b in fbuf)
            # d2 one coordinate at a time (as `BallIndex.sq_dist`) rounds exactly as
            # .sum(-1), which brute-force scans use, without its slow strided
            # reduce; the differences stay in diff only where `values` reads them
            for k, dk in enumerate(diff or [d2] + [tmp] * (dim - 1)):
                np.subtract(xs[k], c[:, k, None], out=dk)
                if k == 0:
                    np.square(dk, out=d2)
                else:
                    d2 += np.square(dk, out=tmp)
            shell = shell_of(d2.ravel(), ibuf[:size], tmp.ravel().view(np.int64),
                             above[:size]).reshape(rows, -1)
            shell += (np.arange(rows) * (m + 1))[:, None]
            for v, val in enumerate([w] if values is None else values(diff, d2, w)):
                if val is not None:
                    val = np.broadcast_to(val, d2.shape).ravel()
                bins = np.bincount(shell.ravel(), weights=val,
                                   minlength=rows * (m + 1)).reshape(rows, m + 1)
                out[v, a:a + rows][:, order] = np.cumsum(bins[:, :m], axis=1)

    scratch = (np.empty((n_diff + 2, cells)), np.empty(cells, dtype=np.int64),
               np.empty(cells, dtype=bool))
    for a in range(0, n, block_rows):
        out, cs = buf[:, :min(block_rows, n - a)], centers[a:a + block_rows]
        for start in range(0, len(cs), step):
            chunk(out[:, start:start + step], cs[start:start + step], *scratch)
        if a + block_rows >= n:
            del scratch     # the last block's reader gets their memory
        yield a, out


def _shell_lookup(r2s):
    """For sorted nonnegative r2s, a function shell(d2, out, key, above)
    returning searchsorted(r2s, d2, side="left") for nonnegative d2, in the
    int64 `out` when a table serves (key, above: int64 and bool scratch of
    d2's length; key is overwritten).

    Nonnegative doubles order as their int64 bits. At the coarsest `shift`
    that gives each radius a bucket of its own, tab[b] counts the radii below
    bucket b = bits >> shift (less r2s[0]'s, clipped); d2 lies above those and
    at most one more, which d2 > r2s[tab[b]] decides (r2s[len] = inf), read
    into key's memory once tab[b] is in `out`. Radii no table of
    _SHELL_TABLE_CAP entries separates (duplicates, near-ties far from the
    rest) keep the binary search."""
    bits = r2s.view(np.int64)
    # a >> s differs from b >> s for every s up to the top bit of a ^ b
    shift = int(np.bitwise_xor(bits[1:], bits[:-1]).min(initial=1 << 62)).bit_length() - 1
    if not len(r2s) or shift < 0 or (bits[-1] >> shift) - (bits[0] >> shift) >= _SHELL_TABLE_CAP:
        return lambda d2, *_: np.searchsorted(r2s, d2, side="left")
    lo = bits[0] >> shift
    tab = np.searchsorted(bits >> shift, np.arange(lo, (bits[-1] >> shift) + 1), side="left")
    cuts = np.append(r2s, np.inf)

    def shell(d2, out, key, above):
        np.right_shift(d2.view(np.int64), shift, out=key)
        key -= lo
        np.take(tab, key, out=out, mode="clip")
        cut = np.take(cuts, out, out=key.view(np.float64), mode="clip")
        out += np.greater(d2, cut, out=above)
        return out
    return shell


def _near_atoms(points, centers, pad):
    """Mask of the atoms inside the centers' bounding box grown by `pad`;
    every atom when pad is infinite or its square underflows."""
    if not 0.0 < pad * pad < math.inf:
        return np.ones(len(points), dtype=bool)
    return ((points >= centers.min(axis=0) - pad)
            & (points <= centers.max(axis=0) + pad)).all(axis=1)


def _sq_rows(v):
    """Per row, the sum of squares taken one coordinate at a time: it rounds as
    (v ** 2).sum(axis=1) does, without that strided reduce."""
    out = v[:, 0] ** 2
    for k in range(1, v.shape[1]):
        out += v[:, k] ** 2
    return out


def _distinct(values):
    """The distinct values of a 1-d array, ascending: np.unique's result from
    a sort and a neighbour compare. A plain np.unique imports numpy.ma (to
    ask whether its input is masked), which costs ~11 ms and ~1.2 MB."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _segment_ball_masses(points, layouts, centers, radii):
    """Closed-ball masses on segment-lattice measures that share the atoms
    `points` and one segment geometry (a measure and its reweightings), given
    by their segment lists, a block of centers at a time: yields (a, masses),
    masses[k] the (rows, n_radii) matrix of list k at
    centers[a:a + rows], sum_s w_s * count_s in segment order, from zeros,
    where count_s[i, j] is the number of segment s's atoms in the ball
    (centers[a + i], radii[j]) (`_segment_counts`). The counts depend on the
    geometry alone, so each segment is counted once for every list, and its
    count is added to every list before the next segment counts.

    The sums run radius-major, radii ascending, one (radii x centers) sum per
    list, transposed once per block into the matrices handed out. Radii that
    a block's box decides add w_s * n_s, or nothing (a zero term leaves a
    nonnegative sum as it is). Every segment counts into one scratch set of
    rows of 2^15 (center, radius) cells, in cache, so the pass holds the same
    memory at any segment count: the sums, two bool and four float rows (the
    float rows also hold the matrices handed out). The sums and the bool
    rows are freed before the last block is handed out.
    """
    n, m = len(centers), len(radii)
    order = np.argsort(radii, kind="stable")
    r2 = np.square(radii[order])
    rows = _block_rows(n, 2 * m)    # half a shell block: the counting stays in cache
    reach = float(np.sqrt(_sq_rows(centers)).max(initial=0.0))
    ends = list(itertools.accumulate((len(sg.arcs) for sg in layouts[0]), initial=0))
    # one counter per segment, set up once per pass, and each list's terms
    counters = [(_segment_counts(points[lo:hi], segs[0], reach, r2),
                 [(sg.weight, sg.weight * (hi - lo)) for sg in segs])
                for lo, hi, segs in zip(ends, ends[1:], zip(*layouts))]
    sums = np.empty((len(layouts), rows * m))
    fbuf, bbuf = np.empty((max(4, len(layouts)), rows * m)), np.empty((2, rows * m), dtype=bool)
    for a in range(0, n, rows):
        c, size = centers[a:a + rows], min(rows, n - a) * m
        accs = sums[:, :size].reshape(len(layouts), m, len(c))
        accs.fill(0.0)
        ct = np.ascontiguousarray(c.T)
        box = ct.min(axis=1).tolist(), ct.max(axis=1).tolist()
        for count_at, terms in counters:
            j0, j1, count, product = count_at(c, ct, *box, fbuf, bbuf)
            for acc, (w, full) in zip(accs, terms):
                if j0 < j1:
                    acc[j0:j1] += np.multiply(count, w, out=product)
                acc[j1:] += full
        outs = fbuf[:len(layouts), :size].reshape(len(layouts), len(c), m)
        outs[:, :, order] = accs.transpose(0, 2, 1)
        if a + rows >= n:
            del sums, accs, bbuf    # the last block's reader gets their memory
        yield a, list(outs)


def _segment_counts(pts, sg, reach, r2):
    """A counter of the atoms `pts` of segment `sg` in the closed balls of
    ascending squared radii `r2`, at centers whose |c| `reach` bounds:
    count_at(c, ct, lo, hi, fbuf, bbuf), for centers c (ct = c.T) in the box
    [lo, hi], returns (j0, j1, count, free). Radii j < j0 hold none of the
    atoms, radii j >= j1 all, and count[j - j0, i] counts those in the ball
    (c[i], sqrt(r2[j])) as a float; free is scratch of its shape. Both are
    views of fbuf's four float rows (bbuf holds two bool rows), valid until
    the next call, and None if j0 == j1.

    j0 and j1 come from the squared gap and span between the centers' box
    and the atoms', which the end atoms give (stored coordinates along a
    lattice segment are monotone on each axis). Rounding is monotone too, so
    every computed |x_i - c|^2 lies between them; a margin of 1e-9 of each,
    as in `_shell_sums`, is kept besides. The radii between are counted
    radius-major, on (radii x centers) scratch, in units of the step. A ball
    meets the segment's line in the arcs [t0 - u, t0 + u], u = sqrt(r^2 - p2).
    Atom k sits near arcs[0] + k * step, so the atoms more than a slack tau
    inside either end are counted by index arithmetic, those more than tau
    outside are not, and only the few within tau of an end are re-decided
    with the stored-coordinate predicate |x_i - c|^2 <= r^2: the count equals
    a brute-force scan, ties included. tau is the largest deviation of `arcs`
    from the lattice, plus (dim + 14) eps S for the rounding of t0, the index
    arithmetic and the stored coordinates, plus sqrt((3 dim + 10) eps) S for
    that of u where the ball grazes the line, whose radicand R2 - P2 (R2 =
    r^2 / step^2, P2 = p2 / step^2) rounds by at most (2 dim + 2 sqrt(dim) +
    5.5) eps S^2 with the predicate's d2; S bounds |x_i - c| over the
    segment's atoms and the centers. The counter refuses centers for which
    (2 S / step)^2 or 4 S^2 overflows: its squares in steps must stay finite.
    """
    arcs, (k, dim) = sg.arcs, pts.shape
    eps = float(np.finfo(float).eps)
    step = (arcs[-1] - arcs[0]) / (k - 1) if k > 1 else 1.0
    scale = reach + float(np.sqrt((sg.origin ** 2).sum())) + max(-arcs[0], arcs[-1])
    tau = (float(np.abs(arcs - (arcs[0] + np.arange(k) * step)).max())
           + (dim + 14) * eps * scale + math.sqrt((3 * dim + 10) * eps) * scale)
    if not 2.0 * scale * max(1.0, 1.0 / step) < 2.0 ** 510:
        raise ValueError("centers too far out for the lattice step: "
                         "squared distances in steps overflow")
    d = tau / step
    # past 2 * scale a ball holds the whole segment; the cap keeps u finite
    R2 = (np.minimum(r2, 4.0 * scale * scale) / step / step)[:, None]
    box = list(zip(np.minimum(pts[0], pts[-1]).tolist(), np.maximum(pts[0], pts[-1]).tolist()))
    radii2 = r2.tolist()

    def count_at(c, ct, lo, hi, fbuf, bbuf):
        gap2 = span2 = 0.0
        for c_lo, c_hi, (x_lo, x_hi) in zip(lo, hi, box):
            g, s = max(x_lo - c_hi, c_lo - x_hi, 0.0), max(x_hi - c_lo, c_hi - x_lo)
            gap2, span2 = gap2 + g * g, span2 + s * s
        j0 = bisect.bisect_left(radii2, gap2 * (1.0 - 1e-9))
        j1 = bisect.bisect_left(radii2, span2 * (1.0 + 1e-9), j0)
        if j0 == j1:
            return j0, j1, None, None
        size, shape = (j1 - j0) * len(c), (j1 - j0, len(c))
        uq, first, stop, tmp = (b[:size].reshape(shape) for b in fbuf[:4])
        lower, upper = (b[:size].reshape(shape) for b in bbuf)
        # each center's foot t0 and squared distance p2 from the line, in steps
        rel = ct - sg.origin[:, None]
        t0 = sg.direction @ rel
        tq = (t0 - arcs[0]) / step
        tq_lo, tq_hi = tq + d, tq + (1.0 - d)
        np.subtract(R2[j0:j1], np.maximum(_sq_rows(rel.T) - t0 * t0, 0.0) / step / step,
                    out=uq)
        np.sqrt(np.maximum(uq, 0.0, out=uq), out=uq)
        # atoms first <= i < stop lie more than tau inside [t0 - u, t0 + u]
        np.ceil(np.subtract(tq_lo, uq, out=first), out=first)
        np.floor(np.add(tq_hi, uq, out=stop), out=stop)
        # cells with an atom within tau of an end: first - 1 >= tq - u - d or
        # stop <= tq + u + d
        np.greater_equal(np.add(first, uq, out=tmp), tq_hi, out=lower)
        np.less_equal(np.subtract(stop, uq, out=tmp), tq_lo, out=upper)
        near = np.flatnonzero(np.logical_or(lower, upper, out=lower))
        np.maximum(first, 0.0, out=first)
        np.minimum(stop, k, out=stop)
        count = np.maximum(np.subtract(stop, first, out=tmp), 0.0, out=tmp)
        if near.size:
            t_n = tq[near % len(c)]
            u_n, first_n, stop_n = (b.reshape(-1)[near] for b in (uq, first, stop))
            # the atoms within tau below first, and above stop (or first)
            _redecide(count, near, np.ceil(t_n - u_n - d), first_n, pts, c, r2[j0:j1])
            _redecide(count, near, np.maximum(stop_n, first_n), np.floor(t_n + u_n + d) + 1.0,
                      pts, c, r2[j0:j1])
        return j0, j1, count, uq
    return count_at


def _redecide(count, cell, start, end, pts, centers, r2):
    """Add to `count` (radii x centers) the atoms start <= i < end of `pts`
    that pass the stored-coordinate predicate |x_i - c|^2 <= r^2, per
    radius-major cell index in `cell`; the ranges are clipped to the atoms."""
    n, flat = len(centers), count.reshape(-1)
    start = np.clip(start, 0, len(pts)).astype(np.intp)
    end = np.clip(end, 0, len(pts)).astype(np.intp)
    while cell.size:
        more = start < end
        cell, start, end = cell[more], start[more], end[more]
        flat[cell] += _sq_rows(pts[start] - centers[cell % n]) <= r2[cell // n]
        start += 1


def _segment_farthest(segments, centers):
    """Farthest atom distance per center; the farthest atom of a segment is its
    first or last one."""
    best = np.zeros(centers.shape[0])
    for sg in segments:
        rel = centers - sg.origin[None, :]
        t0 = rel @ sg.direction
        p2 = np.clip(_sq_rows(rel) - t0 ** 2, 0.0, None)
        for t_end in (sg.arcs[0], sg.arcs[-1]):
            d2 = (t_end - t0) ** 2 + p2
            np.maximum(best, d2, out=best)
    return np.sqrt(best)


# ---------------------------------------------------------------------------
# smallest enclosing ball (exact, randomized incremental)

def _circumsphere(support):
    p0 = support[0]
    if len(support) == 1:
        return p0.copy(), 0.0
    A = 2.0 * (support[1:] - p0)
    b = ((support[1:] - p0) ** 2).sum(axis=1)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = p0 + x
    r = float(np.sqrt(((support - center) ** 2).sum(axis=1).max()))
    return center, r


def _outside(pts, c, r):
    """Mask of the rows of pts outside the ball (c, r), by the containment
    test of `_min_enclosing_ball` and its slack."""
    d2 = ((pts - c) ** 2).sum(axis=1)
    return d2 > (r * (1.0 + _ENCLOSING_TOL)) ** 2 + _ENCLOSING_TOL


def _min_enclosing_ball(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if n == 1:
        return pts[0].copy(), 0.0
    rng = np.random.default_rng(0)
    pts = pts[rng.permutation(n)]

    def mb(upto: int, boundary: list[np.ndarray]):
        if boundary:
            c, r = _circumsphere(np.array(boundary))
        else:
            c, r = pts[0].copy(), 0.0
        if len(boundary) == d + 1:
            return c, r
        i = 0
        while i < upto:
            viol = np.flatnonzero(_outside(pts[i:upto], c, r))
            if viol.size == 0:
                return c, r
            j = i + int(viol[0])
            c, r = mb(j, boundary + [pts[j]])
            i = j + 1
        return c, r

    return mb(n, [])


# ---------------------------------------------------------------------------
# generators

def build_cantor(dim: int, s_target: float, depth: int,
                 branching: int | None = None) -> WeightedPointMeasure:
    """Self-similar corner Cantor construction in the unit cube.

    Generation-`depth` cell centers, each with weight branching^(-depth);
    contraction ratio lambda = branching^(-1/s_target) so that the s-density of
    generation cells is constant across generations. Atoms that collide at
    coordinate resolution raise ValueError: merged, they are another measure.
    """
    if dim < 1 or depth < 0:
        raise ValueError("need dim >= 1 and depth >= 0")
    if branching is None:
        branching = 2 ** dim
    if not (1 < branching <= 2 ** dim):
        raise ValueError(f"branching must be in [2, 2^dim]; got {branching}")
    if not 0 < s_target < dim:
        raise ValueError(f"s_target must lie in (0, {dim})")
    lam = float(branching) ** (-1.0 / s_target)
    if lam >= 0.5:
        raise ValueError(
            f"contraction ratio {lam:.4f} >= 1/2: cells overlap "
            f"(need s_target < log2(branching) = {math.log2(branching):.4f})")
    _check_budget(branching ** depth, POINT_BUDGET, "cantor atoms")
    # corner j of the unit cube has bit i of j as coordinate i; none at depth 0
    corners = (np.arange(branching if depth else 0)[:, None] >> np.arange(dim)) & 1
    pts = np.zeros((1, dim))
    scale = 1.0
    for _ in range(depth):
        off = corners * (scale * (1.0 - lam))
        pts = (pts[:, None, :] + off[None, :, :]).reshape(-1, dim)
        scale *= lam
    pts = pts + scale / 2.0
    w = np.full(len(pts), float(branching) ** (-depth))
    m = WeightedPointMeasure(pts, w)
    if m.n_atoms < len(pts):
        raise ValueError(f"depth {depth} at s={s_target} is finer than the coordinate "
                         f"resolution: {m.n_atoms} of {len(pts)} atoms are distinct")
    # sibling cell centers: exact nearest-neighbor distance
    if depth >= 1:
        m._min_spacing = (1.0 - lam) * lam ** (depth - 1)
    return m


def build_flat(dim: int, k: int, half_extent: float, spacing: float,
               jitter: float = 0.0, seed: int = 0) -> WeightedPointMeasure:
    """Regular k-dimensional lattice on the coordinate k-plane through the origin.

    Each point carries weight spacing^k so ball masses approximate k-dimensional
    Hausdorff measure. Optional jitter in [0, 1] displaces points within their
    lattice cell (seeded), by up to jitter * spacing / 2 along each axis.
    """
    if not 1 <= k < dim:
        raise ValueError("need 1 <= k < dim")
    if not (half_extent > 0 and spacing > 0):
        raise ValueError("half_extent and spacing must be positive")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must lie in [0, 1] (and not nan); got {jitter}")
    side = half_extent / spacing + 1e-9
    _check_budget(side, POINT_BUDGET, "flat lattice half-side atoms")  # before int()
    m_side = int(math.floor(side))
    n = (2 * m_side + 1) ** k
    _check_budget(n, POINT_BUDGET, "flat lattice atoms")
    axis = (np.arange(-m_side, m_side + 1)) * spacing
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    pts = np.zeros((n, dim))
    pts[:, :k] = np.stack([g.reshape(-1) for g in grids], axis=1)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        pts[:, :k] += rng.uniform(-0.5, 0.5, size=(n, k)) * (jitter * spacing)
    w = np.full(n, spacing ** k)
    segments = None
    if k == 1 and jitter == 0.0:
        origin = np.zeros(dim)
        origin[0] = axis[0]
        direction = np.eye(1, dim)[0]
        segments = [SegmentLattice(origin=origin, direction=direction,
                                   arcs=axis - axis[0], weight=spacing)]
    return WeightedPointMeasure(pts, w, segments=segments)


def build_dirac(dim: int, location, mass: float) -> WeightedPointMeasure:
    if mass <= 0:
        raise ValueError("mass must be positive")
    loc = np.asarray(location, dtype=float).reshape(1, -1)
    if loc.shape[1] != dim:
        raise ValueError("location has wrong dimension")
    return WeightedPointMeasure(loc, np.array([mass]))


def build_polyline(vertices, spacing: float) -> WeightedPointMeasure:
    """Arc-length measure on a polyline: per edge, n midpoint samples of step
    length/n ~ spacing, each weighing its step, so mass is exact per edge.
    The edges are sized first, then written into one array of atoms."""
    if not 0 < spacing < math.inf:
        raise ValueError(f"spacing must be positive and finite; got {spacing}")
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if vertices.shape[0] < 2:
        raise ValueError("polyline needs at least two vertices")
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise ValueError(f"polyline vertex {bad[0]} is not finite: {vertices[bad[0]].tolist()}")
    edges, total = [], 0
    for i, (a, b) in enumerate(zip(vertices[:-1], vertices[1:])):
        seg = b - a
        length = float(np.linalg.norm(seg))
        if length <= 0:
            raise ValueError(f"polyline edge {i} has zero length")
        # clipped past the budget, where an infinite count has no int()
        n = max(1, math.ceil(min(length / spacing * (1.0 - 1e-12), POINT_BUDGET + 1)))
        total += n
        _check_budget(total, POINT_BUDGET, "polyline atoms")
        edges.append((a, seg, length, n))
    points, weights, segments = np.empty((total, vertices.shape[1])), np.empty(total), []
    start = 0
    for a, seg, length, n in edges:
        step = length / n
        arcs = (np.arange(n) + 0.5) * step
        direction = seg / length
        at = slice(start, start + n)
        np.multiply(arcs[:, None], direction, out=points[at])
        points[at] += a
        weights[at] = step
        segments.append(SegmentLattice(origin=a, direction=direction, arcs=arcs,
                                       weight=step))
        start += n
    return WeightedPointMeasure(points, weights, segments=segments)


def build_gamma_curve(alpha: float, half_extent: float, spacing: float,
                      weighting: str = "hausdorff") -> WeightedPointMeasure:
    """Tent graph: flat on [-L,-1/2] and [1/2,L], slopes +-tan(alpha) on the
    tent of base width 1, apex height tan(alpha)/2.

    weighting='hausdorff' gives arc-length mass; 'mu_alpha' is that measure
    reweighted by `mu_alpha_factors`, cos(alpha) on the tent's two sides,
    making it 1-AD regular (the projection of the tent mass onto the axis has
    unit density).
    """
    if not 0 < alpha <= math.pi / 4:
        raise ValueError("alpha must lie in (0, pi/4]")
    if half_extent < 1:
        raise ValueError("half_extent must be >= 1")
    if not 0 < spacing <= 1 / 16:
        raise ValueError("spacing must be in (0, 1/16] to resolve the tent")
    if weighting not in ("hausdorff", "mu_alpha"):
        raise ValueError(f"unknown weighting {weighting!r}")
    apex = 0.5 * math.tan(alpha)
    verts = np.array([[-half_extent, 0.0], [-0.5, 0.0], [0.0, apex],
                      [0.5, 0.0], [half_extent, 0.0]])
    curve = build_polyline(verts, spacing)
    return curve.reweighted(mu_alpha_factors(alpha)) if weighting == "mu_alpha" else curve


def mu_alpha_factors(alpha: float) -> list[float]:
    """Per-segment factors that take the arc-length tent of angle alpha to
    mu_alpha: 1 on the flat segments, cos(alpha) on the tent's sides."""
    c = math.cos(alpha)
    return [1.0, c, c, 1.0]


# ---------------------------------------------------------------------------
# declarative specs

_SPEC_PARAMS = {
    "cantor": {"dim", "s", "depth", "branching"},
    "flat": {"dim", "k", "half_extent", "spacing", "jitter"},
    "dirac": {"dim", "location", "mass"},
    "polyline": {"vertices", "spacing"},
    "gamma_curve": {"alpha", "half_extent", "spacing"},
    "mu_alpha": {"alpha", "half_extent", "spacing"},
}


@dataclass
class MeasureSpec:
    """Declarative generator configuration; JSON round-trips identically."""

    kind: str
    params: dict
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _SPEC_PARAMS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        unknown = set(self.params) - _SPEC_PARAMS[self.kind]
        if unknown:
            raise ValueError(f"unknown params for kind {self.kind!r}: {sorted(unknown)}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params, "seed": self.seed}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MeasureSpec":
        if not isinstance(obj, dict):
            raise ValueError("measure spec must be a JSON object")
        unknown = set(obj) - {"kind", "params", "seed"}
        if unknown:
            raise ValueError(f"unknown measure spec fields: {sorted(unknown)}")
        if "kind" not in obj or "params" not in obj:
            raise ValueError("measure spec needs 'kind' and 'params'")
        return cls(kind=obj["kind"], params=dict(obj["params"]),
                   seed=int(obj.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "MeasureSpec":
        return cls.from_json_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def build(self) -> WeightedPointMeasure:
        p = self.params
        if self.kind == "cantor":
            return build_cantor(int(p["dim"]), float(p["s"]), int(p["depth"]),
                                branching=p.get("branching"))
        if self.kind == "flat":
            return build_flat(int(p["dim"]), int(p["k"]), float(p["half_extent"]),
                              float(p["spacing"]), jitter=float(p.get("jitter", 0.0)),
                              seed=self.seed)
        if self.kind == "dirac":
            return build_dirac(int(p["dim"]), p["location"], float(p["mass"]))
        if self.kind == "polyline":
            return build_polyline(p["vertices"], float(p["spacing"]))
        # gamma_curve or mu_alpha; build_gamma_curve rejects any other weighting
        return build_gamma_curve(float(p["alpha"]), float(p["half_extent"]),
                                 float(p["spacing"]),
                                 weighting="hausdorff" if self.kind == "gamma_curve"
                                 else self.kind)
