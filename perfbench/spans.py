"""Span recorder for the traced run.

`Tracer.install()` replaces densq's public functions at each module boundary
with timing wrappers, wherever they are bound: module globals (including the
names callers imported, such as `multiscale.ball_masses`), the package
namespace, the `EXPERIMENTS` table, and the methods and cached properties of
`WeightedPointMeasure` and `BallIndex`. `uninstall()` puts the originals back,
so traced and untraced rounds can alternate in one process.

Span names are the per-layer metric prefixes (`measures.min_spacing`,
`riesz.sup`, ...). A span's self time is its duration minus the spans nested
in it, so the self times of all spans plus the time outside any span add up to
the traced wall time exactly. Counters are computed after a span closes, in a
`trace.count` span of their own, so their cost lands in no layer's self time.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
import weakref
from collections import defaultdict

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

import densq
from densq import betas, cli, experiments, measures, multiscale, riesz

_MODULES = (densq, measures, multiscale, riesz, betas, experiments, cli)

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "measures.construct": "measures.construct_s",
    "measures.min_spacing": "measures.min_spacing_s",
    "measures.support_ball": "measures.support_ball_s",
    "measures.farthest": "measures.farthest_s",
    "measures.ball_masses_generic": "measures.ball_masses_generic_s",
    "measures.ball_masses_segment": "measures.ball_masses_segment_s",
    "measures.ball_query": "measures.ball_query_s",
    "measures.csv_write": "measures.csv_write_s",
    "measures.csv_read": "measures.csv_read_s",
    "multiscale.energy": "multiscale.energy_self_s",
    "multiscale.identity": "multiscale.identity_s",
    "multiscale.thin_boundary": "multiscale.thin_boundary_s",
    "riesz.sup": "riesz.sup_s",
    "riesz.truncated": "riesz.truncated_s",
    "betas.energy": "betas.energy_s",
    "betas.point": "betas.point_s",
    "experiments": "experiments.self_s",
    "cli": "cli.self_s",
    "trace.count": "trace.count_s",
}

# counter -> unit
COUNTERS = {"measures.atoms_built": "count", "measures.ball_masses_calls": "count",
            "measures.ball_masses_generic_pairs": "count",
            "measures.ball_masses_cells": "count", "measures.ball_queries": "count",
            "measures.csv_bytes": "bytes", "multiscale.energy_calls": "count",
            "multiscale.identity_calls": "count", "riesz.pair_evals": "count",
            "betas.profile_cells": "count"}

_SUP_SIG = inspect.signature(riesz.sup_riesz_energy)


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_ns = 0             # summed duration of outermost spans
        self._stack = []            # nested-span time, one entry per open span
        self._open = defaultdict(int)
        self._patches = []
        self._hulls = weakref.WeakKeyDictionary()
        self._trees = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _close(self, dt):
        if self._stack:
            self._stack[-1] += dt
        else:
            self.top_ns += dt

    def wrap(self, fn, name, count=None, outermost_only=False):
        """`fn` timed under span `name` (a string, or a function of the call's
        first argument); `count(result, *args, **kwargs)` runs afterwards."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args[0])
            outer = rec._open[span] == 0
            rec._open[span] += 1
            rec._stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                rec.self_ns[span] += dt - rec._stack.pop()
                rec._open[span] -= 1
                rec._close(dt)
            if count is not None and (outer or not outermost_only):
                t0 = time.perf_counter_ns()
                count(result, *args, **kwargs)
                dt = time.perf_counter_ns() - t0
                rec.self_ns["trace.count"] += dt
                rec._close(dt)
            return result
        return traced

    # -- counters ----------------------------------------------------------

    def _bump(self, key, n=1):
        self.counts[key] += int(n)

    def _farthest(self, measure, centers):
        """Per center, the distance to the farthest atom, from the convex hull
        (or the coordinate extremes of a degenerate, flat set)."""
        if measure.segments is not None:
            return measures._segment_farthest(measure.segments, centers)
        verts = self._hulls.get(measure)
        if verts is None:
            pts = measure.points
            try:
                verts = pts[ConvexHull(pts).vertices]
            except (QhullError, ValueError):
                verts = pts[np.unique(np.concatenate([pts.argmin(0), pts.argmax(0)]))]
            self._hulls[measure] = verts
        d2 = ((centers[:, None, :] - verts[None, :, :]) ** 2).sum(-1)
        return np.sqrt(d2.max(axis=1))

    def _count_ball_masses(self, out, measure, centers, radii):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.asarray(radii, dtype=float)
        self._bump("measures.ball_masses_calls")
        self._bump("measures.ball_masses_cells", out.size)
        if measure.segments is None:
            self._bump("measures.ball_masses_generic_pairs",
                       len(centers) * measure.n_atoms)
        far = self._farthest(measure, centers)
        self._bump("ball_masses_useful_cells", (radii[None, :] < far[:, None]).sum())

    def _count_sup_riesz(self, report, *args, **kwargs):
        bound = _SUP_SIG.bind(*args, **kwargs)
        bound.apply_defaults()
        m = bound.arguments["measure"]
        ev = multiscale.as_atom_indices(bound.arguments["eval_indices"], m.n_atoms)
        self._bump("riesz.pair_evals", len(ev) * m.n_atoms)
        tree = self._trees.get(m)
        if tree is None:
            tree = self._trees[m] = cKDTree(m.points)
        reach = tree.query_ball_point(m.points[ev], report.grid_radii[-1],
                                      return_length=True)
        self._bump("riesz_pairs_in_reach", np.sum(reach))

    def _count_file(self, key):
        def count(result, *args, **kwargs):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self._bump(key, os.path.getsize(path))
        return count

    def _counter(self, key):
        return lambda *args, **kwargs: self._bump(key)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = value
        else:
            old = owner.__dict__[attr]
            setattr(owner, attr, value)
        self._patches.append((owner, attr, old))

    def _function(self, fn, name, count=None, outermost_only=False):
        traced = self.wrap(fn, name, count, outermost_only)
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)
        for key, (defaults, runner) in list(experiments.EXPERIMENTS.items()):
            if runner is fn:
                self._set(experiments.EXPERIMENTS, key, (defaults, traced))

    def _method(self, cls, attr, name, count=None, outermost_only=False):
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            new = property(self.wrap(raw.fget, name, count, outermost_only))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, count, outermost_only))
        else:
            new = self.wrap(raw, name, count, outermost_only)
        self._set(cls, attr, new)

    def install(self):
        WPM, BI, ms = measures.WeightedPointMeasure, measures.BallIndex, measures
        self._method(WPM, "__init__", "measures.construct",
                     lambda r, obj, points, *a, **k: self._bump(
                         "measures.atoms_built", len(points)))
        for fn in (ms.build_cantor, ms.build_flat, ms.build_dirac, ms.build_polyline,
                   ms.build_gamma_curve):
            self._function(fn, "measures.construct")
        self._method(ms.MeasureSpec, "build", "measures.construct")
        self._method(WPM, "min_spacing", "measures.min_spacing")
        self._method(WPM, "support_center", "measures.support_ball")
        self._method(WPM, "support_radius", "measures.support_ball")
        self._method(WPM, "farthest_distances", "measures.farthest")
        self._method(WPM, "save_csv", "measures.csv_write",
                     self._count_file("measures.csv_bytes"))
        self._method(WPM, "load_csv", "measures.csv_read",
                     self._count_file("measures.csv_bytes"))
        self._function(ms.ball_masses,
                       lambda m: ("measures.ball_masses_segment" if m.segments is not None
                                  else "measures.ball_masses_generic"),
                       self._count_ball_masses)
        for attr in ("ball_atoms", "mass_in_ball", "annulus_atoms"):
            self._method(BI, attr, "measures.ball_query",
                         self._counter("measures.ball_queries"), outermost_only=True)
        self._function(ms.mass_in_ball, "measures.ball_query",
                       self._counter("measures.ball_queries"), outermost_only=True)

        for fn in (multiscale.square_function_energy, multiscale.wolff_energy):
            self._function(fn, "multiscale.energy",
                           self._counter("multiscale.energy_calls"))
        self._function(multiscale.verify_convolution_identity, "multiscale.identity",
                       self._counter("multiscale.identity_calls"))
        self._function(multiscale.find_thin_boundary_radius, "multiscale.thin_boundary")

        self._function(riesz.sup_riesz_energy, "riesz.sup", self._count_sup_riesz)
        self._function(riesz.truncated_riesz, "riesz.truncated")

        self._function(betas.beta_energy, "betas.energy",
                       lambda rep, *a, **k: self._bump(
                           "betas.profile_cells",
                           rep.params_echo["eval_count"] * len(rep.per_scale)))
        for fn in (betas.beta2, betas.beta_p, betas.beta_inf):
            self._function(fn, "betas.point")

        for fn in (experiments.run_comparability, experiments.run_integer_degeneracy,
                   experiments.run_tent_counterexample,
                   experiments.run_small_s_comparability,
                   experiments.run_identity_suite):
            self._function(fn, "experiments")
        self._function(cli.main, "cli")

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, traced_walls_ns, untraced_walls_ns):
        """Per-layer metrics, each a mean per traced round."""
        n = len(traced_walls_ns)
        wall = sum(traced_walls_ns)
        if sum(self.self_ns.values()) != self.top_ns or self.top_ns > wall:
            raise RuntimeError("span self times do not partition the traced time")
        out = {metric: (self.self_ns.get(span, 0) / n / 1e9, "s")
               for span, metric in SPAN_METRICS.items()}
        for key, unit in COUNTERS.items():
            out[key] = (self.counts.get(key, 0) / n, unit)
        cells = self.counts.get("measures.ball_masses_cells", 0)
        pairs = self.counts.get("riesz.pair_evals", 0)
        out["measures.ball_masses_useful_share"] = (
            self.counts.get("ball_masses_useful_cells", 0) / cells if cells else 0.0,
            "ratio")
        out["riesz.pair_useful_share"] = (
            self.counts.get("riesz_pairs_in_reach", 0) / pairs if pairs else 0.0, "ratio")
        out["trace.wall_s"] = (wall / n / 1e9, "s")
        out["trace.unattributed_s"] = ((wall - self.top_ns) / n / 1e9, "s")
        out["trace.overhead_s"] = ((float(np.median(traced_walls_ns))
                                    - float(np.median(untraced_walls_ns))) / 1e9, "s")
        return out
