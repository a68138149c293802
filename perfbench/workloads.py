"""The benchmark's three workloads.

Each workload is built from a seed (`__init__`, part of set-up), runs one round
of program calls (`run_round`, the timed part), turns a round's outputs into a
small comparable summary (`collect`, untimed) and finally checks the program's
outputs against `oracles` and against properties the method must have
(`check`, untimed). Every round repeats exactly the same calls on freshly built
measures, so no cache carries over from one round to the next, and
`ops_per_round` is the same for every seed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from densq import betas as bt
from densq import cli
from densq import experiments as ex
from densq import measures as ms
from densq import multiscale as msc
from densq import riesz as rz

import oracles

# relative tolerance for values whose summation order differs from the oracle's
REL = 1e-9


def _passed_bands(result, errors):
    for c in result.checks:
        if c["passed"] is False:
            errors.append(f"{result.name}: band {c['name']} failed "
                          f"(value={c['value']}, band={c['band']})")


def _check_energy_sum(label, total, per_scale, tail, errors):
    """total = sum(per_scale) + tail, and the energy is positive."""
    parts = [v for _, v in per_scale] + [tail]
    if not (total > 0 and oracles.close(total, math.fsum(parts), 1e-12)):
        errors.append(f"{label}: total {total!r} != sum(per_scale) + tail "
                      f"{math.fsum(parts)!r}")


def _check_ball_cells(label, measure, centers, radii, errors):
    """Program ball masses against the brute-force scan at sampled cells."""
    got = ms.ball_masses(measure, centers, radii)
    ref = oracles.ball_masses(measure.points, measure.weights, centers, radii)
    bad = int((~oracles.same_atoms(got, ref, measure.weights.min())).sum())
    if bad:
        errors.append(f"{label}: {bad} of {got.size} sampled ball masses differ "
                      "from the brute-force scan")


def _check_riesz_pair(label, measure, eval_idx, eps1, eps2, s, energy, errors):
    """A reported Riesz energy against the direct O(N^2) sum at its pair."""
    ref = oracles.riesz_energy(measure.points, measure.weights, eval_idx,
                               eps1, eps2, s)
    if not oracles.close(energy, ref, REL):
        errors.append(f"{label}: Riesz energy {energy!r} at ({eps1!r}, {eps2!r}) "
                      f"!= direct sum {ref!r}")


def _check_beta_cell(label, measure, eval_idx, per_scale, kappa, q, j, errors):
    """Entry j of a beta_2 energy's per-scale list against covariance
    eigenvalues: sum_i w_i (trace - lambda_max)_i / r^3 * width."""
    r_sample, value = per_scale[j]
    pts, w = measure.points, measure.weights
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    floor = kappa * math.sqrt(float(d2.min()))
    r_cell = r_sample / math.sqrt(q)
    width = max(0.0, math.log(r_cell * q / max(r_cell, floor)))
    moments = [oracles.beta2_moment(pts, w, pts[i], r_sample) for i in eval_idx]
    ref = math.fsum(w[i] * mo / r_sample ** 3 * width
                    for i, (mo, _) in zip(eval_idx, moments))
    scale = math.fsum(w[i] * tr / r_sample ** 3 * width
                      for i, (_, tr) in zip(eval_idx, moments))
    if not oracles.close(value, ref, REL, scale):
        errors.append(f"{label}: beta_2 per-scale value {value!r} at r={r_sample!r} "
                      f"!= covariance oracle {ref!r}")


# ---------------------------------------------------------------------------

class CantorDense:
    """run_comparability and run_small_s_comparability on 2-d Cantor measures
    at non-integer s; radii reach 8x the support radius."""

    name = "cantor-dense"
    ops_per_round = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        jitter = rng.uniform(-0.01, 0.01, size=5)
        self.comp_cfg = {"s_list": [s + d for s, d in zip([0.5, 0.8, 1.2, 1.5], jitter)],
                         "depth": 5, "drift_depth": 4}
        self.small_cfg = {"s": 0.5 + float(jitter[4]), "depth": 5, "drift_depth": 4}
        self.rng = rng

    def run_round(self):
        return (ex.run_comparability(self.comp_cfg),
                ex.run_small_s_comparability(self.small_cfg))

    def collect(self, out):
        return {"results": out,
                "json": [json.dumps(r.to_json_dict(), sort_keys=True) for r in out],
                "failed": 0}

    def check(self, first):
        errors = []
        comp, small = first["results"]
        for res in (comp, small):
            _passed_bands(res, errors)
        cfg, rng = comp.config, self.rng

        # one s of the sweep: SF / Wolff reports and sampled ball-mass cells
        i = int(rng.integers(len(cfg["s_list"])))
        s = float(cfg["s_list"][i])
        deep = ms.build_cantor(cfg["dim"], s, cfg["depth"])
        grid = msc.ScaleGrid.default_for(deep, q=cfg["q"], kappa=cfg["kappa"])
        for key, fn in (("square_function", msc.square_function_energy),
                        ("wolff", msc.wolff_energy)):
            rep = fn(deep, s, grid, kappa=cfg["kappa"])
            if rep.total != comp.totals[key][i]:
                errors.append(f"comparability: {key} total at s={s} is not "
                              "reproduced by a direct call")
            _check_energy_sum(f"{key} s={s}", rep.total, rep.per_scale, rep.tail,
                              errors)
        sample = grid.radii * math.sqrt(grid.q)
        radii = rng.choice(np.concatenate([sample, 2.0 * sample]), 16, replace=False)
        centers = deep.points[rng.choice(deep.n_atoms, 16, replace=False)]
        _check_ball_cells(f"cantor s={s}", deep, centers, radii, errors)

        # small-s: sup Riesz at its best pair against the direct sum
        sc = small.config
        m = ms.build_cantor(sc["dim"], sc["s"], sc["depth"])
        g = msc.ScaleGrid.default_for(m, q=sc["q"], kappa=sc["kappa"])
        rep = rz.sup_riesz_energy(m, sc["s"], g, max_radii=sc["max_radii"],
                                  kappa=sc["kappa"])
        if rep.energy_at_best != small.totals["sup_riesz"][1]:
            errors.append("small-s: sup Riesz total is not reproduced by a direct call")
        _check_riesz_pair("small-s", m, range(m.n_atoms), rep.best_pair.eps1,
                          rep.best_pair.eps2, sc["s"], rep.energy_at_best, errors)
        return errors


# ---------------------------------------------------------------------------

# Ball-mass queries at radii that are exact multiples of the lattice spacing.
# The segment engine decides membership with |t - t0| <= sqrt(r^2 - p^2), not
# with |x - c|^2 <= r^2, and gets ties wrong; these operations fail until that
# is mended. The same radii plus half a spacing hold no ties and must pass.
TIE_MULTIPLES = (1, 2, 3, 5, 8, 13, 21, 34)


def _tie_queries():
    """(lattice, measure, k, radius, tie) of every query, on freshly built
    lattices that do not depend on the seed."""
    flat = ms.build_flat(2, 1, 1.0, 0.002)
    tent = ms.build_gamma_curve(math.pi / 8, 1.5, 0.003)
    for name, m, h in (("flat", flat, 0.002),
                       ("tent", tent, 1.0 / len(tent.segments[0].arcs))):
        for k in TIE_MULTIPLES:
            yield name, m, k, k * h, True
            yield name, m, k, (k + 0.5) * h, False


class TentWindow:
    """run_tent_counterexample and run_integer_degeneracy on the segment
    engine, plus the tie-radius ball-mass queries."""

    name = "tent-window"
    ops_per_round = 2 + 2 * 2 * len(TIE_MULTIPLES)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        scale = 1.0 - rng.uniform(0.0, 0.03, size=5)     # alpha stays <= pi/4
        self.tent_cfg = {"alpha_list": [math.pi / 4 * 2.0 ** (-k) * float(f)
                                        for k, f in enumerate(scale)],
                         "sf_spacing": 2e-4}
        a, b = rng.integers(0, 6, size=2)
        self.int_cfg = {"resolutions": [251 + 2 * int(a), 1001 + 4 * int(b)]}
        self.rng = rng
        self._tie_refs = None

    def run_round(self):
        tent = ex.run_tent_counterexample(self.tent_cfg)
        flat = ex.run_integer_degeneracy(self.int_cfg)
        queries = [ms.ball_masses(m, m.points, [r])[:, 0]
                   for _, m, _, r, _ in _tie_queries()]
        return tent, flat, queries

    def collect(self, out):
        tent, flat, queries = out
        if self._tie_refs is None:
            self._tie_refs = [
                (name, k, tie, oracles.ball_masses(m.points, m.weights, m.points, [r])[:, 0],
                 m.weights.min())
                for name, m, k, r, tie in _tie_queries()]
        failed, mid_errors = 0, []
        for got, (name, k, tie, ref, w_min) in zip(queries, self._tie_refs):
            if not oracles.same_atoms(got, ref, w_min).all():
                if tie:
                    failed += 1
                else:
                    mid_errors.append(f"{name} lattice: ball masses wrong at the "
                                      f"untied radius {k + 0.5}h")
        return {"results": (tent, flat),
                "json": [json.dumps(r.to_json_dict(), sort_keys=True)
                         for r in (tent, flat)] + [q.tobytes() for q in queries],
                "failed": failed, "errors": mid_errors}

    def check(self, first):
        errors = list(first["errors"])
        tent, flat = first["results"]
        for res in (tent, flat):
            _passed_bands(res, errors)
        cfg, rng = tent.config, self.rng
        q = cfg["q"]
        i = int(rng.integers(len(cfg["alpha_list"])))
        a, L = float(cfg["alpha_list"][i]), float(cfg["half_extent"])
        window = tent.parameters["window"]

        def in_window(m):
            return np.flatnonzero(np.abs(m.points[:, 0]) <= window)

        # sup Riesz: the reported energy against the direct sum at its pair
        row = tent.raw_rows[i]
        m_rz = ms.build_gamma_curve(a, L, cfg["riesz_spacing"])
        _check_riesz_pair(f"tent alpha={a:.5g}", m_rz, in_window(m_rz), row[7], row[8],
                          1.0, tent.totals["sup_riesz"][i], errors)

        # square function on the fine curve, and sampled segment-engine cells
        m_sf = ms.build_gamma_curve(a, L, cfg["sf_spacing"])
        grid = msc.ScaleGrid(cfg["sf_r_lo"], cfg["sf_r_hi"], q)
        ev = in_window(m_sf)
        rep = msc.square_function_energy(m_sf, 1.0, grid, eval_indices=ev)
        if rep.discrete_total != tent.totals["square_function"][i]:
            errors.append("tent: square-function sum is not reproduced by a direct call")
        _check_energy_sum(f"tent SF alpha={a:.5g}", rep.total, rep.per_scale,
                          rep.tail, errors)
        sample = grid.radii * math.sqrt(q)
        centers = m_sf.points[rng.choice(ev, 16, replace=False)]
        _check_ball_cells(f"tent alpha={a:.5g}", m_sf, centers,
                          np.concatenate([sample, 2.0 * sample]), errors)

        # beta_2 energy: one per-scale value against covariance eigenvalues
        m_bt = ms.build_gamma_curve(a, L, cfg["spacing"], weighting="mu_alpha")
        ev = in_window(m_bt)
        rep = bt.beta_energy(m_bt, msc.ScaleGrid(cfg["pair_r_lo"], cfg["pair_r_hi"], q),
                             eval_indices=ev)
        if rep.total != tent.totals["beta2"][i]:
            errors.append("tent: beta_2 energy is not reproduced by a direct call")
        _check_energy_sum(f"tent beta alpha={a:.5g}", rep.total, rep.per_scale,
                          rep.tail, errors)
        _check_beta_cell(f"tent alpha={a:.5g}", m_bt, ev, rep.per_scale,
                         rep.params_echo["kappa"], q,
                         int(rng.integers(len(rep.per_scale))), errors)
        return errors


# ---------------------------------------------------------------------------

ENERGY_KINDS = ("sf", "wolff", "riesz-sup", "beta")
POINT_QUERIES = 100     # single-point queries per measure and round
POINT_CALLS = 5         # density_difference, beta2, beta_inf, truncated_riesz, thin boundary
THIN_LAMBDAS = [2.0 ** (-j) for j in range(11)]


def _cli(argv):
    """densq.cli.main in process, its terminal output kept out of ours."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class PointwiseCli:
    """The CLI in process (gen, energy, exp identity) through files, and a
    seeded batch of single-point calls on the measures read back from CSV."""

    name = "pointwise-cli"
    ops_per_round = (2 + 2 * len(ENERGY_KINDS) + 1 + 2
                     + 2 * POINT_QUERIES * POINT_CALLS)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.dir = workdir
        self.specs = {
            "cantor": {"kind": "cantor", "seed": 0,
                       "params": {"dim": 2, "s": 0.6 + float(rng.uniform(-0.01, 0.01)),
                                  "depth": 5}},
            "tent": {"kind": "gamma_curve", "seed": 0,
                     "params": {"alpha": float(rng.uniform(0.35, 0.45)),
                                "half_extent": 2.0, "spacing": 1.0 / 128}},
        }
        self.s = {"cantor": 0.6 + float(rng.uniform(-0.01, 0.01)),
                  "tent": 1.1 + float(rng.uniform(-0.01, 0.01))}
        # (atom position in [0, 1), radius) per query; radii span the
        # resolved scales of each measure
        r_range = {"cantor": (1e-3, 0.3), "tent": (0.03, 0.5)}
        self.queries = {}
        for name, (lo, hi) in r_range.items():
            u = rng.uniform(0.0, 1.0, size=POINT_QUERIES)
            r = np.exp(rng.uniform(math.log(lo), math.log(hi), size=POINT_QUERIES))
            self.queries[name] = list(zip(u.tolist(), r.tolist()))
        for name, spec in self.specs.items():
            (self.dir / f"{name}.json").write_text(json.dumps(spec))
        # the identity suite keeps its default seed: on about 7% of other seeds
        # one bump-profile call fails the 1e-6 band (see CHANGES.md)
        (self.dir / "identity.json").write_text(
            json.dumps({"seed": ex.IDENTITY_DEFAULTS["seed"]}))
        self.rng = rng

    def _path(self, name):
        return str(self.dir / name)

    def run_round(self):
        rcs = []
        for name in self.specs:
            rcs.append(_cli(["gen", self._path(f"{name}.json"),
                             "--out", self._path(f"{name}.csv")]))
        for name, s in self.s.items():
            for kind in ENERGY_KINDS:
                rcs.append(_cli(["energy", self._path(f"{name}.csv"), "--kind", kind,
                                 "--s", repr(s), "--out",
                                 self._path(f"{name}_{kind}.json")]))
        rcs.append(_cli(["exp", "identity", "--config", self._path("identity.json"),
                         "--out-dir", self._path("identity")]))
        points = {}
        for name, s in self.s.items():
            m = ms.WeightedPointMeasure.load_csv(self._path(f"{name}.csv"))
            rows = []
            for u, r in self.queries[name]:
                x = m.points[int(u * m.n_atoms)]
                pair = rz.TruncationPair(r / 4.0, r)
                rows.append((x, r,
                             msc.density_difference(m, x, r, s),
                             bt.beta2(m, x, r)[0],
                             bt.beta_inf(m, x, r)[0],
                             rz.truncated_riesz(m, x, pair, s),
                             msc.find_thin_boundary_radius(m, x, r)))
            points[name] = rows
        return rcs, points

    def collect(self, out):
        rcs, points = out
        files = {f"{name}_{kind}": (self.dir / f"{name}_{kind}.json").read_text()
                 for name in self.specs for kind in ENERGY_KINDS}
        files["identity"] = (self.dir / "identity" / "result.json").read_text()
        files["identity_raw"] = (self.dir / "identity" / "raw.csv").read_text()
        flat = [repr(v.tolist() if isinstance(v, np.ndarray) else v)
                for rows in points.values() for row in rows for v in row]
        return {"rcs": rcs, "files": files, "points": points,
                "json": [repr(rcs), json.dumps(files, sort_keys=True)] + flat,
                "failed": 0}

    def check(self, first):
        errors = []
        if any(rc != 0 for rc in first["rcs"]):
            errors.append(f"cli exit codes {first['rcs']}")
            return errors
        rng = self.rng
        for name, spec in self.specs.items():
            mem = ms.MeasureSpec.from_json_dict(spec).build()
            m = ms.WeightedPointMeasure.load_csv(self._path(f"{name}.csv"))
            if not (np.array_equal(mem.points.view(np.uint64), m.points.view(np.uint64))
                    and np.array_equal(mem.weights.view(np.uint64),
                                       m.weights.view(np.uint64))):
                errors.append(f"{name}: CSV round trip is not bit-exact")
            s = self.s[name]
            reports = {k: json.loads(first["files"][f"{name}_{k}"]) for k in ENERGY_KINDS}
            for kind in ("sf", "wolff", "beta"):
                rep = reports[kind]
                _check_energy_sum(f"{name} {kind}", rep["total"], rep["per_scale"],
                                  rep["tail"], errors)
            riesz = reports["riesz-sup"]
            best = riesz["best"]
            if best["energy"] != max(e for _, _, e in riesz["grid"]):
                errors.append(f"{name}: reported best Riesz energy is not the grid max")
            _check_riesz_pair(f"{name} riesz-sup", m, range(m.n_atoms), best["eps1"],
                              best["eps2"], s, best["energy"], errors)
            beta = reports["beta"]
            _check_beta_cell(f"{name} beta", m, range(m.n_atoms), beta["per_scale"],
                             beta["params_echo"]["kappa"], beta["grid"]["q"],
                             int(rng.integers(len(beta["per_scale"]))), errors)
            extent = math.sqrt(float(((m.points - m.points.mean(0)) ** 2).sum(1).max()))
            radii = np.exp(rng.uniform(math.log(1e-3), math.log(4.0 * extent), size=16))
            centers = m.points[rng.choice(m.n_atoms, 16, replace=False)]
            _check_ball_cells(f"{name} csv", m, centers, radii, errors)
            self._check_points(name, m, s, first["points"][name], errors)

        ident = json.loads(first["files"]["identity"])
        cfg = ident["config"]
        calls = cfg["n_measures"] * cfg["n_queries"] * len(cfg["profiles"])
        resid = [float(row["residual"]) for row in
                 csv.DictReader(io.StringIO(first["files"]["identity_raw"]))]
        if not (ident["passed"] and len(resid) == calls and max(resid) < 1e-6):
            errors.append(f"identity: residuals up to {max(resid)!r} over "
                          f"{len(resid)} calls, passed={ident['passed']}")
        return errors

    @staticmethod
    def _check_points(name, m, s, rows, errors):
        pts, w = m.points, m.weights
        t_thin = 32.0 * m.dim
        for x, r, dd, b2, binf, field, rp in rows:
            (m1, m2), = oracles.ball_masses(pts, w, x, [r, 2.0 * r])
            ref = m1 / r ** s - m2 / (2.0 * r) ** s
            if not oracles.close(dd, ref, 1e-12, m1 / r ** s + m2 / (2.0 * r) ** s):
                errors.append(f"{name}: density_difference {dd!r} != {ref!r} at r={r!r}")
            moment, trace = oracles.beta2_moment(pts, w, x, r)
            if not oracles.close(b2 * b2 * r ** 3, moment, REL, trace):
                errors.append(f"{name}: beta2 {b2!r} != covariance oracle at r={r!r}")
            if b2 > math.sqrt(m1 / r) * binf + 1e-7:
                errors.append(f"{name}: beta2 {b2!r} > sqrt(mass/r) beta_inf {binf!r}")
            ref_field, scale = oracles.riesz_field(pts, w, x, r / 4.0, r, s)
            if not np.all(np.abs(field - ref_field) <= REL * scale):
                errors.append(f"{name}: truncated_riesz {field} != {ref_field} at r={r!r}")
            if not (r <= rp <= 2.0 * r
                    and oracles.is_thin(pts, w, x, rp, t_thin, THIN_LAMBDAS)):
                errors.append(f"{name}: thin-boundary radius {rp!r} for r={r!r} fails "
                              "the brute-force thinness check")


WORKLOADS = {cls.name: cls for cls in (CantorDense, TentWindow, PointwiseCli)}
