"""Scripted desk-scale sweeps: comparability laws, integer degeneracy, the tent
counterexample asymptotics, and the smoothing identity, with explicit pass/fail
bands, slope fits, and file reports (result.json, raw.csv, plot.svg).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import measures as ms
from . import multiscale as msc
from . import riesz as rz
from . import betas as bt


# ---------------------------------------------------------------------------
# generic plumbing

def fit_loglog_slope(xs, ys) -> tuple[float, float, float]:
    """Least-squares line through (ln x, ln y): (slope, intercept, rms residual)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 4:
        raise ValueError("need at least 4 (x, y) pairs")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    res = ly - A @ sol
    return float(sol[0]), float(sol[1]), float(np.sqrt((res ** 2).mean()))


def _map_ordered(fn, items, threads: int):
    # ordered gather keeps the reduction deterministic at any thread count
    if not threads >= 1:
        raise ValueError(f"threads must be at least 1; got {threads}")
    if threads == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _merge_config(defaults: dict, override: dict | None, name: str) -> dict:
    cfg = dict(defaults)
    if override:
        unknown = set(override) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config field(s) for {name}: {sorted(unknown)}")
        cfg.update(override)
    return cfg


@dataclass
class SweepResult:
    name: str
    config: dict
    parameters: dict
    totals: dict
    checks: list
    raw_columns: list
    raw_rows: list
    plot: dict
    fits: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No check failed; informational checks (passed None) never fail."""
        return all(c["passed"] is not False for c in self.checks)

    def to_json_dict(self) -> dict:
        """The verdict and every field but the raw table and the plot, which
        `emit` writes to their own files."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("raw_columns", "raw_rows", "plot")}
        return {"passed": self.passed, **out}

    def emit(self, out_dir: str | Path) -> None:
        """result.json, raw.csv and plot.svg in out_dir, each written atomically."""
        out = Path(out_dir)
        ms._write_json(out / "result.json", self.to_json_dict())
        ms._write_csv(out / "raw.csv", self.raw_columns, self.raw_rows)
        write_scatter_svg(out / "plot.svg", **self.plot)


def _table(rows: list) -> dict:
    """raw_columns and raw_rows from rows keyed by the column names, in column order."""
    return {"raw_columns": list(rows[0]), "raw_rows": [list(r.values()) for r in rows]}


def _check(name: str, passed, value, band: str) -> dict:
    return {"name": name, "passed": passed, "value": value, "band": band}


def _at_most(name: str, value, band, strict: bool = False) -> dict:
    """value < band if strict, else value <= band."""
    passed = value < float(band) if strict else value <= float(band)
    return _check(name, passed, value, f"{'<' if strict else '<='} {band}")


def _within(name: str, value, band) -> dict:
    """lo <= value <= hi for band = [lo, hi]."""
    lo, hi = (float(v) for v in band)
    return _check(name, lo <= value <= hi, value, f"[{lo}, {hi}]")


def _decreasing(xs) -> bool:
    """Strictly decreasing."""
    return all(a > b for a, b in zip(xs, xs[1:]))


# ---------------------------------------------------------------------------
# minimal standalone SVG plotting

_PALETTE = ("#1f6fb4", "#d1495b", "#3f8f44", "#8a5fbf", "#c77f2e", "#2aa6a1")


def _ticks_log(lo: float, hi: float):
    a = int(math.floor(math.log10(lo)))
    b = int(math.ceil(math.log10(hi)))
    return [10.0 ** k for k in range(a, b + 1) if lo <= 10.0 ** k <= hi]


def write_scatter_svg(path, series, xlabel: str, ylabel: str, title: str = "",
                      logx: bool = True, logy: bool = True) -> None:
    """Scatter plot with optional fitted lines; no external assets.

    series: list of dicts {label, xs, ys, fit: (slope, intercept) | None}.
    Fits are drawn in the same log-log coordinates they were computed in.
    """
    W, H = 640, 480
    ml, mr, mt, mb = 70, 20, 30, 50
    xs_all = np.concatenate([np.asarray(s["xs"], float) for s in series])
    ys_all = np.concatenate([np.asarray(s["ys"], float) for s in series])

    def shown(xs, ys):
        """Mask of the points a logarithmic axis can place."""
        return ((xs > 0) | (not logx)) & ((ys > 0) | (not logy))

    good = shown(xs_all, ys_all)
    xs_all, ys_all = xs_all[good], ys_all[good]
    if xs_all.size == 0:
        xs_all, ys_all = np.array([1.0]), np.array([1.0])

    def span(v, logscale):
        lo, hi = float(v.min()), float(v.max())
        if logscale:
            lo, hi = math.log10(lo), math.log10(hi)
        pad = 0.05 * (hi - lo) if hi > lo else 0.5
        return lo - pad, hi + pad

    x0, x1 = span(xs_all, logx)
    y0, y1 = span(ys_all, logy)

    def px(x):
        v = math.log10(x) if logx else x
        return ml + (v - x0) / (x1 - x0) * (W - ml - mr)

    def py(y):
        v = math.log10(y) if logy else y
        return H - mb - (v - y0) / (y1 - y0) * (H - mt - mb)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}" '
           f'font-family="sans-serif" font-size="12">',
           f'<rect width="{W}" height="{H}" fill="white"/>',
           f'<g stroke="black" fill="none"><path d="M{ml},{mt} L{ml},{H-mb} '
           f'L{W-mr},{H-mb}"/></g>']
    if title:
        out.append(f'<text x="{W/2:.1f}" y="18" text-anchor="middle">{title}</text>')
    out.append(f'<text x="{(ml+W-mr)/2:.1f}" y="{H-12}" text-anchor="middle">'
               f'{xlabel}</text>')
    out.append(f'<text x="16" y="{(mt+H-mb)/2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {(mt+H-mb)/2:.1f})">{ylabel}</text>')
    xt = _ticks_log(10 ** x0, 10 ** x1) if logx else np.linspace(x0, x1, 5)
    yt = _ticks_log(10 ** y0, 10 ** y1) if logy else np.linspace(y0, y1, 5)
    for t in xt:
        label = f"1e{int(round(math.log10(t)))}" if logx else f"{t:.3g}"
        out.append(f'<line x1="{px(t):.1f}" y1="{H-mb}" x2="{px(t):.1f}" y2="{H-mb+5}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{px(t):.1f}" y="{H-mb+18}" text-anchor="middle">'
                   f'{label}</text>')
    for t in yt:
        label = f"1e{int(round(math.log10(t)))}" if logy else f"{t:.3g}"
        out.append(f'<line x1="{ml-5}" y1="{py(t):.1f}" x2="{ml}" y2="{py(t):.1f}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{ml-8}" y="{py(t)+4:.1f}" text-anchor="end">{label}</text>')
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        xs = np.asarray(s["xs"], float)
        ys = np.asarray(s["ys"], float)
        good = shown(xs, ys)
        for x, y in zip(xs[good], ys[good]):
            out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.5" '
                       f'fill="{color}"/>')
        fit = s.get("fit")
        if fit is not None and logx and logy:
            slope, intercept = fit
            xa, xb = 10 ** (x0 + 0.02), 10 ** (x1 - 0.02)
            ya = math.exp(intercept) * xa ** slope
            yb = math.exp(intercept) * xb ** slope
            ya = min(max(ya, 10 ** y0), 10 ** y1)
            yb = min(max(yb, 10 ** y0), 10 ** y1)
            out.append(f'<line x1="{px(xa):.1f}" y1="{py(ya):.1f}" '
                       f'x2="{px(xb):.1f}" y2="{py(yb):.1f}" stroke="{color}" '
                       f'stroke-dasharray="6 3"/>')
        ylab = mt + 16 + 16 * i
        out.append(f'<rect x="{W-mr-150}" y="{ylab-10}" width="10" height="10" '
                   f'fill="{color}"/>')
        out.append(f'<text x="{W-mr-135}" y="{ylab}">{s["label"]}</text>')
    out.append("</svg>")
    ms._atomic_write(path, lambda fh: fh.write("\n".join(out) + "\n"))


# ---------------------------------------------------------------------------
# comparability sweep: square-function vs Wolff energy on Cantor measures

COMPARABILITY_DEFAULTS = {
    "dim": 2,
    "s_list": [0.5, 0.8, 1.2, 1.5],
    "depth": 6,
    "drift_depth": 5,
    "q": 1.1,
    "kappa": 4.0,
    "ratio_spread_band": 20.0,
    "drift_band": 0.10,
}


def run_comparability(config: dict | None = None, threads: int = 1) -> SweepResult:
    """Square-function / Wolff energy ratio across a family of Cantor measures.

    Reports the per-s ratio on each measure's full default grid, the spread of
    ratios across the family, and a depth-consistency drift computed on a
    common scale window resolved at both depths.
    """
    cfg = _merge_config(COMPARABILITY_DEFAULTS, config, "comparability")
    dim, q, kappa = int(cfg["dim"]), float(cfg["q"]), float(cfg["kappa"])
    for s in cfg["s_list"]:
        if float(s) == int(s):
            raise ValueError(
                f"s={s} is an integer: the comparability law fails there; "
                "use the integer-degeneracy experiment instead")
        if not 0 < s < dim:
            raise ValueError(f"s={s} outside (0, {dim})")

    def one(s):
        s = float(s)
        deep = ms.build_cantor(dim, s, int(cfg["depth"]))
        shallow = ms.build_cantor(dim, s, int(cfg["drift_depth"]))
        grid = msc.ScaleGrid.default_for(deep, q=q, kappa=kappa)
        # drift check on a window resolved at both depths: discrete sums only,
        # so tails (identical functionals of the total mass) do not mask it
        common = msc.ScaleGrid(msc.resolved_floor(shallow, kappa),
                               8.0 * deep.support_radius, q)
        # the deep measure's full grid and common window from one pass
        sf, wf, *deep_c = msc._energies((deep,), s, (grid, common), 2.0,
                                        ("square_function", "wolff"), None, kappa)
        shallow_c = msc.square_function_and_wolff_energy(shallow, s, common, kappa=kappa)
        ratios = [sf_c.discrete_total / wf_c.discrete_total
                  for sf_c, wf_c in (shallow_c, deep_c)]
        return {"s": s, "sf_total": sf.total, "wolff_total": wf.total,
                "ratio": sf.total / wf.total,
                "ratio_common_shallow": ratios[0], "ratio_common_deep": ratios[1],
                "drift": abs(ratios[1] / ratios[0] - 1.0)}

    rows = _map_ordered(one, list(cfg["s_list"]), threads)
    ratios = [r["ratio"] for r in rows]
    spread = max(ratios) / min(ratios)
    checks = [_at_most("ratio_spread", spread, cfg["ratio_spread_band"])]
    checks += [_at_most(f"depth_drift_s={r['s']:g}", r["drift"], cfg["drift_band"])
               for r in rows]
    return SweepResult(
        name="comparability",
        config=cfg,
        parameters={"s": [r["s"] for r in rows]},
        totals={"square_function": [r["sf_total"] for r in rows],
                "wolff": [r["wolff_total"] for r in rows],
                "ratio": ratios},
        checks=checks,
        **_table(rows),
        notes=["ratio = full-grid totals incl. analytic tails; drift compares "
               "discrete sums on a scale window resolved at both depths"],
        plot={"series": [{"label": "SF/Wolff ratio",
                          "xs": [r["s"] for r in rows], "ys": ratios}],
              "xlabel": "s", "ylabel": "energy ratio",
              "title": "square-function vs Wolff comparability",
              "logx": False, "logy": True},
    )


# ---------------------------------------------------------------------------
# integer degeneracy: flat measures make the square function collapse

INTEGER_DEFAULTS = {
    "dim": 2,
    "k": 1,
    "half_extent": 1.0,
    "resolutions": [251, 1001],
    "window_fraction": 0.5,
    "floor_atoms": 6,
    "q": 1.1,
    "widen_factors": [1, 4, 16],
    "sf_wolff_band": 1e-3,
    "wolff_model_band": 0.05,
    "fixed_range": [0.06, 0.2],
}


def run_integer_degeneracy(config: dict | None = None, threads: int = 1) -> SweepResult:
    """Flat k-plane lattice at integer s = k: the square-function energy sits at
    the lattice-noise floor while the Wolff energy grows like the log of the
    scale-range ratio; their ratio must shrink as the range widens.
    """
    cfg = _merge_config(INTEGER_DEFAULTS, config, "integer-degeneracy")
    dim, k = int(cfg["dim"]), int(cfg["k"])
    E = float(cfg["half_extent"])
    s = float(k)
    q = float(cfg["q"])
    W = E * float(cfg["window_fraction"])
    widen = sorted(int(v) for v in cfg["widen_factors"])
    r_hi_top = (E - W) / (2.0 * math.sqrt(q))

    def one(n_points):
        n_points = int(n_points)
        h = 2.0 * E / (n_points - 1)
        m = ms.build_flat(dim, k, E, h)
        mask = np.flatnonzero(np.abs(m.points[:, 0]) <= W)
        eval_mass = float(m.weights[mask].sum())
        r_lo = float(cfg["floor_atoms"]) * h
        # widen factors whose range this lattice spacing resolves
        kept = [(wfac, r_hi) for wfac in widen
                if (r_hi := r_hi_top * wfac / widen[-1]) > r_lo * q]
        if not kept:
            raise ValueError(f"resolution {n_points}: every widen factor gives "
                             f"r_hi <= r_lo * q = {r_lo * q!r}, no scale range")
        # every range and the fixed one (for the h -> 0 collapse check) from one pass
        lo, hi = (float(v) * E for v in cfg["fixed_range"])
        grids = [msc.ScaleGrid(r_lo, r_hi, q) for _, r_hi in kept]
        grids.append(msc.ScaleGrid(lo, hi, q))
        reps = msc._energies((m,), s, grids, 2.0, ("square_function", "wolff"), mask,
                             msc.DEFAULT_KAPPA)
        out = []
        for (wfac, r_hi), sf, wf in zip(kept, reps[0::2], reps[1::2]):
            model = 4.0 * eval_mass * math.log(r_hi / r_lo)
            out.append({"n_points": n_points, "h": h, "widen": wfac,
                        "r_lo": r_lo, "r_hi": r_hi,
                        "sf_discrete": sf.discrete_total,
                        "wolff_discrete": wf.discrete_total,
                        "sf_wolff_ratio": sf.discrete_total / wf.discrete_total,
                        "wolff_over_model": wf.discrete_total / model})
        return out, reps[-2].discrete_total

    results = _map_ordered(one, list(cfg["resolutions"]), threads)
    rows = [r for res, _ in results for r in res]
    fixed_sf = [fx for _, fx in results]
    fine = results[-1][0]
    checks = [_at_most("sf_wolff_ratio_finest", fine[-1]["sf_wolff_ratio"],
                       cfg["sf_wolff_band"], strict=True)]
    ratios = [r["sf_wolff_ratio"] for r in fine]
    checks.append(_check("ratio_strictly_decreasing_with_range", _decreasing(ratios),
                         ratios, "strictly decreasing"))
    wom = fine[-1]["wolff_over_model"]
    checks.append(_check("wolff_matches_4_mass_log_range",
                         abs(wom - 1.0) <= float(cfg["wolff_model_band"]), wom,
                         f"within {cfg['wolff_model_band']} of 1"))
    checks.append(_check("sf_fixed_range_decreases_with_h", _decreasing(fixed_sf),
                         fixed_sf, "decreasing in resolution"))
    return SweepResult(
        name="integer-degeneracy",
        config=cfg,
        parameters={"resolutions": [int(v) for v in cfg["resolutions"]],
                    "widen_factors": widen},
        totals={"sf_fixed_range": fixed_sf},
        checks=checks,
        **_table(rows),
        notes=["discrete (in-range) sums only: the analytic tails reflect the "
               "lattice truncation, not the flat continuum measure"],
        plot={"series": [{"label": f"n={res[0]['n_points']}",
                          "xs": [x["r_hi"] / x["r_lo"] for x in res],
                          "ys": [x["sf_wolff_ratio"] for x in res]}
                         for res, _ in results],
              "xlabel": "scale range ratio", "ylabel": "SF / Wolff",
              "title": "integer-dimension degeneracy", "logx": True, "logy": True},
    )


# ---------------------------------------------------------------------------
# tent-curve counterexample sweep

TENT_DEFAULTS = {
    "alpha_list": [math.pi / 4 * 2.0 ** (-k) for k in range(6)],
    "half_extent": 4.0,
    "spacing": 1.0 / 32.0,          # beta-number measures
    "sf_spacing": 5e-5,             # square-function measures
    "riesz_spacing": 1.0 / 128.0,   # Riesz-transform measures
    "q": 1.1,
    "sf_r_lo": 0.5,
    "sf_r_hi": 1.0,
    "pair_r_lo": 0.125,
    "pair_r_hi": 1.0,
    "sf_slope_band": [3.5, 4.5],
    "riesz_slope_band": [1.7, 2.3],
    "beta_slope_band": [1.7, 2.3],
    "gap_band": [1.5, 2.5],
    "l_stability_band": 0.05,
    "l_double_factor": 2.0,
}


def run_tent_counterexample(config: dict | None = None, threads: int = 1) -> SweepResult:
    """Tent-curve sweep: square-function energy ~ sin^4, sup Riesz energy and
    beta_2 energy ~ sin^2 of the tent slope angle.

    Functionals are window-restricted (the atoms evaluated sit far enough from
    the truncated curve ends that no queried ball leaves the sampled range) and
    use discrete sums only; each is recomputed with the half extent doubled to
    confirm the truncation does not matter.
    """
    cfg = _merge_config(TENT_DEFAULTS, config, "tent-counterexample")
    alphas = [float(a) for a in cfg["alpha_list"]]
    if len(alphas) < 4:
        raise ValueError("need at least 4 alpha values for the slope fits")
    for a in alphas:
        if not 0 < a <= math.pi / 4:
            raise ValueError("alpha values must lie in (0, pi/4]")
    L0 = float(cfg["half_extent"])
    q = float(cfg["q"])
    sf_lo, sf_hi = float(cfg["sf_r_lo"]), float(cfg["sf_r_hi"])
    pr_lo, pr_hi = float(cfg["pair_r_lo"]), float(cfg["pair_r_hi"])
    window = L0 - 2.0 * max(sf_hi, pr_hi) * q
    if window <= 1.0:
        raise ValueError("half_extent too small for the scale caps: "
                         "window would not clear the tent")
    L_values = [L0, L0 * float(cfg["l_double_factor"])]

    def window_mask(m):
        return np.flatnonzero(np.abs(m.points[:, 0]) <= window)

    def one(args):
        a, L = args
        sf_grid = msc.ScaleGrid(sf_lo, sf_hi, q)
        pair_grid = msc.ScaleGrid(pr_lo, pr_hi, q)
        # mu_alpha reweights the arc-length curve: one query gives both
        g_fine = ms.build_gamma_curve(a, L, float(cfg["sf_spacing"]))
        sf_g, sf_m = [rep.discrete_total for rep in msc._energies(
            (g_fine, g_fine.reweighted(ms.mu_alpha_factors(a))), 1.0, (sf_grid,), 2.0,
            ("square_function",), window_mask(g_fine), msc.DEFAULT_KAPPA)]
        g_rz = ms.build_gamma_curve(a, L, float(cfg["riesz_spacing"]))
        rz_rep = rz.sup_riesz_energy(g_rz, 1.0, pair_grid,
                                     eval_indices=window_mask(g_rz))
        m_bt = ms.build_gamma_curve(a, L, float(cfg["spacing"]),
                                    weighting="mu_alpha")
        bt_rep = bt.beta_energy(m_bt, pair_grid, p=2.0,
                                eval_indices=window_mask(m_bt))
        return {"alpha": a, "sin_alpha": math.sin(a), "half_extent": L,
                "sf": sf_g, "sf_mu": sf_m, "sup_riesz": rz_rep.energy_at_best,
                "beta2": bt_rep.total, "riesz_eps1": rz_rep.best_pair.eps1,
                "riesz_eps2": rz_rep.best_pair.eps2}

    jobs = [(a, L) for L in L_values for a in alphas]
    outs = _map_ordered(one, jobs, threads)
    base = outs[:len(alphas)]
    doubled = outs[len(alphas):]
    sin_a = [math.sin(a) for a in alphas]

    # raw column -> key of totals and fits
    energies = {"sf": "square_function", "sup_riesz": "sup_riesz", "beta2": "beta2",
                "sf_mu": "square_function_mu"}
    totals = {label: [r[key] for r in base] for key, label in energies.items()}
    fits = {}
    for label, ys in totals.items():
        slope, intercept, resid = fit_loglog_slope(sin_a, ys)
        fits[label] = {"slope": slope, "intercept": intercept, "residual": resid}

    checks = [_within(f"{label}_slope", fits[label]["slope"], cfg[band_key])
              for label, band_key in (("square_function", "sf_slope_band"),
                                      ("sup_riesz", "riesz_slope_band"),
                                      ("beta2", "beta_slope_band"))]
    checks.append(_within("sf_over_beta_slope_gap", fits["square_function_mu"]["slope"]
                          - fits["beta2"]["slope"], cfg["gap_band"]))
    for name, num, den in (("riesz", "sf", "sup_riesz"), ("beta", "sf_mu", "beta2")):
        ratio = [r[num] / r[den] for r in base]
        checks.append(_check(f"sf_over_{name}_monotone_to_zero", _decreasing(ratio),
                             ratio, "strictly decreasing as alpha shrinks"))
    for name, key in (("sf", "sf"), ("sf_mu", "sf_mu"), ("riesz", "sup_riesz"),
                      ("beta", "beta2")):
        worst, detail = 0.0, None
        for rb, rd in zip(base, doubled):
            rel = abs(rd[key] / rb[key] - 1.0)
            if rel > worst:
                worst, detail = rel, {"alpha": rb["alpha"], "base": rb[key],
                                      "doubled": rd[key]}
        checks.append({**_at_most(f"l_stability_{name}", worst,
                                  float(cfg["l_stability_band"]), strict=True),
                       "value": {"max_rel_change": worst, "worst_case": detail}})

    return SweepResult(
        name="tent-counterexample",
        config=cfg,
        parameters={"alpha": alphas, "sin_alpha": sin_a,
                    "window": window, "half_extents": L_values},
        totals=totals,
        fits=fits,
        checks=checks,
        **_table(outs),
        notes=["energies are window-restricted discrete sums; tails are "
               "truncation artifacts of the infinite model curve and excluded"],
        plot={"series": [{"label": label, "xs": sin_a, "ys": totals[key],
                          "fit": (fits[key]["slope"], fits[key]["intercept"])}
                         for label, key in (("square function", "square_function"),
                                            ("sup Riesz", "sup_riesz"),
                                            ("beta2 energy", "beta2"))],
              "xlabel": "sin(alpha)", "ylabel": "energy",
              "title": "tent-curve energies vs slope angle"},
    )


# ---------------------------------------------------------------------------
# small-s three-way comparability on a Cantor measure

SMALL_S_DEFAULTS = {
    "s": 0.5,
    "dim": 2,
    "depth": 5,
    "drift_depth": 4,
    "q": 1.1,
    "kappa": 4.0,
    "ratio_band": 30.0,
    "drift_band": 0.15,
    "max_radii": 64,
    "near_integer_margin": 0.02,
}


def run_small_s_comparability(config: dict | None = None,
                              threads: int = 1) -> SweepResult:
    """sup Riesz, Wolff, and square-function energies on one small-s Cantor
    measure: all three pairwise ratios inside a band, stable under depth."""
    cfg = _merge_config(SMALL_S_DEFAULTS, config, "small-s")
    s, q, kappa = float(cfg["s"]), float(cfg["q"]), float(cfg["kappa"])
    if not 0 < s < 1:
        raise ValueError("small-s comparability requires 0 < s < 1")
    near_integer = min(s - math.floor(s), math.ceil(s) - s) \
        <= float(cfg["near_integer_margin"])

    def one(depth):
        m = ms.build_cantor(int(cfg["dim"]), s, int(depth))
        grid = msc.ScaleGrid.default_for(m, q=q, kappa=kappa)
        sf, wf = msc.square_function_and_wolff_energy(m, s, grid, kappa=kappa)
        rz_rep = rz.sup_riesz_energy(m, s, grid, max_radii=int(cfg["max_radii"]),
                                     kappa=kappa)
        return {"depth": int(depth), "sf_total": sf.total, "wolff_total": wf.total,
                "sup_riesz": rz_rep.energy_at_best}

    rows = _map_ordered(one, [cfg["drift_depth"], cfg["depth"]], threads)
    shallow, deep = rows
    band = float(cfg["ratio_band"])
    column = {"riesz": "sup_riesz", "sf": "sf_total", "wolff": "wolff_total"}
    checks = []
    for a, b in [("riesz", "wolff"), ("riesz", "sf"), ("sf", "wolff")]:
        ratio = deep[column[a]] / deep[column[b]]
        drift = abs(ratio / (shallow[column[a]] / shallow[column[b]]) - 1.0)
        checks += [_check(f"ratio_{a}_over_{b}", 1.0 / band <= ratio <= band, ratio,
                          f"[{1/band:.4g}, {band}]"
                          + (" (reported only: near-integer s)" if near_integer
                             else "")),
                   _at_most(f"drift_{a}_over_{b}", drift, cfg["drift_band"])]
    if near_integer:    # bands reported without pass/fail
        for c in checks:
            c["passed"] = None
    return SweepResult(
        name="small-s",
        config=cfg,
        parameters={"s": s, "depths": [shallow["depth"], deep["depth"]]},
        totals={key: [r[col] for r in rows] for key, col in (
            ("sf", "sf_total"), ("wolff", "wolff_total"), ("sup_riesz", "sup_riesz"))},
        checks=checks,
        **_table(rows),
        notes=(["bands reported without pass/fail: s within "
                f"{cfg['near_integer_margin']} of an integer"] if near_integer
               else []),
        plot={"series": [{"label": name, "xs": [shallow["depth"], deep["depth"]],
                          "ys": [r[key] for r in rows]}
                         for name, key in (("square function", "sf_total"),
                                           ("Wolff", "wolff_total"),
                                           ("sup Riesz", "sup_riesz"))],
              "xlabel": "depth", "ylabel": "energy",
              "title": f"three-way comparability at s={s:g}",
              "logx": False, "logy": True},
    )


# ---------------------------------------------------------------------------
# smoothing identity suite

IDENTITY_DEFAULTS = {
    "n_measures": 20,
    "n_atoms": 100,
    "n_queries": 20,
    "dim": 2,
    "quad_points": 512,
    "profiles": ["gaussian", "bump"],
    "tol": 1e-6,
    "seed": 20240601,
    "s_range": [0.3, 1.7],
    "radius_range": [0.05, 3.0],
}


_PROFILES = {"gaussian": msc.RadialProfile.gaussian, "bump": msc.RadialProfile.bump}


def run_identity_suite(config: dict | None = None, threads: int = 1) -> SweepResult:
    """Random atomic measures and query scales: the smoothed density difference
    must equal the scale integral of the sharp one against the profile's
    derivative, to within the quadrature tolerance."""
    cfg = _merge_config(IDENTITY_DEFAULTS, config, "identity")
    rng = np.random.default_rng(int(cfg["seed"]))
    dim = int(cfg["dim"])
    for name in cfg["profiles"]:
        if name not in _PROFILES:
            raise ValueError(f"unknown profile {name!r}")
    profiles = [(name, _PROFILES[name]()) for name in cfg["profiles"]]
    for _, prof in profiles:
        prof.check_derivative(np.linspace(0.05, prof.support * 0.999, 200))

    jobs = []
    for mi in range(int(cfg["n_measures"])):
        pts = rng.uniform(0.0, 1.0, size=(int(cfg["n_atoms"]), dim))
        w = rng.uniform(0.5, 1.5, size=int(cfg["n_atoms"])) / int(cfg["n_atoms"])
        s = rng.uniform(*[float(v) for v in cfg["s_range"]])
        queries = []
        for qi in range(int(cfg["n_queries"])):
            x = rng.uniform(-0.2, 1.2, size=dim)
            lo, hi = (float(v) for v in cfg["radius_range"])
            R = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            queries.append((x, R))
        jobs.append((mi, pts, w, s, queries))

    def one(job):
        mi, pts, w, s, queries = job
        m = ms.WeightedPointMeasure(pts, w)
        xs, Rs = [x for x, _ in queries], [R for _, R in queries]
        # (lhs, rhs) at every query, one call per profile
        sides = {name: [v.tolist() for v in msc._identity_sides(
            m, prof, xs, Rs, s, int(cfg["quad_points"]))] for name, prof in profiles}
        rows = []
        for qi, R in enumerate(Rs):
            for name, _ in profiles:
                lhs, rhs = (v[qi] for v in sides[name])
                rows.append({"measure": mi, "query": qi, "profile": name, "s": s,
                             "R": R, "residual": msc._identity_residual(m, lhs, rhs, R, s)})
        return rows

    all_rows = [row for rows in _map_ordered(one, jobs, threads) for row in rows]
    max_resid = max(row["residual"] for row in all_rows)
    checks = [_at_most("max_relative_residual", max_resid, cfg["tol"], strict=True)]
    return SweepResult(
        name="identity",
        config=cfg,
        parameters={"n_measures": int(cfg["n_measures"]),
                    "n_queries": int(cfg["n_queries"]),
                    "profiles": list(cfg["profiles"])},
        totals={"max_residual": [max_resid]},
        checks=checks,
        **_table(all_rows),
        plot={"series": [{"label": name,
                          "xs": [r["R"] for r in all_rows if r["profile"] == name],
                          "ys": [max(r["residual"], 1e-19) for r in all_rows
                                 if r["profile"] == name]}
                         for name, _ in profiles],
              "xlabel": "query scale R", "ylabel": "relative residual",
              "title": "smoothing identity residuals"},
    )


EXPERIMENTS = {
    "comparability": (COMPARABILITY_DEFAULTS, run_comparability),
    "integer-degeneracy": (INTEGER_DEFAULTS, run_integer_degeneracy),
    "tent-counterexample": (TENT_DEFAULTS, run_tent_counterexample),
    "small-s": (SMALL_S_DEFAULTS, run_small_s_comparability),
    "identity": (IDENTITY_DEFAULTS, run_identity_suite),
}
