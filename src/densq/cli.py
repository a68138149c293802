"""Command-line front end: generate measures, run single-functional analyses,
run experiment suites.

Exit codes: 0 success (all bands pass), 1 computed but a pass/fail band failed,
2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import measures as ms
from . import multiscale as msc
from . import riesz as rz
from . import betas as bt
from .experiments import EXPERIMENTS


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="densq",
        description="multi-scale density, Wolff, Riesz and beta-number "
                    "energies of discrete measures")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker threads for sweeps (results are identical "
                         "at any thread count)")
    ap.add_argument("--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a measure CSV from a JSON spec")
    g.add_argument("spec", help="path to a measure spec JSON {kind, params, seed}")
    g.add_argument("--out", required=True, help="output CSV path")

    e = sub.add_parser("energy", help="compute one energy functional")
    e.add_argument("measure", help="measure CSV path")
    e.add_argument("--kind", required=True,
                   choices=["sf", "wolff", "riesz-sup", "beta"])
    e.add_argument("--s", type=float, default=None,
                   help="density exponent (sf, wolff, riesz-sup)")
    e.add_argument("--p", type=float, default=2.0, help="integrand power")
    e.add_argument("--r-min", type=float, default=None)
    e.add_argument("--r-max", type=float, default=None)
    e.add_argument("--q", type=float, default=1.1, help="scale grid ratio")
    e.add_argument("--kappa", type=float, default=msc.DEFAULT_KAPPA,
                   help="resolved-scale floor multiplier on min_spacing")
    e.add_argument("--out", required=True, help="output report JSON path")
    e.add_argument("--per-point-csv", default=None,
                   help="optional per-atom contribution dump (sf, wolff)")

    x = sub.add_parser("exp", help="run an experiment suite")
    x.add_argument("name", choices=sorted(EXPERIMENTS))
    x.add_argument("--config", default=None, help="config JSON path")
    x.add_argument("--out-dir", required=True)
    return ap


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cmd_gen(args) -> int:
    measure = ms.MeasureSpec.from_json_dict(_load_json(args.spec)).build()
    measure.save_csv(args.out)
    print(f"atoms: {measure.n_atoms}")
    print(f"total_mass: {measure.total_mass!r}")
    print(f"min_spacing: {measure.min_spacing!r}")
    print(f"support_radius: {measure.support_radius!r}")
    return 0


def _default_grid(measure, args):
    if args.r_min is not None and args.r_max is not None:
        return msc.ScaleGrid(args.r_min, args.r_max, args.q)
    if args.r_min is not None or args.r_max is not None:
        raise ValueError("pass both --r-min and --r-max, or neither")
    return msc.ScaleGrid.default_for(measure, q=args.q, kappa=args.kappa)


def _cmd_energy(args) -> int:
    if args.per_point_csv and args.kind not in ("sf", "wolff"):
        raise ValueError(f"--per-point-csv applies to sf and wolff, not {args.kind}")
    # --s is checked before the CSV is read and the grid built
    if args.kind in ("sf", "wolff", "riesz-sup"):
        if args.s is None:
            raise ValueError(f"--s is required for kind={args.kind}")
        msc._check_s(args.s)
        if args.kind == "sf" and float(args.s) == int(args.s):
            print(f"warning: s={args.s:g} is an integer; the square-function / "
                  "Wolff comparability requires non-integer s (flat measures "
                  "make the square function degenerate); computing anyway",
                  file=sys.stderr)
    measure = ms.WeightedPointMeasure.load_csv(args.measure)
    if args.kind == "beta":
        # the scan budget at one radius, the fewest a grid gives, before the grid
        msc._check_p(args.p)
        bt._check_scan_budget(measure, measure.n_atoms, 1, args.p)
    grid = _default_grid(measure, args)
    if args.kind == "riesz-sup":
        rep = rz.sup_riesz_energy(measure, args.s, grid, kappa=args.kappa)
        obj = rep.to_json_dict()
        obj["params_echo"] = {"measure": args.measure, "grid": grid.summary(),
                              "kappa": args.kappa}
        summary = {"best_energy": rep.energy_at_best,
                   "best_pair": (rep.best_pair.eps1, rep.best_pair.eps2)}
    else:
        if args.kind == "beta":
            rep = bt.beta_energy(measure, grid, p=args.p, kappa=args.kappa)
        else:
            energy = msc.square_function_energy if args.kind == "sf" else msc.wolff_energy
            rep = energy(measure, args.s, grid, p=args.p, kappa=args.kappa)
        obj = rep.to_json_dict()
        summary = {"total": rep.total, "tail": rep.tail}
    ms._write_json(args.out, obj)
    if args.per_point_csv:
        rep.save_per_point_csv(args.per_point_csv)
    print("\n".join(f"{key}: {value!r}" for key, value in summary.items()))
    return 0


def _cmd_exp(args, threads: int, verbose: bool) -> int:
    runner = EXPERIMENTS[args.name][1]
    config = _load_json(args.config) if args.config else None
    result = runner(config, threads=threads)
    result.emit(args.out_dir)
    if verbose:
        print(json.dumps(result.config, sort_keys=True))
    for c in result.checks:
        status = {True: "PASS", False: "FAIL", None: "INFO"}[c["passed"]]
        print(f"[{status}] {c['name']}: value={c['value']} band={c['band']}")
    if result.passed:
        return 0
    failed = ", ".join(c["name"] for c in result.checks if c["passed"] is False)
    print(f"failed bands: {failed}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "energy":
            return _cmd_energy(args)
        return _cmd_exp(args, threads=args.threads, verbose=args.verbose)
    except (ValueError, TypeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
