"""densq benchmark runner.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the directory holding `src/densq`).
Each run of a workload starts fresh, single-threaded processes one after the
other: one untimed warm-up, SETUP_PROBES set-up probes, then the worker that
runs the workload's rounds for `--seconds` and checks the outputs. The last
line printed is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics of
the traced run with `--trace 1`). `--workload all` runs every workload and
prefixes each metric with the workload's name.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cantor-dense", "tent-window", "pointwise-cli")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 12
WORKER_TIMEOUT_S = 120


def _child_env():
    env = dict(os.environ)
    # one BLAS / OpenMP thread, and only this checkout's densq on the path
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv, workdir, timeout):
    """Run the worker in a fresh process; return its last output line, parsed."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--workdir", str(workdir),
           "--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, workdir):
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    probe = [*argv, "--setup-only"]
    _spawn(probe, workdir / "warmup", PROBE_TIMEOUT_S)
    setups = [_spawn(probe, workdir / f"probe{k}", PROBE_TIMEOUT_S)["setup_s"]
              for k in range(SETUP_PROBES)]
    res = _spawn([*argv, "--trace", str(trace)], workdir / "run", WORKER_TIMEOUT_S)
    setups.append(res["setup_s"])
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["round_walls_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    rounds = " ".join(f"{w:.3f}" for w in res["round_walls_s"])
    print(f"{name}: untraced rounds=[{rounds}] s attempted={res['attempted']} "
          f"failed={res['failed']} correct={res['correct']} "
          + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items()))
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "densq" / "__init__.py").is_file():
        print(f"error: no densq source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, workdir / n)
                   for n in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
