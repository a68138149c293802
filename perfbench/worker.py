"""One benchmark process: set up one workload, run whole rounds of it until the
timed rounds add up to the run length, check the outputs, and print one JSON
line. `run.py` starts it; `--setup-only` stops after set-up and reports only
the set-up time.

Set-up runs from `--spawn-ns` (the parent's CLOCK_MONOTONIC reading just
before it started this process) to the first timed operation: interpreter
start, `import densq`, and the workload's inputs.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    setup_s = (_now_ns() - args.spawn_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    # with tracing, rounds alternate untraced / traced, so the overhead is
    # measured in the same process; the first round, which also pays for
    # first calls, is untraced and left out of that comparison
    walls = {False: [], True: []}
    summaries = []
    while (not summaries
           or sum(walls[False]) + sum(walls[True]) < args.seconds * 1e9
           or (tracer is not None and len(walls[False]) < 2)):
        traced = tracer is not None and len(summaries) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter_ns()
        out = workload.run_round()
        dt = time.perf_counter_ns() - t0
        if traced:
            tracer.uninstall()
        if not summaries:
            # the peak of set-up plus one round, as one invocation would see it;
            # later rounds only add allocator fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls[traced].append(dt)
        summaries.append(workload.collect(out))
        # each round stands for one densq invocation: free what it left in
        # reference cycles, so that no round's peak memory carries the last
        del out
        gc.collect()

    errors = workload.check(summaries[0])
    for s in summaries:
        errors.extend(s.get("errors", []))
        if s["json"] != summaries[0]["json"]:
            errors.append("a round's outputs differ from the first round's")
    failed = [s["failed"] for s in summaries]
    if len(set(failed)) != 1:
        errors.append(f"failed operations per round vary: {failed}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    result = {"setup_s": setup_s,
              "round_walls_s": [w / 1e9 for w in walls[False]],
              "peak_rss_mb": peak_rss_mb,
              "attempted": workload.ops_per_round * len(summaries),
              "failed": sum(failed),
              "correct": not errors}
    if tracer is not None:
        result["per_layer"] = tracer.metrics(walls[True], walls[False][1:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
