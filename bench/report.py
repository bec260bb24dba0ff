#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it per workload.

    python3 bench/report.py [--seeds 10] [--workload W ...]
                            [--baseline bench/baseline.json]

For every workload and seeds 1, 2, ... it runs ``bench/run.py`` in its own
process, as ``BENCHMARK.json`` says, and prints each end-to-end metric with
its unit.  With more than one seed it adds each metric's median and its
spread: the distance between the first and third quartiles of the runs as
a share of their median, beside the metric's bound.  ``--baseline`` appends
these medians, quartiles and spreads as one more set to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(results):
    """Median, quartiles and spread of every metric over the seeds."""
    out = {"seeds": len(results),
           "attempted_median": statistics.median(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results), "metrics": {}}
    for metric, first in results[0]["metrics"].items():
        vals = [r["metrics"][metric]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        out["metrics"][metric] = {"unit": first["unit"], "median": round(median, 6),
                                  "q1": round(q1, 6), "q3": round(q3, 6),
                                  "spread": round(spread(vals), 4)}
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--baseline", help="append this set's summary to this JSON file")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summaries = {}
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.seeds + 1):
            start = time.monotonic()
            res = run_once(spec["command"], workload, seed, spec["run_seconds"])
            wall = time.monotonic() - start
            results.append(res)
            values = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                               for k, m in res["metrics"].items())
            print(f"{workload:<11} seed {seed:<4} wall {wall:5.1f} s  "
                  f"attempted {res['attempted']:<5} failed {res['failed']}  "
                  f"correct {res['correct']}  {values}", flush=True)
        if len(results) > 1:
            summaries[workload] = summary(results)
            for metric, bound in bounds.items():
                m = summaries[workload]["metrics"][metric]
                s = m["spread"]
                flag = "ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER")
                print(f"  {workload:<11} {metric:<12} median {m['median']:<12.6g}"
                      f" spread {s:6.3f}  bound {bound:.3f}  {flag}", flush=True)
    if args.baseline:
        baseline = {"sets": []}
        if os.path.exists(args.baseline):
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        baseline["sets"].append({"run_seconds": spec["run_seconds"], "workloads": summaries})
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
