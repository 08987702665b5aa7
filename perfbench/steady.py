#!/usr/bin/env python3
"""Steadiness check for the srs_serve benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--seed-base 1]
                                [--workloads topk_cold,fullrow_cold,topk_hot]
                                [--trace 0|1] [--raw]

Runs each workload --runs times through perfbench/run.py (for
BENCHMARK.json's run_seconds unless --seconds is given), run i with seed
seed-base + i, alternating the workload order between runs (forward on
even runs, reversed on odd ones) so slow drift of the host does not land
on one workload. Prints every run's host fingerprint line, then per
workload and metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. Exits 1 if any run failed or reported incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host:")), "host: ?")
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        return host, None
    return host, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads",
                        default="topk_cold,fullrow_cold,topk_hot")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--raw", action="store_true",
                        help="also print every run's value of each metric")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {w: {} for w in workloads}
    failed_share = {w: set() for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            host, result = run_once(w, args.seed_base + i, seconds,
                                    args.trace)
            print("run %d %s seed %d: %s" % (i, w, args.seed_base + i, host),
                  flush=True)
            if result is None or not result["correct"]:
                print("  FAILED: %s" % (result,), flush=True)
                ok = False
                continue
            failed_share[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])

    print()
    print("%-14s %-32s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        print("%-14s failed share per run: %s" %
              (w, sorted(failed_share[w])))
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("%-14s %-32s %12.6g %12.6g %12.6g %8.4f %6s" %
                  (w, name, med, q1, q3, spread,
                   "" if bound is None else bound))
            if args.raw:
                print("    " + " ".join("%.4g" % v for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
