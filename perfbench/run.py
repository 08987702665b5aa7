#!/usr/bin/env python3
"""Runs one workload of the srs_serve benchmark.

    python3 perfbench/run.py --workload topk_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds srs_serve and the load generator
(perfbench/CMakeLists.txt, Release) into .bench_build/perfbench, then runs
the load generator, whose last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of a run against a child srs_serve;
--trace 1 reports the per-layer metrics of an in-process traced replay of
the same inputs. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then (re)builds; a no-op build takes well under 1 s."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simrank-star sources next to perfbench/ (expected src/)")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench_loadgen", "srs_serve"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path)
    loadgen = os.path.join(BUILD_DIR, "perfbench_loadgen")
    serve = os.path.join(BUILD_DIR, "repo", "tools", "srs_serve")
    for binary in (loadgen, serve):
        if not os.access(binary, os.X_OK):
            fail("build produced no %s" % binary)
    return loadgen, serve


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["topk_cold", "fullrow_cold", "topk_hot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    loadgen, serve = build()
    work_dir = os.path.join(BUILD_ROOT, "work", args.workload)
    command = [loadgen, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--serve", serve,
               "--work-dir", work_dir, "--git-sha", git_sha()]
    sys.stdout.flush()
    code = subprocess.call(command, cwd=ROOT)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
