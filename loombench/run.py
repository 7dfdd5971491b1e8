#!/usr/bin/env python3
"""Build and run the loom benchmark from the root of a checkout.

    python3 loombench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 loombench/run.py --selftest

The benchmark program (src/main.cpp) is built with CMake under $CARGO_TARGET_DIR
(default .bench_build) from this directory's CMakeLists.txt, which builds
the loom library from the checkout's own sources.  Build output goes to
stderr; the program's stdout, whose last line is the JSON result, passes
through unchanged.  Workloads, metrics and seeds: see DESIGN.md.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mutation_campaign", "trace_check", "sharded_workers")
DEFAULT_SEED = 20160314
RUN_TIMEOUT_S = 175


def build(build_dir, targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("loombench: no loom sources next to %s; run from a checkout" % HERE)
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target"]
                   + targets, stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own math tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                 / "loombench")
    try:
        if args.selftest:
            build(build_dir, ["loombench_math_test"])
            return subprocess.run([str(build_dir / "loombench_math_test")]).returncode
        build(build_dir, ["loombench"])
    except subprocess.CalledProcessError as e:
        print("loombench: build failed: %s" % e, file=sys.stderr)
        return 1

    spans_dir = build_dir / "spans"
    spans_dir.mkdir(exist_ok=True)
    command = [str(build_dir / "loombench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out",
                    str(spans_dir / ("%s-seed%d.tsv" % (args.workload, args.seed)))]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("loombench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
