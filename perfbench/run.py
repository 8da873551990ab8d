#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The first call configures and builds
perfbench/ (the library plus the ncg_perfbench executable) in Release
mode under $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only rebuild what changed. Each run works in a private directory
under .bench_run/ that is removed when it ends, and a traced run leaves
its spans in .bench_out/spans-<workload>.tsv. The last line of standard
output is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("exact_er", "greedy_trees", "paged_ba", "campaign_small_units")
RUN_TIMEOUT_S = 170


def build(root):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    source_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "ncg_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ncg_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    run_dir = os.path.join(root, ".bench_run",
                           f"{args.workload or 'self-test'}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    if args.self_test:
        command = [binary, "--self-test", "--run-dir", run_dir]
    else:
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--run-dir", run_dir,
                   "--out-dir", out_dir]
    sys.stdout.flush()
    try:
        # Set-up time counts from here: the benchmark process's start.
        command += [] if args.self_test else ["--start-ns",
                                              str(time.monotonic_ns())]
        process = subprocess.Popen(command)
        try:
            code = process.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            print("perfbench: run timed out", file=sys.stderr)
            code = 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
