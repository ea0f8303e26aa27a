#!/usr/bin/env python3
"""Builds and runs the HNS resolution benchmark from the repository root.

    python3 perfbench/run.py --workload warm_remote --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10   # every workload, both modes
    python3 perfbench/run.py --selftest

The benchmark is its own CMake project (perfbench/CMakeLists.txt) that
compiles the repository's src/ tree. It builds into $CARGO_TARGET_DIR when
that is set, else .bench_build, both relative to the working directory.
The last line of standard output is the run's JSON result; a failed build
or run exits non-zero without one.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("warm_linked", "warm_remote", "cold_clients", "churn_rw")


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    # Configure unless a previous configure finished (it writes the build
    # files last, so a failed one is retried).
    generated = [os.path.join(build_dir, name) for name in ("Makefile", "build.ninja")]
    if not any(os.path.exists(path) for path in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.selftest or args.all or args.workload):
        parser.error("--workload, --all or --selftest is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "hnsbench_selftest")]).returncode
    runs = [(args.workload, args.trace)]
    if args.all:
        runs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    status = 0
    for workload, trace in runs:
        command = [
            os.path.join(build_dir, "hnsbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
            "--span-dir", build_dir,
        ]
        returncode = subprocess.run(command).returncode
        status = status or returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
