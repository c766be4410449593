#!/usr/bin/env python3
"""Build and run bench_perf, the COAXIAL host-performance benchmark.

    python3 bench/perf/run.py --workload ddr-canneal --seed 7 --seconds 10 --trace 0

The repository root is two levels above this file. The first call
configures and builds bench/perf (the simulator library from src/ plus the
benchmark) into $CARGO_TARGET_DIR/bench_perf, default .bench_build/bench_perf,
relative to the repository root; later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is bench_perf's JSON
result. Every argument is passed to bench_perf unchanged.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources under %s/src: run from a full checkout" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, target, "bench_perf")
    os.makedirs(build, exist_ok=True)
    with open(os.path.join(build, "run.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # One build per tree at a time.
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(os.cpu_count() or 1)
        step(["cmake", "--build", build, "--target", "bench_perf", "-j", jobs])
    # Replace this process, so whoever stops the benchmark stops the run.
    binary = os.path.join(build, "bench_perf")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
