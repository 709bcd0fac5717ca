#!/usr/bin/env python3
"""Build and run cdfsim's host-performance benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload branchy --seed 1 --seconds 30 --trace 0

The first call configures and builds the simulator libraries and the
driver (perfbench/cdf_perfbench.cc) under .bench_build/perfbench; later
calls only rebuild what changed. Build output is shown, on stderr,
only when the build fails, so the last line of stdout is the driver's
JSON result. Every argument is passed on to the driver; see
perfbench/README.md.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
MAX_JOBS = 4


def build():
    """Configure (once) and build the driver; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(MAX_JOBS, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "cdf_perfbench", "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "cdf_perfbench")


def main():
    exe = build()
    if exe is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
