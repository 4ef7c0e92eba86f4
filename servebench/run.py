#!/usr/bin/env python3
"""Build and run the end-to-end serve benchmark.

Usage, from the repository root:

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the mlad core library and the
benchmark binary (Release) into .bench_build/ at the repository root; later
calls only check that the build is up to date. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. The script exits
with the benchmark's exit code, or 1 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "servebench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("servebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    proc = subprocess.run([os.path.join(BUILD, "servebench")] + sys.argv[1:],
                          cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
