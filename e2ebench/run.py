#!/usr/bin/env python3
"""Builds the end-to-end voter benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload iot_fsync --seed 1 --seconds 10 --trace 0

The first call configures and builds e2ebench/ (which compiles the
repository's src/ tree) into .bench_build/; later calls only re-check the
build.  Build output goes to stderr, so the benchmark's last line of
standard output is its JSON result.  Any other arguments (--smoke,
--work-dir) pass through to the benchmark binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "e2e_bench"],
        stdout=sys.stderr, check=True)


def commit():
    """The checkout's git HEAD, or "unknown" outside a git clone."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", os.path.join(BUILD, "e2e-work")]
    command = [BINARY] + args + ["--commit", commit()]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
