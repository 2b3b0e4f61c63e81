#!/usr/bin/env python3
"""Builds the FELIP round benchmark from source and runs one workload.

Run from the repository root:

    python3 roundbench/run.py --workload paper_round --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (CMake, Release) and is incremental, so
only the first run in a checkout compiles the library. Build output goes to
standard error; standard output is the benchmark's report, whose last line
is one JSON object with the result. The exit code is the benchmark's: 0
when every correctness check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper_round", "query_mix")


def build():
    """Configures (once) and builds round_bench; exits on failure."""
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "round_bench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, check=False)
        if result.returncode != 0:
            sys.stderr.write("build failed: %s\n" % " ".join(step))
            sys.exit(result.returncode or 1)
    return os.path.join(cmake_dir, "round_bench")


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "roundbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    sha = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except OSError:
        pass
    return "git:%s tree:%s" % (sha, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [
        binary,
        "--workload=%s" % args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--work-dir=%s" % os.path.join(BUILD, "work"),
        "--out-dir=%s" % os.path.join(BUILD, "out"),
        "--source-id=%s" % source_id(),
    ]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
