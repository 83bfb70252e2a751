#!/usr/bin/env python3
"""Builds and runs the figure-protocol benchmark (see README.md).

    python3 figbench/run.py --workload oblivious --seed 20140623 \
        --seconds 20 --trace 0

Run from anywhere inside a checkout: the script configures a Release
build of figbench (which compiles hetsched from ../src) under
.bench_build/figbench at the checkout root, rebuilds incrementally, and
then runs the benchmark binary. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Exits non-zero when the
build fails, an output check fails, or the run overstays its time limit.
"""
import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def source_digest(root):
    """sha256 over the hetsched and figbench sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "figbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "figbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "figbench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["oblivious", "dataaware", "scenarios",
                                 "traced"])
    parser.add_argument("--seed", type=int, default=20140623)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("figbench: hetsched sources (src/) not found in " + root)
    build_dir = os.path.join(root, ".bench_build", "figbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("figbench: build failed: %s" % e)

    cmd = [os.path.join(build_dir, "figbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", root, "--commit", git_commit(root),
           "--source-digest", source_digest(root)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("figbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
