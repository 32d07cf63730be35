#!/usr/bin/env python3
"""Runs one workload of the fannr benchmark from a source checkout.

    python3 perfbench/run.py --workload pipelined-hot --seed 1 \
        --seconds 15 --trace 0

Builds the serving binaries (fannr_server, fannr_router,
fannr_shardplan) and the fannbench load generator from the sources next
to this directory into $CARGO_TARGET_DIR (default .bench_build), then
runs fannbench. Its last stdout line is the result JSON; build output
goes to stderr. Exits non-zero without a result when the sources are
missing, the build fails, or fannbench fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["fannbench", "fannr_server", "fannr_router", "fannr_shardplan"]
WORKLOADS = ["pipelined-hot", "solve-cold", "updates-subs", "routed-hot"]
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target"] + TARGETS +
                   ["-j", str(os.cpu_count() or 2)],
                   stdout=sys.stderr, check=True)
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/fannr_server.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               os.path.join(ROOT, ".bench_build")))
    try:
        cmake_dir = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(cmake_dir, "fannbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--bin-dir", cmake_dir, "--work-dir", work_dir,
               "--source-id", source_id()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: fannbench timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: fannbench exited with {done.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
