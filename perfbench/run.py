#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload map-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, Release, no sanitizers, no fault sites); later runs reuse it. The
workload runs in its own process and prints "# " header lines, then one
JSON line with the metrics. The exit code is the benchmark's: 0 when every
answer was right, nonzero otherwise or when the build fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("map-cold", "serve-zipf", "query-range")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Runs are expected to end within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 170


def build(package_dir):
    """Configures and builds the perfbench binary; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    binary = os.path.join(BUILD_DIR, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            subprocess.run(
                ["cmake", "-S", package_dir, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr)
    return binary


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "source-sha1:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        binary = build(package_dir)
        commit = commit_id()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit]
    # A SIGTERM to this script must not orphan the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
