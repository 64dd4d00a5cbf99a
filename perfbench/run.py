#!/usr/bin/env python3
"""Builds and runs the logical-statement benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload oltp_mem --seed 1 --seconds 30 --trace 0

Builds perfbench/ (engine sources from src/) with CMake in Release mode
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the benchmark binary and passes its output through. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configures (once) and builds the binary; returns its path or None."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(os.path.join(bdir, "CMakeFiles"),
                              ignore_errors=True)
                try:
                    os.remove(os.path.join(bdir, "CMakeCache.txt"))
                except FileNotFoundError:
                    pass
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(bdir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--smoke", choices=["0", "1"], default="0",
                    help="tiny data set, for the self-test")
    ap.add_argument("--break-check", choices=["0", "1"], default="0",
                    help="corrupt one expected value (self-test)")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        log("build failed")
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--smoke", args.smoke,
           "--break-check", args.break_check,
           "--work-dir", os.path.join(bdir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark exited with %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
