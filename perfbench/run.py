#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the libraries and the benchmark
program from source into .bench_build/ (Release), runs the self-test of the
benchmark's statistics, then runs one workload in its own process. The last
line of stdout is the program's JSON result; build output goes to stderr.
Exits non-zero without a result when the build, the self-test or the run
fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("mle_mp", "mle_exp", "mle_tlr", "krige_serve")


def run_child(cmd, **kwargs):
    """Run cmd to completion; on an interrupt, stop the child and wait for it."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run_child(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       **quiet)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_child(["cmake", "--build", BUILD, "-j", jobs, "--target", "gsx_perfbench",
                    "perfbench_stats_test"], **quiet)
    if rc != 0:
        return rc
    return run_child([os.path.join(BUILD, "perfbench_stats_test")], **quiet)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    rc = build()
    if rc != 0:
        print(f"perfbench: build or self-test failed ({rc})", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run_child([os.path.join(BUILD, "gsx_perfbench"), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--out-dir", BUILD])


if __name__ == "__main__":
    sys.exit(main())
