#!/usr/bin/env python3
"""Builds and runs the advirt end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload export|aggregate|served \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library and the perfbench binary are
built from source under $CARGO_TARGET_DIR (default .bench_build) on first
use; later runs only re-check the build.  The generated dataset lives in a
per-run scratch directory there and is removed afterwards.  The last line
of standard output is the benchmark's JSON result; build output goes to
standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["export", "aggregate", "served"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                               or ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    data_dir = os.path.join(out_root, "perfbench-run-%d" % os.getpid())
    # Library defaults only: drop every ADV_* knob from the environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADV_")}
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir,
           "--trace-dir", os.path.join(out_root, "perfbench-traces")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
