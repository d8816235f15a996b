#!/usr/bin/env python3
"""Build and run one workload of the WAN step-time benchmark.

    python3 wanbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds an
optimized tree of the benchmark and the repository's libraries (from
src/) under $CARGO_TARGET_DIR, or .bench_build when it is unset; later
runs reuse it. Build output goes to <build>/wanbench-build.log, and the
traced run's spans and trace summary to <build>/wanbench-runs/. The
benchmark's stdout is passed through: one line per metric and check,
then the result object as the last line. Exits non-zero, without a
result, when the build or the run fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    return os.path.join(os.path.abspath(base), "wanbench")


def build(tree):
    """Configure (once) and build the benchmark binary; returns its path."""
    if shutil.which("cmake") is None:
        sys.exit("wanbench: cmake is not installed")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(tree, "..", "wanbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "wanbench", "-j", jobs])
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.join(tree, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # Runs may start side by side in one checkout: one build at a time.
    with open(os.path.join(tree, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit("wanbench: build failed: " + " ".join(cmd))
    return os.path.join(tree, "wanbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    tree = build_dir()
    binary = build(tree)
    out_dir = os.path.join(tree, "..", "wanbench-runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("wanbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("wanbench: benchmark exited with code %d" % proc.returncode)
    sys.stdout.write(proc.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
