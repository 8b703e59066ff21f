#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (a CMake project compiling ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench at the
repository root, then runs the benchmark binary once. Build output goes
to stderr; the binary's last stdout line, one JSON object, is printed
as this script's last line. README.md describes workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures --seconds and then finishes its last pass; past this
# the binary is stopped and the run fails.
RUN_TIMEOUT_S = 175


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    # Snapshots, records and temp files of this run, removed after it.
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    scratch = os.path.join(scratch_root, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    if args.self_test:
        cmd = [exe, "--self-test", "--scratch", scratch]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch,
               "--launch-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    if args.self_test or proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
