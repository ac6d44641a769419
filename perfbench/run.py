#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ssb_prejoined --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Traced runs (--trace 1) also
write their span table as JSON under <build dir>/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "3",
                    "--target", "pimbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pimbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
