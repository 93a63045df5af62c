#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

    python3 wallbench/run.py --workload <name|all> [--seed N | --held-out]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark is configured and built from
source into .bench_build/wallbench on first use (build output goes to
stderr). Each workload runs in its own process, with the offered rate and
default seeds of its definition in wallbench/src/workloads.cpp. The last
line a workload prints is its JSON result. An untraced run reports setup_s
as the median over SETUP_SAMPLES fresh processes: the measured one and
others that only set up. Exits non-zero when the build fails, when a
workload's outputs differ from the original-mode reference, or on bad usage.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "wallbench"
BINARY = str(BUILD / "wallbench")

# Set-up runs once per process, so that its one-time costs always count;
# the median of a few processes steadies it.
SETUP_SAMPLES = 5


def build() -> bool:
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "wallbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"wallbench: cannot run {step[0]}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def run_workload(name: str, seed_args: list, args) -> int:
    workload = ["--workload", name, *seed_args]
    command = [BINARY, *workload,
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--span-dir", str(ROOT / ".bench_build" / "spans")]
    sys.stdout.flush()
    if args.trace:
        return subprocess.run(command).returncode
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout, end="")
        return done.returncode or 1
    result = json.loads(lines[-1])
    samples = [result["metrics"]["setup_s"]["value"]]
    for _ in range(SETUP_SAMPLES - 1):
        cold = subprocess.run([BINARY, *workload, "--setup-only"],
                              stdout=subprocess.PIPE, text=True)
        if cold.returncode != 0:
            print(f"wallbench: set-up of {name} failed", file=sys.stderr)
            return cold.returncode
        samples.append(json.loads(cold.stdout.splitlines()[-1])["setup_s"])
    result["metrics"]["setup_s"]["value"] = statistics.median(samples)
    print("\n".join(lines[:-1]))
    print("  setup_s samples, one per process: " +
          " ".join(f"{s:.4f}" for s in samples))
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int,
                       help="workload seed (default: the workload's own)")
    seeds.add_argument("--held-out", action="store_true",
                       help="use the workload's held-out seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("wallbench: build failed", file=sys.stderr)
        return 2

    if args.workload == "all":
        listed = subprocess.run([BINARY, "--list"], stdout=subprocess.PIPE,
                                text=True, check=True)
        names = listed.stdout.split()
    else:
        names = [args.workload]
    seed_args = (["--seed", str(args.seed)] if args.seed is not None
                 else ["--held-out"] if args.held_out else [])
    status = 0
    for name in names:
        status = max(status, run_workload(name, seed_args, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
