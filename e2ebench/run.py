#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the library and the e2ebench
driver (Release, into .bench_build/e2ebench), runs the workload in its own
process and relays the driver's report; the last line of standard output is
the driver's JSON result. `--workload all` runs every workload in turn, each
in its own process. Exits non-zero when the build fails, a driver crashes or
times out, or an output check fails. `--scale` and `--plant-mismatch` are
passed through for the smoke test.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("batch_dense_m256", "trace_lowmem_m16", "fleet_sparse_failover")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no library sources to build")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "e2ebench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2ebench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout carries the report only.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir / "e2ebench"


def commit(root):
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--plant-mismatch", action="store_true")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "e2ebench"
    binary = build(root, build_dir)
    workdir = build_dir / "work"
    workdir.mkdir(exist_ok=True)

    failures = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        failures += not run_workload(binary, workload, args, commit(root),
                                     workdir)
    if failures:
        fail(f"{failures} workload run(s) failed")


def run_workload(binary, workload, args, sha, workdir):
    """Runs one workload and relays its report; True iff every check passed."""
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), "--commit", sha,
               "--workdir", str(workdir)]
    if args.plant_mismatch:
        command.append("--plant-mismatch")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return False
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"e2ebench: {workload} exited {proc.returncode} without a result",
              file=sys.stderr)
        return False
    if proc.returncode != 0 or not result["correct"]:
        print(f"e2ebench: {workload} output check failed ({result['failed']} "
              f"of {result['attempted']} operations failed)", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    main()
