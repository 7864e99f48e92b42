#!/usr/bin/env python3
"""End-to-end benchmark of the MG-Join simulator: build, run, report.

Run from the repository root:

    python3 perfbench/run.py --workload paper_join --seed 42 --seconds 20 --trace 0

Builds the driver (perfbench/CMakeLists.txt, compiling ../src) into the
directory named by CARGO_TARGET_DIR, default `.bench_build`, then runs
one closed-loop measurement of the workload. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 1 the span log of the traced run is written next to the
build as spans_<workload>_<seed>.json. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Default seed and the held-out seed of every workload (the held-out
# seed is used only by selfcheck.py). serve_fair derives its 16 tenant
# seeds as seed .. seed+15.
WORKLOADS = {
    "paper_join": {"seed": 42, "held_out": 7001},
    "host_join": {"seed": 42, "held_out": 7002},
    "serve_fair": {"seed": 42, "held_out": 7003},
}

# A run measures for --seconds and then finishes its last sample; this
# caps a hung run well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build() -> Path:
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "mgj_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "mgj_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = WORKLOADS[args.workload]["seed"] if args.seed is None else args.seed

    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                str(build_dir() / f"spans_{args.workload}_{seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if run.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        print(f"perfbench: driver failed (exit {run.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
