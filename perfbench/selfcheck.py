#!/usr/bin/env python3
"""Self-check of the benchmark on each workload's held-out seed.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seconds 5]

For every workload, runs perfbench/run.py once with tracing off and once
with tracing on, at the held-out seed recorded in run.py (and in the
workload's `why` in BENCHMARK.json), and checks that the correctness
gate passed and that exactly the metrics BENCHMARK.json names were
produced, each with its declared unit. Exits 0 iff every check passed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def check(spec, workload, seed, trace, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return [f"exit code {run.returncode}"]
    result = json.loads(run.stdout.splitlines()[-1])
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"gate failed {result['failed']} of "
                      f"{result['attempted']}")
    if result["attempted"] < 1:
        errors.append("nothing attempted")
    if got != want:
        errors.append(f"metrics differ: missing {sorted(set(want) - set(got))}"
                      f", extra {sorted(set(got) - set(want))}, units "
                      f"{sorted(k for k in want if got.get(k, want[k]) != want[k])}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=5)
    args = ap.parse_args()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    failures = 0
    for workload, seeds in WORKLOADS.items():
        for trace in (0, 1):
            errors = check(spec, workload, seeds["held_out"], trace,
                           args.seconds)
            failures += bool(errors)
            print(f"{workload} seed {seeds['held_out']} trace {trace}: "
                  + ("ok" if not errors else "; ".join(errors)), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
