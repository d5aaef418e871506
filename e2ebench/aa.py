#!/usr/bin/env python3
"""A/A check: run one workload twice on the same code and seed, then print
each end-to-end metric's relative difference next to its bound.

Run from the repository root:

    python3 e2ebench/aa.py mem-fanout --seed 3

The command, run length and bounds come from BENCHMARK.json. Exits 1 when
a run fails or a metric differs by more than its bound.
"""

import argparse
import json
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"run failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    runs = [run_once(bench["command"], opts.workload, opts.seed, bench["run_seconds"])
            for _ in range(2)]
    over = False
    print(f"{'metric':28} {'run A':>14} {'run B':>14} {'diff':>8} {'bound':>7}")
    for m in bench["end_to_end"]:
        a, b = (r["metrics"][m["name"]]["value"] for r in runs)
        diff = abs(b - a) / abs(a) if a else float(b != a)
        flag = "" if diff <= m["bound"] else "  OVER"
        over |= bool(flag)
        print(f"{m['name']:28} {a:14.6g} {b:14.6g} {diff:8.2%} {m['bound']:7.0%}{flag}")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
