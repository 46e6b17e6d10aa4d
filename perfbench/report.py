"""Run several workloads and seeds through run.py and summarise each metric.

    python3 perfbench/report.py                      # all three workloads, seed 1
    python3 perfbench/report.py --seeds 1-10 --workloads sweep
    python3 perfbench/report.py --trace 1            # per-layer metrics

Each run's own lines (metrics by name and unit, failed checks, accuracy
figures) are echoed.  The summary gives, per workload and metric, the
median and the distance between the first and third quartiles as a
share of the median (statistics.quantiles, n=4).  Exits 1 when any run
reports "correct": false or fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """(lines run.py printed, its JSON result or None when it failed)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=os.path.dirname(HERE),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return lines + proc.stderr.splitlines(), None
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="critical,sweep,boundstates")
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ok = True
    values = {}  # (workload, metric) -> ([values], unit)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            lines, result = run_once(workload, seed, args.seconds, args.trace)
            print(f"== {workload} seed {seed}")
            print("\n".join(lines))
            if result is None:
                ok = False
                continue
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault((workload, name), ([], m["unit"]))[0].append(m["value"])

    print("\nworkload metric: median unit (quartile spread / median, runs)")
    for (workload, name), (vals, unit) in values.items():
        med = statistics.median(vals)
        spread = "-"
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}"
        print(f"{workload} {name}: {med:.6g} {unit} ({spread}, {len(vals)})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
