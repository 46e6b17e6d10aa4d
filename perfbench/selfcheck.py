"""Harness self-check: count metrics repeat exactly across two traced runs.

    python3 perfbench/selfcheck.py --workload boundstates --seed 3

Runs ``run.py --trace 1`` twice with the same seed and compares every
count metric (``*.calls``, ``*.pairs``, ``critical.sigma_probes``,
``probes.sweep.cells``).  Each traced run checks on its own that its
outputs are bit-identical to an untraced campaign of the same seed and
that every wrapper was removed; a failure there shows as
``"correct": false``.  Exits 0 when everything holds.
"""

from __future__ import annotations

import argparse

from report import run_once


def traced_run(workload: str, seed: int) -> dict:
    lines, result = run_once(workload, seed, 1, 1)
    if result is None:
        raise SystemExit("\n".join(["traced run failed:"] + lines))
    return result


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".pairs")) or name in (
        "critical.sigma_probes", "probes.sweep.cells")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    first, second = (traced_run(args.workload, args.seed) for _ in range(2))
    ok = first["correct"] and second["correct"]
    if not ok:
        print("a traced run reported correct = false (outputs or unwrapping)")
    for name, m in sorted(first["metrics"].items()):
        if is_count(name):
            other = second["metrics"][name]["value"]
            same = m["value"] == other
            ok &= same
            print(f"{'ok  ' if same else 'DIFF'} {name}: {m['value']} / {other}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
