"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload critical --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (the package is imported from
./src, nothing is installed).  The workload runs in a child process
(worker.py) so that set-up time covers interpreter start and imports;
two more children that stop after imports, inputs and potentials give
the set-up its median.  With --trace 0 the last line carries the
end-to-end metrics, with --trace 1 the per-layer ones.  Everything
else the run learns (environment, failed checks, accuracy figures) is
printed above that line and saved under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("critical", "sweep", "boundstates")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Worker:
    """One worker process; times spawn -> READY and collects RESULT."""

    def __init__(self, args, deadline: float, setup_only: bool):
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT,
        ]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.ready_s = None
        self.result = None

    def finish(self) -> int:
        """Read the protocol lines to the end; kill the worker past the deadline."""
        killer = threading.Timer(max(0.0, self.deadline - time.perf_counter()), self.proc.kill)
        killer.start()
        try:
            for line in self.proc.stdout:
                if line.strip() == "READY" and self.ready_s is None:
                    self.ready_s = time.perf_counter() - self.t0
                elif line.startswith("RESULT "):
                    self.result = json.loads(line[len("RESULT "):])
                else:
                    sys.stderr.write(line)
            return self.proc.wait()
        finally:
            killer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def main() -> int:
    ap = argparse.ArgumentParser(description="threshold-dirac campaign benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "threshold_dirac", "__init__.py")):
        return fail(f"no package source under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(args, deadline, setup_only=True)
        if w.finish() != 0 or w.ready_s is None:
            return fail("set-up worker failed")
        setups.append(w.ready_s)
    w = Worker(args, deadline, setup_only=False)
    code = w.finish()
    if code != 0 or w.result is None or w.ready_s is None:
        return fail(f"worker exited with {code} and no result")
    setups.append(w.ready_s)
    res = w.result
    res["git_sha"] = git_sha()
    res["setup_samples_s"] = setups
    res["setup_s"] = statistics.median(setups) + res["search_s"]

    for f in res["failures"] + res["harness_failures"]:
        print(f"FAILED {f}")
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    print(f"# env {json.dumps(res['env'])} git_sha={res['git_sha']}")
    print(f"# {args.workload} seed {args.seed}: {res['campaigns']} campaign(s), "
          f"inputs {json.dumps(res['inputs'])}")
    shown = dict(metrics)
    shown["failed_frac"] = {"value": failed / attempted if attempted else 1.0, "unit": "ratio"}
    for key, value in res["extras"].items():
        shown[key] = {"value": value, "unit": "ratio"}
    if args.trace:
        shown["traced_wall_s"] = {"value": res["traced_wall_s"], "unit": "s"}
    for key, m in shown.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")

    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0 and not res["harness_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
