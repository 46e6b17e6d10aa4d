"""One workload process: set-up, campaigns, and (with --trace 1) the traced run.

Protocol on stdout: a line ``READY`` once imports, inputs and potentials
are done, then one line ``RESULT <json>`` at the end.  run.py starts
this process and times it; nothing else should call it.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

import threshold_dirac  # noqa: E402
from threshold_dirac import configio, critical, forms, kernel, potentials, probes, radial, solver  # noqa: E402

import campaigns  # noqa: E402
from tracer import Tracer  # noqa: E402

# Stop a run from starting another campaign past this point, so a
# worker always ends well inside the 180 s a run may take.
_HARD_STOP_S = 150.0
_PAIR_BYTES = 16 * 16  # one 4x4 complex128 block per target-source pair


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _pairs_blocks(tracer, args, kwargs, result):
    tracer.count("solver.assemble_kernel_blocks.pairs", result.shape[0] * result.shape[1])


def _pairs_rows(tracer, args, kwargs, result):
    A = args[2] if len(args) > 2 else kwargs["A"]
    tracer.count("solver.apply_kernel_rows.pairs", result.shape[0] * len(A.support_indices()))


def _lu_flops(tracer, args, kwargs, result):
    n = result[0].shape[0]
    # complex LU: 8/3 n^3 real flops (computed, not measured)
    tracer.count("linalg.lu_factor.gflop", 8.0 / 3.0 * n**3 / 1e9)


def _sweep_cells(tracer, args, kwargs, result):
    tracer.count("probes.sweep.cells", len(result.records))
    tracer.count("probes.sweep.flagged", sum(r.at_resonance for r in result.records))


def _crossings(tracer, args, kwargs, result):
    plan = args[0] if args else kwargs["plan"]
    tracer.count("probes.crossings.requested", len(plan.mus))
    tracer.count("probes.crossings.found", len({r.mu for r in result}))


def _written(tracer, args, kwargs, result):
    tracer.count("configio.bytes", os.path.getsize(args[0]))


def make_tracer() -> Tracer:
    """Tracer over the public functions each per-layer metric reads."""
    t = Tracer("threshold_dirac", extra_modules=(campaigns,))
    t.wrap("kernel.self_cell_integral", kernel, "self_cell_integral")
    t.wrap("solver.assemble_kernel_blocks", solver, "assemble_kernel_blocks", _pairs_blocks)
    t.wrap("solver.apply_kernel_rows", solver, "apply_kernel_rows", _pairs_rows)
    t.wrap("solver.contract_potential", solver, "contract_potential")
    t.wrap("solver.assemble_T", solver, "assemble_T")
    t.wrap("solver.smallest_singular_value", solver, "smallest_singular_value")
    t.wrap("critical.sigma_min_at", critical, "sigma_min_at")
    t.wrap("critical.find_critical_coupling", critical, "find_critical_coupling")
    t.wrap("critical.extend_to_grid", critical, "extend_to_grid")
    t.wrap("critical.decay_decomposition", critical, "decay_decomposition")
    t.wrap("forms.compute_forms", forms, "compute_forms")
    t.wrap("forms.taylor_form", forms, "taylor_form")
    t.wrap("probes.resonance_sweep", probes, "resonance_sweep", _sweep_cells)
    t.wrap("probes.boundstate_track", probes, "boundstate_track", _crossings)
    t.wrap("potentials.build_potential", potentials, "build_potential")
    t.wrap("radial.critical_coupling", radial, "critical_coupling")
    for name in ("write_records_csv", "write_dat", "write_forms_csv", "write_boundstates_csv"):
        t.wrap("configio", configio, name, _written)
    t.wrap("linalg.lu_factor", scipy.linalg, "lu_factor", _lu_flops)
    t.wrap("linalg.lu_solve", scipy.linalg, "lu_solve")
    t.wrap("linalg.svd", np.linalg, "svd")
    t.wrap("linalg.eigs", scipy.sparse.linalg, "eigs")
    t.wrap("linalg.lstsq", np.linalg, "lstsq")
    return t


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """The per-layer metrics, keyed by the names BENCHMARK.json lists."""
    stats = tracer.layer_stats()
    cnt = tracer.counters

    def st(name, key):
        s = stats.get(name)
        return 0 if s is None else s[key]

    def pct_ms(name, q):
        durs = stats.get(name, {}).get("durations", [])
        if not durs:
            return 0.0
        return 1e3 * float(np.percentile(durs, q))

    def frac(num, den):
        return cnt[num] / cnt[den] if cnt[den] else 0.0

    m = {
        "kernel.self_cell_integral.calls": (st("kernel.self_cell_integral", "calls"), "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "critical.sigma_probes": (st("critical.sigma_min_at", "calls"), "count"),
        "solver.assemble_kernel_blocks.pairs": (int(cnt["solver.assemble_kernel_blocks.pairs"]), "count"),
        "solver.assemble_kernel_blocks.computed_mb": (
            cnt["solver.assemble_kernel_blocks.pairs"] * _PAIR_BYTES / 1e6, "MB"),
        "solver.apply_kernel_rows.pairs": (int(cnt["solver.apply_kernel_rows.pairs"]), "count"),
        "solver.smallest_singular_value.p50_ms": (pct_ms("solver.smallest_singular_value", 50), "ms"),
        "solver.smallest_singular_value.p90_ms": (pct_ms("solver.smallest_singular_value", 90), "ms"),
        "linalg.lu_factor.computed_gflop": (cnt["linalg.lu_factor.gflop"], "GFLOP"),
        "probes.sweep.cells": (int(cnt["probes.sweep.cells"]), "count"),
        "probes.sweep.flagged_frac": (frac("probes.sweep.flagged", "probes.sweep.cells"), "ratio"),
        "probes.crossings.found_frac": (
            frac("probes.crossings.found", "probes.crossings.requested"), "ratio"),
        "configio.bytes": (int(cnt["configio.bytes"]), "bytes"),
    }
    for name, fields in (
        ("solver.assemble_kernel_blocks", ("calls", "busy_s", "self_s")),
        ("solver.apply_kernel_rows", ("calls", "busy_s")),
        ("solver.contract_potential", ("busy_s",)),
        ("solver.assemble_T", ("calls",)),
        ("solver.smallest_singular_value", ("calls", "busy_s")),
        ("linalg.lu_factor", ("calls", "busy_s")),
        ("linalg.svd", ("calls", "busy_s")),
        ("linalg.lu_solve", ("calls", "busy_s")),
        ("linalg.eigs", ("calls", "busy_s")),
        ("linalg.lstsq", ("calls",)),
        ("critical.find_critical_coupling", ("calls", "busy_s", "self_s")),
        ("critical.extend_to_grid", ("busy_s",)),
        ("critical.decay_decomposition", ("busy_s",)),
        ("forms.compute_forms", ("busy_s",)),
        ("forms.taylor_form", ("calls", "busy_s")),
        ("probes.resonance_sweep", ("busy_s", "self_s")),
        ("probes.boundstate_track", ("busy_s", "self_s")),
        ("potentials.build_potential", ("busy_s",)),
        ("radial.critical_coupling", ("busy_s",)),
        ("configio", ("busy_s",)),
    ):
        for f in fields:
            m[f"{name}.{f}"] = (st(name, f), "count" if f == "calls" else "s")
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threshold_dirac": threshold_dirac.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "THRESHOLD_DIRAC_THREADS": os.environ.get("THRESHOLD_DIRAC_THREADS"),
    }


def _timed_campaign(ctx):
    w0, c0 = time.perf_counter(), _cpu_s()
    outcome = campaigns.run_campaign(ctx)
    return outcome, time.perf_counter() - w0, _cpu_s() - c0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=campaigns.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if os.path.dirname(os.path.abspath(threshold_dirac.__file__)) != os.path.join(ROOT, "src", "threshold_dirac"):
        print(f"threshold_dirac imported from {threshold_dirac.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    tracer = make_tracer() if args.trace else None

    def traced(root):
        return tracer.active(root) if tracer else contextlib.nullcontext()

    with traced("setup"):
        ctx = campaigns.prepare(args.workload, args.seed, args.out)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    s0 = time.perf_counter()
    with traced("setup"):
        campaigns.finish_setup(ctx)
    search_s = time.perf_counter() - s0

    runs = []
    harness_failures = []
    c0 = time.perf_counter()
    while True:
        runs.append(_timed_campaign(ctx))
        now, last_wall = time.perf_counter(), runs[-1][1]
        if args.trace or now - c0 + last_wall > args.seconds:
            break
        if now - _T_START + last_wall > _HARD_STOP_S:
            break
    outcomes = [o for o, _, _ in runs]
    if len({o.digest for o in outcomes}) != 1:
        harness_failures.append("harness.repeatable: campaigns of one seed gave different outputs")
    untraced_wall = statistics.median(w for _, w, _ in runs)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": ctx.inputs,
        "search_s": search_s,
        "campaigns": len(runs),
        "walls_s": [w for _, w, _ in runs],
        "cpus_s": [c for _, _, c in runs],
        "wall_s": untraced_wall,
        "cpu_s": statistics.median(c for _, _, c in runs),
        "extras": outcomes[0].extras,
        "env": environment(),
    }

    if tracer:
        with tracer.active("campaign"):
            traced_outcome, traced_wall, _ = _timed_campaign(ctx)
        outcomes.append(traced_outcome)
        if traced_outcome.digest != outcomes[0].digest:
            harness_failures.append("harness.bit_identical: traced outputs differ from untraced")
        if not tracer.removed_cleanly():
            harness_failures.append("harness.unwrapped: a wrapper was left installed")
        result["traced_wall_s"] = traced_wall
        result["layers"] = layer_metrics(tracer, traced_wall - untraced_wall)
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json"))

    result["attempted"] = sum(o.attempted for o in outcomes)
    result["failed"] = sum(o.failed for o in outcomes)
    result["failures"] = sorted({f for o in outcomes for f in o.failures})
    result["harness_failures"] = harness_failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
