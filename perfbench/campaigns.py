"""The three benchmark campaigns, their seeded inputs and their checks.

Each campaign is built from the package's public functions the way the
CLI and the experiment scripts build it.  ``prepare`` and ``finish_setup``
make the set-up (potentials, radial root, the set-up critical search);
``run_campaign`` runs one campaign and returns what it measured and
which checks failed.  Every workload runs at n = 9 (257 support nodes,
1028 unknowns).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from threshold_dirac import configio as cio
from threshold_dirac.critical import (
    decay_decomposition,
    extend_to_grid,
    find_critical_coupling,
)
from threshold_dirac.forms import compute_forms, gamma_spectrum, taylor_form
from threshold_dirac.potentials import Grid3, build_potential
from threshold_dirac.probes import SweepPlan, boundstate_track, resonance_sweep
from threshold_dirac.radial import RadialWell, critical_coupling

WORKLOADS = ("critical", "sweep", "boundstates")

NODES = 9
# Values the package gives at n = 9; the checks hold later versions to them.
G_STAR_A = -1.2954574410  # cell-averaged oracle-compare well, lambda-bar 1
G_STAR_B = 5.9375735328  # bound-class smooth well, lambda-bar 0
G_STAR_REL = 1e-8
GAMMA_1 = -1.09495131
GAMMA_REL = 1e-6
DECAY_EXPONENT = -2.0
DECAY_TOL = 0.15
BRACKET_A = (-1.6, -1.0)
BRACKET_B = (5.0, 7.0)
BRACKET_JITTER = 0.02
# boundstates.ini settings
KAPPA_RANGE = (0.02, 0.3)
N_KAPPA = 200


@dataclass
class Context:
    """Inputs and set-up products of one workload process."""

    workload: str
    out_dir: str
    inputs: dict
    shapes: dict = field(default_factory=dict)
    oracle_root: float | None = None
    crit: object = None
    B0: object = None


@dataclass
class Outcome:
    """What one campaign produced: op counts, failed checks, output digest."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    digest: str = ""


def make_inputs(workload: str, seed: int) -> dict:
    """Seeded campaign inputs; the package only ever sees these values."""
    rng = np.random.default_rng(seed)
    if workload == "critical":
        def jitter(bracket):
            lo, hi = bracket
            u = rng.uniform(-BRACKET_JITTER, BRACKET_JITTER, size=2)
            return (lo * (1.0 + u[0]), hi * (1.0 + u[1]))

        return {"bracket_a": jitter(BRACKET_A), "bracket_b": jitter(BRACKET_B)}
    if workload == "sweep":
        return {
            "mus": tuple(np.sort(rng.uniform(0.004, 0.05, size=4)).tolist()),
            "ks": tuple(np.sort(rng.uniform(0.08, 0.25, size=2)).tolist()),
        }
    if workload == "boundstates":
        return {"mus": tuple(np.sort(rng.uniform(-0.018, -0.002, size=5))[::-1].tolist())}
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, out_dir: str) -> Context:
    """Inputs, potentials and (critical workload) the radial oracle root."""
    ctx = Context(workload, out_dir, make_inputs(workload, seed))
    grid = Grid3(1.0, NODES)
    ctx.shapes["b"] = build_potential(grid, "spherical-well", 1.0, 1.0)
    if workload == "critical":
        ctx.shapes["a"] = build_potential(
            grid, "spherical-well", 1.0, 1.0, w=0.12, cell_average=True, subsamples=5
        )
        ctx.oracle_root = critical_coupling(RadialWell(1.0, 1.0, -1, 0.0), BRACKET_A)
    else:
        # the perturbation direction of reference.ini / boundstates.ini
        ctx.B0 = build_potential(grid, "spherical-well", 1.0, 1.0)
    return ctx


def finish_setup(ctx: Context) -> None:
    """The set-up critical search of the sweep and boundstates workloads."""
    if ctx.workload != "critical":
        ctx.crit = find_critical_coupling(ctx.shapes["b"], BRACKET_B)


class _Checker:
    def __init__(self, outcome: Outcome):
        self.outcome = outcome

    def check(self, name: str, passed: bool, detail: str) -> None:
        if not passed:
            self.outcome.failures.append(f"{name}: {detail}")


def _op(outcome: Outcome, name: str, fn) -> None:
    """Run one operation; an exception or a failed check marks it failed."""
    outcome.attempted += 1
    before = len(outcome.failures)
    try:
        fn(_Checker(outcome))
    except Exception as exc:  # a campaign must report, not crash
        outcome.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
    if len(outcome.failures) > before:
        outcome.failed += 1


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class _Digest:
    """sha256 over every output value, floats by their exact bits."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, np.ndarray):
                self.h.update(np.ascontiguousarray(v).tobytes())
            elif isinstance(v, bytes):
                self.h.update(v)
            elif isinstance(v, float):
                self.h.update(v.hex().encode())
            else:
                self.h.update(repr(v).encode())


def _campaign_critical(ctx: Context, out: Outcome, dig: _Digest) -> None:
    cases = (
        ("a", ctx.inputs["bracket_a"], G_STAR_A, 1),
        ("b", ctx.inputs["bracket_b"], G_STAR_B, 0),
    )
    found = {}
    for label, bracket, g_ref, lam_bar in cases:
        def search(c, label=label, bracket=bracket, g_ref=g_ref, lam_bar=lam_bar):
            crit = find_critical_coupling(ctx.shapes[label], bracket)
            found[label] = crit
            dig.add(crit.g_star, crit.sigma_min, crit.dim, crit.lambda_bar)
            for phi in crit.basis:
                dig.add(phi.values)
            c.check(f"critical.{label}.g_star", _rel(crit.g_star, g_ref) <= G_STAR_REL,
                    f"g* = {crit.g_star!r}, want {g_ref!r} to {G_STAR_REL:g} relative")
            c.check(f"critical.{label}.dim", crit.dim == 2, f"dim = {crit.dim}, want 2")
            c.check(f"critical.{label}.lambda_bar", crit.lambda_bar == lam_bar,
                    f"lambda-bar = {crit.lambda_bar}, want {lam_bar}")

        _op(out, f"critical.{label}", search)
    if "a" in found:
        root = ctx.oracle_root
        out.extras["oracle_gap"] = abs(found["a"].g_star - root) / abs(root)


def _campaign_sweep(ctx: Context, out: Outcome, dig: _Digest) -> None:
    crit, B0 = ctx.crit, ctx.B0
    A = crit.critical_potential()
    state = {}

    def decay(c):
        # the classify CLI's grid when a config has no [eval]; the second
        # basis state is the Kramers partner and decays identically
        ext = extend_to_grid(crit, crit.basis[0], Grid3(4.0 * A.radius, 33))
        rep = decay_decomposition(ext, A, crit.lambda_values[0])
        dig.add(ext.values, rep["exponent_phi"], rep["exponent_phi1"])
        for key in ("exponent_phi", "exponent_phi1"):
            e = rep[key]
            c.check(f"sweep.decay.{key}", abs(e - DECAY_EXPONENT) <= DECAY_TOL,
                    f"{e:.4f}, want {DECAY_EXPONENT} +- {DECAY_TOL}")

    def forms(c):
        state["forms"] = f = compute_forms(crit, B0)
        dig.add(f.Q1, f.R, f.S, f.gammas)
        g1 = float(f.gammas[0])
        c.check("sweep.forms.gamma_1", _rel(g1, GAMMA_1) <= GAMMA_REL,
                f"gamma_1 = {g1!r}, want {GAMMA_1!r} to {GAMMA_REL:g} relative")

    def sweep(c):
        plan = SweepPlan(crit, B0, mus=ctx.inputs["mus"], ks=ctx.inputs["ks"], js=(1, 2))
        state["sweep"] = res = resonance_sweep(plan)
        rows = [
            (r.sup_norm, r.n_part_norm, r.residual_part, r.predicted_bound, r.n_part_l2)
            for r in res.records
        ]
        dig.add(np.array(rows), res.fit_constant, res.fit_constant_l2)
        want = len(plan.mus) * len(plan.ks) * len(plan.js)
        c.check("sweep.records", len(res.records) == want,
                f"{len(res.records)} records, want {want}")
        c.check("sweep.finite", bool(np.all(np.isfinite(rows))), "non-finite record field")
        flagged = sum(r.at_resonance for r in res.records)
        c.check("sweep.flagged", flagged == 0, f"{flagged} cells flagged at resonance")

    def csv(c):
        tmp = tempfile.mkdtemp(prefix="sweep-", dir=ctx.out_dir)
        try:
            res = state["sweep"]
            rows = [
                (r.mu, r.k, r.j, r.sup_norm, r.n_part_norm, r.residual_part,
                 r.predicted_bound, r.at_resonance)
                for r in res.records
            ]
            cio.write_records_csv(os.path.join(tmp, "records.csv"), res.records)
            cio.write_dat(os.path.join(tmp, "records.dat"), cio.RECORD_COLUMNS, rows)
            cio.write_forms_csv(os.path.join(tmp, "forms.csv"), state["forms"])
            for name in ("records.csv", "records.dat", "forms.csv"):
                with open(os.path.join(tmp, name), "rb") as fh:
                    data = fh.read()
                dig.add(data)
                c.check(f"sweep.csv.{name}", len(data) > 0, "empty file")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    for name, fn in (("sweep.decay", decay), ("sweep.forms", forms),
                     ("sweep.sweep", sweep), ("sweep.csv", csv)):
        _op(out, name, fn)


def _campaign_boundstates(ctx: Context, out: Outcome, dig: _Digest) -> None:
    crit, B0 = ctx.crit, ctx.B0
    mus = ctx.inputs["mus"]
    plan = SweepPlan(crit, B0, mus=mus, ks=(0.1,), n_kappa=N_KAPPA,
                     kappa_range=KAPPA_RANGE, bound_mode="eigen")
    state = {}

    def gamma(c):
        R = taylor_form(crit.critical_potential(), crit, 2)
        state["g1"] = g1 = float(gamma_spectrum(crit, B0, R).gammas[0])
        dig.add(g1)
        c.check("boundstates.gamma_1", _rel(g1, GAMMA_1) <= GAMMA_REL,
                f"gamma_1 = {g1!r}, want {GAMMA_1!r}")

    _op(out, "boundstates.gamma", gamma)
    for ladder, want in ((mus, 1), (tuple(-m for m in mus), 0)):
        label = "ladder" if want else "opposite"
        try:
            records = boundstate_track(replace(plan, mus=ladder))
        except Exception as exc:  # every mu of the ladder fails with it
            for mu in ladder:
                out.attempted += 1
                out.failed += 1
                out.failures.append(f"boundstates.{label}[{mu:+.5f}]: raised {type(exc).__name__}: {exc}")
            continue
        for r in records:
            dig.add(r.mu, r.kappa, r.E, r.sigma_min)
        if want:
            state["records"] = records
        for mu in ladder:
            def per_mu(c, mu=mu):
                n = sum(1 for r in records if r.mu == mu)
                c.check(f"boundstates.{label}[{mu:+.5f}]", n == want,
                        f"{n} crossings, want {want}")

            _op(out, f"boundstates.{label}", per_mu)

    def csv(c):
        tmp = tempfile.mkdtemp(prefix="boundstates-", dir=ctx.out_dir)
        try:
            records = state.get("records", [])
            rows = [(r.mu, r.kappa, r.kappa_sq, r.E, r.sigma_min) for r in records]
            cio.write_boundstates_csv(os.path.join(tmp, "boundstates.csv"), records)
            cio.write_dat(os.path.join(tmp, "boundstates.dat"), cio.BOUNDSTATE_COLUMNS, rows)
            for name in ("boundstates.csv", "boundstates.dat"):
                with open(os.path.join(tmp, name), "rb") as fh:
                    dig.add(fh.read())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    _op(out, "boundstates.csv", csv)
    records = state.get("records")
    if records and "g1" in state:
        ksq = np.array([r.kappa_sq for r in records])
        mu_arr = np.array([r.mu for r in records])
        slope = float(np.sum(ksq * mu_arr) / np.sum(ksq * ksq))
        out.extras["line_slope_err"] = abs(slope - state["g1"]) / abs(state["g1"])


_CAMPAIGNS = {
    "critical": _campaign_critical,
    "sweep": _campaign_sweep,
    "boundstates": _campaign_boundstates,
}


def run_campaign(ctx: Context) -> Outcome:
    out = Outcome()
    dig = _Digest()
    _CAMPAIGNS[ctx.workload](ctx, out, dig)
    out.digest = dig.h.hexdigest()
    return out
