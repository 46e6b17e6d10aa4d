"""Command-line interface for the threshold laboratory.

Subcommands

  solve           one generalized eigenfunction, dumped as a field CSV
  kernel-check    derivative kernels vs finite differences, CSV table
  find-critical   critical coupling of a shape inside a bracket
  classify        lambda values, lambda-bar verdict, decay exponents
  forms           Taylor-form matrices and curvature spectrum as CSV
  sweep           divergence-law sweep: records.csv + records.dat
  boundstates     bound-state crossings: boundstates.csv + .dat
  derivatives     k-derivative growth: derivatives.csv + .dat
  inverse-probe   inverse-operator norm probes: inverse.csv + .dat
  oracle-compare  3D criticality vs the radial oracle across refinements

Every output file is deterministic for a fixed config: rerunning a
subcommand reproduces each CSV byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .potentials import Grid3, build_potential
from .kernel import fd_reference, green_dk
from .solver import solve_generalized
from .critical import (
    decay_decomposition,
    extend_to_grid,
    find_critical_coupling,
)
from .forms import compute_forms
from .probes import (
    SweepPlan,
    boundstate_track,
    default_probe_field,
    derivative_bound,
    inverse_bound_probe,
    resonance_sweep,
)
from . import configio as cio

__all__ = ["main", "oracle_convergence", "plan_from_config", "DEFAULT_LEVELS"]

# refinement schedule for oracle-compare: (nodes per axis, edge width,
# cell-average subsamples); the edge shrinks with the spacing so the
# measured coupling converges to the sharp-well root.  The last level
# drops the ramp entirely and leans on cell averaging alone: at n=13 a
# ramp thinner than the spacing only adds bias (measured 4.7% vs 3.9%).
DEFAULT_LEVELS = ((9, 0.12, 5), (11, 0.06, 7), (13, 0.0, 15))
_SHARP_BRACKET = (-1.6, -1.0)


def _add_config_flag(p):
    p.add_argument("--config", required=True, help="key=value INI config file")


def _search(shape, bracket):
    """find_critical_coupling; a search that fails (ValueError) ends the
    command with a one-line message that names the bracket."""
    try:
        return find_critical_coupling(shape, bracket)
    except ValueError as exc:
        raise SystemExit(f"critical search in bracket {bracket[0]}, {bracket[1]}: {exc}")


def _crit_from_config(cfg):
    grid = cio.grid_from_config(cfg)
    bracket = cio.bracket_from_config(cfg)
    if bracket is None:
        raise SystemExit("config section [potential] needs a bracket = lo, hi")
    shape = cio.potential_from_config(cfg, grid, g=1.0)
    return _search(shape, bracket)


def plan_from_config(cfg):
    """The SweepPlan a plan config describes, after its critical search."""
    crit = _crit_from_config(cfg)
    grid = crit.shape.grid
    B0 = cio.potential_from_config(cfg, grid, section="perturbation", g=None)
    kwargs = cio.sweep_kwargs_from_config(cfg)
    kwargs.setdefault("ks", (0.1, 0.2))
    return SweepPlan(
        crit, B0, mus=cio.mus_from_config(cfg), eval_grid=cio.eval_grid_from_config(cfg), **kwargs
    )


def _emit(path: str | None, lines) -> None:
    if path is None:
        for line in lines:
            print(line)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# handlers


def _cmd_solve(args) -> int:
    cfg = cio.load_config(args.config)
    grid = cio.grid_from_config(cfg)
    A = cio.potential_from_config(cfg, grid)
    eval_grid = cio.eval_grid_from_config(cfg)
    kvec = (args.kx, args.ky, args.kz)
    phi, diag = solve_generalized(A, None, args.j, kvec, eval_grid=eval_grid)
    print(
        f"k={np.linalg.norm(kvec):g} j={args.j} sup={diag['sup_norm']:.6e} "
        f"residual={diag['residual']:.3e} at_resonance={diag['at_resonance']}"
    )
    if args.out:
        meta = {
            "L": phi.grid.half_width,
            "n": phi.grid.nodes_per_axis,
            "shape": A.shape,
            "g": A.coupling,
        }
        cio.write_field_csv(args.out, phi.grid, phi.values, meta)
        print(f"wrote {args.out} (+.meta)")
    return 0


def _cmd_kernel_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.samples):
        k = rng.uniform(0.05, 1.2)
        x = rng.normal(size=3)
        x *= rng.uniform(0.1, 1.5) / np.linalg.norm(x)
        for order in (1, 2, 3):
            direct = green_dk(k, x, order)
            ref = fd_reference(k, x, order)
            rel = np.linalg.norm(direct - ref) / max(np.linalg.norm(ref), 1e-300)
            rows.append((k, float(np.linalg.norm(x)), order, rel))
    header = ",".join(("k", "x", "order", "rel_err"))
    lines = [header] + [
        f"{cio.fmt_float(k)},{cio.fmt_float(x)},{o},{cio.fmt_float(e)}"
        for k, x, o, e in rows
    ]
    _emit(args.out, lines)
    worst = max(r[3] for r in rows)
    print(f"# worst rel_err = {worst:.3e} over {args.samples} samples x 3 orders", file=sys.stderr)
    return 0


def _cmd_find_critical(args) -> int:
    if args.config:
        cfg = cio.load_config(args.config)
        grid = cio.grid_from_config(cfg)
        shape_pot = cio.potential_from_config(cfg, grid, g=1.0)
        if args.shape and args.shape != shape_pot.shape:
            shape_pot = build_potential(grid, args.shape, 1.0, shape_pot.radius)
    else:
        grid = Grid3(1.0, 9)
        shape_pot = build_potential(grid, args.shape or "spherical-well", 1.0, 1.0)
    lo, hi = (float(t) for t in args.bracket.replace(",", " ").split())
    crit = _search(shape_pot, (lo, hi))
    # sigma_min: the winner's residual bound ||(1 - g* T-hat) phi|| / ||phi||
    # >= sigma_min(1 - g* T-hat), not a singular value
    lines = [
        "g_star,sigma_min,dim,lambda_bar",
        f"{cio.fmt_float(crit.g_star)},{cio.fmt_float(crit.sigma_min)},{crit.dim},{crit.lambda_bar}",
    ]
    _emit(args.out, lines)
    return 0


def _cmd_classify(args) -> int:
    cfg = cio.load_config(args.config)
    crit = _crit_from_config(cfg)
    A = crit.critical_potential()
    # the decay fit needs shells out to 4R whatever [eval] says
    eval_grid = Grid3(4.0 * A.radius, 33)
    lines = ["p,lambda_abs,exponent_phi,exponent_phi1,lambda_bar"]
    for p, phi in enumerate(crit.basis):
        ext = extend_to_grid(crit, phi, eval_grid)
        rep = decay_decomposition(ext, A, crit.lambda_values[p])
        lam_abs = float(np.linalg.norm(crit.lambda_values[p]))
        lines.append(
            f"{p},{cio.fmt_float(lam_abs)},{cio.fmt_float(rep['exponent_phi'])},"
            f"{cio.fmt_float(rep['exponent_phi1'])},{crit.lambda_bar}"
        )
    _emit(args.out, lines)
    return 0


def _cmd_forms(args) -> int:
    cfg = cio.load_config(args.config)
    crit = _crit_from_config(cfg)
    B0 = None
    if cfg.has_section("perturbation"):
        B0 = cio.potential_from_config(cfg, crit.shape.grid, section="perturbation")
    forms = compute_forms(crit, B0)
    if args.out:
        cio.write_forms_csv(args.out, forms)
        print(f"wrote {args.out}")
    else:
        cio.write_forms_csv("/dev/stdout", forms)
    return 0


def _cmd_sweep(args) -> int:
    cfg = cio.load_config(args.plan)
    plan = plan_from_config(cfg)
    result = resonance_sweep(plan)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "records.csv")
    rows = cio.write_records_csv(csv_path, result.records)
    cio.write_dat(os.path.join(args.out, "records.dat"), cio.RECORD_COLUMNS, rows)
    print(
        f"{len(result.records)} records -> {csv_path}; fitted C = {result.fit_constant:.6g} "
        f"(metric-norm fit {result.fit_constant_l2:.6g}, verdicts "
        f"{'differ' if result.norm_verdict_differs else 'agree'})"
    )
    return 0


def _cmd_boundstates(args) -> int:
    cfg = cio.load_config(args.plan)
    plan = plan_from_config(cfg)
    records = boundstate_track(plan)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "boundstates.csv")
    rows = cio.write_boundstates_csv(csv_path, records)
    cio.write_dat(os.path.join(args.out, "boundstates.dat"), cio.BOUNDSTATE_COLUMNS, rows)
    print(f"{len(records)} crossings -> {csv_path}")
    return 0


def _cmd_derivatives(args) -> int:
    cfg = cio.load_config(args.plan)
    plan = plan_from_config(cfg)
    khat = np.asarray(plan.khat)
    bounds = [
        derivative_bound(plan.crit, plan.B0, mu, k * khat, j=plan.js[0], eval_grid=plan.eval_grid)
        for mu in plan.mus
        for k in plan.ks
    ]
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "derivatives.csv")
    rows = cio.write_derivatives_csv(csv_path, bounds)
    cio.write_dat(os.path.join(args.out, "derivatives.dat"), cio.DERIVATIVE_COLUMNS, rows)
    print(f"{len(bounds)} derivative cells -> {csv_path}")
    return 0


def _cmd_inverse_probe(args) -> int:
    cfg = cio.load_config(args.plan)
    plan = plan_from_config(cfg)
    khat = np.asarray(plan.khat)
    m_perp = default_probe_field(plan.crit)
    phi = plan.crit.basis[0]
    reports = []
    for mu in plan.mus:
        for k in plan.ks:
            rep = inverse_bound_probe(
                plan.crit, plan.B0.rescaled(mu), k * khat, phi, m_perp
            )
            rep["mu"] = mu
            reports.append(rep)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "inverse.csv")
    rows = cio.write_inverse_csv(csv_path, reports)
    cio.write_dat(os.path.join(args.out, "inverse.dat"), cio.INVERSE_COLUMNS, rows)
    print(f"{len(reports)} probe cells -> {csv_path}")
    return 0


def oracle_convergence(levels=DEFAULT_LEVELS):
    """(level, 3D coupling, oracle root, relative gap) per refinement level.

    The 3D solve uses a cell-averaged spherical well whose edge width
    shrinks with the grid; the target is the sharp-well root from the
    radial oracle, computed live.  The oracle (and with it
    scipy.integrate and scipy.optimize) is imported here, so the other
    commands start without it.
    """
    from .radial import RadialWell, critical_coupling

    v0 = critical_coupling(RadialWell(1.0, 1.0, -1, 0.0), _SHARP_BRACKET)
    rows = []
    for level, (n, w, sub) in enumerate(levels, start=1):
        grid = Grid3(1.0, n)
        shape = build_potential(
            grid, "spherical-well", 1.0, 1.0, w=w, cell_average=True, subsamples=sub
        )
        crit = find_critical_coupling(shape, _SHARP_BRACKET)
        gap = abs(crit.g_star - v0) / abs(v0)
        rows.append((level, crit.g_star, v0, gap))
    return rows


def _cmd_oracle_compare(args) -> int:
    levels = DEFAULT_LEVELS
    if args.levels:
        levels = tuple(
            (int(n), float(w), int(s))
            for n, w, s in (part.split(":") for part in args.levels.split(","))
        )
    rows = oracle_convergence(levels)
    lines = ["level,g_star_3d,v0_star_oracle,gap"] + [
        f"{lv},{cio.fmt_float(g)},{cio.fmt_float(v)},{cio.fmt_float(gap)}"
        for lv, g, v, gap in rows
    ]
    _emit(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="threshold-dirac", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one generalized eigenfunction")
    _add_config_flag(p)
    p.add_argument("--j", type=int, default=1, choices=(1, 2))
    p.add_argument("--kx", type=float, default=0.0)
    p.add_argument("--ky", type=float, default=0.0)
    p.add_argument("--kz", type=float, default=0.2)
    p.add_argument("--out", help="field CSV dump path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("kernel-check", help="derivative kernels vs finite differences")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kernel_check)

    p = sub.add_parser("find-critical", help="critical coupling inside a bracket")
    p.add_argument("--shape", help="shape to search (default: the config's, else spherical-well)")
    p.add_argument("--bracket", required=True, help="lo,hi")
    p.add_argument("--config", help="optional grid/potential config")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_find_critical)

    p = sub.add_parser("classify", help="lambda values and decay exponents")
    _add_config_flag(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("forms", help="Taylor forms and curvature spectrum")
    _add_config_flag(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_forms)

    for name, handler, blurb in (
        ("sweep", _cmd_sweep, "divergence-law sweep"),
        ("boundstates", _cmd_boundstates, "bound-state crossings"),
        ("derivatives", _cmd_derivatives, "k-derivative growth"),
        ("inverse-probe", _cmd_inverse_probe, "inverse-operator norm probes"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--plan", required=True, help="plan config file")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=handler)

    p = sub.add_parser("oracle-compare", help="3D criticality vs the radial oracle")
    p.add_argument("--levels", help="override schedule, e.g. 9:0.12:5,11:0.06:7")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle_compare)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
