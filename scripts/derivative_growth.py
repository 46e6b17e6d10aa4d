"""k-derivative growth against the envelope C_m (k^-m + alpha^(m+1)).

Measures the weighted sup norms of the first two k-derivatives over a
(mu, k) probe set, fits the single constant C_m as the median ratio to
the envelope, and reports the band each measurement falls in.  Also
cross-checks the m = 1 solution against a finite difference of the
solved eigenfunction.
"""

import argparse
import os

import numpy as np

from threshold_dirac import configio as cio
from threshold_dirac.potentials import Grid3
from threshold_dirac.probes import derivative_bound, derivative_recursion
from threshold_dirac.solver import solve_generalized
from threshold_dirac.cli import plan_from_config

CONFIG = os.path.join(os.path.dirname(__file__), "configs", "reference.ini")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--plan", default=CONFIG)
    ap.add_argument("--out", default="derivatives_out")
    ap.add_argument("--mu", type=float, default=0.05, help="fixed perturbation scale")
    ap.add_argument(
        "--ks",
        default="0.02,0.03,0.045,0.07,0.1",
        help="momenta, keep k well below sqrt(mu/|gamma_1|); the envelope "
        "is a small-k statement and the band degrades near the resonance",
    )
    args = ap.parse_args()

    cfg = cio.load_config(args.plan)
    plan = plan_from_config(cfg)
    crit, B0 = plan.crit, plan.B0
    ks = tuple(float(t) for t in args.ks.split(","))
    eval_grid = Grid3(1.5, 11)

    bounds = []
    for k in ks:
        b = derivative_bound(crit, B0, args.mu, (0.0, 0.0, k), eval_grid=eval_grid)
        bounds.append(b)
        print(
            f"k={k:5.3f}: alpha={b.alpha:8.3f}  w1={b.weighted_sup[1]:.4e}  "
            f"w2={b.weighted_sup[2]:.4e}"
        )
    os.makedirs(args.out, exist_ok=True)
    cio.write_derivatives_csv(os.path.join(args.out, "derivatives.csv"), bounds)

    for m in (1, 2):
        env = np.array([b.k ** (-m) + b.alpha ** (m + 1) for b in bounds])
        meas = np.array([b.weighted_sup[m] for b in bounds])
        ratio = meas / env
        c = float(np.median(ratio))
        print(
            f"m={m}: fitted C = {c:.4g}, band width max/min = "
            f"{np.max(ratio) / np.min(ratio):.2f}, max/median = {np.max(ratio) / c:.2f}"
        )

    # finite-difference oracle for the first derivative at the mid k
    k = ks[len(ks) // 2]
    A = crit.critical_potential()
    B = B0.rescaled(args.mu)
    rec = derivative_recursion(A, B, 1, (0.0, 0.0, k), 1, eval_grid=eval_grid)
    d = 1e-3
    up, _ = solve_generalized(A, B, 1, (0.0, 0.0, k + d), eval_grid=eval_grid)
    dn, _ = solve_generalized(A, B, 1, (0.0, 0.0, k - d), eval_grid=eval_grid)
    fd = (up.values - dn.values) / (2.0 * d)
    w = (1.0 + np.linalg.norm(eval_grid.points, axis=1)) ** (-1)
    err = np.max(w * np.linalg.norm(rec["phi_m"].values - fd, axis=1))
    print(f"m=1 FD cross-check at k={k}: weighted rel err = {err / rec['weighted_sup']:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
