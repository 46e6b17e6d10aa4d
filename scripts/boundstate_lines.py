"""Bound-state line: crossings (kappa^2, mu) against the curvature slope.

Tracks the crossings for the configured mu ladder, fits a
through-origin line mu = s * kappa^2, and compares s to -gamma_1.  The
opposite mu sign is checked to produce no crossings at all.
"""

import argparse
import os
from dataclasses import replace

import numpy as np

from threshold_dirac import configio as cio
from threshold_dirac.forms import gamma_spectrum, taylor_form
from threshold_dirac.probes import boundstate_track
from threshold_dirac.cli import plan_from_config

CONFIG = os.path.join(os.path.dirname(__file__), "configs", "boundstates.ini")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--plan", default=CONFIG)
    ap.add_argument("--out", default="boundstates_out")
    args = ap.parse_args()

    cfg = cio.load_config(args.plan)
    plan = plan_from_config(cfg)
    A = plan.crit.critical_potential()
    g1 = float(
        gamma_spectrum(plan.crit, plan.B0, taylor_form(A, plan.crit, 2)).gammas[0]
    )

    records = boundstate_track(plan)
    os.makedirs(args.out, exist_ok=True)
    cio.write_boundstates_csv(os.path.join(args.out, "boundstates.csv"), records)
    for r in records:
        print(
            f"mu={r.mu:+.4f}  kappa={r.kappa:.5f}  E={r.E:.8f}  sigma={r.sigma_min:.2e}"
        )
    if records:
        ksq = np.array([r.kappa_sq for r in records])
        mus = np.array([r.mu for r in records])
        s = float(np.sum(ksq * mus) / np.sum(ksq * ksq))
        print(f"through-origin slope {s:+.4f} vs gamma_1 = {g1:+.4f} "
              f"({100 * abs(s - g1) / abs(g1):.2f}% off)")

    wrong = boundstate_track(replace(plan, mus=tuple(-m for m in plan.mus)))
    print(f"opposite-sign crossings: {len(wrong)} (want 0)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
