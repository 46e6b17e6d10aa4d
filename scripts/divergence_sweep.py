"""Divergence-law campaign: sup-norm growth along mu = -gamma_1 k^2.

Runs the resonance sweep from a plan config, then reports the two
scaling fits that summarize the blow-up: the log-log slope of the sup
norm at mu = 0 (source-limited, goes like 1/k here) and the slope along
the resonance curve itself (denominator-limited, goes like 1/k^2).
"""

import argparse
import os

import numpy as np

from threshold_dirac import configio as cio
from threshold_dirac.forms import gamma_spectrum, taylor_form
from threshold_dirac.probes import SweepPlan, mu_peak, resonance_sweep
from threshold_dirac.cli import plan_from_config

CONFIG = os.path.join(os.path.dirname(__file__), "configs", "reference.ini")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--plan", default=CONFIG)
    ap.add_argument("--out", default="sweep_out")
    ap.add_argument("--ks", default="0.05,0.08,0.125,0.2")
    args = ap.parse_args()

    cfg = cio.load_config(args.plan)
    base = plan_from_config(cfg)
    crit, B0 = base.crit, base.B0
    ks = tuple(float(t) for t in args.ks.split(","))

    gammas = gamma_spectrum(crit, B0, taylor_form(crit.critical_potential(), crit, 2)).gammas
    g1 = float(gammas[0])
    print(f"curvatures gamma_l = {gammas}")

    on_curve = tuple(-g1 * k * k for k in ks)
    plan = SweepPlan(crit, B0, mus=(0.0,) + on_curve, ks=ks, js=(1, 2))
    result = resonance_sweep(plan)
    os.makedirs(args.out, exist_ok=True)
    cio.write_records_csv(os.path.join(args.out, "records.csv"), result.records)

    def slope(pairs):
        kk, ss = zip(*sorted(pairs))
        return float(np.polyfit(np.log(kk), np.log(ss), 1)[0])

    at0 = [(r.k, r.sup_norm) for r in result.records if r.mu == 0.0 and r.j == 1]
    onc = [
        (r.k, r.sup_norm)
        for r in result.records
        if r.j == 1 and abs(r.mu + g1 * r.k * r.k) < 1e-12
    ]
    print(f"mu=0 slope        : {slope(at0):+.3f}   (source-limited)")
    print(f"on-curve slope    : {slope(onc):+.3f}   (denominator-limited)")
    print(f"fitted C          : {result.fit_constant:.4g}")

    k_star = ks[-1]
    mu_pk, sup_pk = mu_peak(crit, B0, k_star, (0.2 * -g1 * k_star**2, 2.2 * -g1 * k_star**2))
    print(
        f"peak at k={k_star}: mu = {mu_pk:.6f} (prediction {-g1 * k_star**2:.6f}), sup = {sup_pk:.3e}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
