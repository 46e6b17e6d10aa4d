"""Divergence sweeps, bound-state tracks, inverse-bound and derivative probes."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg

from threshold_dirac import probes, solver
from threshold_dirac.potentials import Grid3, SpinorField, build_potential
from threshold_dirac.critical import find_critical_coupling
from threshold_dirac.forms import gamma_spectrum, taylor_form
from threshold_dirac.solver import free_spinor, solve_generalized
from threshold_dirac.probes import (
    BoundStateRecord,
    DerivativeBound,
    SweepPlan,
    boundstate_track,
    default_probe_field,
    derivative_alpha,
    derivative_bound,
    derivative_recursion,
    inverse_bound_probe,
    lambda1_probe,
    mu_peak,
    pairing_inf,
    resonance_denominator,
    resonance_prediction,
    resonance_sweep,
)

R = 1.0


@pytest.fixture(scope="module")
def crit_free():
    """Lambda-free (bound-state) class on the coarse 9^3 grid."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    return find_critical_coupling(shape, (5.0, 7.0))


@pytest.fixture(scope="module")
def crit_res():
    """Resonance class (attractive well) on the coarse 9^3 grid."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    return find_critical_coupling(shape, (-2.2, -0.4))


@pytest.fixture(scope="module")
def b0(crit_free):
    return build_potential(crit_free.shape.grid, "spherical-well", 1.0, R)


@pytest.fixture(scope="module")
def gammas(crit_free, b0):
    A = crit_free.critical_potential()
    return gamma_spectrum(crit_free, b0, taylor_form(A, crit_free, 2)).gammas


@pytest.fixture(scope="module")
def sweep(crit_free, b0, gammas):
    k = 0.2
    peak = -float(gammas[0]) * k * k
    plan = SweepPlan(crit_free, b0, mus=(0.25 * peak, peak), ks=(k,), js=(1, 2))
    return plan, resonance_sweep(plan)


def test_plan_validation(crit_free, b0):
    with pytest.raises(ValueError):
        SweepPlan(crit_free, b0, mus=(), ks=(0.1,))
    with pytest.raises(ValueError):
        SweepPlan(crit_free, b0, mus=(0.1,), ks=(0.0,))
    for mode in ("newton", "auto", "sigma-scan"):
        with pytest.raises(ValueError, match="bound_mode"):
            SweepPlan(crit_free, b0, mus=(0.1,), ks=(0.1,), bound_mode=mode)
    assert SweepPlan(crit_free, b0, mus=(0.1,), ks=(0.1,), bound_mode="eigen").bound_mode == "eigen"
    # a reversed, zero or out-of-gap kappa range would read as "no
    # crossing"; the gap is 0 < kappa < 1, as for BoundStateRecord
    for span in ((0.3, 0.02), (0.0, 0.3), (0.02, 1.0), (0.02, 1.5), (0.1, 0.1), (0.1,)):
        with pytest.raises(ValueError, match="kappa_range"):
            SweepPlan(crit_free, b0, mus=(0.1,), ks=(0.1,), kappa_range=span)
    got = SweepPlan(crit_free, b0, mus=(0.1,), ks=(0.1,), kappa_range=[0.02, 0.3])
    assert got.kappa_range == (0.02, 0.3)
    other = build_potential(Grid3(R, 11), "spherical-well", 1.0, R)
    with pytest.raises(ValueError):
        SweepPlan(crit_free, other, mus=(0.1,), ks=(0.1,))
    # khat: a zero, non-finite or wrong-length direction would make every
    # record NaN; a valid one is stored as a unit vector
    for khat in ((0.0, 0.0, 0.0), (0.0, np.nan, 1.0), (np.inf, 0.0, 0.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match="khat"):
            SweepPlan(crit_free, b0, mus=(0.1,), ks=(0.1,), khat=khat)
    plan = SweepPlan(crit_free, b0, mus=(0.1,), ks=(0.1,), khat=(0, 3, 4))
    assert plan.khat == (0.0, 0.6, 0.8)
    assert SweepPlan(crit_free, b0, mus=(0.1,), ks=(0.1,)).khat == (0.0, 0.0, 1.0)


def test_prediction_peaks_on_the_resonance_curve():
    gam = np.array([-1.0])
    k = 0.1
    on = resonance_prediction(1.0 * k * k, k, gam)
    off = resonance_prediction(0.0, k, gam)
    assert on > off > 0.0
    # on the curve only the k^3 floor survives in the denominator
    assert on == pytest.approx(k / k**3)


def test_denominator_floor_and_pairing(crit_free, b0, gammas):
    k = 0.2
    assert pairing_inf(crit_free, None) == 0.0
    assert pairing_inf(crit_free, b0) > 0.0
    d_on = resonance_denominator(crit_free, b0.rescaled(-float(gammas[0]) * k * k), k)
    d_off = resonance_denominator(crit_free, b0.rescaled(0.3), k)
    assert d_on >= k**3
    assert d_off > 3.0 * d_on


def test_sweep_record_layout(sweep):
    plan, result = sweep
    assert len(result.records) == len(plan.mus) * len(plan.ks) * len(plan.js)
    for rec in result.records:
        assert rec.k in plan.ks and rec.mu in plan.mus and rec.j in plan.js
        assert np.isfinite(rec.sup_norm) and rec.sup_norm > 0
        assert np.isfinite(rec.n_part_norm) and np.isfinite(rec.residual_part)
        assert rec.predicted_bound > 0
        assert isinstance(rec.at_resonance, bool)


def test_sweep_triangle_identity(sweep):
    # chi is exactly sup-normalized, so sup >= n_part - residual - 1 holds
    # as an identity, not just asymptotically
    _, result = sweep
    for rec in result.records:
        assert rec.sup_norm >= rec.n_part_norm - rec.residual_part - 1.0 - 1e-9


def test_sweep_peak_dominates_off_peak(sweep):
    plan, result = sweep
    peak_mu = max(plan.mus)
    on = [r.sup_norm for r in result.records if r.mu == peak_mu]
    off = [r.sup_norm for r in result.records if r.mu != peak_mu]
    assert min(on) > 3.0 * max(off)


def test_sweep_fit_rescales_predictions(sweep, gammas):
    plan, result = sweep
    assert result.fit_constant > 0 and result.fit_constant_l2 > 0
    assert result.norm_verdict_differs is False
    assert np.allclose(result.gammas, gammas, rtol=1e-8)
    for rec in result.records:
        want = result.fit_constant * resonance_prediction(rec.mu, rec.k, result.gammas)
        assert rec.predicted_bound == pytest.approx(want, rel=1e-12)


def test_mu_peak_matches_curvature_prediction(crit_free, b0, gammas):
    k = 0.2
    predicted = -float(gammas[0]) * k * k
    mu_pk, sup_pk = mu_peak(crit_free, b0, k, (0.2 * predicted, 2.0 * predicted))
    assert abs(mu_pk - predicted) <= 0.2 * predicted
    assert sup_pk > 50.0


def test_boundstate_track_matches_crossing_count_and_wrong_sign_empty(
    crit_free, b0, gammas, certify_track
):
    """Each attractive-sign mu crosses once in the range, where the
    inertia count rises by one Kramers pair; the repulsive-shift sign
    produces no crossing at all, and its count does not move."""
    mus = (-0.004, -0.012)
    plan = SweepPlan(
        crit_free,
        b0,
        mus=mus + (0.008,),
        ks=(0.1,),
        n_kappa=150,
        kappa_range=(0.02, 0.3),
    )
    rec = boundstate_track(plan)
    assert all(r.mu in mus for r in rec)
    certify_track(plan, rec)
    for mu in mus:
        kap = sorted(r.kappa for r in rec if r.mu == mu)
        assert kap
        # crossings sit on the curvature line mu = gamma_1 kappa^2 within
        # the coarse-grid budget (mu and gamma_1 are both negative here)
        line = np.sqrt(mu / float(gammas[0]))
        assert kap[0] == pytest.approx(line, rel=0.15)
    for r in rec:
        assert r.sigma_min >= 0.0
        assert r.E == pytest.approx(np.sqrt(1.0 - r.kappa_sq), rel=1e-12)


def test_branch_derivative_matches_difference_of_branch_values(crit_free, b0):
    """The analytic dmu/dkappa (order-1 kernel rows, left and right
    blocks) against a central difference of converged branch values,
    which never touch the order-1 rows."""
    A = crit_free.critical_potential()
    seed = probes._branch_seeds(A, b0, crit_free.basis)
    kappa, shift, d = 0.08, -0.007, 1e-5
    mus, dmus, X = probes._branch(A, b0, kappa, shift, seed, derivative=True)
    up = probes._branch(A, b0, kappa + d, shift, X)[0]
    dn = probes._branch(A, b0, kappa - d, shift, X)[0]
    fd = (np.mean(up) - np.mean(dn)) / (2.0 * d)
    assert len(mus) == crit_free.dim and np.all(mus < 0.0)
    assert np.allclose(dmus, fd, rtol=1e-6, atol=0.0)


@pytest.fixture(scope="module")
def wider_b0_track():
    """The track for a B0 that is not proportional to the shape: a unit
    well of radius 1 against a critical well of radius 0.8, so B0 also
    lives on nodes outside A's support.  7^3 grid, short kappa range.
    The track runs with assemble_sectors and ARPACK counted."""
    grid = Grid3(R, 7)
    crit = find_critical_coupling(build_potential(grid, "spherical-well", 1.0, 0.8), (8.0, 14.0))
    B0 = build_potential(grid, "spherical-well", 1.0, 1.0)
    assert len(B0.support_indices()) > len(crit.shape.support_indices())
    g1 = float(gamma_spectrum(crit, B0, taylor_form(crit.critical_potential(), crit, 2)).gammas[0])
    plan = SweepPlan(
        crit,
        B0,
        mus=tuple(g1 * k * k for k in (0.06, 0.1)),
        ks=(0.1,),
        n_kappa=20,
        kappa_range=(0.04, 0.15),
    )
    calls = {"assemble_sectors": 0, "eigs": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probes, "assemble_sectors", counted("assemble_sectors", probes.assemble_sectors))
        mp.setattr(scipy.sparse.linalg, "eigs", counted("eigs", scipy.sparse.linalg.eigs))
        rec_e = boundstate_track(plan)
    return plan, rec_e, calls


def test_boundstate_eigen_track_serves_general_b0(wider_b0_track, certify_track):
    plan, rec_e, _ = wider_b0_track
    for mu in plan.mus:
        assert len([r for r in rec_e if r.mu == mu]) == 1
    certify_track(plan, rec_e)


def test_boundstate_eigen_track_counts(wider_b0_track):
    """No ARPACK call, and at most one assembly per curve point, six
    Newton steps per crossing and one sigma_min validation per crossing."""
    plan, rec_e, calls = wider_b0_track
    n_curve = max(16, plan.n_kappa // 10)
    crossings = len(rec_e)
    assert crossings == len(plan.mus)
    assert calls["eigs"] == 0
    assert n_curve < calls["assemble_sectors"] <= n_curve + 6 * crossings + crossings


def test_boundstate_eigen_failed_lu_gives_no_record(wider_b0_track, monkeypatch):
    """One NaN in T_A at one kappa is a failure there, never a crossing:
    poisoning the curve point above a crossing, or the converged
    crossing itself (its Newton steps and its validation), drops that
    record and only that one."""
    plan, rec_e, _ = wider_b0_track
    kmin, kmax = plan.kappa_range
    kappas = np.geomspace(kmin, kmax, max(16, plan.n_kappa // 10))
    target = rec_e[0]
    above = float(kappas[np.searchsorted(kappas, target.kappa)])
    assemble_sectors = probes.assemble_sectors
    for bad in (above, target.kappa):
        seen = []

        def poisoned(sectors, A, B, k):
            blocks = assemble_sectors(sectors, A, B, k)
            if abs(k.imag - bad) <= 1e-9 * bad:
                blocks[0][0][3, 5] = np.nan
                seen.append(k.imag)
            return blocks

        monkeypatch.setattr(probes, "assemble_sectors", poisoned)
        got = boundstate_track(replace(plan, mus=(target.mu, rec_e[1].mu)))
        assert seen
        assert [r.mu for r in got] == [rec_e[1].mu]
        # a hole in the curve changes the seeds of the next blocks, so
        # the other crossing moves by round-off only
        assert got[0].kappa == pytest.approx(rec_e[1].kappa, rel=1e-12)


def test_boundstate_gating_and_record_validation(crit_res, b0):
    plan = SweepPlan(crit_res, b0, mus=(-0.01,), ks=(0.1,))
    with pytest.raises(ValueError):
        boundstate_track(plan)
    with pytest.raises(ValueError):
        BoundStateRecord(mu=-0.01, kappa=1.5, kappa_sq=2.25, E=0.0, sigma_min=0.0)


def test_inverse_probe_norms(crit_free, b0):
    m_perp = default_probe_field(crit_free)
    rep = inverse_bound_probe(
        crit_free, b0.rescaled(0.2), (0.0, 0.0, 0.3), crit_free.basis[0], m_perp
    )
    for key in ("n_par_aphi", "n_perp_aphi", "n_par_mperp", "n_perp_mperp"):
        assert np.isfinite(rep[key]) and rep[key] >= 0.0
    assert rep["denominator"] > 0.0
    assert rep["b_l1"] > 0.0 and rep["b_linf"] > 0.0
    # the span part of the A phi solve dwarfs its perpendicular part
    assert rep["n_par_aphi"] > rep["n_perp_aphi"]

    free = inverse_bound_probe(
        crit_free, None, (0.0, 0.0, 0.5), crit_free.basis[0], m_perp
    )
    assert free["b_l1"] == 0.0
    assert free["at_resonance"] is False
    assert np.isfinite(free["n_par_aphi"])


def test_symmetric_probe_decouples_from_span(crit_free, b0):
    # even envelope + upper components only: the span coupling vanishes
    # through every order in k (angular selection), so n_par stays at
    # roundoff no matter how close the resonance is
    grid = crit_free.shape.grid
    prof = np.exp(-2.0 * np.sum(grid.points**2, axis=1))
    raw = np.zeros((grid.n_nodes, 4), dtype=np.complex128)
    raw[:, 0] = prof
    raw[:, 1] = 0.5 * prof
    m_sym = crit_free.project("M_perp", SpinorField(grid, raw))
    rep = inverse_bound_probe(
        crit_free, b0.rescaled(0.2), (0.0, 0.0, 0.2), crit_free.basis[0], m_sym
    )
    assert rep["n_par_mperp"] <= 1e-10
    assert rep["n_perp_mperp"] > 1.0


def test_derivative_free_case_is_exact():
    grid = Grid3(1.5, 11)
    k = 0.3
    rec = derivative_recursion(None, None, 1, (0.0, 0.0, k), 1, eval_grid=grid)
    assert rec["rcond"] == np.inf
    assert rec["at_resonance"] is False
    # independent reconstruction: central difference of chi in k
    d = 1e-5
    z = grid.points[:, 2]

    def chi(kk):
        return free_spinor(1, (0.0, 0.0, kk))[None, :] * np.exp(1j * kk * z)[:, None]

    fd = (chi(k + d) - chi(k - d)) / (2.0 * d)
    got = rec["phi_m"].values
    assert np.max(np.linalg.norm(got - fd, axis=1)) <= 1e-5


def test_derivative_zero_potential_uses_the_default_grid():
    """With an empty support the recursion returns d^m chi on the grid
    solve_generalized uses, default_eval_grid of the support grid."""
    A = build_potential(Grid3(R, 9), "spherical-well", 0.0, R)
    rec = derivative_recursion(A, None, 1, (0.0, 0.0, 0.3), 1)
    phi, _ = solve_generalized(A, None, 1, (0.0, 0.0, 0.3))
    assert rec["phi_m"].grid.same_layout(solver.default_eval_grid(A.grid))
    assert rec["phi_m"].grid.same_layout(phi.grid)


def test_derivative_m1_matches_fd_of_solution(crit_free, b0):
    A = crit_free.critical_potential()
    B = b0.rescaled(0.15)
    kvec = np.array([0.0, 0.0, 0.25])
    grid = Grid3(1.5, 9)
    rec = derivative_recursion(A, B, 1, kvec, 1, eval_grid=grid)
    d = 1e-3
    up, _ = solve_generalized(A, B, 1, kvec * (1.0 + d / 0.25), eval_grid=grid)
    dn, _ = solve_generalized(A, B, 1, kvec * (1.0 - d / 0.25), eval_grid=grid)
    fd = (up.values - dn.values) / (2.0 * d)
    w = (1.0 + np.linalg.norm(grid.points, axis=1)) ** (-1)
    err = np.max(w * np.linalg.norm(rec["phi_m"].values - fd, axis=1))
    assert err <= 1e-3 * rec["weighted_sup"]


def test_derivative_orders_and_alpha(crit_free, b0):
    grid = Grid3(1.5, 9)
    bound = derivative_bound(
        crit_free, b0, mu=0.05, kvec=(0.0, 0.0, 0.2), j=1, eval_grid=grid
    )
    assert bound.alpha >= 1.0
    assert set(bound.weighted_sup) == {1, 2}
    assert all(v > 0 for v in bound.weighted_sup.values())
    assert derivative_alpha(crit_free, None, 0.2) >= 1.0
    with pytest.raises(ValueError):
        DerivativeBound(mu=0.0, k=0.1, alpha=0.5, weighted_sup={1: 1.0})
    with pytest.raises(ValueError):
        derivative_recursion(None, None, 1, (0.0, 0.0, 0.1), 3)


def test_derivative_extension_one_kernel_pass_per_order(monkeypatch):
    """At m = 2 the evaluation grid sees one stacked kernel-row pass per
    kernel order l = 0, 1, 2: three passes, not one per (order, l) term.
    Each stacked pass equals the passes of its fields one by one."""
    A = build_potential(Grid3(R, 5), "spherical-well", -0.55, R)
    grid = Grid3(1.5, 7)
    real, calls = probes.apply_kernel_rows, []

    def spy(k, targets, V, fields, h, order=0):
        calls.append((len(targets), order))
        out = real(k, targets, V, fields, h, order=order)
        if fields.ndim == 3:
            for i, f in enumerate(fields):
                single = real(k, targets, V, f, h, order=order)
                scale = np.max(np.abs(single))
                np.testing.assert_allclose(out[:, i], single, rtol=0.0, atol=1e-13 * scale)
        return out

    monkeypatch.setattr(probes, "apply_kernel_rows", spy)
    rec = derivative_recursion(A, None, 1, (0.0, 0.0, 0.2), 2, eval_grid=grid)
    assert sorted(o for n, o in calls if n == grid.n_nodes) == [0, 1, 2]
    assert set(rec["orders"]) == {1, 2}


def test_unflagged_solves_hold_the_residual_contract(monkeypatch, crit_free, crit_res, b0):
    """A factorization that solves the wrong system (the LU of 2M) must
    raise, in the solver, in each solve of the derivative recursion, and
    in the sweep, the mu-peak search, the inverse-bound probe and the
    resonance-class probe, never pass as a solution."""
    A = build_potential(Grid3(R, 5), "spherical-well", -0.55, R)
    m_perp = default_probe_field(crit_free)
    real = solver.factor

    def wrong(M):
        return solver.Factorization(M, real(2.0 * M).lu)

    monkeypatch.setattr(solver, "factor", wrong)
    monkeypatch.setattr(probes, "factor", wrong)
    with pytest.raises(RuntimeError, match="residual"):
        solve_generalized(A, None, 1, (0.0, 0.0, 0.2))
    with pytest.raises(RuntimeError, match="residual"):
        derivative_recursion(A, None, 1, (0.0, 0.0, 0.2), 2, eval_grid=Grid3(1.5, 7))
    with pytest.raises(RuntimeError, match="residual"):
        resonance_sweep(SweepPlan(crit_free, b0, mus=(0.05,), ks=(0.2,), js=(1,)))
    with pytest.raises(RuntimeError, match="residual"):
        mu_peak(crit_free, b0, 0.2, (0.01, 0.05))
    with pytest.raises(RuntimeError, match="residual"):
        inverse_bound_probe(
            crit_free, b0.rescaled(0.2), (0.0, 0.0, 0.2), crit_free.basis[0], m_perp
        )
    with pytest.raises(RuntimeError, match="residual"):
        lambda1_probe(crit_res, None, (0.1,))


def test_lambda1_probe_gating_and_decay(crit_free, crit_res):
    with pytest.raises(ValueError):
        lambda1_probe(crit_free, None, (0.1,))
    ks = (0.08, 0.16, 0.32)
    recs = lambda1_probe(crit_res, None, ks)
    sups = np.array([r["sup_norm"] for r in recs])
    assert np.all(np.diff(sups) < 0)
    slope = np.polyfit(np.log(ks), np.log(sups), 1)[0]
    assert abs(slope + 1.0) <= 0.35
    for r in recs:
        assert r["denominator"] == pytest.approx(
            pairing_inf(crit_res, None) + r["k"], rel=1e-12
        )


_SWEEP_THREAD_PROBE = """
import json
import numpy as np
from threshold_dirac.critical import find_critical_coupling
from threshold_dirac.potentials import Grid3, build_potential
from threshold_dirac.probes import SweepPlan, resonance_sweep
from threshold_dirac.solver import apply_kernel_rows
grid = Grid3(1.0, 7)
shape = build_potential(grid, "spherical-well", 1.0, 1.0)
crit = find_critical_coupling(shape, (5.0, 9.0))
plan = SweepPlan(crit, shape, mus=(0.01, 0.03), ks=(0.1, 0.2), js=(1, 2))
res = resonance_sweep(plan)
rows = [[r.sup_norm, r.n_part_norm, r.residual_part, r.predicted_bound, r.n_part_l2]
        for r in res.records]
sup = shape.support_indices()
f = np.cos(np.arange(3 * len(sup) * 4)).reshape(3, len(sup), 4) * (1 + 0.5j)
ext = apply_kernel_rows(0.15, plan.crit.shape.grid.points * 1.7, shape, f, grid.spacing)
print(json.dumps({"records": [[v.hex() for v in row] for row in rows],
                  "rows": [v.hex() for v in ext.view(float).ravel()[::7].tolist()]}))
"""


def test_sweep_records_deterministic_across_thread_settings():
    """Kernel rows are one GEMM per target chunk and come out bit-identical
    with 1 and 2 BLAS threads. Across BLAS thread counts the sweep records
    agree only to round-off: OpenBLAS's LU (zgetrf) of the cell systems
    differs in its last bits between 1 and 2 threads (measured about 1e-12
    relative on these near-resonant cells)."""
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_THREAD_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]["records"]) == 8
    assert runs[0]["rows"] == runs[1]["rows"]
    one = np.array([[float.fromhex(v) for v in row] for row in runs[0]["records"]])
    two = np.array([[float.fromhex(v) for v in row] for row in runs[1]["records"]])
    assert np.all(np.abs(one - two) <= 1e-9 * np.abs(one))
