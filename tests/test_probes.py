"""Divergence sweeps, bound-state tracks, inverse-bound and derivative probes."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from threshold_dirac import probes, solver
from threshold_dirac.potentials import FourPotential, Grid3, SpinorField, build_potential
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


@pytest.fixture(scope="module")
def wider_b0_track():
    """The track for a B0 that is not proportional to the shape: a unit
    well of radius 1 against a critical well of radius 0.8, so B0 also
    lives on nodes outside A's support.  7^3 grid, short kappa range.
    The track runs with assemble_sectors, assemble_T, the kernel-row
    passes (solver.apply_kernel_rows), ARPACK and full-size assemblies
    (solver._assembled) counted."""
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
    names = ("assemble_sectors", "assemble_T")
    calls = dict.fromkeys(names + ("apply_kernel_rows", "eigs", "full_assembly"), 0)
    assembled = solver._assembled

    def full_assembly(*args):
        calls["full_assembly"] += 1
        return assembled(*args)

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(probes, name, counted(name, getattr(probes, name)))
        mp.setattr(solver, "apply_kernel_rows", counted("apply_kernel_rows", solver.apply_kernel_rows))
        mp.setattr(scipy.sparse.linalg, "eigs", counted("eigs", scipy.sparse.linalg.eigs))
        mp.setattr(solver, "_assembled", full_assembly)
        rec_e = boundstate_track(plan)
    return plan, rec_e, calls


def test_boundstate_eigen_track_serves_general_b0(wider_b0_track, certify_track):
    plan, rec_e, _ = wider_b0_track
    for mu in plan.mus:
        assert len([r for r in rec_e if r.mu == mu]) == 1
    certify_track(plan, rec_e)


def test_boundstate_eigen_track_counts(wider_b0_track):
    """No ARPACK call, one sector assembly per curve point (the two ends
    once each, shared by the count gate and the curve) and at most six
    secant steps per crossing, and one residual certificate per crossing:
    one kernel-row pass, with no full-size assembly (assemble_T,
    assemble_pair or any other)."""
    plan, rec_e, calls = wider_b0_track
    n_curve = max(16, plan.n_kappa // 10)
    crossings = len(rec_e)
    assert crossings == len(plan.mus)
    assert calls["eigs"] == 0
    assert calls["full_assembly"] == 0
    assert calls["assemble_T"] == 0
    assert calls["apply_kernel_rows"] == crossings
    assert n_curve < calls["assemble_sectors"] <= n_curve + 6 * crossings


@pytest.fixture(scope="module")
def c4h_pair_plan():
    """The track of a 7^3 C4h pair: the critical unit well of radius R
    and B0 the same well, both purely electric."""
    grid = Grid3(R, 7)
    crit = find_critical_coupling(build_potential(grid, "spherical-well", 1.0, R), (5.0, 9.0))
    B0 = build_potential(grid, "spherical-well", 1.0, R)
    g1 = float(gamma_spectrum(crit, B0, taylor_form(crit.critical_potential(), crit, 2)).gammas[0])
    return SweepPlan(
        crit, B0, mus=tuple(g1 * k * k for k in (0.06, 0.1)), ks=(0.1,),
        n_kappa=20, kappa_range=(0.04, 0.15),
    )


@pytest.mark.parametrize("case", ["wider", "c4h"])
def test_sector_count_rise_is_the_full_count_rise(case, wider_b0_track, c4h_pair_plan):
    """The count gate's soundness: for mu of both signs, the inertia
    count in the kept sector (one of the Kramers pair that holds the
    threshold basis) rises between the range ends by half the rise of
    the full-size crossing_count, and the counts of all the sectors add
    up to the full-size count at each end."""
    plan = wider_b0_track[0] if case == "wider" else c4h_pair_plan
    A, B0 = plan.crit.critical_potential(), plan.B0
    seeds = probes._branch_seeds(A, B0, plan.crit.basis)
    kept = [sector for sector, _ in probes._kramers_kept(A, B0, seeds)]
    assert len(seeds) == 2 and len(kept) == 1
    every = solver.symmetry_sectors(A, B0)
    rises = []
    for mu in plan.mus + tuple(-m for m in plan.mus):
        V = solver.combine_potentials(A, B0.rescaled(mu))
        counts = []
        for kappa in plan.kappa_range:
            full = probes.crossing_count(V, kappa)
            blocks = solver.assemble_sectors(every, A.grid, 1j * kappa)
            assert sum(probes._sector_count(s, K, V) for s, K in zip(every, blocks)) == full
            (K,) = solver.assemble_sectors(kept, A.grid, 1j * kappa)
            counts.append((probes._sector_count(kept[0], K, V), full))
        (lo, full_lo), (hi, full_hi) = counts
        assert 2 * (hi - lo) == full_hi - full_lo
        rises.append(hi - lo)
    assert rises == [1, 1, 0, 0]


def _counted_track(plan, monkeypatch):
    """(records, calls) of one track with assemble_sectors, _branch and
    every LU counted."""
    calls = dict.fromkeys(("assemble_sectors", "_branch", "lu_factor"), 0)

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    for module, name in ((probes, "assemble_sectors"), (probes, "_branch"), (scipy.linalg, "lu_factor")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    records = boundstate_track(plan)
    monkeypatch.undo()
    return records, calls


@pytest.mark.parametrize("case", ["wider", "c4h"])
def test_count_gate_ends_a_steady_ladder_at_the_range_ends(
    case, wider_b0_track, c4h_pair_plan, monkeypatch
):
    """A ladder whose counts do not move between the range ends (the
    opposite sign) returns no record after the two end assemblies, with
    no branch and no LU; mu = 0, or a mu that makes A + mu B0 vanish at
    a node (no count there), runs the whole curve.  On the c4h pair
    A + 0 B0 has the whole support, so its count exists there too."""
    plan = wider_b0_track[0] if case == "wider" else c4h_pair_plan
    A, B0 = plan.crit.critical_potential(), plan.B0
    n_curve = max(16, plan.n_kappa // 10)
    opposite = tuple(-m for m in plan.mus)
    records, calls = _counted_track(replace(plan, mus=opposite), monkeypatch)
    assert records == []
    assert calls == {"assemble_sectors": 2, "_branch": 0, "lu_factor": 0}

    node = np.flatnonzero((B0.values[:, 0] == 1.0) & (A.values[:, 0] != 0.0))[0]
    singular = -float(A.values[node, 0])
    assert not np.any(solver.combine_potentials(A, B0.rescaled(singular)).values[node])
    near = singular * (1 + 1e-9)  # the same count as the singular mu, and steady
    records, calls = _counted_track(replace(plan, mus=opposite + (near,)), monkeypatch)
    assert records == [] and calls["_branch"] == 0
    for ladder in (opposite + (0.0,), opposite + (singular,)):
        records, calls = _counted_track(replace(plan, mus=ladder), monkeypatch)
        assert calls["_branch"] == n_curve and calls["assemble_sectors"] == n_curve
        assert calls["lu_factor"] == n_curve
        assert not [r for r in records if r.mu in opposite]


def test_kramers_partner_sector_gives_the_same_branch(c4h_pair_plan):
    """At k = i kappa time reversal maps the kept sector onto its
    conjugate partner: _branch on both seeds gives the same value in
    each, at three kappas."""
    plan = c4h_pair_plan
    A, B0 = plan.crit.critical_potential(), plan.B0
    seeds = probes._branch_seeds(A, B0, plan.crit.basis)
    (kept, _), (dropped, _) = seeds
    assert probes._kramers_kept(A, B0, seeds) == seeds[:1]
    assert dropped.character[0] == pytest.approx(np.conj(kept.character[0]), abs=1e-14)
    assert dropped.character[1] == kept.character[1]
    for kappa in (0.03, 0.1, 0.25):
        mus, _ = probes._branch(A, B0, kappa, 0.0, seeds)
        assert len(mus) == 2
        assert mus[1] == pytest.approx(mus[0], rel=1e-12)


def test_a_vector_part_keeps_both_sectors_and_tracks(certify_track):
    """A C4h-admissible pair that is not purely electric, a3 = 0.3 a0
    sign(z) on the unit well (odd in z, as inversion needs), keeps both
    sectors that hold the threshold basis, its track passes the
    inertia-count certificate, and its sector counts add up to the
    full-size count."""
    grid = Grid3(R, 7)
    well = build_potential(grid, "spherical-well", 1.0, R)
    values = well.values.copy()
    z = np.indices((7, 7, 7))[2].reshape(-1) - 3
    values[:, 3] = 0.3 * values[:, 0] * np.sign(z)
    shape = FourPotential(grid, "odd-a3-well", 1.0, R, values)
    assert len(solver.symmetry_sectors(shape, well)) == 8
    crit = find_critical_coupling(shape, (5.0, 9.0))
    assert crit.lambda_bar == 0 and crit.dim == 2
    A = crit.critical_potential()
    seeds = probes._branch_seeds(A, well, crit.basis)
    assert len(seeds) == 2 and probes._kramers_kept(A, well, seeds) == seeds
    g1 = float(gamma_spectrum(crit, well, taylor_form(A, crit, 2)).gammas[0])
    plan = SweepPlan(
        crit, well, mus=tuple(g1 * k * k for k in (0.06, 0.1)), ks=(0.1,),
        n_kappa=20, kappa_range=(0.04, 0.15),
    )
    records = boundstate_track(plan)
    assert [r.mu for r in records] == list(plan.mus)
    certify_track(plan, records)
    every = solver.symmetry_sectors(A, well)
    V = solver.combine_potentials(A, well.rescaled(plan.mus[0]))
    for kappa in plan.kappa_range:
        blocks = solver.assemble_sectors(every, A.grid, 1j * kappa)
        count = sum(probes._sector_count(s, K, V) for s, K in zip(every, blocks))
        assert count == probes.crossing_count(V, kappa)


def test_boundstate_certificate_bounds_sigma_min_and_refuses_wrong_kappa(
    wider_b0_track, monkeypatch
):
    """Each record's residual certificate is at least sigma_min of the
    dense M = 1 - T^{A + mu B0} at its kappa and its scale at most
    ||M||_1, so every record passes the sigma_min gate.  The scale is a
    column sum of 4 N_s terms that the dense assembly sums in another
    order, so it may exceed ||M||_1 by that sum's round-off, about
    4 N_s eps (measured: 1.6e-15 relative).  The same Ritz vector at a
    kappa 25% off fails the gate, and a secant that returns that kappa
    gives no record for its mu, leaving the other mu's.  The gate is a
    near-singularity test, not a kappa tolerance: 1e-5 ||M||_1 lets the
    vector through up to about 9% and 3% off at these two crossings."""
    plan, rec_e, _ = wider_b0_track
    A, B0 = plan.crit.critical_potential(), plan.B0
    secant, crossings = probes._secant_crossing, {}

    def spy(A, B0, mu, *args):
        crossings[mu] = got = secant(A, B0, mu, *args)
        return got

    monkeypatch.setattr(probes, "_secant_crossing", spy)
    assert boundstate_track(plan) == rec_e
    assert [r.mu for r in rec_e] == list(plan.mus)
    for r in rec_e:
        kap, branch = crossings[r.mu]
        assert kap == r.kappa
        residual, scale = probes._certificate(A, B0, kap, r.mu, branch)
        assert residual == r.sigma_min
        V = solver.combine_potentials(A, B0.rescaled(r.mu))
        M = solver.system_matrix(solver.assemble_T(V, 1j * kap))
        assert residual >= scipy.linalg.svdvals(M).min()
        assert scale <= np.linalg.norm(M, 1) * (1 + 1e-13)
        for off in (0.75, 1.25):
            residual, scale = probes._certificate(A, B0, kap * off, r.mu, branch)
            assert residual > probes._CROSSING_REL * scale

    wrong = rec_e[0].mu
    monkeypatch.setattr(probes, "_secant_crossing", lambda A, B0, mu, *args: (
        (crossings[mu][0] * 1.25, crossings[mu][1]) if mu == wrong else crossings[mu]))
    assert boundstate_track(plan) == rec_e[1:]


def test_boundstate_eigen_failed_lu_gives_no_record(wider_b0_track, monkeypatch):
    """One NaN in the kernel block K_s at one kappa is a failure there,
    never a crossing: poisoning the curve point above a crossing, or the
    converged crossing itself (the secant steps that reach it), drops
    that record and only that one."""
    plan, rec_e, _ = wider_b0_track
    kmin, kmax = plan.kappa_range
    kappas = np.geomspace(kmin, kmax, max(16, plan.n_kappa // 10))
    target = rec_e[0]
    above = float(kappas[np.searchsorted(kappas, target.kappa)])
    assemble_sectors = probes.assemble_sectors
    for bad in (above, target.kappa):
        seen = []

        def poisoned(sectors, grid, k):
            blocks = assemble_sectors(sectors, grid, k)
            if abs(k.imag - bad) <= 1e-9 * bad:
                blocks[0][3, 5] = np.nan
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


_OFF_AXIS = (0.3, 0.5, 0.8)


def _record_rows(result) -> np.ndarray:
    return np.array(
        [[r.sup_norm, r.n_part_norm, r.residual_part, r.predicted_bound, r.n_part_l2]
         for r in result.records]
    )


def test_sector_sweep_matches_a_dense_full_size_reference(monkeypatch, crit_free, b0):
    """On the C4h-exact n = 9 well the sweep's records, for the z axis and
    for an off-axis khat, match those of a dense full-size solve of each
    cell (assemble_pair, scipy.linalg.solve) to 1e-11 relative, and no
    cell is flagged."""
    assert len(solver.symmetry_sectors(crit_free.critical_potential(), b0)) == 8
    plans = [
        SweepPlan(crit_free, b0, mus=(0.005, 0.03), ks=(0.1, 0.2), js=(1, 2), khat=khat)
        for khat in ((0.0, 0.0, 1.0), _OFF_AXIS)
    ]
    got = [resonance_sweep(plan) for plan in plans]

    def dense_scan(sectors, A, B, k, rhs):
        TA, TB = solver.assemble_pair(A, B, k)
        return lambda mu: solver.system_matrix(TA, TB, mu)

    monkeypatch.setattr(probes, "_coupling_scan", dense_scan)
    monkeypatch.setattr(
        probes, "sector_solve", lambda M, rhs: (scipy.linalg.solve(M, rhs), 0.0, False)
    )
    for plan, res in zip(plans, got):
        want = _record_rows(resonance_sweep(plan))
        assert not any(r.at_resonance for r in res.records)
        np.testing.assert_allclose(_record_rows(res), want, rtol=1e-11, atol=0.0)


def test_trivial_group_sweep_solutions_are_the_full_lu_bit_for_bit(monkeypatch):
    """A well with only the trivial group (a vector potential whose a_1 is
    nonzero and even) is one sector whose maps are the identity: every
    cell's solution is that of factor(system_matrix(*assemble_pair(...),
    mu)) on the full support, scipy's lu_solve(lu_factor(M), chi), bit
    for bit."""
    grid = Grid3(R, 7)
    shape = build_potential(grid, "spherical-well", 1.0, R, components=(1.0, 0.3, 0.0, 0.0))
    crit = find_critical_coupling(shape, (12.5, 13.3))
    A = crit.critical_potential()
    assert [sec.order for sec in solver.symmetry_sectors(A, shape)] == [1]
    plan = SweepPlan(crit, shape, mus=(0.01, 0.03), ks=(0.1, 0.2), js=(1, 2), khat=_OFF_AXIS)
    solved = []
    real = probes.sector_solve

    def spy(systems, rhs):
        got = real(systems, rhs)
        solved.append((rhs, got[0]))
        return got

    monkeypatch.setattr(probes, "sector_solve", spy)
    resonance_sweep(plan)
    cells = [(k, mu, j) for k in plan.ks for mu in plan.mus for j in plan.js]
    assert len(solved) == len(cells)
    pts = grid.points[shape.support_indices()]
    for (k, mu, j), (rhs, x) in zip(cells, solved):
        chi = solver.free_solution(j, k * np.asarray(plan.khat)).values_at(pts).reshape(-1)
        assert chi.tobytes() == rhs.tobytes()
        TA, TB = solver.assemble_pair(A, shape, k)
        M = solver.system_matrix(TA, TB, mu)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), chi)
        assert want.tobytes() == x.tobytes()


def _count_lus(monkeypatch):
    """Spy on the LUs of the solves (solver.factor) and on full-size
    assemblies (solver._assembled, as assemble_T and assemble_pair
    make)."""
    sizes, full = [], []
    real_factor, real_assembled = solver.factor, solver._assembled

    def factor(M):
        sizes.append(len(M))
        return real_factor(M)

    def assembled(k, grid, nodes, *values):
        full.append(len(nodes))
        return real_assembled(k, grid, nodes, *values)

    monkeypatch.setattr(solver, "factor", factor)
    monkeypatch.setattr(solver, "_assembled", assembled)
    return sizes, full


def test_coupling_scans_make_only_sector_lus(monkeypatch, crit_free, crit_res, b0):
    """On the n = 9 C4h well the sweep makes one LU per reached sector and
    (mu, k): 4 on the z axis, 8 off it, none larger than the largest
    sector block, and no full-size assembly (assemble_pair is gone from
    probes).  mu_peak, the resonance-class probe, solve_generalized, the
    inverse-bound probe (whose anisotropic default probe field reaches
    all 8 sectors) and the m = 2 derivative recursion make no full-size
    LU or assembly either."""
    assert not hasattr(probes, "assemble_pair")
    A = crit_free.critical_potential()
    largest = max(len(sec.index) for sec in solver.symmetry_sectors(A, b0))
    sizes, full = _count_lus(monkeypatch)
    for khat, per_cell in (((0.0, 0.0, 1.0), 4), (_OFF_AXIS, 8)):
        del sizes[:]
        plan = SweepPlan(crit_free, b0, mus=(0.01, 0.03), ks=(0.1, 0.2), js=(1, 2), khat=khat)
        resonance_sweep(plan)
        assert len(sizes) == per_cell * len(plan.mus) * len(plan.ks)
        assert max(sizes) <= largest
    del sizes[:]
    mu_peak(crit_free, b0, 0.2, (0.01, 0.05))
    assert sizes and max(sizes) <= largest
    del sizes[:]
    lambda1_probe(crit_res, None, (0.1,))
    assert sizes and max(sizes) <= max(
        len(sec.index) for sec in solver.symmetry_sectors(crit_res.critical_potential())
    )
    B = b0.rescaled(0.05)
    for solve in (
        lambda: solve_generalized(A, B, 1, (0.0, 0.0, 0.2)),
        lambda: derivative_recursion(A, B, 1, (0.0, 0.0, 0.2), 2, eval_grid=Grid3(1.5, 7)),
    ):
        del sizes[:]
        solve()
        assert len(sizes) == 4 and max(sizes) <= largest  # chi on the z axis
    del sizes[:]
    m_perp = default_probe_field(crit_free)
    inverse_bound_probe(crit_free, B, (0.0, 0.0, 0.2), crit_free.basis[0], m_perp)
    assert len(sizes) == 8 and max(sizes) <= largest
    assert full == []


def test_a_wrongly_skipped_sector_breaks_the_residual_contract(
    monkeypatch, crit_free, crit_res, b0
):
    """The contract is checked on the full support, so the part of a
    right-hand side in a reached sector that is skipped (its projection
    made zero) raises in the sweep, mu_peak, the resonance-class probe,
    solve_generalized, the inverse-bound probe and the derivative
    recursion instead of passing."""
    A = crit_free.critical_potential()
    pts = A.grid.points[b0.support_indices()]
    chi = solver.free_solution(1, (0.0, 0.0, 0.2)).values_at(pts).reshape(-1)
    weights = [np.linalg.norm(sec.project(chi)) for sec in solver.symmetry_sectors(A, b0)]
    reached = [w for w in weights if w > 1e-8 * np.linalg.norm(chi)]
    assert len(reached) == 4
    skip = weights.index(min(reached))  # a smaller reached part, about 1/8 of the largest
    project = solver.Sector.project
    character = solver.symmetry_sectors(A, b0)[skip].character

    def dropped(sector, f):
        part = project(sector, f)
        return 0.0 * part if sector.character == character else part

    monkeypatch.setattr(solver.Sector, "project", dropped)
    with pytest.raises(RuntimeError, match="residual"):
        resonance_sweep(SweepPlan(crit_free, b0, mus=(0.05,), ks=(0.2,), js=(1,)))
    with pytest.raises(RuntimeError, match="residual"):
        mu_peak(crit_free, b0, 0.2, (0.01, 0.05))
    with pytest.raises(RuntimeError, match="residual"):
        lambda1_probe(crit_res, None, (0.1,))
    B = b0.rescaled(0.05)
    m_perp = default_probe_field(crit_free)
    with pytest.raises(RuntimeError, match="residual"):
        solve_generalized(A, B, 1, (0.0, 0.0, 0.2))
    with pytest.raises(RuntimeError, match="residual"):
        inverse_bound_probe(crit_free, B, (0.0, 0.0, 0.2), crit_free.basis[0], m_perp)
    with pytest.raises(RuntimeError, match="residual"):
        derivative_recursion(A, B, 1, (0.0, 0.0, 0.2), 2, eval_grid=Grid3(1.5, 7))


def test_a_flagged_sector_flags_its_cell_only(monkeypatch, crit_free, b0):
    """A sector factorization that reads as at resonance flags the cells
    of its (mu, k) and its block is solved by least squares, still close
    to the LU solution of that well-conditioned block; every other cell
    is bit-identical to the unflagged run."""
    plan = SweepPlan(crit_free, b0, mus=(0.01, 0.03), ks=(0.2,), js=(1, 2))
    clean = resonance_sweep(plan)
    calls, lstsq = [], []
    real_factor, real_lstsq = solver.factor, np.linalg.lstsq

    class Flagged(solver.Factorization):
        rcond = 0.0

    def factor(M):
        calls.append(len(M))
        fac = real_factor(M)
        return Flagged(M, fac.lu) if len(calls) == 5 else fac  # the first block of mu = 0.03

    def counted(*args, **kwargs):
        lstsq.append(1)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(solver, "factor", factor)
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    flagged = resonance_sweep(plan)
    assert len(calls) == 8 and len(lstsq) == len(plan.js)
    assert [r.at_resonance for r in flagged.records] == [r.mu == 0.03 for r in clean.records]
    fields = ("sup_norm", "n_part_norm", "residual_part", "n_part_l2")
    for a, b in zip(clean.records, flagged.records):
        for name in fields:
            if b.at_resonance:
                assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-9)
            else:
                assert getattr(b, name) == getattr(a, name)


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
from threshold_dirac.solver import apply_kernel_rows, default_eval_grid
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
lat = apply_kernel_rows(0.15, default_eval_grid(grid).points, shape, f, grid.spacing)
print(json.dumps({"records": [[v.hex() for v in row] for row in rows],
                  "rows": [v.hex() for v in ext.view(float).ravel()[::7].tolist()],
                  "lattice": [v.hex() for v in lat.view(float).ravel()[::7].tolist()]}))
"""


def test_sweep_records_deterministic_across_thread_settings():
    """Kernel rows come out bit-identical with 1 and 2 BLAS threads: off
    the lattice one GEMM per target chunk, on it (the default evaluation
    grid) one FFT convolution, which uses no BLAS and one scipy.fft
    worker. Across BLAS thread counts the sweep records agree only to
    round-off: OpenBLAS's LU (zgetrf) of the cell systems differs in its
    last bits between 1 and 2 threads (measured about 1e-12 relative on
    these near-resonant cells)."""
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
    assert runs[0]["lattice"] == runs[1]["lattice"]
    one = np.array([[float.fromhex(v) for v in row] for row in runs[0]["records"]])
    two = np.array([[float.fromhex(v) for v in row] for row in runs[1]["records"]])
    assert np.all(np.abs(one - two) <= 1e-9 * np.abs(one))
