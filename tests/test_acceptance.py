"""Full acceptance battery for the threshold laboratory.

One test (or one clause) per gate, tolerances pinned inline.  The two
expensive campaigns (coupling refinement against the radial oracle and
the divergence sweep) run once as module fixtures and are shared by
their clause tests, with wall-clock budgets asserted.

Two asserts record measured, understood limitations and are left red
on purpose; the analysis sits in the docstring next to each:

* the cross term of the third-order split is 0.67 of the retained
  terms, not zero (the exchange argument only forces it imaginary;
  its closed form pairs the upper and lower blocks and is nonzero),
* the sharp-well coupling gap sits near 4% from 13^3 to 17^3 nodes
  instead of shrinking below 3% (the floor is the model of the well,
  not grid size: the clipped cell average keeps only 0.950, 0.943 and
  0.947 of the ball's volume at 13^3, 15^3 and 17^3).
"""

import time

import numpy as np
import pytest

from test_solver import defect_residual, make_grid

from threshold_dirac.algebra import alpha_stack, beta, free_dirac_symbol
from threshold_dirac.cli import main as cli_main
from threshold_dirac.cli import oracle_convergence
from threshold_dirac.critical import (
    decay_decomposition,
    extend_to_grid,
    find_critical_coupling,
)
from threshold_dirac.forms import gamma_spectrum, s_split, taylor_form, taylor_form_fd
from threshold_dirac.kernel import fd_reference, green_dk
from threshold_dirac.potentials import Grid3, SpinorField, build_potential, fold_rows
from threshold_dirac.probes import (
    SweepPlan,
    boundstate_track,
    default_probe_field,
    derivative_alpha,
    derivative_recursion,
    inverse_bound_probe,
    lambda1_probe,
    resonance_sweep,
)
from threshold_dirac.solver import (
    free_solution,
    solve_generalized,
    symmetry_probe,
)

pytestmark = pytest.mark.acceptance

R = 1.0


@pytest.fixture(scope="module")
def crit_res():
    """Resonance-class reference structure (attractive well, 9^3)."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    return find_critical_coupling(shape, (-2.2, -0.4))


@pytest.fixture(scope="module")
def crit_bound():
    """Bound-class reference structure (repulsive well, 9^3)."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    return find_critical_coupling(shape, (5.0, 7.0))


@pytest.fixture(scope="module")
def b0(crit_bound):
    return build_potential(crit_bound.shape.grid, "spherical-well", 1.0, R)


# ---------------------------------------------------------------------------
# 1. matrix algebra: anticommutators, Hermiticity, symbol square


def test_algebra_relations_exact():
    t0 = time.perf_counter()
    alphas = alpha_stack()
    b = beta()
    eye = np.eye(4)
    worst = 0.0
    for l in range(3):
        for m in range(3):
            anti = alphas[l] @ alphas[m] + alphas[m] @ alphas[l]
            worst = max(worst, np.max(np.abs(anti - 2.0 * (l == m) * eye)))
        worst = max(worst, np.max(np.abs(alphas[l] @ b + b @ alphas[l])))
        worst = max(worst, np.max(np.abs(alphas[l] - alphas[l].conj().T)))
    worst = max(worst, np.max(np.abs(b @ b - eye)))
    worst = max(worst, np.max(np.abs(b - b.conj().T)))
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.normal(size=3)
        sym = free_dirac_symbol(p)
        worst = max(worst, np.max(np.abs(sym @ sym - (1.0 + p @ p) * eye)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-13, f"algebra identity residual {worst:.2e}"
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. kernel k-derivatives against Richardson finite differences


def test_kernel_derivatives_match_richardson():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        k = rng.uniform(0.05, 1.2)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        x = direction * rng.uniform(0.1, 1.5)
        for order in (1, 2, 3):
            direct = green_dk(k, x, order)
            ref = fd_reference(k, x, order)
            rel = np.max(np.abs(direct - ref)) / np.max(np.abs(ref))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"kernel derivative mismatch {worst:.2e}"
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. defect identity under refinement


def test_defect_identity_residual_drops_3x_per_refinement():
    """Applying (E - D0_h) to T f recovers A f; the residual must fall by
    at least 3x per grid halving (h^2 scheme would give 4x)."""
    t0 = time.perf_counter()
    r9 = defect_residual(9)
    r17 = defect_residual(17)
    r33 = defect_residual(33)
    elapsed = time.perf_counter() - t0
    assert r17 < r9 / 3.0, f"first refinement only {r9 / r17:.2f}x"
    assert r33 < r17 / 3.0, f"second refinement only {r17 / r33:.2f}x"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 4. free case: no potential means the plane wave is returned untouched


def test_free_case_returns_plane_wave_exactly():
    grid = make_grid(9)
    zero = build_potential(grid, "spherical-well", 0.0, R)
    egrid = Grid3(2.0, 13)
    for j in (1, 2):
        kvec = (0.1, -0.05, 0.2) if j == 1 else (0.0, 0.0, 0.3)
        phi, diag = solve_generalized(zero, None, j, kvec, eval_grid=egrid)
        chi = free_solution(j, kvec)
        diff = np.max(np.abs(phi.values - chi.values_at(egrid.points)))
        assert diff <= 1e-13
        assert diag["residual"] == 0.0


# ---------------------------------------------------------------------------
# 5. pairing symmetry on random smooth configurations


def test_pairing_symmetry_ten_random_configs():
    """<h, A, T^B g> = <T^A h, B, g> at and below threshold (k = 0 or
    imaginary), where the kernel is conjugate-symmetric."""
    grid = make_grid(9)
    rng = np.random.default_rng(17)
    for trial in range(10):
        gA = rng.uniform(0.4, 1.3) * rng.choice([-1.0, 1.0])
        gB = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        wB = rng.uniform(0.3, 0.55)
        A = build_potential(grid, "spherical-well", gA, R)
        B = build_potential(grid, "gaussian-bump", gB, 0.8 * R, w=wB)
        r2 = np.sum(grid.points**2, axis=1)
        kph = rng.normal(size=3) * 0.5
        base = np.exp(-(0.8 + 0.8 * rng.random()) * r2)
        phase = np.exp(1j * (grid.points @ kph))
        wh = rng.normal(size=4) + 1j * rng.normal(size=4)
        wg = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = SpinorField(grid, base[:, None] * phase[:, None] * wh[None, :])
        g = SpinorField(grid, base[:, None] * phase.conj()[:, None] * wg[None, :])
        k = 0.0 if trial % 2 == 0 else 1j * rng.uniform(0.1, 0.4)
        s1, s2 = symmetry_probe(A, B, k, h, g)
        assert abs(s1 - s2) <= 1e-8 * max(abs(s1), abs(s2)), (
            f"trial {trial}: {s1} vs {s2}"
        )


# ---------------------------------------------------------------------------
# 6. coupling refinement against the radial oracle


@pytest.fixture(scope="module")
def coupling_campaign():
    t0 = time.perf_counter()
    rows = oracle_convergence()
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_coupling_gap_shrinks_monotonically(coupling_campaign):
    rows, elapsed = coupling_campaign
    gaps = [r[3] for r in rows]
    assert len(gaps) == 3
    assert gaps[0] > gaps[1] > gaps[2], f"gaps not monotone: {gaps}"
    # ~15 minutes, with a scheduling allowance on a shared box
    assert elapsed <= 1080.0, f"campaign took {elapsed:.0f}s"


def test_coupling_final_gap_within_three_percent(coupling_campaign):
    """Measured: 3.878% at 13^3 nodes with the sharp cell-averaged well
    (edge width 0, 15 subsamples per cell).  Finer grids do not cross 3%:
    with the same well and a shift-invert eigen search that reproduces
    the 13^3 coupling g* = -1.1560833739 exactly, the gap is 4.137% at
    15^3 (4.139% with 31 subsamples; 18 s) and 3.727% at 17^3 (about
    50 s).  A ramped control well (edge width 0.4, against the matching
    radial oracle) does converge like h^2: 3.70%, 1.61% and 0.92% at
    9^3, 13^3 and 17^3.  The floor is the model of the sharp well,
    neither grid size nor cost: the cell average zeroes every cell whose
    centre lies outside R, and the grid stops at R, so the discrete
    volume is 0.950, 0.943 and 0.947 of 4 pi / 3 at 13^3, 15^3 and 17^3
    and does not converge.  Averaged over every cell of a grid padded by
    one layer, the volume ratio is 0.999-1.000 and the gap shrinks like
    h^2 (2.216%, 1.408%, 0.991%, 0.728% at h = 1/4 ... 1/7).  Left red
    until the sharp well is built that way; the refinement trend above
    is the meaningful check.
    """
    rows, _ = coupling_campaign
    final_gap = rows[-1][3]
    assert final_gap <= 0.03, f"final oracle gap {final_gap:.4%}"


# ---------------------------------------------------------------------------
# 7. tail-moment class agrees with the measured decay class


def test_tail_class_matches_decay_exponent(crit_res, crit_bound):
    egrid = Grid3(4.0 * R, 33)
    for crit in (crit_res, crit_bound):
        phi_ext = extend_to_grid(crit, crit.basis[0], egrid)
        rep = decay_decomposition(
            phi_ext, crit.critical_potential(), crit.lambda_values[0]
        )
        fast = rep["exponent_phi"] <= -1.8
        assert fast == (crit.lambda_bar == 0), (
            f"decay verdict {rep['exponent_phi']:.2f} vs class {crit.lambda_bar}"
        )


# ---------------------------------------------------------------------------
# 8. Taylor-form suite


def test_form_matrices_hermitian_antihermitian(crit_res, crit_bound):
    for crit in (crit_res, crit_bound):
        A = crit.critical_potential()
        Rm = taylor_form(A, crit, 2)
        Sm = taylor_form(A, crit, 3)
        assert np.linalg.norm(Rm - Rm.conj().T) <= 1e-6 * np.linalg.norm(Rm)
        assert np.linalg.norm(Sm + Sm.conj().T) <= 1e-6 * np.linalg.norm(Sm)


def test_taylor_forms_match_fd_oracle(crit_res, crit_bound):
    for crit in (crit_res, crit_bound):
        A = crit.critical_potential()
        fds = taylor_form_fd(A, crit)
        for order in (1, 2, 3):
            direct = taylor_form(A, crit, order)
            fd = fds[order]
            scale = max(np.linalg.norm(direct), np.linalg.norm(fd))
            # natural-scale floor, as in compute_forms: Q1 of the bound
            # class is zero by theory, so a purely relative gate would be
            # relative to round-off
            floor = 1e-12 * np.linalg.norm(crit.gram_m)
            assert np.linalg.norm(direct - fd) <= 1e-4 * scale + floor, (
                f"order {order} mismatch"
            )


def test_third_order_diagonal_imaginary_with_positive_weight(crit_bound):
    A = crit_bound.critical_potential()
    Sm = taylor_form(A, crit_bound, 3)
    scale = np.linalg.norm(Sm)
    assert np.max(np.abs(np.diag(Sm).real)) <= 1e-10 * scale
    assert np.min(np.abs(np.diag(Sm).imag)) > 1e-2 * scale
    for phi in crit_bound.basis:
        assert s_split(A, phi).C1 > 0.0


def test_third_order_cross_term_vanishes(crit_bound):
    """Measured: s1 = -0.0666i, s2 = +0.3440i, s3 = -0.4442i on the
    reference structure; |s2| is 0.67 of |s1| + |s3|, not zero, and
    s1+s2+s3 = -0.1668i matches the assembled S_pp = -0.1660i.  The cross
    term has the closed form (m = sum w A Phi, xi as in s_split)

        s2 = (12 pi)^(-1/2) sum_l (xi_l^dag alpha_l m - m^dag alpha_l xi_l)
           = 2i (12 pi)^(-1/2) Im sum_l xi_l^dag alpha_l m.

    The exchange argument only makes s2 imaginary (asserted in the unit
    suite); nothing makes sum xi^dag alpha m real.  With lambda = 0 it
    pairs the upper-block xi with the lower block of m, and the Dirac
    lower components carry a relative factor i.  The claimed
    cancellation silently commutes a matrix-valued bilinear.  The split
    itself is verified independently: s1 equals its dipole reduction,
    s3 equals the moment square exactly, s2 equals the closed form
    above, and s1+s2+s3 reproduces the assembled third-order diagonal
    to 0.5%.  Red records the measurement, not a solver defect.
    """
    A = crit_bound.critical_potential()
    for phi in crit_bound.basis:
        sp = s_split(A, phi)
        assert abs(sp.s2) <= 1e-10 * (abs(sp.s1) + abs(sp.s3)), (
            f"s2 = {sp.s2:.4f}, |s1|+|s3| = {abs(sp.s1) + abs(sp.s3):.4f}"
        )


# ---------------------------------------------------------------------------
# 9. divergence law of the bound class


@pytest.fixture(scope="module")
def divergence_campaign(crit_bound, b0):
    t0 = time.perf_counter()
    egrid = Grid3(2.0, 11)
    ks = tuple(np.geomspace(0.02, 0.2, 7))

    plan = SweepPlan(crit_bound, b0, mus=(0.0,), ks=ks, js=(1, 2), eval_grid=egrid)
    res = resonance_sweep(plan)
    g1 = float(res.gammas[0])
    by_k = {}
    for r in res.records:
        by_k.setdefault(r.k, []).append(r.sup_norm)
    sup0 = [max(by_k[k]) for k in ks]
    slope_zero = float(np.polyfit(np.log(ks), np.log(sup0), 1)[0])

    sup_curve = []
    for k in ks:
        p = SweepPlan(
            crit_bound, b0, mus=(-g1 * k * k,), ks=(k,), js=(1, 2), eval_grid=egrid
        )
        sup_curve.append(max(r.sup_norm for r in resonance_sweep(p).records))
    slope_curve = float(np.polyfit(np.log(ks), np.log(sup_curve), 1)[0])

    k0 = 0.05
    mu_star = -g1 * k0 * k0
    mus_scan = tuple(np.linspace(0.2 * mu_star, 2.2 * mu_star, 11))
    scan = resonance_sweep(
        SweepPlan(crit_bound, b0, mus=mus_scan, ks=(k0,), js=(1,), eval_grid=egrid)
    )
    sup = np.array([r.sup_norm for r in scan.records])
    npar = np.array([r.n_part_norm for r in scan.records])
    resid = np.array([r.residual_part for r in scan.records])
    elapsed = time.perf_counter() - t0
    return {
        "gamma1": g1,
        "slope_zero": slope_zero,
        "slope_curve": slope_curve,
        "mu_star": mu_star,
        "mus_scan": mus_scan,
        "mu_peak": float(mus_scan[int(np.argmax(sup))]),
        "spike": float(np.max(npar) / np.median(npar)),
        "residual_band": float(np.max(resid) / np.median(resid)),
        "elapsed": elapsed,
    }


def test_zero_detuning_growth_rate(crit_bound, divergence_campaign):
    """At zero detuning the bound-class response grows like 1/k.

    The span component of the response is (pairing) / (denominator).
    The pairing <A Phi, chi_k> has no k^0 term: lambda = 0 and
    u_j(0) is upper-only, so the k = 0 plane wave pairs to zero
    (measured 3e-16).  Its k^1 term does not vanish (|<A Phi, chi_k>| =
    1.91e-2, 3.82e-2, 7.62e-2 at k = 0.02, 0.04, 0.08 for j = 1).  The
    denominator has no k^1 term either (Q1 = 0), so with mu = 0 it is
    the curvature term R k^2 (|R| = 0.68).  Hence O(k) / O(k^2) = 1/k;
    measured slope -1.00.  The 1/k^2 rate belongs to the resonance
    curve, where the test below measures -2.01.  The test asserts both
    premises on the structure and then the rate.
    """
    A = crit_bound.critical_potential()
    sup = A.support_indices()
    pts = A.grid.points[sup]
    w = A.grid.weights[sup]
    d = 0.02
    for phi in crit_bound.basis:
        aphi = fold_rows(A.values[sup], phi.values[sup])
        scale = float(np.sum(w * np.linalg.norm(aphi, axis=1)))
        for j in (1, 2):

            def pairing(k):
                chi = free_solution(j, (0.0, 0.0, k)).values_at(pts)
                return complex(np.sum(w * np.einsum("ti,ti->t", aphi.conj(), chi)))

            slope_k = (pairing(d) - pairing(-d)) / (2.0 * d)
            assert abs(pairing(0.0)) <= 1e-12 * scale, "k^0 pairing is not zero"
            assert abs(slope_k) >= 1e-2 * scale * R, "k^1 pairing vanishes"
    Q1 = taylor_form(A, crit_bound, 1)
    Rm = taylor_form(A, crit_bound, 2)
    assert np.linalg.norm(Q1) <= 1e-10 * np.linalg.norm(Rm)
    c = divergence_campaign
    assert abs(c["slope_zero"] + 1.0) <= 0.3, (
        f"zero-detuning slope {c['slope_zero']:.3f}"
    )


def test_resonance_curve_growth_rate(divergence_campaign):
    c = divergence_campaign
    assert abs(c["slope_curve"] + 2.0) <= 0.3, (
        f"on-curve slope {c['slope_curve']:.3f}"
    )


def test_response_peak_tracks_curvature_prediction(divergence_campaign):
    c = divergence_campaign
    assert abs(c["mu_peak"] - c["mu_star"]) <= 0.2 * abs(c["mu_star"]), (
        f"peak at {c['mu_peak']:.6f}, predicted {c['mu_star']:.6f}"
    )


def test_span_part_spikes_and_residual_stays_bounded(divergence_campaign):
    c = divergence_campaign
    assert c["spike"] >= 10.0, f"span spike only {c['spike']:.1f}x"
    assert c["residual_band"] <= 5.0, f"residual band {c['residual_band']:.2f}x"


def test_divergence_campaign_runtime(divergence_campaign):
    # ~30 minutes budget; the campaign fixture took 16-18 s at the default grids
    # on a 2-core box
    assert divergence_campaign["elapsed"] <= 2160.0


# ---------------------------------------------------------------------------
# 10. bound-state line


def test_bound_state_line_slope_and_sign(crit_bound, b0):
    mus = (-0.002, -0.0055, -0.009, -0.0125, -0.016)
    plan = SweepPlan(
        crit_bound,
        b0,
        mus=mus,
        ks=(0.1,),
        n_kappa=200,
        kappa_range=(0.02, 0.3),
        bound_mode="eigen",
    )
    recs = boundstate_track(plan)
    found = {r.mu for r in recs}
    assert found == set(mus), f"missing crossings for {set(mus) - found}"
    kap = np.array([min(r.kappa for r in recs if r.mu == mu) for mu in mus])
    mu_arr = np.array(mus)
    slope = float(np.sum(mu_arr * kap**2) / np.sum(kap**4))
    Rm = taylor_form(crit_bound.critical_potential(), crit_bound, 2)
    g1 = float(gamma_spectrum(crit_bound, b0, Rm).gammas[0])
    assert abs(slope - g1) <= 0.15 * abs(g1), (
        f"line slope {slope:.4f} vs curvature {g1:.4f}"
    )
    wrong = boundstate_track(
        SweepPlan(
            crit_bound,
            b0,
            mus=(0.004, 0.016),
            ks=(0.1,),
            n_kappa=200,
            kappa_range=(0.02, 0.3),
            bound_mode="eigen",
        )
    )
    assert wrong == [], f"crossings on the wrong detuning sign: {wrong}"


# ---------------------------------------------------------------------------
# 11. inverse-bound probes


def test_inverse_bound_band_and_scaling(crit_bound, b0):
    probe = default_probe_field(crit_bound)
    phi0 = crit_bound.basis[0]
    perp = []
    for mu in (0.08, 0.2):
        for k in (0.1, 0.2, 0.4):
            rep = inverse_bound_probe(crit_bound, b0.rescaled(mu), (0, 0, k), phi0, probe)
            perp.append(rep["n_perp_mperp"])
    perp = np.array(perp)
    band = float(np.max(perp) / np.median(perp))
    assert band <= 5.0, f"span-orthogonal band {band:.2f}x"

    ks = (0.05, 0.1, 0.2)
    par = [
        inverse_bound_probe(crit_bound, b0.rescaled(0.2), (0, 0, k), phi0, probe)[
            "n_par_mperp"
        ]
        for k in ks
    ]
    slope = float(np.polyfit(np.log(ks), np.log(par), 1)[0])
    assert abs(slope - 2.0) <= 0.3, f"span-part slope {slope:.3f}"


# ---------------------------------------------------------------------------
# 12. derivative recursion: FD oracle and growth envelope


def test_derivative_recursion_matches_fd(crit_bound, b0):
    A = crit_bound.critical_potential()
    B = b0.rescaled(0.1)
    egrid = Grid3(2.0, 11)
    rec = derivative_recursion(A, B, 1, (0.0, 0.0, 0.2), 1, eval_grid=egrid)
    d = 1e-3
    up, _ = solve_generalized(A, B, 1, (0.0, 0.0, 0.2 + d), eval_grid=egrid)
    dn, _ = solve_generalized(A, B, 1, (0.0, 0.0, 0.2 - d), eval_grid=egrid)
    fd = (up.values - dn.values) / (2.0 * d)
    w = 1.0 / (1.0 + np.linalg.norm(egrid.points, axis=1))
    err = np.max(w * np.linalg.norm(rec["phi_m"].values - fd, axis=1))
    ref = np.max(w * np.linalg.norm(fd, axis=1))
    assert err / ref <= 1e-3, f"weighted FD mismatch {err / ref:.2e}"


def test_derivative_growth_within_fitted_envelope(crit_bound, b0):
    """Weighted derivative norms against C_m (k^-m + alpha^(m+1)) on the
    small-k side of the resonance (the envelope is an asymptotic
    statement; cells near the peak leave its regime and are studied in
    scripts/derivative_growth.py instead)."""
    A = crit_bound.critical_potential()
    egrid = Grid3(2.0, 11)
    ks = (0.02, 0.03, 0.045, 0.07, 0.1)
    for mu in (0.05, 0.2):
        B = b0.rescaled(mu)
        ratios = {1: [], 2: []}
        for k in ks:
            rec = derivative_recursion(A, B, 1, (0.0, 0.0, k), 2, eval_grid=egrid)
            alpha = derivative_alpha(crit_bound, B, k)
            for m in (1, 2):
                env = k ** (-m) + alpha ** (m + 1)
                ratios[m].append(rec["orders"][m] / env)
        for m in (1, 2):
            arr = np.array(ratios[m])
            width = float(np.max(arr) / np.min(arr))
            assert width <= 10.0, f"mu={mu} m={m}: band width {width:.2f}x"


# ---------------------------------------------------------------------------
# 13. CLI determinism


SOLVE_CONFIG = """
[grid]
L = 1.0
n = 7

[eval]
L = 1.5
n = 9

[potential]
shape = spherical-well
g = -1.2
R = 1.0
"""


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "solve.ini"
    cfg.write_text(SOLVE_CONFIG)
    pairs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"field_{tag}.csv")
        assert cli_main(["solve", "--config", str(cfg), "--kz", "0.25", "--out", out]) == 0
        pairs.append(out)
    assert open(pairs[0], "rb").read() == open(pairs[1], "rb").read()

    kc = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"kernel_{tag}.csv")
        assert cli_main(["kernel-check", "--samples", "12", "--out", out]) == 0
        kc.append(out)
    assert open(kc[0], "rb").read() == open(kc[1], "rb").read()


# ---------------------------------------------------------------------------
# reported, non-gating: divergence rate of the resonance class


def test_resonance_class_rate_reported(crit_res):
    """The 1/r-tail class diverges like 1/k; reported for the record
    but not gated (finding a clean configuration is itself part of the
    experiment)."""
    ks = (0.08, 0.16, 0.32)
    recs = lambda1_probe(crit_res, None, ks)
    sups = [r["sup_norm"] for r in recs]
    slope = float(np.polyfit(np.log(ks), np.log(sups), 1)[0])
    print(f"resonance-class growth slope: {slope:.3f} (target -1 +/- 0.3)")
    assert np.isfinite(slope)
