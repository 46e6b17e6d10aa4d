"""Critical coupling location, threshold space extraction, classification."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from threshold_dirac.potentials import (
    Grid3,
    SpinorField,
    build_potential,
    check_class_c,
    pseudo_inner,
)
from threshold_dirac import critical
from threshold_dirac.critical import (
    classify_lambda_bar,
    critical_couplings,
    decay_decomposition,
    extend_to_grid,
    find_critical_coupling,
    lambda_of,
    sigma_min_at,
)
from threshold_dirac.radial import RadialWell, critical_coupling, tail_ratio
from threshold_dirac.solver import assemble_T, factor, system_matrix

R = 1.0


@pytest.fixture(scope="module")
def crit9():
    """Resonance-class structure (attractive well) on the coarse 9^3 grid."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    return find_critical_coupling(shape, (-2.2, -0.4))


@pytest.fixture(scope="module")
def crit9_bound():
    """Bound-class structure (repulsive well, vanishing tail moments)."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    return find_critical_coupling(shape, (5.0, 7.0))


def test_gstar_matches_matched_radial_oracle(crit9):
    # same smoothed edge on both sides: the gap is pure 3D discretization
    well = RadialWell(1.0, R, -1, crit9.shape.edge_width)
    g_oracle = critical_coupling(well, (-2.2, -0.4))
    assert abs(crit9.g_star - g_oracle) / abs(g_oracle) < 0.03


def test_structure_invariants(crit9):
    assert crit9.dim == 2  # Kramers pair
    assert crit9.sigma_min < 1e-8 * crit9.matrix_scale
    for phi in crit9.basis:
        assert abs(phi.sup_norm() - 1.0) < 1e-12
    # gram matrices hermitian and nonsingular
    for gram in (crit9.gram_n, crit9.gram_m):
        assert np.max(np.abs(gram - gram.conj().T)) < 1e-10 * np.max(np.abs(gram))
        sv = np.linalg.svd(gram, compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]


def test_basis_solves_homogeneous_equation(crit9):
    that = assemble_T(crit9.shape, 0.0)
    sup = crit9.shape.support_indices()
    for phi in crit9.basis:
        flat = phi.values[sup].reshape(-1)
        res = flat - crit9.g_star * (that @ flat)
        assert np.max(np.abs(res)) <= 1e-6 * phi.sup_norm()


def test_subcritical_sigma_bounded(crit9):
    s, scale = sigma_min_at(assemble_T(crit9.shape, 0.0), 0.5 * crit9.g_star)
    assert s > 1e-3 * scale


def test_coupling_covariance():
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    double = shape.rescaled(2.0)
    c1 = find_critical_coupling(shape, (-2.2, -0.4))
    c2 = find_critical_coupling(double, (-1.1, -0.2))
    assert abs(c2.g_star - 0.5 * c1.g_star) < 1e-10 * abs(c1.g_star)


def test_no_dip_raises():
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    with pytest.raises(ValueError, match="not critical in range"):
        find_critical_coupling(shape, (-0.4, -0.05))


# ---------------------------------------------------------------------------
# eigenvalue route


@pytest.fixture(scope="module")
def that9():
    grid = Grid3(R, 9)
    return assemble_T(build_potential(grid, "spherical-well", 1.0, R), 0.0)


def test_critical_couplings_two_in_one_bracket(that9):
    # two Kramers doubles in the bracket: each coupling comes back once
    gs = critical_couplings(that9, (-4.0, -1.5))
    assert len(gs) == 2
    assert abs(gs[0] - (-3.6128926565)) < 1e-9
    assert abs(gs[1] - (-1.8980231788)) < 1e-9


def test_critical_couplings_completeness_loop(that9, monkeypatch):
    # the image of (-6, -1.5) in 1/g holds eight eigenvalues (two Kramers
    # doubles and a fourfold one), more than the first eigs call returns
    ks = []
    shift_invert = critical._shift_invert_eigs

    def spy(fac, shift, k):
        ks.append(k)
        return shift_invert(fac, shift, k)

    monkeypatch.setattr(critical, "_shift_invert_eigs", spy)
    gs = critical_couplings(that9, (-6.0, -1.5))
    assert ks[0] == 6 and max(ks) > 6
    want = (-5.1478784274, -3.6128926565, -1.8980231788)
    assert len(gs) == 3
    assert all(abs(g - w) < 1e-9 for g, w in zip(gs, want))


def test_critical_couplings_outside_spectrum(that9):
    # |mu| <= |T-hat|_1 bounds every eigenvalue: nothing below |g| = 1/|T|_1
    assert critical_couplings(that9, (-0.4, -0.05)) == []
    with pytest.raises(ValueError, match="bracket"):
        critical_couplings(that9, (1.0, 1.0))


def test_inertia_count_certifies_the_couplings_in_a_bracket(that9):
    """At kappa = 0 and V = g W, the crossing count rises across (0.5, 12)
    by the number of critical couplings inside with multiplicity: 12,
    from 5.94 and 7.63 (Kramers doubles) and 8.90 and 10.03 (fourfold).
    That is what the nev-raising loop of critical_couplings argues; it
    returns the four couplings, and the dense spectrum of T-hat holds
    twelve real 1/g in the bracket."""
    from threshold_dirac.probes import crossing_count

    W = build_potential(Grid3(R, 9), "spherical-well", 1.0, R)
    lo, hi = 0.5, 12.0
    rise = crossing_count(W.rescaled(hi), 0.0) - crossing_count(W.rescaled(lo), 0.0)
    assert rise == 12
    gs = critical_couplings(that9, (lo, hi))
    assert np.allclose(gs, [5.94, 7.63, 8.90, 10.03], atol=0.01)
    mus = scipy.linalg.eigvals(that9)
    real = mus[np.abs(mus.imag) <= 1e-8 * np.abs(mus)].real
    assert np.count_nonzero((1.0 / hi < real) & (real < 1.0 / lo)) == rise


def test_gstar_matches_sigma_scan_route(crit9, crit9_bound):
    """g* agrees with the values of the sigma_min scan + golden-section
    search that the eigenvalue route replaced, to 1e-10 relative."""
    grid = Grid3(R, 9)
    cell = build_potential(
        grid, "spherical-well", 1.0, R, w=0.12, cell_average=True, subsamples=5
    )
    crit_cell = find_critical_coupling(cell, (-1.6, -1.0))
    for got, want in (
        (crit9.g_star, -1.898023178830765),
        (crit9_bound.g_star, 5.937573532822952),
        (crit_cell.g_star, -1.2954574410478559),
    ):
        assert abs(got - want) <= 1e-10 * abs(want)
    for crit in (crit9, crit9_bound, crit_cell):
        assert [g for g, _ in crit.sigma_records] == [crit.g_star]


def test_bracket_with_several_couplings_returns_smallest_magnitude():
    """(4, 9) holds 5.93757, 7.63151 and 8.89571 at n = 9. Their sigma_min
    certificates (7.9e-18, 7.2e-18, 4.0e-17 relative) are all round-off,
    so the pick is the certified coupling of smallest |g|, not the
    smallest certificate; every candidate stays in sigma_records."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    crit = find_critical_coupling(shape, (4.0, 9.0))
    assert abs(crit.g_star - 5.937573532822952) <= 1e-10 * 5.94
    gs = [g for g, _ in crit.sigma_records]
    assert len(gs) == 3
    assert all(abs(g - w) < 1e-4 for g, w in zip(gs, (5.93757, 7.63151, 8.89571)))


def test_fourfold_null_space_widens_block():
    """At g* = -5.1479 the null space is four-dimensional: the first block
    of four fills up below the cut, so the block widens and finds all four
    (the dense SVD gave dim 4 as well)."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    crit = find_critical_coupling(shape, (-5.5, -4.8))
    assert abs(crit.g_star - (-5.14787842739795)) <= 1e-10 * 5.15
    assert crit.dim == 4
    that = assemble_T(shape, 0.0)
    for phi in crit.basis:
        flat = phi.values[shape.support_indices()].reshape(-1)
        res = flat - crit.g_star * (that @ flat)
        assert np.max(np.abs(res)) <= 1e-6 * phi.sup_norm()


def test_failed_certificate_never_certifies(monkeypatch):
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    # a failed certificate iteration (failed LU or breakdown) gives NaN
    monkeypatch.setattr(critical, "subspace_iteration", lambda fac, b: None)
    with pytest.raises(ValueError, match="not critical in range"):
        find_critical_coupling(shape, (-2.2, -0.4))


def _count_lu_factor(monkeypatch) -> list:
    calls = []
    lu_factor = scipy.linalg.lu_factor

    def spy(*args, **kwargs):
        calls.append(1)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
    return calls


def test_one_lu_per_candidate(monkeypatch):
    """A one-candidate search at n = 7 makes exactly two LUs: T-hat - s0 I
    for the eigenvalues, and 1 - g T-hat, whose one subspace iteration
    gives both the certificate and the null basis. Its lu_solves are
    ARPACK's matvecs plus 4: that iteration stops after two steps at the
    round-off floor. Counts do not drift with machine load, so running
    all _ITER_STEPS there fails here."""
    grid = Grid3(R, 7)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    calls = _count_lu_factor(monkeypatch)
    solves, matvecs = [], []
    lu_solve, eigs = scipy.linalg.lu_solve, scipy.sparse.linalg.eigs

    def solve_spy(*args, **kwargs):
        solves.append(1)
        return lu_solve(*args, **kwargs)

    def eigs_spy(op, **kwargs):
        def matvec(x):
            matvecs.append(1)
            return op.matvec(x)

        counted = scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return eigs(counted, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_solve", solve_spy)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", eigs_spy)
    crit = find_critical_coupling(shape, (5.0, 9.0))
    assert len(crit.sigma_records) == 1 and crit.dim == 2
    assert len(calls) == 2
    assert len(matvecs) > 0 and len(solves) == len(matvecs) + 4


def test_null_basis_matches_dense_svd_projector():
    """At n = 7 the projector onto span(basis) at g* is the projector
    onto the right singular vectors of 1 - g* T-hat below the search's
    cut (numpy's dense SVD, no subspace iteration) to 1e-12, dim 2."""
    grid = Grid3(R, 7)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    crit = find_critical_coupling(shape, (5.0, 9.0))
    m = system_matrix(crit.g_star * assemble_T(shape, 0.0))
    cut = critical._SUBSPACE_FACTOR * critical._CRITICAL_REL * np.linalg.norm(m, 1)
    _, svals, vh = np.linalg.svd(m)
    null = vh[svals < cut].conj().T
    assert null.shape[1] == crit.dim == 2
    sup = shape.support_indices()
    q = np.linalg.qr(np.stack([phi.values[sup].reshape(-1) for phi in crit.basis], axis=1))[0]
    assert np.max(np.abs(q @ q.conj().T - null @ null.conj().T)) <= 1e-12


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize(
    "lead, dim, blocks",
    [((0.0, 0.0, 10.0), 2, [4]), ((0.0, 0.0, 1e-3), 3, [4]), ((0.0,) * 4, 4, [4, 8])],
)
def test_early_stop_cannot_undercount_null_space(monkeypatch, lead, dim, blocks):
    """M = U diag(s) V^H, n = 200, seeded random unitary U and V, s the
    leading values (in units of the cut) followed by ones. The iteration
    stops after two steps at the round-off floor, yet every singular
    value below the cut is found: a third one 1e-3 cut is kept, one at
    10 cut is not, and four zeros fill the first block, which doubles.
    Each basis spans the dense SVD null space to 1e-10."""
    n, cut = 200, 1e-6
    rng = np.random.default_rng(5)
    s = np.ones(n)
    s[: len(lead)] = np.array(lead) * cut
    m = (_unitary(rng, n) * s) @ _unitary(rng, n).conj().T
    widths = []
    iterate = critical.subspace_iteration

    def spy(fac, b):
        widths.append(b)
        return iterate(fac, b)

    monkeypatch.setattr(critical, "subspace_iteration", spy)
    _, basis = critical._null_basis(factor(m), cut)
    _, svals, vh = np.linalg.svd(m)
    null = vh[svals < cut].conj().T
    assert len(basis) == null.shape[1] == dim
    assert widths == blocks
    assert np.max(np.abs(basis.T @ basis.conj() - null @ null.conj().T)) <= 1e-10


def test_arpack_restarts_share_one_lu(that9, monkeypatch):
    # (-6, -1.5) makes k grow past 6 (see the completeness loop test)
    calls = _count_lu_factor(monkeypatch)
    assert len(critical_couplings(that9, (-6.0, -1.5))) == 3
    assert len(calls) == 1


def test_certificate_bounds_sigma_min_from_above(crit9_bound):
    """The certificate is the smallest Ritz value of the null-basis run,
    an upper bound on sigma_min (interlacing), so it never certifies what
    the dense SVD would reject. At g* it is round-off and the run gives
    the Kramers pair; at 0.9 g* it matches the dense SVD from above."""
    that = assemble_T(crit9_bound.shape, 0.0)
    for g, dim in ((crit9_bound.g_star, 2), (0.9 * crit9_bound.g_star, 0)):
        m = np.eye(that.shape[0], dtype=np.complex128) - g * that
        scale = np.linalg.norm(m, 1)
        sigma, basis = critical._null_basis(factor(m), 1e-7 * scale)
        assert len(basis) == dim
        assert (sigma < 1e-8 * scale) == (dim > 0)
    true = np.linalg.svd(m, compute_uv=False)[-1]
    assert (1.0 - 1e-10) * true <= sigma <= (1.0 + 1e-4) * true


_THREAD_PROBE = """
import json
from threshold_dirac.critical import find_critical_coupling
from threshold_dirac.potentials import Grid3, build_potential
grid = Grid3(1.0, 9)
wells = (
    (build_potential(grid, "spherical-well", 1.0, 1.0, w=0.12, cell_average=True,
                     subsamples=5), (-1.6, -1.0)),
    (build_potential(grid, "spherical-well", 1.0, 1.0), (5.0, 7.0)),
)
out = []
for shape, bracket in wells:
    c = find_critical_coupling(shape, bracket)
    out.append([c.g_star.hex(), c.dim, c.lambda_bar, c.sigma_min / c.matrix_scale])
print(json.dumps(out))
"""


def test_search_deterministic_across_thread_settings():
    """The two benchmark wells give bit-identical g*, dim and lambda-bar
    with 1 and 2 BLAS threads. sigma_min is round-off and moves
    in its last bits with the thread count, so it is only checked against
    the certificate."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        runs.append(json.loads(proc.stdout))
    assert [r[:3] for r in runs[0]] == [r[:3] for r in runs[1]]
    assert all(r[3] < 1e-8 for run in runs for r in run)


# ---------------------------------------------------------------------------
# tail moments


def test_lambda_trivial_cases(crit9):
    grid = crit9.shape.grid
    A = crit9.critical_potential()
    # lower-component field is annihilated by (1+beta)
    vals = np.zeros((grid.n_nodes, 4), dtype=complex)
    vals[:, 2] = np.exp(-grid.radii() ** 2)
    vals[:, 3] = 0.3j * np.exp(-grid.radii() ** 2)
    lam = lambda_of(SpinorField(grid, vals), A)
    assert np.max(np.abs(lam)) == 0.0
    zero = build_potential(grid, "spherical-well", 0.0, R)
    lam0 = lambda_of(crit9.basis[0], zero)
    assert np.max(np.abs(lam0)) == 0.0
    # lower two components of any tail moment vanish identically
    lam1 = lambda_of(crit9.basis[0], A)
    assert lam1[2] == 0 and lam1[3] == 0


def test_lambda_bar_classes(crit9, crit9_bound):
    assert crit9.lambda_bar == 1
    assert crit9_bound.lambda_bar == 0
    # resonance-class moments are far above the classification scale
    assert all(np.linalg.norm(l) > 0.1 for l in crit9.lambda_values)
    assert all(np.linalg.norm(l) < 1e-10 for l in crit9_bound.lambda_values)


def test_lambda_bar_mixed_rejected(crit9):
    fake = crit9
    saved = list(fake.lambda_values)
    fake.lambda_values = [saved[0], np.zeros(4, dtype=complex)]
    try:
        with pytest.raises(ValueError, match="mixed"):
            classify_lambda_bar(fake)
    finally:
        fake.lambda_values = saved


def test_tail_ratio_against_radial_oracle(crit9):
    """Normalization-free |lambda| cross-check: the radial tail ratio
    |G(R)| / sup_r sqrt(G^2+F^2)/r equals |lambda|_2 / (4 pi sup|Phi|)."""
    well = RadialWell(1.0, R, -1, crit9.shape.edge_width)
    g_oracle = critical_coupling(well, (-2.2, -0.4))
    rho_radial = tail_ratio(well, g_oracle)
    rho_3d = np.linalg.norm(crit9.lambda_values[0]) / (4 * np.pi * crit9.basis[0].sup_norm())
    assert abs(rho_3d - rho_radial) / rho_radial < 0.08


# ---------------------------------------------------------------------------
# decay decomposition


def eval_grid_4r():
    return Grid3(4.0 * R, 27)


def test_decay_resonance_class(crit9):
    egrid = eval_grid_4r()
    phi_ext = extend_to_grid(crit9, crit9.basis[0], egrid)
    rep = decay_decomposition(phi_ext, crit9.critical_potential(), crit9.lambda_values[0])
    assert rep["exponent_phi2"] == -1.0
    assert -1.25 < rep["exponent_phi"] < -0.8
    assert rep["exponent_phi1"] <= -1.7
    # pointwise reassembly
    total = rep["phi_1"].values + rep["phi_2"].values
    assert np.max(np.abs(total - phi_ext.values)) < 1e-12


def test_decay_bound_class(crit9_bound):
    egrid = eval_grid_4r()
    phi_ext = extend_to_grid(crit9_bound, crit9_bound.basis[0], egrid)
    rep = decay_decomposition(
        phi_ext, crit9_bound.critical_potential(), crit9_bound.lambda_values[0]
    )
    assert rep["exponent_phi"] <= -1.8


def test_decay_grid_too_small(crit9):
    small = Grid3(2.0 * R, 13)
    phi_ext = extend_to_grid(crit9, crit9.basis[0], small)
    with pytest.raises(ValueError):
        decay_decomposition(phi_ext, crit9.critical_potential(), crit9.lambda_values[0])


def test_lambda_decay_consistency(crit9, crit9_bound):
    """The two independent classifiers agree: lambda_bar = 0 iff the full
    state decays at least like |x|^{-1.8}."""
    for crit in (crit9, crit9_bound):
        egrid = eval_grid_4r()
        phi_ext = extend_to_grid(crit, crit.basis[0], egrid)
        rep = decay_decomposition(phi_ext, crit.critical_potential(), crit.lambda_values[0])
        fast = rep["exponent_phi"] <= -1.8
        assert fast == (crit.lambda_bar == 0)


# ---------------------------------------------------------------------------
# projectors


def random_fields(grid, count, rng):
    fields = []
    for _ in range(count):
        re = rng.normal(size=(grid.n_nodes, 4))
        im = rng.normal(size=(grid.n_nodes, 4))
        damp = np.exp(-grid.radii() ** 2)[:, None]
        fields.append(SpinorField(grid, damp * (re + 1j * im)))
    return fields


def test_projector_algebra(crit9, rng):
    A = crit9.critical_potential()
    grid = crit9.shape.grid
    for f in random_fields(grid, 20, rng):
        scale = f.sup_norm()
        for split in ("M", "N"):
            par = crit9.project(split + "_par", f)
            perp = crit9.project(split + "_perp", f)
            assert np.max(np.abs(par.values + perp.values - f.values)) < 1e-10 * scale
            twice = crit9.project(split + "_par", par)
            assert np.max(np.abs(twice.values - par.values)) < 1e-10 * scale
        perp = crit9.project("M_perp", f)
        pair = max(abs(pseudo_inner(phi, A, perp)) for phi in crit9.basis)
        ref = max(abs(pseudo_inner(phi, A, f)) for phi in crit9.basis) + 1e-30
        assert pair < 1e-10 * max(1.0, ref)


def test_projector_reproduces_span(crit9):
    A = crit9.critical_potential()
    grid = crit9.shape.grid
    from threshold_dirac.potentials import fold_rows

    aphi = SpinorField(grid, fold_rows(A.values, crit9.basis[0].values))
    par = crit9.project("M_par", aphi)
    assert np.max(np.abs(par.values - aphi.values)) < 1e-10 * aphi.sup_norm()
    nphi = crit9.basis[1]
    npar = crit9.project("N_par", nphi)
    assert np.max(np.abs(npar.values - nphi.values)) < 1e-10


def test_project_rejects_unknown_names_and_singular_grams(crit9):
    f = crit9.basis[0]
    with pytest.raises(ValueError, match="unknown projector"):
        crit9.project("N_side", f)
    for gram_m in (np.ones_like(crit9.gram_m), np.zeros_like(crit9.gram_m)):
        flat = dataclasses.replace(crit9, gram_m=gram_m)
        with pytest.raises(ValueError, match="singular gram"):
            flat.project("N_par", f)


def test_mperp_invariance_under_threshold_T(crit9, rng):
    """T_1 maps the A-orthogonal complement of N into itself: pairings of
    T h_perp with every basis state stay at quadrature-roundoff level."""
    A = crit9.critical_potential()
    grid = crit9.shape.grid
    that = assemble_T(crit9.shape, 0.0)
    sup = crit9.shape.support_indices()
    for f in random_fields(grid, 5, rng):
        perp = crit9.project("M_perp", f)
        flat = perp.values[sup].reshape(-1)
        tvals = crit9.g_star * (that @ flat).reshape(-1, 4)
        full = np.zeros_like(perp.values)
        full[sup] = tvals
        tf = SpinorField(grid, full)
        for phi in crit9.basis:
            assert abs(pseudo_inner(phi, A, tf)) < 1e-8 * f.sup_norm()


# ---------------------------------------------------------------------------
# class-C report wiring


def test_class_c_report(crit9, crit9_bound):
    egrid = eval_grid_4r()
    phi_ext = extend_to_grid(crit9, crit9.basis[0], egrid)
    decay = decay_decomposition(
        phi_ext, crit9.critical_potential(), crit9.lambda_values[0]
    )
    rep = check_class_c(crit9.critical_potential(), crit9, decay_report=decay)
    assert rep["b_weighted_finite"]
    assert rep["c_nondegenerate"]
    assert rep["e_nonzero_moment"]
    # condition (d): each class agrees with its own decay report (phi
    # -1.08 and phi_1 -2.09 for the resonance class, -2.09 for both in
    # the bound class) and disagrees with the other class's
    ext_b = extend_to_grid(crit9_bound, crit9_bound.basis[0], egrid)
    A_b = crit9_bound.critical_potential()
    decay_b = decay_decomposition(ext_b, A_b, crit9_bound.lambda_values[0])
    assert rep["d_decay_consistent"] is True
    assert check_class_c(A_b, crit9_bound, decay_report=decay_b)["d_decay_consistent"] is True
    crossed = (
        check_class_c(crit9.critical_potential(), crit9, decay_report=decay_b),
        check_class_c(A_b, crit9_bound, decay_report=decay),
    )
    assert [r["d_decay_consistent"] for r in crossed] == [False, False]
    assert check_class_c(A_b, crit9_bound)["d_decay_consistent"] == "not evaluated"


def test_null_basis_gauge_pinned_against_roundoff(crit9_bound):
    """A Kramers pair is degenerate, so round-off in the matrix used to
    rotate the returned vectors inside their plane by O(1). The pinned
    basis depends on the null space only: a 1e-14 relative perturbation
    moves each vector by far less than 1e-10."""
    that = assemble_T(crit9_bound.shape, 0.0)
    m = np.eye(that.shape[0], dtype=np.complex128) - crit9_bound.g_star * that
    cut = 10 * 1e-8 * np.linalg.norm(m, 1)
    rng = np.random.default_rng(11)
    e = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    e *= 1e-14 * np.linalg.norm(m) / np.linalg.norm(e)
    _, base = critical._null_basis(factor(m), cut)
    _, moved = critical._null_basis(factor(m + e), cut)
    assert base.shape == moved.shape == (2, m.shape[0])
    assert np.allclose(base.conj() @ base.T, np.eye(2), atol=1e-13)
    assert np.max(np.linalg.norm(m @ base.T, axis=0)) < cut
    for a, b in zip(base, moved):
        assert np.linalg.norm(a - b) <= 1e-10
