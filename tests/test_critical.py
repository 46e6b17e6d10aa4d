"""Critical coupling location, threshold space extraction, classification."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from threshold_dirac.algebra import one_plus_beta
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
    decay_decomposition,
    extend_to_grid,
    find_critical_coupling,
    lambda_of,
    sigma_min_at,
)
from threshold_dirac.radial import RadialWell, critical_coupling, tail_ratio
from threshold_dirac.solver import assemble_T, residual_certificate, symmetry_sectors, system_matrix

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


def _couplings(shape, bracket) -> list:
    """The couplings of a search's records, ascending."""
    return [g for g, _ in find_critical_coupling(shape, bracket).sigma_records]


def test_critical_couplings_two_in_one_bracket():
    # two Kramers doubles in the bracket: each coupling comes back once
    shape = build_potential(Grid3(R, 9), "spherical-well", 1.0, R)
    gs = _couplings(shape, (-4.0, -1.5))
    assert len(gs) == 2
    assert abs(gs[0] - (-3.6128926565)) < 1e-9
    assert abs(gs[1] - (-1.8980231788)) < 1e-9


def test_critical_couplings_outside_spectrum():
    # no eigenvalue of T-hat in the image of (-0.4, -0.05): not critical
    shape = build_potential(Grid3(R, 9), "spherical-well", 1.0, R)
    with pytest.raises(ValueError, match="not critical in range"):
        find_critical_coupling(shape, (-0.4, -0.05))
    with pytest.raises(ValueError, match="bracket"):
        find_critical_coupling(shape, (1.0, 1.0))


def test_inertia_count_certifies_the_couplings_in_a_bracket(that9):
    """At kappa = 0 and V = g W, the crossing count rises across (0.5, 12)
    by the number of critical couplings inside with multiplicity: 12,
    from 5.94 and 7.63 (Kramers doubles) and 8.90 and 10.03 (fourfold).
    The search's sector eigensolves return the four couplings, and the
    dense spectrum of T-hat holds twelve real 1/g in the bracket."""
    from threshold_dirac.probes import crossing_count

    W = build_potential(Grid3(R, 9), "spherical-well", 1.0, R)
    lo, hi = 0.5, 12.0
    rise = crossing_count(W.rescaled(hi), 0.0) - crossing_count(W.rescaled(lo), 0.0)
    assert rise == 12
    gs = _couplings(W, (lo, hi))
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
    """At g* = -5.1479 the null space is four-dimensional: four sector
    eigenvectors are certified at the winner's g and all join its basis
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

    # a certificate that comes out NaN (a kernel row that is not finite)
    def nan_certificate(k, V, fields, couplings):
        return np.full((len(couplings), len(fields)), np.nan), np.ones(len(couplings))

    monkeypatch.setattr(critical, "residual_certificate", nan_certificate)
    with pytest.raises(ValueError, match="not critical in range"):
        find_critical_coupling(shape, (-2.2, -0.4))


def test_search_makes_no_lu_and_no_eigs_call(monkeypatch):
    """The search solves dense Hermitian eigenproblems on the sector
    blocks (or one full-size block) and certifies by kernel rows: no
    lu_factor, no lu_solve and no ARPACK call, on a C4h well and on a
    well with no symmetry."""
    calls = []
    for module, name in ((scipy.linalg, "lu_factor"), (scipy.linalg, "lu_solve"),
                         (scipy.sparse.linalg, "eigs")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k)
        )
    grid = Grid3(R, 7)
    for components, bracket in (((1.0, 0.0, 0.0, 0.0), (5.0, 9.0)),
                                ((1.0, 0.2, -0.1, 0.3), (5.0, 9.0))):
        shape = build_potential(grid, "spherical-well", 1.0, R, components=components)
        assert find_critical_coupling(shape, bracket).dim == 2
    assert calls == []


def test_indefinite_shape_raises_naming_the_node():
    """The pencil needs +-W positive definite at every support node: a
    shape with one node where |a| > a0 raises ValueError naming that
    node, and a shape whose a0 changes sign names the first node of the
    minority sign. No node is skipped and nothing falls back."""
    grid = Grid3(R, 7)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    sup = shape.support_indices()
    for node, row in ((sup[5], (0.5, 0.0, 0.6, 0.0)), (sup[-3], (-0.2, 0.0, 0.0, 0.0))):
        values = shape.values.copy()
        values[node] = row
        bad = dataclasses.replace(shape, values=values)
        with pytest.raises(ValueError, match=f"not definite at support node {node} "):
            find_critical_coupling(bad, (5.0, 9.0))


def test_trivial_group_shape_is_one_block_matching_dense_eigvals(monkeypatch):
    """A vector shape with components (1, 0.2, -0.1, 0.3) admits no lattice
    symmetry: the search solves one full-size pencil, and its g* is 1/mu
    for the dense eigenvalue mu of T-hat (scipy.linalg.eigvals) nearest
    it, to 1e-12 relative."""
    grid = Grid3(R, 7)
    shape = build_potential(grid, "spherical-well", 1.0, R, components=(1.0, 0.2, -0.1, 0.3))
    assert len(symmetry_sectors(shape)) == 1
    sizes = []
    eigh = scipy.linalg.eigh

    def spy(a, b, **kwargs):
        sizes.append(len(a))
        return eigh(a, b, **kwargs)

    monkeypatch.setattr(critical.sla, "eigh", spy)
    crit = find_critical_coupling(shape, (5.0, 9.0))
    n = 4 * len(shape.support_indices())
    assert sizes == [n] and crit.dim == 2
    mus = scipy.linalg.eigvals(assemble_T(shape, 0.0))
    mu = mus[np.argmin(np.abs(mus - 1.0 / crit.g_star))]
    assert abs(mu.imag) <= 1e-12 * abs(mu)
    assert abs(crit.g_star - 1.0 / mu.real) <= 1e-12 * abs(crit.g_star)


def test_null_basis_matches_dense_svd_projector():
    """At n = 7 the projector onto span(basis) at g* is the projector
    onto the right singular vectors of 1 - g* T-hat below ten times the
    certificate's gate (numpy's dense SVD) to 1e-12, dim 2."""
    grid = Grid3(R, 7)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    crit = find_critical_coupling(shape, (5.0, 9.0))
    m = system_matrix(crit.g_star * assemble_T(shape, 0.0))
    cut = 10 * critical._CRITICAL_REL * np.linalg.norm(m, 1)
    _, svals, vh = np.linalg.svd(m)
    null = vh[svals < cut].conj().T
    assert null.shape[1] == crit.dim == 2
    sup = shape.support_indices()
    q = np.linalg.qr(np.stack([phi.values[sup].reshape(-1) for phi in crit.basis], axis=1))[0]
    assert np.max(np.abs(q @ q.conj().T - null @ null.conj().T)) <= 1e-12


def test_certificate_bounds_sigma_min_from_above(crit9_bound):
    """The certificate is the residual ||(1 - g T-hat) phi|| / ||phi|| of a
    unit-coupling kernel-row pass, an upper bound on sigma_min(1 - g
    T-hat): for each basis state it is at or above the dense SVD's
    sigma_min both at g* (round-off, below the gate) and at 0.9 g* (far
    above it), and the winner's certificate is the record's."""
    shape = crit9_bound.shape
    sup = shape.support_indices()
    fields = np.stack([phi.values[sup] for phi in crit9_bound.basis])
    g_star = crit9_bound.g_star
    residuals, scales = residual_certificate(0.0, shape, fields, [g_star, 0.9 * g_star])
    that = assemble_T(shape, 0.0)
    for row, scale, g in zip(residuals, scales, (g_star, 0.9 * g_star)):
        m = system_matrix(g * that)
        true = np.linalg.svd(m, compute_uv=False)[-1]
        assert np.all(row >= (1.0 - 1e-10) * true)
        assert scale <= (1.0 + 1e-12) * np.linalg.norm(m, 1)
    assert np.all(residuals[0] < critical._CRITICAL_REL * scales[0])
    assert np.all(residuals[1] > 1e-3 * scales[1])
    assert crit9_bound.sigma_min < critical._CRITICAL_REL * crit9_bound.matrix_scale


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


def test_search_deterministic_across_thread_settings(run_python):
    """The two benchmark wells give bit-identical g*, dim and lambda-bar
    with 1 and 2 BLAS threads. sigma_min is round-off and moves
    in its last bits with the thread count, so it is only checked against
    the certificate."""
    runs = []
    for threads in ("1", "2"):
        proc = run_python("-c", _THREAD_PROBE, threads=threads, timeout=300, check=True)
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


def test_lambda_of_matches_einsum_on_a_seeded_field():
    """lambda = (1 + beta) sum_n w_n (A Phi)_n against einsum, which uses
    no BLAS, for a seeded field and a four-component well at n = 15."""
    grid = Grid3(R, 15)
    A = build_potential(grid, "spherical-well", 1.0, R, components=(1.0, 0.3, -0.2, 0.5))
    rng = np.random.default_rng(15)
    vals = rng.normal(size=(grid.n_nodes, 4)) + 1j * rng.normal(size=(grid.n_nodes, 4))
    lam = lambda_of(SpinorField(grid, vals), A)
    want = one_plus_beta() @ np.einsum("n,ni->i", grid.weights, A.apply(vals))
    assert np.linalg.norm(lam - want) <= 1e-13 * np.linalg.norm(want)


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
    """A Kramers pair is degenerate, so round-off used to rotate the
    returned vectors inside their plane by O(1). The pinned basis depends
    on the null space only: a 1e-14 relative perturbation of the shape's
    values, which also breaks its symmetry (one full-size block instead
    of eight sectors), moves each vector by far less than 1e-10."""
    shape = crit9_bound.shape
    rng = np.random.default_rng(11)
    values = shape.values * (1.0 + 1e-14 * rng.normal(size=shape.values.shape))
    moved = find_critical_coupling(dataclasses.replace(shape, values=values), (5.0, 7.0))
    assert len(symmetry_sectors(moved.shape)) == 1 < len(symmetry_sectors(shape))
    sup = shape.support_indices()
    base = np.stack([phi.values[sup].reshape(-1) for phi in crit9_bound.basis])
    other = np.stack([phi.values[sup].reshape(-1) for phi in moved.basis])
    assert base.shape == other.shape == (2, 4 * len(sup))
    gram = base.conj() @ base.T
    assert np.allclose(gram, np.diag(np.diag(gram)), atol=1e-13)
    m = system_matrix(crit9_bound.g_star * assemble_T(shape, 0.0))
    assert np.max(np.linalg.norm(m @ base.T, axis=0)) < 1e-7 * np.linalg.norm(m, 1)
    for a, b in zip(base, other):
        assert np.linalg.norm(a - b) <= 1e-10
