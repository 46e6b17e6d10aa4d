"""Lippmann-Schwinger solver: assembly, defect identity, solves, symmetry."""

import sys
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from threshold_dirac.algebra import beta, free_dirac_symbol
from threshold_dirac import solver
from threshold_dirac.critical import extend_to_grid
from threshold_dirac.kernel import CLIFFORD_BASIS, energy, green, green_dk, self_cell_integral
from threshold_dirac.potentials import (
    FourPotential,
    Grid3,
    SpinorField,
    build_potential,
    fold_rows,
    smoothstep_profile,
)
from threshold_dirac.solver import (
    apply_kernel_rows,
    assemble_kernel_blocks,
    assemble_T,
    combine_potentials,
    free_solution,
    free_spinor,
    smallest_singular_value,
    solve_generalized,
    symmetry_probe,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

R = 1.0


def make_grid(n=9, L=R):
    return Grid3(L, n)


def smooth_field(grid, seed=7):
    """Deterministic smooth spinor field supported everywhere on the grid."""
    r2 = np.sum(grid.points**2, axis=1)
    base = np.exp(-1.3 * r2)
    phases = np.exp(1j * (grid.points @ np.array([0.4, -0.2, 0.15])))
    weights = np.array([1.0, 0.5 - 0.2j, 0.3j, -0.25], dtype=complex)
    vals = base[:, None] * phases[:, None] * weights[None, :]
    return SpinorField(grid, vals)


# ---------------------------------------------------------------------------
# free solutions


def test_free_spinor_eigenvector_and_phase():
    for kvec in ([0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.1, -0.7, 0.4]):
        kvec = np.array(kvec)
        E = energy(np.linalg.norm(kvec)).real
        for j in (1, 2):
            u = free_spinor(j, kvec)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-14
            res = free_dirac_symbol(kvec) @ u - E * u
            assert np.max(np.abs(res)) < 1e-13
            nz = u[np.abs(u) > 0][0]
            assert abs(nz.imag) < 1e-15 and nz.real > 0
        u1, u2 = free_spinor(1, kvec), free_spinor(2, kvec)
        assert abs(np.vdot(u1, u2)) < 1e-14


def test_free_spinor_rest_frame():
    assert np.allclose(free_spinor(1, [0, 0, 0]), [1, 0, 0, 0])
    assert np.allclose(free_spinor(2, [0, 0, 0]), [0, 1, 0, 0])


def test_free_solution_plane_wave():
    grid = make_grid(5)
    kvec = [0.2, 0.1, -0.3]
    chi = SpinorField(grid, free_solution(1, kvec).values_at(grid.points))
    # plane wave: unit pointwise norm everywhere
    norms = np.linalg.norm(chi.values, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    expect = free_spinor(1, kvec) * np.exp(1j * (grid.points[3] @ np.array(kvec)))
    assert np.max(np.abs(chi.values[3] - expect)) < 1e-14


def test_free_spinor_rejects_bad_input():
    with pytest.raises(ValueError):
        free_spinor(3, [0, 0, 0])
    with pytest.raises(ValueError):
        free_spinor(1, [0, 0])


# ---------------------------------------------------------------------------
# assembly


def test_zero_potential_zero_operator():
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 0.0, R)
    assert assemble_T(A, 0.3).shape == (0, 0)


def test_assembly_linear_in_potential_entrywise():
    # identical support sets, so the three matrices share their indexing
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 1.3, R)
    B = build_potential(grid, "spherical-well", 0.7, R)
    AB = combine_potentials(A, B)
    TA = assemble_T(A, 0.25)
    TB = assemble_T(B, 0.25)
    TAB = assemble_T(AB, 0.25)
    assert np.array_equal(A.support_indices(), AB.support_indices())
    diff = TAB - TA - TB
    assert np.max(np.abs(diff)) < 1e-13 * np.max(np.abs(TAB))


def test_pair_assembly_spans_chunks_and_matches_assemble_T(monkeypatch):
    """With a budget of 2000 pairs, the 99 support nodes at n = 7 span
    five target chunks of the pair's one kernel matrix; each matrix of
    the pair equals the one-chunk assemble_T of its potential bit for
    bit, at zero, real and imaginary k."""
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 1.3, R)
    B = build_potential(grid, "spherical-well", 0.7, R, components=(1.0, 0.2, 0.0, -0.1))
    assert np.array_equal(A.support_indices(), B.support_indices())
    ks = (0.0, 0.2, 0.1j)
    want = [(assemble_T(A, k), assemble_T(B, k)) for k in ks]
    calls = []
    coefficient_chunks = solver._coefficient_chunks

    def spy(*args):
        for rows, coeffs in coefficient_chunks(*args):
            calls.append(len(rows))
            yield rows, coeffs

    monkeypatch.setattr(solver, "_PAIR_BUDGET", 2000)
    monkeypatch.setattr(solver, "_coefficient_chunks", spy)
    for k, (want_a, want_b) in zip(ks, want):
        calls.clear()
        TA, TB = solver.assemble_pair(A, B, k)
        assert len(calls) == 5 and sum(calls) == len(A.support_indices())
        assert np.array_equal(TA, want_a) and np.array_equal(TB, want_b)
        assert np.array_equal(TA, assemble_T(A, k))


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_mirror_parity_commutes_with_T(seed):
        """For a scalar potential with a0(-x) = a0(x) on a mirror-symmetric
        support, parity (Pf)_i = beta f_m(i) commutes with T-hat, since
        beta G(-z) beta = G(z) and the near-cell rules are mirror
        symmetric. Supports stay inside r < 0.95, measured from integer
        lattice offsets, so no node sits on the support sphere."""
        grid = make_grid(7)
        n = grid.nodes_per_axis
        offsets = np.indices((n, n, n)).reshape(3, -1).T - (n - 1) // 2
        inside = grid.spacing * np.sqrt(np.sum(offsets**2, axis=1)) < 0.95
        rng = np.random.default_rng(seed)
        # the flat index of the mirror image of node i is N - 1 - i
        keep = inside & (rng.random(grid.n_nodes) < 0.6)
        keep |= keep[::-1]
        keep[grid.n_nodes // 2] = True
        a0 = rng.uniform(-2.0, 2.0, grid.n_nodes)
        values = np.zeros((grid.n_nodes, 4))
        values[keep, 0] = (a0 + a0[::-1])[keep]
        A = FourPotential(grid, "random-mirror", 1.0, 0.95, values)
        ns = len(A.support_indices())
        # sorted support: the mirror image of the s-th node is the (ns-1-s)-th
        P = np.kron(np.eye(ns)[::-1], beta())
        for k in (0.0, 0.2, 0.1j):
            T = assemble_T(A, k)
            assert np.linalg.norm(P @ T @ P - T) <= 1e-13 * np.linalg.norm(T)


def _matched_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance between two equally long spectra, paired as multisets."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _weights(sectors, crit):
    """Norm of the threshold basis's part in each sector, over its norm."""
    X = np.stack([f.values[sectors[0].nodes].reshape(-1) for f in crit.basis], axis=1)
    return [np.linalg.norm(sec.project(X)) / np.linalg.norm(X) for sec in sectors]


def _odd_quarter(sec) -> bool:
    """The odd sectors whose C4z eigenvalue is e^{+-i pi/4}."""
    lam, p = sec.character
    return p == -1 and abs(abs(np.angle(lam)) - np.pi / 4) <= 1e-12


def test_symmetry_sector_spectra_make_the_full_spectrum():
    """For two C4h-symmetric spherical wells on 7^3, the 8 sector blocks
    of T_A and of T_B on the union support together carry the full
    T-hat spectrum, at real and imaginary k; the block sizes sum to the
    4 S unknowns, and the Kramers pair of the critical well lies in the
    two odd sectors of C4z eigenvalue e^{+-i pi/4}."""
    from threshold_dirac import critical

    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 1.3, R)
    B = build_potential(grid, "spherical-well", 0.7, 0.7)
    sectors = solver.symmetry_sectors(A, B)
    assert len(sectors) == 8
    assert sum(len(sec.index) for sec in sectors) == 4 * len(sectors[0].nodes)
    for k in (0.2, 0.1j):
        TA, TB = solver.assemble_pair(A, B, k)
        kernels = solver.assemble_sectors(sectors, grid, k)
        blocks = [[solver.weighed_kernel(sec, K, P) for P in (A, B)] for sec, K in zip(sectors, kernels)]
        assert [len(ta) for ta, _ in blocks] == [len(sec.index) for sec in sectors]
        for full, part in ((TA, [ta for ta, _ in blocks]), (TB, [tb for _, tb in blocks])):
            want = np.linalg.eigvals(full)
            got = np.concatenate([np.linalg.eigvals(m) for m in part])
            assert _matched_gap(want, got) <= 1e-12 * np.max(np.abs(want))
    crit = critical.find_critical_coupling(build_potential(grid, "spherical-well", 1.0, R), (5.0, 9.0))
    for sec, w in zip(sectors, _weights(sectors, crit)):
        if _odd_quarter(sec):
            assert w == pytest.approx(np.sqrt(0.5), rel=1e-10)
        else:
            assert w <= 1e-14


def test_sector_kernel_blocks_weighed_match_the_dense_pair():
    """The sector path, K_s from assemble_sectors weighed by each
    potential (weighed_kernel, through Sector.weigh), is the dense T-hat
    restricted to the sector, V_s^H T V_s: on the 7^3 C4h pair against
    assemble_pair in all 8 sectors, and on a well shifted off the
    centre (the trivial group, one sector with V = 1) against assemble_T,
    to 1e-13 of the block's largest entry, at real and imaginary k."""
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 1.3, R)
    B = build_potential(grid, "spherical-well", 0.7, 0.7)
    well = build_potential(grid, "spherical-well", 1.0, 0.6)
    moved = np.roll(well.values.reshape(7, 7, 7, 4), 1, axis=0).reshape(-1, 4)
    shifted = FourPotential(grid, "shifted-well", 1.0, R, moved)
    cases = [(solver.symmetry_sectors(A, B), (A, B), lambda k: solver.assemble_pair(A, B, k))]
    cases.append((solver.symmetry_sectors(shifted), (shifted,), lambda k: (assemble_T(shifted, k),)))
    assert [len(c[0]) for c in cases] == [8, 1]
    for sectors, pots, dense in cases:
        for k in (0.2, 0.1j):
            kernels = solver.assemble_sectors(sectors, grid, k)
            for T, P in zip(dense(k), pots):
                for sec, K in zip(sectors, kernels):
                    V = sec.extend(np.eye(len(sec.index), dtype=complex))
                    want = sec.project(T @ V)
                    got = solver.weighed_kernel(sec, K, P)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), k


def test_symmetry_sector_maps_round_trip():
    """In each of the 8 sectors, project inverts extend on sector
    coordinates, and drops the other sectors' parts; weigh applies
    V^H W V for the node-wise multiplication W by the potential."""
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 1.0, R)
    sectors = solver.symmetry_sectors(A)
    assert len(sectors) == 8
    rows = A.values[A.support_indices()]
    rng = np.random.default_rng(5)
    for sec in sectors:
        x = rng.normal(size=(len(sec.index), 3)) + 1j * rng.normal(size=(len(sec.index), 3))
        f = sec.extend(x)
        assert f.shape == (4 * len(A.support_indices()), 3)
        assert np.allclose(sec.project(f), x, rtol=0.0, atol=1e-15 * np.max(np.abs(x)))
        wf = np.stack([fold_rows(rows, col.reshape(-1, 4)).reshape(-1) for col in f.T], axis=1)
        assert np.allclose(sec.weigh(rows, x), sec.project(wf), rtol=0.0, atol=1e-14 * np.max(np.abs(x)))
        for other in sectors:
            if other is not sec:
                assert np.max(np.abs(other.project(f))) <= 1e-15 * np.max(np.abs(x))


def test_symmetry_group_level_and_rotation_sense():
    """The group is the largest of C4h, inversion and the trivial one that
    the potentials admit: a spherical lattice well gives 8 sectors, a
    parity-even well with r^2 = h^2 (2 i^2 + j^2 + k^2) gives 2, and with
    a1 nonzero the spherical well gives 1.  The rotation's spinor matrix
    has the sense that makes (O f)_{r(s)} = U f_s commute with T-hat,
    r(i, j, k) = (n-1-j, i, k); the opposite sense does not."""
    grid = make_grid(7)
    n = grid.nodes_per_axis
    well = build_potential(grid, "spherical-well", 1.0, R)
    assert len(solver.symmetry_sectors(well)) == 8
    i, j, k = np.indices((n, n, n)).reshape(3, -1) - (n - 1) // 2
    r = grid.spacing * np.sqrt(2 * i**2 + j**2 + k**2)
    values = np.zeros((grid.n_nodes, 4))
    values[:, 0] = smoothstep_profile(r, 0.3, 0.9)
    oblong = FourPotential(grid, "oblong-well", 1.0, R, values)
    assert len(solver.symmetry_sectors(oblong)) == 2
    vector = build_potential(grid, "spherical-well", 1.0, R, components=(1.0, 0.3, 0.0, 0.0))
    assert [sec.order for sec in solver.symmetry_sectors(vector)] == [1]

    nodes = well.support_indices()
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    turned = np.searchsorted(nodes, (((n - 1 - j) * n + i) * n + k)[nodes])
    T = solver.assemble_T(well, 0.1j)
    for U, small in ((solver._ROTATION, True), (solver._ROTATION.conj().T, False)):
        O = np.zeros_like(T)
        for s, t in enumerate(turned):
            O[4 * t : 4 * t + 4, 4 * s : 4 * s + 4] = U
        gap = np.linalg.norm(O @ T - T @ O) / np.linalg.norm(T)
        assert gap <= 1e-14 if small else gap > 0.1


def test_sector_branch_values_are_pencil_eigenvalues():
    """The branch's values at one kappa, one from each of the two odd
    sectors of C4z eigenvalue e^{+-i pi/4} that hold the threshold basis,
    are generalized eigenvalues of the full pencil (1 - T_A, T_B) at
    k = i kappa (dense QZ on the union support).  So is each mu of the
    track at the kappa where it reports that mu's crossing: the secant's
    root holds on the full pencil."""
    from threshold_dirac import critical, probes
    from threshold_dirac.forms import gamma_spectrum, taylor_form

    grid = make_grid(7)
    crit = critical.find_critical_coupling(build_potential(grid, "spherical-well", 1.0, R), (5.0, 9.0))
    A = crit.critical_potential()
    B0 = build_potential(grid, "spherical-well", 1.0, 0.7)
    seeds = probes._branch_seeds(A, B0, crit.basis)
    assert [x.shape[1] for _, x in seeds] == [1, 1]
    assert all(_odd_quarter(sec) for sec, _ in seeds)
    kappa = 0.05
    mus, _ = probes._branch(A, B0, kappa, 0.0, seeds)
    assert len(mus) == 2
    g1 = float(gamma_spectrum(crit, B0, taylor_form(A, crit, 2)).gammas[0])
    plan = probes.SweepPlan(
        crit, B0, mus=tuple(g1 * k * k for k in (0.06, 0.1)), ks=(0.1,),
        n_kappa=20, kappa_range=(0.04, 0.15),
    )
    records = probes.boundstate_track(plan)
    assert [r.mu for r in records] == list(plan.mus)
    for kappa, mus in [(kappa, mus)] + [(r.kappa, [r.mu]) for r in records]:
        TA, TB = solver.assemble_pair(A, B0, 1j * kappa)
        pencil = scipy.linalg.eigvals(solver.system_matrix(TA), TB)
        pencil = pencil[np.isfinite(pencil)]
        for mu in mus:
            assert np.min(np.abs(pencil - mu)) <= 1e-10 * abs(mu)


def test_sector_track_makes_one_row_pass_per_kappa_and_small_lus(monkeypatch):
    """On the C4h lattice wells the eigen track makes one gather of the
    offset table per kappa (curve points and secant steps), at the pairs
    of an orbit representative and an image, and no dense assembly: the
    wells are electric, so one sector of the Kramers pair that holds the
    threshold basis serves the branch, with one LU per kappa.  The
    curve's two ends are assembled first, for the inertia-count gate,
    and reused.  Every LU of the branch has at most ceil(4 S / 8) + 8
    unknowns, and no LU is full size.  Each crossing's residual
    certificate is one more kernel-row pass, targeting every support
    node of A + mu B0, so it stays off the sectors."""
    from threshold_dirac import critical, probes
    from threshold_dirac.forms import gamma_spectrum, taylor_form

    grid = make_grid(7)
    crit = critical.find_critical_coupling(build_potential(grid, "spherical-well", 1.0, R), (5.0, 9.0))
    A = crit.critical_potential()
    B0 = build_potential(grid, "spherical-well", 1.0, R)
    n_unknowns = 4 * len(combine_potentials(A, B0).support_indices())
    g1 = float(gamma_spectrum(crit, B0, taylor_form(A, crit, 2)).gammas[0])
    plan = probes.SweepPlan(
        crit, B0, mus=tuple(g1 * k * k for k in (0.06, 0.1)), ks=(0.1,),
        n_kappa=20, kappa_range=(0.04, 0.15),
    )
    kappas, passes, branch_sizes, full_sizes, certified = [], [], [], [], []

    def spy(record, fn):
        def wrapped(*args, **kwargs):
            record(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(probes, "_branch", spy(
        lambda A, B0, kappa, shift, seeds, kernels=None: kappas.append((kappa, len(seeds))),
        probes._branch))
    monkeypatch.setattr(solver, "_orbit_coefficients", spy(
        lambda k, grid, sector: passes.append((k, sector.images)), solver._orbit_coefficients))
    monkeypatch.setattr(solver, "_assembled", spy(
        lambda *args: full_sizes.append(args), solver._assembled))
    monkeypatch.setattr(probes, "factor", spy(lambda M: branch_sizes.append(len(M)), probes.factor))
    monkeypatch.setattr(solver, "factor", spy(lambda M: full_sizes.append(len(M)), solver.factor))
    monkeypatch.setattr(solver, "apply_kernel_rows", spy(
        lambda k, targets, V, *args: certified.append((k, targets, V)), solver.apply_kernel_rows))
    records = probes.boundstate_track(plan)
    assert len(records) == len(plan.mus)
    assert all(n == 1 for _, n in kappas)
    assert sorted(k.imag for k, _ in passes) == sorted(kappa for kappa, _ in kappas)
    reps = solver.symmetry_sectors(A, B0)[0].images[:, 0]
    assert 8 * len(reps) < 2 * n_unknowns // 4
    assert all(np.array_equal(images[:, 0], reps) for _, images in passes)
    assert len(branch_sizes) == len(kappas)
    assert max(branch_sizes) <= -(-n_unknowns // 8) + 8
    assert full_sizes == []
    assert len(certified) == len(records)
    for r, (k, targets, V) in zip(records, certified):
        assert k == 1j * r.kappa
        assert np.array_equal(V.values, combine_potentials(A, B0.rescaled(r.mu)).values)
        assert np.array_equal(targets, grid.points[V.support_indices()])


@pytest.mark.parametrize("case", ["shifted", "vector"])
def test_asymmetric_potentials_are_one_sector_and_track(case, certify_track):
    """A C4h-symmetric well shifted by one lattice cell, and a vector
    potential whose a_1 is nonzero and even (C4h needs it zero, parity
    odd), admit no lattice symmetry: each is one sector of the trivial
    group, the whole support, and its track still finds one crossing per
    mu, certified by the inertia count."""
    from threshold_dirac import critical, probes
    from threshold_dirac.forms import gamma_spectrum, taylor_form

    grid = make_grid(7)
    if case == "shifted":
        well = build_potential(grid, "spherical-well", 1.0, 0.6)
        assert len(solver.symmetry_sectors(well)) == 8
        moved = np.roll(well.values.reshape(7, 7, 7, 4), 1, axis=0).reshape(-1, 4)
        shape = FourPotential(grid, "shifted-well", 1.0, R, moved)
        bracket = (20.0, 30.0)
    else:
        assert len(solver.symmetry_sectors(build_potential(grid, "spherical-well", 1.0, R))) == 8
        shape = build_potential(grid, "spherical-well", 1.0, R, components=(1.0, 0.3, 0.0, 0.0))
        bracket = (12.5, 13.3)
    crit = critical.find_critical_coupling(shape, bracket)
    assert crit.lambda_bar == 0
    A = crit.critical_potential()
    B0 = build_potential(grid, "spherical-well", 1.0, R)
    sectors = solver.symmetry_sectors(A, B0)
    assert len(sectors) == 1 and sectors[0].order == 1
    assert np.array_equal(sectors[0].nodes, combine_potentials(A, B0).support_indices())
    g1 = float(gamma_spectrum(crit, B0, taylor_form(A, crit, 2)).gammas[0])
    plan = probes.SweepPlan(
        crit, B0, mus=tuple(g1 * k * k for k in (0.06, 0.1)), ks=(0.1,),
        n_kappa=20, kappa_range=(0.04, 0.15),
    )
    rec = probes.boundstate_track(plan)
    for mu in plan.mus:
        assert len([r for r in rec if r.mu == mu]) == 1
    certify_track(plan, rec)


def test_system_matrix_bits_match_identity_minus_T():
    """system_matrix gives the bits of np.eye(n) - TA - mu * TB, also in
    place over TA and over g T-hat, so routing every system through it
    changes no LU."""
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 1.3, R)
    B = build_potential(grid, "spherical-well", 0.7, 0.8)
    for k in (0.0, 0.2, 0.1j):
        TA, TB = solver.assemble_pair(A, B, k)
        eye = np.eye(len(TA), dtype=np.complex128)
        for mu in (0.0, -0.0125, 0.03):
            want = eye - TA - mu * TB
            assert solver.system_matrix(TA, TB, mu).tobytes() == want.tobytes()
        for g in (0.7, -2.4):
            m = g * TA
            assert solver.system_matrix(m, out=m) is m
            assert m.tobytes() == (eye - g * TA).tobytes()
        want = eye - TA - 0.03 * TB
        assert solver.system_matrix(TA, TB, 0.03, out=TA).tobytes() == want.tobytes()


def test_application_linear_in_potential():
    # heterogeneous shapes: supports differ, so compare the actions, which
    # are support-embedding independent
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 1.3, R)
    B = build_potential(grid, "gaussian-bump", -0.7, R, w=0.5)
    AB = combine_potentials(A, B)
    f = smooth_field(grid)
    targets = grid.points[::23] + 0.21 * grid.spacing
    outs = {}
    for name, pot in (("A", A), ("B", B), ("AB", AB)):
        sup = pot.support_indices()
        outs[name] = apply_kernel_rows(0.25, targets, pot, f.values[sup])
    diff = outs["AB"] - outs["A"] - outs["B"]
    assert np.max(np.abs(diff)) < 1e-13 * np.max(np.abs(outs["AB"]))


def _pairwise_rows(k, targets, A, f_support, h, order):
    """Slow oracle: the quadrature rule pair by pair with 4x4 kernel.green
    / green_dk blocks (self cell: sphere rule; Chebyshev distance <= 2h:
    4x4x4 subdivided midpoint; else one midpoint sample)."""
    kern = (lambda z: green(k, z)) if order == 0 else (lambda z: green_dk(k, z, order))
    sub = (np.arange(4) + 0.5) / 4 - 0.5
    sub = np.stack(np.meshgrid(sub, sub, sub, indexing="ij"), axis=-1).reshape(-1, 3) * h
    sup = A.support_indices()
    af = A.apply(_embed_rows(A, f_support))[sup]
    out = np.zeros((len(targets), 4), dtype=complex)
    for t, x in enumerate(targets):
        for y, v in zip(A.grid.points[sup], af):
            z = x - y
            if np.max(np.abs(z)) < 1e-12:
                block = self_cell_integral(k, h, order)
            elif np.max(np.abs(z)) <= 2 * h + 1e-9 * h:
                block = sum(kern(z - d) for d in sub) / len(sub) * h**3
            else:
                block = kern(z) * h**3
            out[t] += block @ v
    return out


def _embed_rows(A, f_support):
    full = np.zeros((A.grid.n_nodes, 4), dtype=complex)
    full[A.support_indices()] = f_support
    return full


@pytest.mark.parametrize("k, order", [(0.3, 0), (0.0, 2), (0.4j, 0), (0.2 + 0.1j, 3)])
def test_apply_kernel_rows_matches_pairwise_green_sum(k, order):
    grid = make_grid(5)
    A = build_potential(grid, "gaussian-bump", 1.0, R, w=0.45, components=(1.0, 0.2, -0.1, 0.3))
    f = smooth_field(grid).values[A.support_indices()]
    h = grid.spacing
    targets = np.vstack(
        [
            grid.points[[0, 31, 62, 93, 124]],  # on the lattice, near and far
            grid.points[[40, 62, 80]] + np.array([0.3, -0.2, 0.45]) * h,  # off-lattice near
            np.array([[3.0, -1.0, 2.0], [0.1, 4.2, -0.7]]),  # far away
        ]
    )
    got = apply_kernel_rows(k, targets, A, f, order=order)
    want = _pairwise_rows(k, targets, A, f, h, order)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_stacked_rows_equal_single_calls():
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 0.9, R)
    sup = A.support_indices()
    fields = np.stack([smooth_field(grid, seed=s).values[sup] * (1 + 0.3j * s) for s in range(3)])
    fields[1] = np.roll(fields[1], 5, axis=0)
    targets = Grid3(1.6, 9).points
    stacked = apply_kernel_rows(0.2, targets, A, fields)
    assert stacked.shape == (len(targets), 3, 4)
    for i, f in enumerate(fields):
        single = apply_kernel_rows(0.2, targets, A, f)
        assert single.shape == (len(targets), 4)
        assert np.max(np.abs(stacked[:, i] - single)) <= 1e-14 * np.max(np.abs(single))
    zero = build_potential(grid, "spherical-well", 0.0, R)
    empty = apply_kernel_rows(0.2, targets, zero, fields[:, :0])
    assert empty.shape == (len(targets), 3, 4) and not np.any(empty)


# ---------------------------------------------------------------------------
# lattice offset table


def _table_against_displacements(k, targets, sources, h, order):
    """The offset-table coefficients of one call against the direct rule
    at the float displacements x_t - y_s: the largest coefficient
    difference, and the largest difference and size of the two sums
    sum_s C_ts B_c g_s for a smooth field g."""
    g = np.exp(-np.sum(sources**2, axis=1))[:, None] * np.array([1.0, 0.5 - 0.2j, 0.3j, -0.25])
    y = np.einsum("cij,sj->sci", CLIFFORD_BASIS, g).reshape(5 * len(sources), 4)
    worst, rows_seen = 0.0, 0
    got_rows = np.empty((len(targets), 4), dtype=complex)
    want_rows = np.empty((len(targets), 4), dtype=complex)
    for rows, got in solver._coefficient_chunks(k, targets, sources, h, order):
        want = solver._quadrature_coefficients(k, targets[rows, None] - sources, h, order)
        worst = max(worst, float(np.max(np.abs(got - want))))
        got_rows[rows] = got.reshape(len(rows), -1) @ y
        want_rows[rows] = want.reshape(len(rows), -1) @ y
        rows_seen += len(rows)
    assert rows_seen == len(targets)
    return worst, np.max(np.abs(got_rows - want_rows)), np.max(np.abs(want_rows))


def test_offset_table_is_the_direct_rule_bit_for_bit_at_dyadic_h():
    """At n = 9, h = 1/4, x_t - y_s is the lattice offset times h exactly,
    so the table gives the direct rule's bits on the classify grid."""
    grid = make_grid(9)
    sources = grid.points[build_potential(grid, "spherical-well", 1.0, R).support_indices()]
    targets = Grid3(4.0 * R, 33).points[::13]
    for k in (0.0, 0.2, 0.1j):
        for order in range(4):
            worst, _, _ = _table_against_displacements(k, targets, sources, grid.spacing, order)
            assert worst == 0.0, (k, order)


@pytest.mark.parametrize("n, targets", [(7, Grid3(2.0, 13)), (11, Grid3(2.0, 21))])
def test_offset_table_moves_the_direct_rule_at_round_off(n, targets):
    """At h = 1/3 and 1/5 the displacements x_t - y_s differ from the
    offsets times h by round-off. Kernel rows of a smooth field move by
    at most 1e-15 of their largest value (measured 5.4e-16); single
    coefficients by a few ulps of the largest one (2.2e-15, in a near
    cell)."""
    grid = make_grid(n)
    sources = grid.points[build_potential(grid, "spherical-well", 1.0, R).support_indices()]
    for k in (0.0, 0.2, 0.1j):
        for order in range(4):
            _, moved, size = _table_against_displacements(k, targets.points[::7], sources, grid.spacing, order)
            assert moved <= 1e-15 * size, (k, order, moved / size)


def test_offset_table_and_near_rule_are_reflection_symmetric():
    """On a box of offsets symmetric about 0 the table is exactly
    reflection symmetric, at every k and order: flipping offset_l keeps
    I, beta and alpha_m (m != l) and negates alpha_l, bit for bit, so
    alpha_l is 0 at offset_l = 0.  Each entry is the direct rule at its
    own offset times h, bit for bit, so each sign of the reflected fill
    is right.  The direct rule at an off-lattice near displacement -d
    is its value at d with the alpha signs flipped, bit for bit."""
    h = make_grid(7).spacing
    cube = np.indices((7, 7, 7)).reshape(3, -1).T - 3
    offsets = np.indices((13, 13, 13)).reshape(3, -1).T - 6
    near = np.array([[0.3, -1.2, 0.45], [-1.7, 0.2, 1.1], [0.6, 0.7, -0.15]]) * h
    for k in (0.0, 0.2, 0.1j):
        for order in range(4):
            table, lo = solver._offset_table(k, cube, cube, h, order)
            assert np.array_equal(lo, [-6, -6, -6]) and table.shape == (13, 13, 13, 5)
            direct = solver._quadrature_coefficients(k, offsets * h, h, order)
            assert np.array_equal(table.reshape(-1, 5), direct), (k, order)
            for l in range(3):
                sign = np.ones(5)
                sign[2 + l] = -1.0
                assert np.array_equal(np.flip(table, axis=l) * sign, table), (k, order, l)
            plus = solver._quadrature_coefficients(k, near.copy(), h, order)
            minus = solver._quadrature_coefficients(k, -near, h, order)
            assert np.array_equal(minus[:, :2], plus[:, :2]), (k, order)
            assert np.array_equal(minus[:, 2:], -plus[:, 2:]), (k, order)


def _count_kernel_rows(monkeypatch):
    """Spy on solver.kernel_coefficients; the list collects the number of
    displacements of each call."""
    rows = []
    kernel = solver.kernel_coefficients

    def spy(k, disp, order=0):
        rows.append(int(np.prod(np.shape(disp)[:-1])))
        return kernel(k, disp, order)

    monkeypatch.setattr(solver, "kernel_coefficients", spy)
    return rows


def _gathered_rows(k, targets, A, fields, h, order):
    """Reference rows: the offset-table coefficients of _coefficient_chunks
    contracted with Y[s, c] = B_c (A f)_s by one product per chunk."""
    sup = A.support_indices()
    folded = np.stack([fold_rows(A.values[sup], f) for f in fields])
    y = np.einsum("cij,msj->scmi", CLIFFORD_BASIS, folded).reshape(5 * len(sup), -1)
    out = np.empty((len(targets), y.shape[1]), dtype=complex)
    for rows, coeffs in solver._coefficient_chunks(k, targets, A.grid.points[sup], h, order):
        out[rows] = coeffs.reshape(len(rows), -1) @ y
    return out.reshape(len(targets), len(fields), 4)


def _far_pair(grid):
    """Two lattice nodes far apart: the centre and 40 cells out on x."""
    return np.array([[0.0, 0.0, 0.0], [40.0 * grid.spacing, -grid.spacing, 0.0]])


def _mixed(grid):
    """On-lattice targets of the default grid, every 9th shifted off it."""
    pts = solver.default_eval_grid(grid).points[::5].copy()
    pts[::9] += np.array([0.3, -0.2, 0.45]) * grid.spacing
    return pts


@pytest.mark.parametrize(
    "n, k, order, m, targets",
    [
        (9, 0.0, 0, 1, lambda grid: Grid3(4.0 * R, 33).points),  # the classify grid
        (9, 0.2, 0, 8, lambda grid: solver.default_eval_grid(grid).points),
        (7, 0.4j, 2, 3, lambda grid: solver.default_eval_grid(grid).points),
        (7, 0.2, 1, 2, _far_pair),
        (7, 0.3, 0, 2, _mixed),
    ],
    ids=["classify", "stack8", "imaginary-order2", "far-pair", "mixed"],
)
def test_fft_rows_match_the_table_gather(n, k, order, m, targets):
    """On-lattice rows come from one FFT convolution of the offset table;
    they equal the table's gathered coefficients contracted by a product
    to 1e-13 of the largest row (measured up to 9e-16).  The bound is on
    rows, not entries: an FFT's round-off is spread over the whole box."""
    grid = make_grid(n)
    A = build_potential(grid, "spherical-well", 1.0, R, components=(1.0, 0.2, -0.1, 0.3))
    sup = A.support_indices()
    fields = np.stack([smooth_field(grid, seed=s).values[sup] * (1 + 0.3j * s) for s in range(m)])
    fields[1:] = np.roll(fields[1:], 7, axis=1)
    pts = targets(grid)
    got = apply_kernel_rows(k, pts, A, fields, order=order)
    want = _gathered_rows(k, pts, A, fields, grid.spacing, order)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_assembly_evaluates_one_offset_table(monkeypatch):
    """assemble_T of the cell-averaged well at n = 13 (925 support nodes
    filling the 13^3 box, 9 target chunks) evaluates the kernel at the
    13^3 offsets of one octant of its 25^3 table plus the 26 x 64
    subcells of the octant's near cells, not one table per chunk
    (137,952 rows) nor the whole box (25^3 + 124 x 64)."""
    A = build_potential(
        make_grid(13), "spherical-well", 1.0, R, w=0.12, cell_average=True, subsamples=5
    )
    n = len(A.support_indices())
    assert n == 925 and -(-n // solver._chunk_rows(n)) == 9
    rows = _count_kernel_rows(monkeypatch)
    T = assemble_T(A, 0.2)
    assert T.shape == (4 * n, 4 * n) and np.all(np.isfinite(T))
    assert sum(rows) <= 13**3 + 26 * 64


def test_sparse_on_lattice_targets_match_the_dense_rows():
    """Two on-lattice targets 40 cells apart gather from the table of
    their own offset box, which is neither dense call's box, with the
    bits of the dense calls' rows: every table entry is the rule at its
    offset alone."""
    grid = make_grid(7)
    h = grid.spacing
    pts = grid.points[build_potential(grid, "spherical-well", 1.0, R).support_indices()]
    far = np.array([40.0 * h, -h, 0.0])
    cube = far + (np.indices((7, 7, 7)).reshape(3, -1).T - 3) * h  # centred on far
    want_near = assemble_kernel_blocks(0.2, pts, pts, h)[5]
    want_far = assemble_kernel_blocks(0.2, cube, pts, h)[len(cube) // 2]
    got = assemble_kernel_blocks(0.2, np.vstack([pts[5], far]), pts, h)
    assert np.array_equal(got[0], want_near) and np.array_equal(got[1], want_far)


def test_classify_extension_evaluates_the_offset_table_once(monkeypatch):
    """extend_to_grid onto the 33^3 classify grid at n = 9 (9.2M
    target-source pairs) evaluates the kernel at the 20^3 offsets of one
    octant of the 39^3 lattice offsets plus the 26 x 64 subcells of its
    near cells, not pair by pair nor on the whole box."""
    grid = make_grid(9)
    A = build_potential(grid, "spherical-well", 1.0, R)
    phi = smooth_field(grid)
    crit = SimpleNamespace(critical_potential=lambda: A)
    eval_grid = Grid3(4.0 * R, 33)
    rows = _count_kernel_rows(monkeypatch)
    ext = extend_to_grid(crit, phi, eval_grid)
    assert ext.values.shape == (eval_grid.n_nodes, 4) and np.all(np.isfinite(ext.values))
    assert len(A.support_indices()) * eval_grid.n_nodes > 9_000_000
    assert sum(rows) <= 20**3 + 26 * 64


def test_default_extension_evaluates_the_offset_table_once(monkeypatch):
    """default_eval_grid at n = 9 is Grid3(2, 17) on the support lattice:
    it holds every support node bit for bit, and one extension onto it
    evaluates the kernel at the 12^3 offsets of one octant of its 23^3
    offsets plus the 26 x 64 subcells of its near cells. At the support nodes that extension of a solve
    reproduces the node solution to the residual contract."""
    A = build_potential(make_grid(9), "spherical-well", -0.55, R)
    sup = A.support_indices()
    spts = A.grid.points[sup]
    eval_grid = solver.default_eval_grid(A.grid)
    at = [np.flatnonzero(np.all(eval_grid.points == p, axis=1)) for p in spts]
    assert all(len(i) == 1 for i in at)
    at = np.concatenate(at)
    rows = _count_kernel_rows(monkeypatch)
    f = smooth_field(A.grid).values[sup]
    ext = apply_kernel_rows(0.1, eval_grid.points, A, f)
    assert ext.shape == (eval_grid.n_nodes, 4) and np.all(np.isfinite(ext))
    assert sum(rows) <= 12**3 + 26 * 64

    kvec = [0.1, 0.0, 0.0]
    chi = free_solution(1, kvec).values_at(spts)
    M = solver.system_matrix(assemble_T(A, 0.1))
    u = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M), chi.reshape(-1))
    phi, _ = solve_generalized(A, None, 1, kvec)
    assert phi.grid.same_layout(eval_grid)
    scale = np.max(np.linalg.norm(chi, axis=1))
    assert np.max(np.linalg.norm(phi.values[at] - u.reshape(-1, 4), axis=1)) <= 1e-8 * scale


def test_lattice_shift_permutes_T_exactly():
    """Rolling the well on Grid3(1, 13) (h = 1/6) by one node per axis
    shifts its support, whose sorted order stays the same, so T-hat is
    the same matrix bit for bit: every block depends on the integer
    offset only."""
    grid = Grid3(1.0, 13)
    A = build_potential(grid, "spherical-well", 1.0, 0.7, components=(1.0, 0.2, -0.1, 0.3))
    rolled = np.roll(A.values.reshape(13, 13, 13, 4), 1, axis=(0, 1, 2)).reshape(-1, 4)
    shifted = FourPotential(grid, A.shape, A.coupling, R, rolled)
    assert np.array_equal(shifted.support_indices(), A.support_indices() + 13**2 + 13 + 1)
    for k in (0.0, 0.2, 0.1j):
        assert np.array_equal(assemble_T(shifted, k), assemble_T(A, k)), k


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_kernel_blocks_are_adjoint_symmetric(seed, m, kappa):
        """At k = i kappa (kappa >= 0) the kernel is real-phased, so
        G(-z) = G(z)^H and the cell rules are mirror symmetric: on a
        random support, K_ij = K_ji^H, from the offset table of any
        support, sparse or dense."""
        grid = make_grid(7)
        pts = grid.points[np.random.default_rng(seed).choice(grid.n_nodes, m, replace=False)]
        K = assemble_kernel_blocks(1j * kappa, pts, pts, grid.spacing)
        adjoint = K.transpose(1, 0, 3, 2).conj()
        assert np.max(np.abs(K - adjoint)) <= 1e-14 * np.max(np.abs(K))


def defect_residual(n, k=0.4):
    """sup over probe nodes of |(E - D0_h) T f - A f|, D0_h the central
    difference Dirac operator at the grid's own spacing.

    Probing at lattice nodes with step h is essential: the discrete T f is
    a finite sum of free-kernel samples, so an infinitesimal stencil sees
    (E - D0) T f = 0 exactly; the delta normalization only emerges at the
    quadrature scale, where the interior scheme is translation invariant
    and its error varies smoothly from node to node.
    """
    grid = make_grid(n)
    A = build_potential(grid, "gaussian-bump", 1.0, R, w=0.45)
    f = smooth_field(grid)
    h = grid.spacing
    E = energy(k).real
    sup = A.support_indices()
    fsup = f.values[sup]

    # probe nodes common to every refinement level (coordinate multiples
    # of R/4), interior enough that the full FD stencil stays in the well
    probes = []
    for c in (
        [0.25, 0.0, 0.0],
        [0.0, 0.25, 0.25],
        [0.25, 0.25, 0.25],
        [0.5, 0.0, 0.0],
        [0.25, -0.5, 0.0],
        [-0.25, 0.25, 0.0],
    ):
        probes.append(np.array(c) * R)
    probes = np.array(probes)

    targets = [probes]
    for l in range(3):
        for s in (+1, -1):
            shifted = probes.copy()
            shifted[:, l] += s * h
            targets.append(shifted)
    allpts = np.vstack(targets)
    tf = apply_kernel_rows(k, allpts, A, fsup)
    m = len(probes)
    tf0 = tf[:m]
    grads = []
    for l in range(3):
        plus = tf[m * (1 + 2 * l) : m * (2 + 2 * l)]
        minus = tf[m * (2 + 2 * l) : m * (3 + 2 * l)]
        grads.append((plus - minus) / (2 * h))

    from threshold_dirac.algebra import alpha_stack

    alphas = alpha_stack()
    d0 = sum(-1j * grads[l] @ alphas[l].T for l in range(3)) + tf0 @ beta().T
    lhs = E * tf0 - d0

    # analytic A f at the probes (A and f both closed-form)
    r = np.linalg.norm(probes, axis=1)
    prof = np.exp(-((r / 0.45) ** 2))
    edge = np.clip((R - r) / (R - 0.75 * R), 0.0, 1.0)
    prof *= 3 * edge**2 - 2 * edge**3
    r2 = np.sum(probes**2, axis=1)
    base = np.exp(-1.3 * r2) * np.exp(1j * (probes @ np.array([0.4, -0.2, 0.15])))
    weights = np.array([1.0, 0.5 - 0.2j, 0.3j, -0.25], dtype=complex)
    af = (prof * base)[:, None] * weights[None, :]

    return float(np.max(np.linalg.norm(lhs - af, axis=1)))


def test_defect_identity_refinement():
    r9 = defect_residual(9)
    r17 = defect_residual(17)
    r33 = defect_residual(33)
    assert r17 < r9 / 3.0
    assert r33 < r17 / 3.0


# ---------------------------------------------------------------------------
# solving


def test_free_case_identity():
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 0.0, R)
    phi, diag = solve_generalized(A, None, 1, [0.2, 0.0, 0.1])
    chi_vals = free_spinor(1, [0.2, 0.0, 0.1])
    norms = np.linalg.norm(phi.values, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    assert diag["residual"] == 0.0
    assert not diag["at_resonance"]
    del chi_vals


def test_subcritical_solve_contract():
    grid = make_grid(9)
    A = build_potential(grid, "spherical-well", -0.55, R)  # about half critical
    phi, diag = solve_generalized(A, None, 1, [0.05, 0.0, 0.0])
    assert diag["residual"] <= 1e-8
    assert not diag["at_resonance"]
    assert diag["rcond"] > 1e-6
    assert 0.5 < diag["sup_norm"] < 50.0


def test_extension_matches_support_solution():
    grid = make_grid(9)
    A = build_potential(grid, "spherical-well", -0.55, R)
    phi, diag = solve_generalized(A, None, 1, [0.1, 0.0, 0.0], eval_grid=grid)
    # on the solve grid, chi + T phi must reproduce phi at support nodes
    sup = A.support_indices()
    chi = SpinorField(grid, free_solution(1, [0.1, 0.0, 0.0]).values_at(grid.points))
    T = assemble_T(A, 0.1)
    lhs = phi.values[sup]
    direct = np.linalg.solve(
        np.eye(T.shape[0]) - T, chi.values[sup].reshape(-1)
    ).reshape(-1, 4)
    assert np.max(np.linalg.norm(lhs - direct, axis=1)) < 1e-7


def test_far_field_decay_slope():
    grid = make_grid(9)
    A = build_potential(grid, "spherical-well", -0.8, R)
    sup = A.support_indices()
    f = smooth_field(grid)
    radii = np.geomspace(3.0 * R, 12.0 * R, 6)
    sups = []
    for rho in radii:
        # six axis points plus two diagonals per shell
        dirs = np.array(
            [
                [1, 0, 0],
                [-1, 0, 0],
                [0, 1, 0],
                [0, -1, 0],
                [0, 0, 1],
                [0, 0, -1],
                [1, 1, 1],
                [-1, 1, -1],
            ],
            dtype=float,
        )
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = rho * dirs
        vals = apply_kernel_rows(0.2, pts, A, f.values[sup])
        sups.append(np.max(np.linalg.norm(vals, axis=1)))
    slope = np.polyfit(np.log(radii), np.log(sups), 1)[0]
    assert -1.15 < slope < -0.85


def test_internode_jump_bounded_by_h():
    """Adjacent-node increments of T f scale like C h (the discrete field
    is Lipschitz with an h-independent constant)."""
    k = 0.3

    def max_jump(n):
        grid = make_grid(n)
        A = build_potential(grid, "gaussian-bump", 1.0, R, w=0.45)
        f = smooth_field(grid)
        sup = A.support_indices()
        ts = grid.axis
        line = np.stack([ts, np.zeros_like(ts), np.zeros_like(ts)], axis=1)
        vals = apply_kernel_rows(k, line, A, f.values[sup])
        jump = float(np.max(np.linalg.norm(np.diff(vals, axis=0), axis=1)))
        return jump, float(np.max(np.linalg.norm(vals, axis=1))), grid.spacing

    j9, sup9, h9 = max_jump(9)
    j17, _, h17 = max_jump(17)
    # same Lipschitz constant at both levels, jump linear in h
    c9, c17 = j9 / h9, j17 / h17
    assert j9 < 2.0 * sup9 * h9
    assert 0.5 < c17 / c9 < 2.0


# ---------------------------------------------------------------------------
# symmetry and scaling probes


@pytest.mark.parametrize("k", [0.0, 0.35j])
def test_symmetry_probe_threshold_and_below(k):
    """<h,A,T^B g> = <T^A h,B,g> holds for real energies at or below
    threshold (k = 0 or imaginary), where the kernel satisfies
    G(-z)^dagger = G(z); mirrored subcell offsets make the discrete
    identity exact to roundoff."""
    grid = make_grid(9)
    A = build_potential(grid, "spherical-well", 0.9, R)
    B = build_potential(grid, "gaussian-bump", -0.6, 0.8 * R, w=0.35)
    h = smooth_field(grid, seed=1)
    g_ = smooth_field(grid, seed=2)
    g_ = SpinorField(grid, g_.values * np.exp(0.4j) * 1.3)
    s1, s2 = symmetry_probe(A, B, k, h, g_)
    assert abs(s1 - s2) <= 1e-10 * max(abs(s1), abs(s2))


def test_symmetry_probe_equal_arguments():
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 0.9, R)
    h = smooth_field(grid)
    s1, s2 = symmetry_probe(A, A, 0.0, h, h)
    assert abs(s1 - s2) <= 1e-12 * abs(s1)
    assert abs(s1.imag) <= 1e-12 * abs(s1)


def test_symmetry_probe_zero_potential():
    grid = make_grid(7)
    A = build_potential(grid, "spherical-well", 0.0, R)
    B = build_potential(grid, "spherical-well", 1.0, R)
    h = smooth_field(grid)
    s1, s2 = symmetry_probe(A, B, 0.0, h, h)
    assert s1 == 0 and s2 == 0


def test_operator_difference_linear_in_k():
    """|(T_k - T_0) h|_inf ~ C k for a generic fixed h."""
    grid = make_grid(9)
    A = build_potential(grid, "spherical-well", 1.0, R)
    sup = A.support_indices()
    h = smooth_field(grid)
    T0 = assemble_T(A, 0.0)
    flat = h.values[sup].reshape(-1)
    ks = np.geomspace(1e-3, 1e-1, 7)
    diffs = []
    for k in ks:
        d = (assemble_T(A, k) - T0) @ flat
        diffs.append(np.max(np.linalg.norm(d.reshape(-1, 4), axis=1)))
    slope = np.polyfit(np.log(ks), np.log(diffs), 1)[0]
    assert 0.85 < slope < 1.15


# ---------------------------------------------------------------------------
# singular value estimator


def test_smallest_singular_matches_svd():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = m @ m.conj().T + 0.01 * np.eye(40)  # well conditioned hermitian
    est = smallest_singular_value(m)
    true = np.linalg.svd(m, compute_uv=False)[-1]
    assert abs(est - true) < 1e-3 * true


def test_smallest_singular_detects_singularity():
    m = np.diag(np.array([1.0, 2.0, 3.0, 0.0], dtype=complex))
    est = smallest_singular_value(m)
    assert est < 1e-12


def test_smallest_singular_failure_is_nan():
    # a failed factorization is not "exactly singular": NaN fails every
    # sigma < threshold test, so it can never certify a coupling
    m = np.eye(6, dtype=complex)
    m[2, 3] = np.nan
    est = smallest_singular_value(m)
    assert np.isnan(est)
    assert not est < 1e-8
    from threshold_dirac.critical import sigma_min_at

    s, _ = sigma_min_at(m, 0.5)
    assert np.isnan(s)


@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_negative_count_matches_eigvalsh(n):
    """The inertia read off the Bunch-Kaufman pivots equals the number of
    negative eigenvalues from eigvalsh: on seeded indefinite Hermitian
    matrices, where 2x2 pivots occur, and on definite ones of either
    sign, which count 0 and n."""
    rng = np.random.default_rng(n)
    two_by_two = 0
    for _ in range(10):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        indefinite = X + X.conj().T
        P = X @ X.conj().T
        definite = 0.5 * (P + P.conj().T) + 0.1 * np.eye(n)  # an exactly real diagonal
        for H in (indefinite, definite, -definite):
            lam = np.linalg.eigvalsh(H)
            assert np.min(np.abs(lam)) > 1e-8 * np.max(np.abs(lam))
            assert solver.negative_count(H) == np.count_nonzero(lam < 0.0)
        assert solver.negative_count(definite) == 0
        assert solver.negative_count(-definite) == n
        two_by_two += np.count_nonzero(scipy.linalg.ldl(indefinite, hermitian=True)[1].diagonal(-1))
    assert (two_by_two > 0) == (n > 1)
    bad = np.eye(n, dtype=complex)
    bad[-1, 0] = np.nan
    with pytest.raises(ValueError):
        solver.negative_count(bad)


def test_negative_count_ignores_round_off_on_the_diagonal():
    """U diag(lam) U^H carries round-off imaginary parts on its diagonal,
    which ldl(hermitian=True) warns about and never reads: the count is
    that of lam, and no warning escapes."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    U = np.linalg.qr(X)[0]
    lam = rng.normal(size=40)
    H = (U * lam) @ U.conj().T
    assert np.any(H.diagonal().imag != 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver.negative_count(H) == np.count_nonzero(lam < 0.0) == 21


def test_crossing_count_rejects_a_singular_potential_node():
    """A support node where V is singular (a0^2 = |a|^2) has no inverse
    block: the count raises there, it never skips the node."""
    from threshold_dirac.probes import crossing_count

    grid = make_grid(5)
    V = build_potential(grid, "spherical-well", 1.0, R, components=(1.0, 0.3, 0.0, 0.0))
    assert crossing_count(V, 0.1) >= 0
    node = V.support_indices()[0]
    V.values[node] = (0.5, 0.3, 0.4, 0.0)
    with pytest.raises(ValueError, match="singular"):
        crossing_count(V, 0.1)


def _trivial_sector(n_nodes: int):
    """The one sector of a support of n_nodes nodes on the positive z
    axis of Grid3(R, 5), which inversion does not map onto itself: the
    trivial group, whose maps are the identity."""
    values = np.zeros((125, 4))
    values[63 : 63 + n_nodes, 0] = 1.0  # node (2, 2, 3) and up
    (sector,) = solver.symmetry_sectors(FourPotential(make_grid(5), "row", 1.0, R, values))
    assert sector.order == 1 and len(sector.nodes) == n_nodes
    return sector


def test_failed_factorization_is_flagged_with_nan_rcond(monkeypatch):
    """A NaN system matrix is a failure, not a resonance: rcond is NaN
    (never 0.0, which would read as exactly singular), the cell is still
    flagged, and no least-squares solve is attempted on it."""
    m = np.eye(8, dtype=complex)
    m[2, 3] = np.nan
    fac = solver.factor(m)
    assert fac.lu is None and np.isnan(fac.rcond) and fac.at_resonance
    assert np.isnan(solver._rcond_from_lu(m, (np.ones((2, 3)), None), 1.0))

    grid = make_grid(5)
    A = build_potential(grid, "spherical-well", -0.5, R)
    real = solver.assemble_sectors

    def broken(*args, **kwargs):
        blocks = real(*args, **kwargs)
        blocks[0][0, 1] = np.nan
        return blocks

    monkeypatch.setattr(solver, "assemble_sectors", broken)
    phi, diag = solve_generalized(A, None, 1, [0.1, 0.0, 0.0])
    assert np.isnan(diag["rcond"])
    assert diag["at_resonance"]
    assert np.isnan(diag["sup_norm"])


def test_non_finite_lu_is_a_failed_factorization():
    """[[1, 1e308], [1, -1e308]] is finite, but its U_22 overflows to
    -inf. factor's one failure rule reads that as failed, and so does
    every consumer: a NaN solve (not a least-squares answer), a NaN
    sigma_min (not 0.0) and no iteration."""
    m = np.array([[1.0, 1e308], [1.0, -1e308]])
    fac = solver.factor(m)
    assert fac.lu is None and np.isnan(fac.rcond) and fac.at_resonance
    node = np.eye(4)
    node[:2, :2] = m  # the same overflow in a one-node block
    x, _, _ = solver.sector_solve([(_trivial_sector(1), solver.factor(node))], np.ones(4))
    assert np.all(np.isnan(x))
    assert np.isnan(smallest_singular_value(m))
    assert solver.subspace_iteration(fac, 1) is None


def test_solve_returns_its_residual():
    """sector_solve returns (x, node sup norm of M x - rhs, flagged). An
    LU solve meets the contract; a flagged least-squares solve reports
    its residual without raising; a failed LU gives NaN for both."""
    rng = np.random.default_rng(5)
    sector = _trivial_sector(2)
    m = np.eye(8) + 0.1 * rng.normal(size=(8, 8))
    rhs = rng.normal(size=8) + 0j
    x, res, flagged = solver.sector_solve([(sector, solver.factor(m))], rhs)
    assert not flagged
    assert res <= 1e-12 * np.max(np.abs(rhs))
    np.testing.assert_allclose(m @ x, rhs, rtol=0.0, atol=1e-12)

    m[:, 0] = m[:, 1]
    fac = solver.factor(m)
    assert fac.at_resonance
    x, res, flagged = solver.sector_solve([(sector, fac)], rhs)
    assert flagged
    assert res == np.max(np.linalg.norm((m @ x - rhs).reshape(-1, 4), axis=1))
    assert res > 1e-8

    node = np.eye(4)
    node[:2, :2] = [[1.0, 1e308], [1.0, -1e308]]
    x, res, _ = solver.sector_solve([(_trivial_sector(1), solver.factor(node))], np.ones(4))
    assert np.all(np.isnan(x)) and np.isnan(res)


def test_every_lu_goes_through_factor(monkeypatch):
    """solver.factor is the package's only LU, so its failure rule is the
    only one. Each caller factors each distinct matrix once: the
    bound-state branch once per sector that holds the threshold basis
    (two on this C4h well), sigma_min_at once. The coupling search makes
    no LU."""
    from threshold_dirac import critical, probes

    callers, users = [], Counter()
    lu_factor = scipy.linalg.lu_factor

    def spy(*args, **kwargs):
        caller = sys._getframe(1)
        callers.append((caller.f_globals["__name__"], caller.f_code.co_name))
        user = caller.f_back
        users[(user.f_globals["__name__"], user.f_code.co_name)] += 1
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
    grid = make_grid(7)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    crit = critical.find_critical_coupling(shape, (5.0, 9.0))
    A = crit.critical_potential()
    B0 = build_potential(grid, "spherical-well", 1.0, 0.7)
    X = probes._branch_seeds(A, B0, crit.basis)
    assert probes._branch(A, B0, 0.05, 0.0, X) is not None
    critical.sigma_min_at(assemble_T(shape, 0.0), 0.5 * crit.g_star)
    assert users == {
        ("threshold_dirac.probes", "_branch"): 2,
        ("threshold_dirac.solver", "smallest_singular_value"): 1,
    }
    assert set(callers) == {("threshold_dirac.solver", "factor")}


def test_sigma_probe_at_a_crossing_takes_fixed_steps(monkeypatch):
    """At a round-off crossing the sigma_min estimate sits below the
    floor n eps |M|_F from the first step, so the iteration stops after
    two steps, four solves: a 1e-14 relative perturbation of M cannot
    change the work done. Off a crossing it stops on the steady
    estimate, within the step cap."""
    from threshold_dirac import critical

    shape = build_potential(make_grid(7), "spherical-well", 1.0, R)
    crit = critical.find_critical_coupling(shape, (5.0, 9.0))
    that = assemble_T(shape, 0.0)
    m = solver.system_matrix(crit.g_star * that)
    rng = np.random.default_rng(3)
    e = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    e *= 1e-14 * np.linalg.norm(m) / np.linalg.norm(e)

    solves = []
    lu_solve = scipy.linalg.lu_solve

    def spy(*args, **kwargs):
        solves.append(1)
        return lu_solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_solve", spy)
    counts, sigmas = [], []
    for mat in (m, m + e, solver.system_matrix(0.5 * crit.g_star * that)):
        solves.clear()
        sigmas.append(smallest_singular_value(mat))
        counts.append(len(solves))
    assert counts[0] == counts[1] == 4
    assert max(sigmas[:2]) < 1e-8 * np.linalg.norm(m, 1)
    assert counts[2] < 2 * solver._ITER_STEPS
    true = np.linalg.svd(solver.system_matrix(0.5 * crit.g_star * that), compute_uv=False)[-1]
    assert (1.0 - 1e-10) * true <= sigmas[2] <= (1.0 + 1e-4) * true
