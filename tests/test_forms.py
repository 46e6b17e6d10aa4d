"""Taylor-coefficient forms: dual routes, split identities, gamma spectrum."""

from dataclasses import replace

import numpy as np
import pytest

from threshold_dirac.algebra import alpha_stack
from threshold_dirac.potentials import Grid3, SpinorField, build_potential, fold_rows, pseudo_inner
from threshold_dirac.critical import find_critical_coupling
from threshold_dirac.forms import (
    compute_forms,
    gamma_spectrum,
    q1_from_lambda,
    s1_from_xi,
    s_split,
    taylor_form,
    taylor_form_fd,
)

R = 1.0


@pytest.fixture(scope="module")
def crit9():
    """Resonance-class structure (attractive well) on the coarse 9^3 grid."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    return find_critical_coupling(shape, (-2.2, -0.4))


@pytest.fixture(scope="module")
def crit9_bound():
    """Lambda-free structure (repulsive well) on the coarse 9^3 grid."""
    grid = Grid3(R, 9)
    shape = build_potential(grid, "spherical-well", 1.0, R)
    return find_critical_coupling(shape, (5.0, 7.0))


def test_q1_matches_lambda_pairing(crit9):
    A = crit9.critical_potential()
    Q1 = taylor_form(A, crit9, 1)
    alias = q1_from_lambda(crit9)
    assert np.linalg.norm(Q1 - alias) <= 1e-6 * np.linalg.norm(Q1)
    # the same thing written as a pairing against the constant spinor field
    n = crit9.dim
    grid = A.grid
    for p in range(n):
        for q in range(n):
            const = SpinorField(
                grid, np.broadcast_to(crit9.lambda_values[q], (grid.n_nodes, 4)).copy()
            )
            want = (-1j / (4.0 * np.pi)) * pseudo_inner(crit9.basis[p], A, const)
            assert abs(Q1[p, q] - want) <= 1e-6 * abs(Q1[p, p])


def test_q1_vanishes_for_lambda_free_class(crit9_bound):
    A = crit9_bound.critical_potential()
    Q1 = taylor_form(A, crit9_bound, 1)
    Rm = taylor_form(A, crit9_bound, 2)
    assert np.linalg.norm(Q1) <= 1e-10 * np.linalg.norm(Rm)


def test_q1_nonzero_for_resonance_class(crit9):
    A = crit9.critical_potential()
    Q1 = taylor_form(A, crit9, 1)
    Rm = taylor_form(A, crit9, 2)
    assert np.linalg.norm(Q1) > 1e-2 * np.linalg.norm(Rm)


def test_fd_oracle_all_orders(crit9):
    A = crit9.critical_potential()
    fds = taylor_form_fd(A, crit9)
    for order in (1, 2, 3):
        direct = taylor_form(A, crit9, order)
        fd = fds[order]
        assert np.linalg.norm(direct - fd) <= 1e-4 * np.linalg.norm(direct)


def test_taylor_form_rejects_bad_order(crit9):
    A = crit9.critical_potential()
    with pytest.raises(ValueError):
        taylor_form(A, crit9, 4)
    with pytest.raises(ValueError):
        taylor_form_fd(A, crit9, 0)


def test_r_hermitian_s_antihermitian(crit9, crit9_bound):
    for crit in (crit9, crit9_bound):
        A = crit.critical_potential()
        Rm = taylor_form(A, crit, 2)
        Sm = taylor_form(A, crit, 3)
        assert np.linalg.norm(Rm - Rm.conj().T) <= 1e-6 * np.linalg.norm(Rm)
        assert np.linalg.norm(Sm + Sm.conj().T) <= 1e-6 * np.linalg.norm(Sm)


def test_diagonals_real_and_imaginary(crit9, crit9_bound):
    for crit in (crit9, crit9_bound):
        A = crit.critical_potential()
        Rm = taylor_form(A, crit, 2)
        Sm = taylor_form(A, crit, 3)
        rscale = np.linalg.norm(Rm)
        sscale = np.linalg.norm(Sm)
        assert np.max(np.abs(np.diag(Rm).imag)) <= 1e-10 * rscale
        assert np.max(np.abs(np.diag(Sm).real)) <= 1e-10 * sscale
        # nonzero imaginary diagonal of S (both reference classes satisfy (e))
        assert np.min(np.abs(np.diag(Sm).imag)) > 1e-2 * sscale


def test_s_split_identities(crit9_bound):
    A = crit9_bound.critical_potential()
    for phi in crit9_bound.basis:
        sp = s_split(A, phi)
        assert sp.xi.shape == (3, 4)
        assert sp.C2 >= -1e-14
        assert sp.C3 >= -1e-14
        assert sp.C1 > 0.0
        # s1 against the xi reduction, two spellings of the same identity
        assert abs(sp.s1 - (-1j * sp.C2)) <= 1e-6 * abs(sp.s1)
        assert abs(sp.s1 - s1_from_xi(sp.xi)) <= 1e-6 * abs(sp.s1)
        # s3 is the plain moment square, exactly
        assert abs(sp.s3 - (-1j * sp.C3)) <= 1e-12 * abs(sp.s3)
        # the exchange argument makes s2 anti-Hermitian, so purely imaginary
        assert abs(sp.s2.real) <= 1e-10 * max(abs(sp.s2), abs(sp.s3))


def test_s_split_sum_matches_order3_diagonal(crit9_bound):
    A = crit9_bound.critical_potential()
    Sm = taylor_form(A, crit9_bound, 3)
    for p, phi in enumerate(crit9_bound.basis):
        sp = s_split(A, phi)
        total = sp.s1 + sp.s2 + sp.s3
        assert abs(total - Sm[p, p]) <= 0.02 * abs(Sm[p, p])
        # C1 is the weight of the diagonal, S_pp = -i C1, cross term included
        assert abs(sp.C1 - (1j * total).real) <= 1e-6 * abs(total)
        assert abs(sp.C1 - (1j * Sm[p, p]).real) <= 0.02 * abs(Sm[p, p])


def test_s2_matches_closed_form(crit9_bound):
    """s2 = (12 pi)^(-1/2) sum_l (xi_l^dag alpha_l m - m^dag alpha_l xi_l)
    with m = sum w A Phi: the nested double sum collapses to moments."""
    A = crit9_bound.critical_potential()
    alphas = alpha_stack()
    for phi in crit9_bound.basis:
        sp = s_split(A, phi)
        m = A.grid.weights @ fold_rows(A.values, phi.values)
        closed = sum(
            sp.xi[l].conj() @ alphas[l] @ m - m.conj() @ alphas[l] @ sp.xi[l]
            for l in range(3)
        ) / np.sqrt(12.0 * np.pi)
        assert abs(sp.s2 - closed) <= 1e-10 * abs(sp.s2)
        assert abs(sp.s2) > 0.1 * (abs(sp.s1) + abs(sp.s3))


def test_s_split_rejects_resonance_class(crit9):
    A = crit9.critical_potential()
    with pytest.raises(ValueError, match="lambda"):
        s_split(A, crit9.basis[0])


def test_gamma_spectrum_properties(crit9_bound):
    A = crit9_bound.critical_potential()
    Rm = taylor_form(A, crit9_bound, 2)
    B0 = build_potential(A.grid, "spherical-well", 1.0, R)
    spec = gamma_spectrum(crit9_bound, B0, Rm)
    gn = crit9_bound.gram_n
    gm = gn @ spec.Mhat
    gnh = gn @ spec.Nhat
    assert np.linalg.norm(gm - gm.conj().T) <= 1e-10 * np.linalg.norm(gm)
    # natural-scale floor, as in compute_forms: on the bound class Nhat is
    # zero by theory (lambda = 0), so only round-off is left to compare
    floor = 1e-12 * np.linalg.norm(crit9_bound.gram_m)
    assert np.linalg.norm(gnh + gnh.conj().T) <= 1e-10 * np.linalg.norm(gnh) + floor
    assert np.linalg.norm(gnh) <= 1e-12 * np.linalg.norm(gm)
    assert spec.gammas.dtype == np.float64
    quantum = 1e-9 * max(1.0, float(np.max(np.abs(spec.gammas))))
    assert np.all(np.diff(spec.gammas) >= -quantum)
    # Kramers degeneracy of the curvature on the two-dimensional span
    assert abs(spec.gammas[1] - spec.gammas[0]) <= 1e-6 * abs(spec.gammas[0])


def test_gamma_rescale_covariance(crit9_bound):
    A = crit9_bound.critical_potential()
    Rm = taylor_form(A, crit9_bound, 2)
    B0 = build_potential(A.grid, "spherical-well", 1.0, R)
    spec = gamma_spectrum(crit9_bound, B0, Rm)
    spec2 = gamma_spectrum(crit9_bound, B0.rescaled(2.0), Rm)
    assert np.max(np.abs(spec2.gammas - spec.gammas / 2.0)) <= 1e-12 * np.max(
        np.abs(spec.gammas)
    )


def test_gamma_dim1_formula(crit9_bound):
    A = crit9_bound.critical_potential()
    sub = replace(
        crit9_bound,
        basis=crit9_bound.basis[:1],
        lambda_values=crit9_bound.lambda_values[:1],
        gram_n=crit9_bound.gram_n[:1, :1],
        gram_m=crit9_bound.gram_m[:1, :1],
    )
    R11 = taylor_form(A, sub, 2)
    B0 = build_potential(A.grid, "spherical-well", 1.0, R)
    spec = gamma_spectrum(sub, B0, R11)
    w00 = pseudo_inner(crit9_bound.basis[0], B0, crit9_bound.basis[0])
    want = R11[0, 0] / w00
    assert abs(want.imag) <= 1e-10 * abs(want)
    assert abs(R11[0, 0].imag) <= 1e-10 * abs(R11[0, 0])
    assert abs(w00.imag) <= 1e-10 * abs(w00)
    assert abs(spec.gammas[0] - want.real) <= 1e-10 * abs(want)


def test_gamma_singular_b0_raises(crit9_bound):
    A = crit9_bound.critical_potential()
    Rm = taylor_form(A, crit9_bound, 2)
    zero = build_potential(A.grid, "spherical-well", 0.0, R)
    with pytest.raises(ValueError, match="singular"):
        gamma_spectrum(crit9_bound, zero, Rm)


def test_compute_forms_end_to_end(crit9_bound):
    B0 = build_potential(crit9_bound.shape.grid, "spherical-well", 1.0, R)
    forms = compute_forms(crit9_bound, B0=B0)
    n = crit9_bound.dim
    assert forms.Q1.shape == forms.R.shape == forms.S.shape == (n, n)
    assert len(forms.s1) == len(forms.C1) == len(forms.xi) == n
    assert forms.gammas is not None and len(forms.gammas) == n
    assert all(c > 0 for c in forms.C1)


def test_compute_forms_resonance_skips_split(crit9):
    forms = compute_forms(crit9)
    assert forms.s1 is None and forms.C1 is None and forms.xi is None
    assert forms.gammas is None
