"""Taylor-coefficient forms of the edge operator family on the threshold span.

PHYSICS SCOPE
    Near the band edge E_k = sqrt(1 + k^2) the support-restricted integral
    operator T^A_{E_k} is smooth in k, and its matrix elements between
    threshold states admit a cubic Taylor expansion whose coefficients
    decide how fast resonance denominators can close.  This module builds
    those coefficient matrices on the span found by the criticality search:
    the order-1 form Q1, the order-2 form R, the order-3 form S, the
    three-way split of the diagonal of S into moment terms, and the
    spectrum gamma_l that locates the bound-state and resonance lines
    mu + gamma_l k^2 = 0 of a perturbed well.

CONVENTIONS
    The canonical form of order m is the plain derivative coefficient

        form_m[p, q] = (1/m!) <Phi_p, A, [d^m/dk^m T^A_{E_k}]_{k=0} Phi_q>

    with T f = + integral G A f exactly as assembled by the solver module,
    and <f, W, g> = integral f^dagger W g.  Every closed-form reduction
    below (the lambda pairing for Q1, the xi and moment forms for the
    cubic split) is stated in this sign convention and is verified against
    the assembled kernels by the test suite, not assumed.  In this
    convention the diagonal split constants come out as

        s1 = -i C2,   s3 = -i C3,   S_pp = s1 + s2 + s3 = -i C1,
        C1 = C2 + C3 - Im s2,

    with C2 built from the first-moment vector xi through the
    upper-block projector (1 + beta) and C3 from the plain moment m of
    A Phi.  The projector choice is fixed by measurement: for the
    lambda-free class the first moment of A Phi lives in the upper
    block, so (1 + beta) is the projection that keeps it.  The cross
    term has the closed form

        s2 = (12 pi)^(-1/2) sum_l (xi_l^dag alpha_l m - m^dag alpha_l xi_l)
           = 2i (12 pi)^(-1/2) Im sum_l xi_l^dag alpha_l m,

    purely imaginary by the exchange symmetry but not zero: it pairs the
    upper-block xi with the lower block of m.  C2 and C3 are >= 0 by
    construction; C1, the weight on the diagonal, is not, and its sign
    is a measured property of the structure.

UNITS
    hbar = c = m = 1 throughout; k is the asymptotic momentum and all
    forms carry the units of the pairing <., A, .>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import alpha, one_plus_beta
from .critical import CriticalStructure, lambda_of, lambda_vanishes
from .potentials import FourPotential, SpinorField, fold_rows
from .solver import apply_kernel_rows

__all__ = [
    "SSplit",
    "GammaSpectrum",
    "PerturbationForms",
    "taylor_form",
    "taylor_form_fd",
    "q1_from_lambda",
    "s1_from_xi",
    "s_split",
    "gamma_spectrum",
    "compute_forms",
]

_SPLIT_CHUNK = 1024
_GAMMA_IMAG_REL = 1e-6
_HERMITICITY_REL = 1e-6
_CONTOUR_NODES = 24
_CONTOUR_RADIUS = 0.3


def _support_data(A: FourPotential):
    sup = A.support_indices()
    if len(sup) == 0:
        raise ValueError("potential has empty support")
    return sup, A.grid.points[sup], A.grid.weights[sup], A.values[sup]


def _pair_matrix(A: FourPotential, crit: CriticalStructure, k: complex, order: int) -> np.ndarray:
    """F[p, q] = <Phi_p, A, [d^order T^A_{E_k}] Phi_q> on the support nodes.

    One stacked apply_kernel_rows call applies the kernel to every basis
    state at once.
    """
    sup, pts, w, pot = _support_data(A)
    fields = np.stack([phi.values[sup] for phi in crit.basis])
    timg = apply_kernel_rows(k, pts, A, fields, A.grid.spacing, order=order)
    folded = [fold_rows(pot, f) for f in fields]
    n = crit.dim
    out = np.empty((n, n), dtype=np.complex128)
    for q in range(n):
        col = np.ascontiguousarray(timg[:, q])
        for p, apf in enumerate(folded):
            out[p, q] = np.sum(w * np.einsum("ti,ti->t", apf.conj(), col))
    return out


def taylor_form(A: FourPotential, crit: CriticalStructure, order: int) -> np.ndarray:
    """Order-m Taylor coefficient matrix of k -> <Phi_p, A, T^A_{E_k} Phi_q>.

    Entry (p, q) is (1/m!) <Phi_p, A, [d^m T]_{k=0} Phi_q>, assembled from
    the closed-form derivative kernels on the support nodes of A.
    """
    if order not in (1, 2, 3):
        raise ValueError("derivative kernels cover orders 1..3 only")
    return (1.0 / math.factorial(order)) * _pair_matrix(A, crit, 0.0, order)


def taylor_form_fd(A: FourPotential, crit: CriticalStructure, *orders: int) -> dict:
    """Contour (complex-node difference) oracle for taylor_form.

    The pairing F(k)[p, q] = <Phi_p, A, T^A_{E_k} Phi_q> is analytic in k
    on the disk |k| < 1.  The quadrature depends on k through e^{ik|z|},
    polynomials in k and the self-cell moments J_n(k, a), all entire, and
    through E_k = sqrt(1 + k^2), whose principal branch is analytic
    wherever Re(1 + k^2) > 0 (branch points at k = +-i).  Its
    Taylor coefficients at k = 0 are therefore the Cauchy integrals

        form_m = (1/2 pi i) oint F(k) k^(-m-1) dk
               = (1/N) sum_j F(k_j) k_j^(-m),   k_j = r e^{2 pi i j / N},

    with the trapezoid rule on |k| = r converging geometrically, like
    r^N; N = 24 nodes on r = 0.3 reach round-off.  Only order-0
    kernel rows are evaluated, at complex k; the closed-form derivative
    kernels that taylor_form assembles are never touched, so the two
    routes share the quadrature but not the code path under test.

    One set of samples serves every order: returns {m: form_m} for the
    requested orders (all of 1, 2, 3 when none are given).
    """
    orders = orders or (1, 2, 3)
    if any(m not in (1, 2, 3) for m in orders):
        raise ValueError("derivative kernels cover orders 1..3 only")
    n = _CONTOUR_NODES
    ks = _CONTOUR_RADIUS * np.exp(2j * math.pi * np.arange(n) / n)
    samples = [_pair_matrix(A, crit, k, 0) for k in ks]
    return {m: sum(F * k**-m for F, k in zip(samples, ks)) / n for m in orders}


def q1_from_lambda(crit: CriticalStructure) -> np.ndarray:
    """Closed form of the order-1 matrix from the tail moments alone.

    The order-1 derivative kernel at k = 0 is the constant matrix
    -(i/4pi)(1 + beta), so [dT] Phi_q is the constant spinor
    -(i/4pi) lambda(Phi_q) and the pairing collapses to
    -(i/8pi) lambda_p^dagger lambda_q.
    """
    lams = np.stack(crit.lambda_values)
    return (-1j / (8.0 * math.pi)) * (lams.conj() @ lams.T)


def s1_from_xi(xi: np.ndarray) -> complex:
    """Cubic-split first term from the xi vector: s1 = -i <xi, (1+beta) xi>."""
    P = one_plus_beta()
    val = complex(np.einsum("li,ij,lj->", xi.conj(), P, xi))
    return -1j * val


@dataclass(frozen=True)
class SSplit:
    """Three-way split of the diagonal cubic form for one lambda-free state.

    s1 + s2 + s3 is the diagonal entry S_pp = -i C1; C2 and C3 are the
    weights of s1 and s3, and C1 = C2 + C3 - Im s2.
    """

    s1: complex
    s2: complex
    s3: complex
    C1: float
    C2: float
    C3: float
    xi: np.ndarray  # (3, 4) first-moment spinors of A Phi


def s_split(A: FourPotential, phi: SpinorField) -> SSplit:
    """Split s(Phi, Phi) into the squared-distance, drift and plain-moment terms.

    Nested quadrature of the three double integrals that make up the
    k^3 coefficient; valid only for states whose tail moment lambda
    vanishes (the squared-radius terms of the first integral are dropped
    against lambda = 0, which is what makes the xi reduction exact).
    """
    if not lambda_vanishes(lambda_of(phi, A), A, phi):
        raise ValueError(
            "tail moment lambda(phi) is not zero; the cubic split needs the "
            "lambda-free class"
        )
    sup, pts, w, pot = _support_data(A)
    u = fold_rows(pot, phi.values[sup]) * w[:, None]  # weighted (A phi) rows
    n = len(u)
    P = one_plus_beta()
    uP = u.conj() @ P
    uAl = [u.conj() @ alpha(l + 1) for l in range(3)]
    s1 = 0.0j
    s2 = 0.0j
    for s in range(0, n, _SPLIT_CHUNK):
        sl = slice(s, min(s + _SPLIT_CHUNK, n))
        diff = pts[sl, None, :] - pts[None, :, :]
        d2 = np.einsum("xyl,xyl->xy", diff, diff)
        s1 += (1j / (24.0 * math.pi)) * np.sum(d2 * (uP[sl] @ u.T))
        for l in range(3):
            s2 += (1.0 / (12.0 * math.pi)) * np.sum(diff[:, :, l] * (uAl[l][sl] @ u.T))
    moment = u.sum(axis=0)
    s3 = (-1j / (8.0 * math.pi)) * complex(moment.conj() @ moment)
    xi = (12.0 * math.pi) ** -0.5 * (pts.T @ u)
    c2c = complex(np.einsum("li,ij,lj->", xi.conj(), P, xi))
    C2 = float(c2c.real)
    C3 = float((1.0 / (8.0 * math.pi)) * (moment.conj() @ moment).real)
    return SSplit(
        s1=complex(s1),
        s2=complex(s2),
        s3=complex(s3),
        C1=C2 + C3 - s2.imag,
        C2=C2,
        C3=C3,
        xi=xi,
    )


@dataclass(frozen=True)
class GammaSpectrum:
    """Projected perturbation matrix and the curvature spectrum it induces."""

    B0hat: np.ndarray
    Mhat: np.ndarray
    Nhat: np.ndarray
    gammas: np.ndarray  # real, ascending


def gamma_spectrum(
    crit: CriticalStructure, B0: FourPotential, R: np.ndarray
) -> GammaSpectrum:
    """Curvature eigenvalues gamma_l of the perturbation direction B0.

    B0hat is the matrix of f -> span-projection of B0 f in the critical
    basis (coefficients through the gram_n metric, pairing data weighted
    by B0 itself).  Mhat and Nhat are the halves of B0hat^-1 Rhat that are
    self-adjoint and anti-self-adjoint in the gram_n metric; the gammas
    are the eigenvalues of Mhat, real because the metric is definite.
    """
    B0hat = crit.coordinates(crit.pairing(B0))
    sv = np.linalg.svd(B0hat, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise ValueError("projected perturbation matrix is singular on the span")
    Rhat = crit.coordinates(R)
    X = np.linalg.solve(B0hat, Rhat)
    Y = np.linalg.solve(B0hat.T, Rhat.T).T
    Mhat = 0.5 * (X + Y)
    Nhat = 0.5 * (X - Y)
    vals, vecs = np.linalg.eig(Mhat)
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    if np.max(np.abs(vals.imag)) > _GAMMA_IMAG_REL * scale:
        raise ValueError("curvature spectrum is not real; check the inputs")
    # ascending by value; near-ties broken by where the eigenvector peaks
    quantum = 1e-9 * scale
    keys_primary = np.round(vals.real / quantum).astype(np.int64)
    keys_secondary = np.argmax(np.abs(vecs), axis=0)
    order = np.lexsort((keys_secondary, keys_primary))
    return GammaSpectrum(
        B0hat=B0hat, Mhat=Mhat, Nhat=Nhat, gammas=vals.real[order]
    )


@dataclass(frozen=True)
class PerturbationForms:
    """All Taylor-coefficient data attached to one critical structure."""

    Q1: np.ndarray
    R: np.ndarray
    S: np.ndarray
    s1: list | None  # per basis member, lambda-free class only
    s2: list | None
    s3: list | None
    C1: list | None
    C2: list | None
    C3: list | None
    xi: list | None
    B0hat: np.ndarray | None
    Mhat: np.ndarray | None
    Nhat: np.ndarray | None
    gammas: np.ndarray | None


def compute_forms(
    crit: CriticalStructure, B0: FourPotential | None = None
) -> PerturbationForms:
    """Assemble Q1, R, S with their built-in cross checks, plus the split
    (lambda-free class) and the gamma spectrum (when B0 is given).

    Raises if the order-1 dual route disagrees or if R / S fail their
    (anti-)Hermiticity to relative 1e-6; a silent mismatch there would
    poison every downstream probe.
    """
    A = crit.critical_potential()
    Q1 = taylor_form(A, crit, 1)
    R = taylor_form(A, crit, 2)
    S = taylor_form(A, crit, 3)

    alias = q1_from_lambda(crit)
    floor = 1e-12 * float(np.linalg.norm(crit.gram_m))
    diff = float(np.linalg.norm(Q1 - alias))
    if diff > 1e-6 * max(np.linalg.norm(Q1), np.linalg.norm(alias)) + floor:
        raise RuntimeError("order-1 form disagrees with its lambda-pairing form")
    if np.linalg.norm(R - R.conj().T) > _HERMITICITY_REL * np.linalg.norm(R):
        raise RuntimeError("order-2 form lost Hermiticity")
    if np.linalg.norm(S + S.conj().T) > _HERMITICITY_REL * np.linalg.norm(S):
        raise RuntimeError("order-3 form lost anti-Hermiticity")

    s1 = s2 = s3 = C1 = C2 = C3 = xi = None
    if crit.lambda_bar == 0:
        splits = [s_split(A, phi) for phi in crit.basis]
        s1 = [sp.s1 for sp in splits]
        s2 = [sp.s2 for sp in splits]
        s3 = [sp.s3 for sp in splits]
        C1 = [sp.C1 for sp in splits]
        C2 = [sp.C2 for sp in splits]
        C3 = [sp.C3 for sp in splits]
        xi = [sp.xi for sp in splits]

    B0hat = Mhat = Nhat = gammas = None
    if B0 is not None:
        spec = gamma_spectrum(crit, B0, R)
        B0hat, Mhat, Nhat, gammas = spec.B0hat, spec.Mhat, spec.Nhat, spec.gammas

    return PerturbationForms(
        Q1=Q1, R=R, S=S,
        s1=s1, s2=s2, s3=s3, C1=C1, C2=C2, C3=C3, xi=xi,
        B0hat=B0hat, Mhat=Mhat, Nhat=Nhat, gammas=gammas,
    )
