"""Outgoing Green kernel of the free Dirac operator and its k-derivatives.

PHYSICS SCOPE
    For energy E = E_k = sqrt(k^2 + 1) on the physical sheet (Im k >= 0)
    the resolvent kernel of the free operator at displacement z != 0 is

        G_k(z) = (e^{ik|z|} / 4 pi) [ -(E_k I + beta)/|z|
                                      - (k/|z| + i/|z|^2) (alpha . zhat) ]

    with zhat = z/|z|. This is the outgoing branch: for real k > 0 it
    radiates, for k = i kappa (kappa > 0, energies inside the gap) it
    decays like e^{-kappa |z|}.

    The first three k-derivatives are implemented in closed form. Each
    derivative shares the structure

        d^m G = (e^{ik|z|} / 4 pi) [ cI_m I + cb_m beta
                                     + ca_m (alpha . zhat) ]

    with scalar radial profiles cI_m, cb_m, ca_m listed in _profiles.
    So every kernel value, and every cell integral of one, is a vector
    of five complex Clifford coefficients on the basis
    CLIFFORD_BASIS = (I, beta, alpha_1, alpha_2, alpha_3): coefficients()
    is the one evaluator, the alpha coefficients being ca_m zhat_l, and
    expand() turns coefficients into 4x4 matrices (green, green_dk).
    Two identities worth knowing (both covered by tests):

      * d_k G at k = 0 is the constant matrix -(i/4 pi)(1 + beta); all
        1/|z| terms cancel. This constant kernel is what turns the
        first-order perturbation of the integral operator into a pure
        moment of the potential-weighted state.
      * d^2_k G at k = 0 is Hermitian under z -> -z + dagger, and d^3_k G
        is anti-Hermitian; these give the symmetry of the second and
        third Taylor coefficient matrices downstream.

    The kernel is NOT regularized at z = 0: evaluation at zero
    displacement raises. Quadrature over a cell containing the
    singularity is handled by the equal-volume sphere rule
    (self_cell_integral), which integrates the kernel exactly over a ball
    of radius a = h (3/4pi)^{1/3} using the radial moments
    J_n(k, a) = int_0^a r^n e^{ikr} dr.

BLAS
    numpy and scipy each load their own OpenBLAS, each with its own
    thread pool. A numpy product on a large operand wakes numpy's pool,
    whose threads then spin beside the next scipy LU (an n = 1028 LU
    took 61 ms alone and 113 ms right after a numpy M @ Q on a 2-core
    box). blas_matmul forms such products with scipy's BLAS, the LU's
    library.

UNITS
    Natural units, threshold at E = 1 (see algebra module).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.blas as blas

from .algebra import alpha_stack, beta, identity4

__all__ = [
    "CLIFFORD_BASIS",
    "blas_matmul",
    "coefficients",
    "expand",
    "energy",
    "green",
    "green_dk",
    "radial_moment",
    "self_cell_coefficients",
    "self_cell_integral",
    "sphere_radius",
    "fd_reference",
]

# d^m G, its self-cell ball integral and every cell average of them lie
# in the span of these five matrices
CLIFFORD_BASIS = np.concatenate([identity4()[None], beta()[None], alpha_stack()])
CLIFFORD_BASIS.flags.writeable = False


def energy(k) -> complex:
    """E_k = sqrt(k^2 + 1), principal branch (correct for Im k >= 0)."""
    return complex(np.sqrt(complex(k) ** 2 + 1.0))


def _profiles(k: complex, r: np.ndarray, order: int):
    """Radial coefficient profiles (cI, cb, ca) for d^order G, order 0..3.

    The e^{ikr}/4pi prefactor is NOT included.
    """
    E = energy(k)
    if order == 0:
        cI = -E / r
        cb = -1.0 / r
        ca = -(k / r + 1j / r**2)
    elif order == 1:
        cI = -1j * E - k / (E * r)
        cb = -1j * np.ones_like(r)
        ca = -1j * k * np.ones_like(r)
    elif order == 2:
        cI = r * E - 2j * k / E - 1.0 / (r * E**3)
        cb = r.astype(np.complex128)
        ca = r * k - 1j
    elif order == 3:
        cI = 1j * r**2 * E + 3.0 * r * k / E - 3j / E**3 + 3.0 * k / (r * E**5)
        cb = 1j * r**2
        ca = 1j * r**2 * k + 2.0 * r
    else:
        raise ValueError("derivative order must be 0, 1, 2 or 3")
    return cI, cb, ca


def coefficients(k, disp, order: int = 0) -> np.ndarray:
    """Clifford coefficients of d^order G at displacement(s) disp.

    Returns (..., 5) complex c with d^order G = sum_c c[c] CLIFFORD_BASIS[c]:
    the I, beta and alpha_1..3 parts, e^{ikr}/4pi included.
    """
    z = np.asarray(disp, dtype=np.float64)
    r = np.sqrt(z[..., 0] ** 2 + z[..., 1] ** 2 + z[..., 2] ** 2)
    if np.any(r == 0.0):
        raise ValueError("kernel evaluated at zero displacement")
    k = complex(k)
    cI, cb, ca = _profiles(k, r, order)
    phase = np.exp(1j * k * r) / (4.0 * np.pi)
    out = np.empty(r.shape + (5,), dtype=np.complex128)
    np.multiply(phase, cI, out=out[..., 0])
    np.multiply(phase, cb, out=out[..., 1])
    pa = phase * ca
    for l in range(3):
        np.multiply(pa, z[..., l] / r, out=out[..., 2 + l])
    return out


def blas_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex a @ b (a 2D, b 2D or 1D) by scipy's BLAS, with numpy's
    call: zgemv for a single row or column, zgemm otherwise, so the bits
    are numpy's whenever the two OpenBLAS builds split the work alike.
    They do at one thread and, measured at two, for every product whose
    right operand has few columns; an n x n right operand for n from 396
    to 1028 differs in the last bit of about 0.4% of the entries."""
    if b.ndim == 1:
        return blas.zgemv(1.0, a.T, b, trans=1)
    if a.shape[0] == 1:
        return blas.zgemv(1.0, b.T, a[0])[None, :]
    if b.shape[1] == 1:
        return blas.zgemv(1.0, a.T, b[:, 0], trans=1)[:, None]
    return blas.zgemm(1.0, b.T, a.T).T


def expand(coeffs: np.ndarray) -> np.ndarray:
    """(..., 5) Clifford coefficients to (..., 4, 4) matrices."""
    flat = blas_matmul(coeffs.reshape(-1, 5), CLIFFORD_BASIS.reshape(5, 16))
    return flat.reshape(coeffs.shape[:-1] + (4, 4))


def green(k, x) -> np.ndarray:
    """Outgoing kernel G_k at displacement(s) x; shape (..., 4, 4)."""
    return expand(coefficients(k, x, 0))


def green_dk(k, x, order: int = 1) -> np.ndarray:
    """Closed-form d^order/dk^order of green, order in {1, 2, 3}."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    return expand(coefficients(k, x, order))


def radial_moment(n: int, k, a: float) -> complex:
    """J_n(k, a) = int_0^a r^n e^{ikr} dr for integer n >= 0.

    Series for small |k| a (the recursion cancels catastrophically there),
    stable closed recursion otherwise.
    """
    k = complex(k)
    if n < 0:
        raise ValueError("n must be >= 0")
    x = k * a
    if abs(x) < 2.0:
        # J_n = sum_m (ik)^m a^{n+m+1} / (m! (n+m+1))
        total = 0.0 + 0.0j
        term = a ** (n + 1)  # (ik)^m a^{n+m+1} / m!
        for m in range(48):
            total += term / (n + m + 1)
            term *= 1j * k * a / (m + 1)
            if abs(term) < 1e-18 * max(abs(total), a ** (n + 1)):
                break
        return total
    e = np.exp(1j * x)
    J = (e - 1.0) / (1j * k)
    for p in range(1, n + 1):
        J = (a**p * e - p * J) / (1j * k)
    return complex(J)


def sphere_radius(h: float) -> float:
    """Radius of the ball with the volume of a grid cell of side h."""
    return h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)


def self_cell_coefficients(k, h: float, order: int = 0) -> np.ndarray:
    """Clifford coefficients of the integral of d^order G over the
    equal-volume ball around z = 0.

    The alpha.zhat parts integrate to zero by parity; what remains are
    radial moments against the I and beta profiles. Used as the diagonal
    block of the quadrature (already includes the cell volume).
    """
    k = complex(k)
    a = sphere_radius(h)
    E = energy(k)
    J = [radial_moment(n, k, a) for n in range(5)]
    if order == 0:
        cI, cb = -E * J[1], -J[1]
    elif order == 1:
        cI, cb = -1j * E * J[2] - (k / E) * J[1], -1j * J[2]
    elif order == 2:
        cI, cb = E * J[3] - (2j * k / E) * J[2] - J[1] / E**3, J[3]
    elif order == 3:
        cI = 1j * E * J[4] + (3.0 * k / E) * J[3] - (3j / E**3) * J[2] + (3.0 * k / E**5) * J[1]
        cb = 1j * J[4]
    else:
        raise ValueError("order must be 0, 1, 2 or 3")
    return np.array([cI, cb, 0.0, 0.0, 0.0], dtype=np.complex128)


def self_cell_integral(k, h: float, order: int = 0) -> np.ndarray:
    """Integral of d^order G over the equal-volume ball around z = 0, as a
    4x4 matrix; see self_cell_coefficients."""
    return expand(self_cell_coefficients(k, h, order))


def fd_reference(k, x, order: int, step: float = 1e-2) -> np.ndarray:
    """Richardson-extrapolated finite-difference d^order G along real k.

    Independent of the closed forms in green_dk (uses only green). The
    stencil steps keep Im k fixed, which stays on the physical sheet.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")

    def diff(d: float) -> np.ndarray:
        if order == 1:
            return (green(k + d, x) - green(k - d, x)) / (2.0 * d)
        if order == 2:
            return (green(k + d, x) - 2.0 * green(k, x) + green(k - d, x)) / d**2
        return (
            green(k + 2 * d, x)
            - 2.0 * green(k + d, x)
            + 2.0 * green(k - d, x)
            - green(k - 2 * d, x)
        ) / (2.0 * d**3)

    coarse = diff(step)
    fine = diff(step / 2.0)
    return (4.0 * fine - coarse) / 3.0
