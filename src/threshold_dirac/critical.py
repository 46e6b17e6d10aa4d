"""Critical couplings, the threshold space N, and its classification.

PHYSICS SCOPE
    A coupling g is critical for a potential shape A when 1 - T^{gA}_1
    (threshold energy E = 1, i.e. k = 0) is singular on the support
    grid: the kernel N of that operator is the space of E = +1
    threshold states. Each basis state Phi carries a tail moment

        lambda(Phi) = int (1+beta) A(y) Phi(y) d^3y   (upper 2-spinor),

    the coefficient of the |x|^{-1} far-field term: lambda = 0 for every
    basis state means N consists of genuine bound states (decay |x|^{-2},
    square integrable); lambda != 0 means |x|^{-1} resonance tails. Mixed
    configurations are rejected, matching the dichotomy this laboratory
    measures.

CONVENTIONS
    Eigenvalues locate g*, sigma_min certifies it. 1 - g T-hat is
    singular exactly when 1/g is an eigenvalue of T-hat, so one
    shift-invert Arnoldi run on T-hat (one LU at a shift inside the
    bracket's image in 1/g) yields every candidate coupling at once; the
    Kramers pair appears as a double eigenvalue and counts once. The
    run is complete when its farthest eigenvalue lies beyond both ends
    of that image. Eigenvalues of a non-normal matrix can be far more
    sensitive than its singular values, and the object of interest is
    the null space, not the eigenvalue: so a candidate is accepted only
    when sigma_min(1 - g T-hat) < 1e-8 |1 - g T-hat|_1, and a failed
    factorization (NaN) never passes. One LU and one
    solver.subspace_iteration per candidate give the certificate (the
    smallest Ritz value, an upper bound on sigma_min) and the null space
    (right Ritz vectors below ten times the threshold), without a dense
    SVD. The operator is assembled once at unit coupling. Matrix norms
    in thresholds are 1-norms.

    gram_n[p, q] = <Phi_p, A, Phi_q>, gram_m[p, q] = <Phi_p, A, A Phi_q>;
    with Hermitian A these are the Gram matrices of N and of the span
    M = {A Phi} under the A-weighted pairing. CriticalStructure owns the
    span: coordinates applies gram^-1 to pairing data, and project gives
    the direct-sum projectors of both splits. Basis states are sup-norm
    normalized with a deterministic phase (largest component real
    positive); inside a degenerate null space the basis is pinned to the
    projections of fixed start vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .algebra import one_plus_beta
from .potentials import FourPotential, Grid3, SpinorField, norms, pseudo_inner
from .solver import (
    apply_kernel_rows,
    assemble_T,
    cosine_block,
    factor,
    smallest_singular_value,
    subspace_iteration,
    system_matrix,
    _shift_invert_eigs,
)

__all__ = [
    "CriticalStructure",
    "critical_couplings",
    "find_critical_coupling",
    "lambda_of",
    "lambda_vanishes",
    "classify_lambda_bar",
    "decay_decomposition",
    "extend_to_grid",
    "sigma_min_at",
]

_CRITICAL_REL = 1e-8
_SUBSPACE_FACTOR = 10.0
_REAL_REL = 1e-8  # |Im mu| <= this * |mu|: a real eigenvalue
_KRAMERS_REL = 1e-8  # eigenvalues closer than this (relative) are one coupling
_BLOCK = 4
_COLLAPSE_REL = 1e-6  # tail-moment tolerance of lambda_vanishes


@dataclass
class CriticalStructure:
    """Everything extracted at one critical coupling of one shape."""

    shape: FourPotential  # unit-coupling shape
    g_star: float
    basis: list  # of SpinorField on the support grid (dense off support = 0)
    lambda_values: list  # of (4,) complex arrays
    lambda_bar: int
    gram_n: np.ndarray
    gram_m: np.ndarray
    sigma_records: list = field(default_factory=list)  # (g, sigma_rel) per candidate
    sigma_min: float = 0.0
    matrix_scale: float = 0.0

    @property
    def dim(self) -> int:
        return len(self.basis)

    def critical_potential(self) -> FourPotential:
        return self.shape.rescaled(self.g_star)

    def pairing(self, B: FourPotential) -> np.ndarray:
        """W[p, q] = <Phi_p, B, Phi_q> over the basis."""
        return _pairing(self.basis, B, self.basis)

    def coordinates(self, M, split: str = "N") -> np.ndarray:
        """gram^-1 M, gram_n for split "N" and gram_m for "M": pairing
        data <Phi_p, A, .> (a vector, or matrix columns) as coefficients
        in the basis."""
        gram = {"N": self.gram_n, "M": self.gram_m}[split]
        return np.linalg.solve(gram, np.asarray(M, dtype=np.complex128))

    @cached_property
    def _grams_regular(self) -> bool:
        svs = [np.linalg.svd(gram, compute_uv=False) for gram in (self.gram_n, self.gram_m)]
        return all(sv[-1] > 1e-12 * sv[0] for sv in svs)

    def project(self, which: str, f: SpinorField) -> SpinorField:
        """P_par / P_perp of the N-split (along the basis) or the M-split
        (along span{A Phi_q}); which in {"M_par", "M_perp", "N_par",
        "N_perp"}. ValueError when either gram matrix is singular."""
        split, _, part = which.partition("_")
        if split not in ("M", "N") or part not in ("par", "perp"):
            raise ValueError("unknown projector")
        if not self._grams_regular:
            raise ValueError("singular gram matrix: class-C condition (c) violated")
        A = self.critical_potential()
        gamma = self.coordinates([pseudo_inner(phi, A, f) for phi in self.basis], split)
        par = np.zeros_like(f.values)
        for c, phi in zip(gamma, self.basis):
            par += c * (A.apply(phi.values) if split == "M" else phi.values)
        return SpinorField(f.grid, par if part == "par" else f.values - par)


def _pairing(left: list, B: FourPotential, right: list) -> np.ndarray:
    return np.array([[pseudo_inner(f, B, g) for g in right] for f in left])


def sigma_min_at(that: np.ndarray, g: float) -> tuple[float, float]:
    """(sigma_min, 1-norm scale) of 1 - g T-hat for a preassembled T-hat."""
    m = system_matrix(g * that)
    return smallest_singular_value(m), float(np.linalg.norm(m, 1))


def critical_couplings(that: np.ndarray, bracket: tuple) -> list:
    """Every real g in the open bracket with 1/g an eigenvalue of T-hat.

    Shift-invert Arnoldi on one LU of T-hat - s0 I, s0 the midpoint of
    the bracket's image in 1/g (clipped at +-|T-hat|_1, which bounds
    every eigenvalue). k starts at 6 and doubles until the farthest
    returned eigenvalue lies farther from s0 than both ends of the image,
    which proves that none in the image was missed. Eigenvalues with
    |Im mu| <= 1e-8 |mu| count as real; a Kramers double eigenvalue gives
    one coupling. Ascending order.
    """
    g_lo, g_hi = float(bracket[0]), float(bracket[1])
    if not g_lo < g_hi:
        raise ValueError("bracket must satisfy g_lo < g_hi")
    if g_lo < 0.0 < g_hi:
        return critical_couplings(that, (g_lo, 0.0)) + critical_couplings(that, (0.0, g_hi))
    n = that.shape[0]
    clip = float(np.linalg.norm(that, 1))
    side = np.sign(g_lo + g_hi)
    ends = [np.clip(1.0 / g, -clip, clip) if g != 0.0 else side * clip for g in (g_lo, g_hi)]
    shift, radius = 0.5 * (ends[0] + ends[1]), 0.5 * abs(ends[0] - ends[1])
    if radius == 0.0:
        return []
    fac = factor(that - shift * np.eye(n, dtype=np.complex128))
    k = 6
    while True:
        if k >= n - 1:  # ARPACK needs k < n - 1; take the whole spectrum
            mus = sla.eigvals(that)
            break
        mus = _shift_invert_eigs(fac, shift, k)
        if np.max(np.abs(mus - shift)) > radius:
            break
        k *= 2
    real = np.sort(mus[np.abs(mus.imag) <= _REAL_REL * np.abs(mus)].real)
    groups = []
    for mu in real[real != 0.0]:
        if groups and mu - groups[-1][-1] <= _KRAMERS_REL * abs(mu):
            groups[-1].append(mu)
        else:
            groups.append([mu])
    gs = (1.0 / float(np.mean(grp)) for grp in groups)
    return sorted(g for g in gs if g_lo < g < g_hi)


def find_critical_coupling(
    shape: FourPotential,
    bracket: tuple,
) -> CriticalStructure:
    """Locate the coupling in the bracket where 1 - T^{gA}_1 is singular.

    Candidates come from critical_couplings, in order of |g|. Each gets
    one LU of 1 - g T-hat; its certificate (all are kept in
    sigma_records) is the smallest Ritz value of the null-basis run up
    to the first certified one, which wins with that run's basis, and
    of a one-column run after it. The certificates of genuine couplings
    are all round-off, so ranking by them would make the pick depend on
    round-off when a bracket holds several. Raises ValueError("not
    critical in range") when no candidate is certified.
    """
    that = assemble_T(shape, 0.0)
    records, winner = [], None
    for g in sorted(critical_couplings(that, bracket), key=abs):
        m = system_matrix(g * that)
        scale = float(np.linalg.norm(m, 1))
        fac = factor(m)
        if winner is None:
            sigma, vecs = _null_basis(fac, _SUBSPACE_FACTOR * _CRITICAL_REL * scale)
            if sigma < _CRITICAL_REL * scale:  # NaN never passes
                winner = (g, sigma, scale, vecs)
        else:  # past the winner only the certificate counts: one column
            sigma = smallest_singular_value(fac)
        del m, fac  # one LU at a time
        records.append((g, sigma / scale))
    if winner is None:
        raise ValueError("not critical in range")
    g_star, sigma, scale, basis_vecs = winner

    grid = shape.grid
    sup = shape.support_indices()
    basis = []
    for vec in basis_vecs:
        f = SpinorField.on_nodes(grid, sup, vec.reshape(-1, 4))
        phase = f.values.reshape(-1)[np.argmax(np.abs(f.values))]
        basis.append(f.scaled(abs(phase) / (phase * f.sup_norm())))

    A = shape.rescaled(g_star)
    lam = [lambda_of(f, A) for f in basis]
    gram_n = _pairing(basis, A, basis)
    gram_m = _pairing(basis, A, [SpinorField(grid, A.apply(f.values)) for f in basis])
    crit = CriticalStructure(
        shape=shape,
        g_star=float(g_star),
        basis=basis,
        lambda_values=lam,
        lambda_bar=0,
        gram_n=gram_n,
        gram_m=gram_m,
        sigma_records=sorted(records),
        sigma_min=sigma,
        matrix_scale=scale,
    )
    crit.lambda_bar = classify_lambda_bar(crit)
    return crit


def _null_basis(fac, cut: float) -> tuple:
    """(smallest Ritz value, orthonormal rows spanning the right singular
    space below cut) of a factorization's matrix; (NaN, None) on failure.

    subspace_iteration with a block of 4. Ritz values never undercut the
    true singular values, so only a block filled entirely below the cut
    can hide more of the null space; then the block doubles. The basis
    is the QR orthonormalization of the projections of the first start
    columns onto that space, so it depends on the space only and not on
    how round-off rotated the singular vectors inside it (a Kramers pair
    is degenerate).
    """
    n = fac.matrix.shape[0]
    b = min(_BLOCK, n)
    while True:
        got = subspace_iteration(fac, b)
        if got is None:
            return np.nan, None
        q, svals, wh = got
        n_dim = int(np.sum(svals < cut))
        if n_dim < b or b == n:
            # svd orders descending: the last rows of Wh are the smallest
            null = q @ wh[b - n_dim :].conj().T
            # pin the gauge: round-off picks the rotation within a
            # degenerate null space, its projector does not
            pinned = null @ (null.conj().T @ cosine_block(n, b)[:, :n_dim])
            return float(svals[-1]), np.linalg.qr(pinned)[0].T
        b = min(2 * b, n)


def lambda_of(phi: SpinorField, A: FourPotential) -> np.ndarray:
    """Tail moment int (1+beta) A(y) Phi(y) d^3y; lower components exact 0."""
    if not phi.grid.same_layout(A.grid):
        raise ValueError("Phi must live on the potential's grid")
    return one_plus_beta() @ (A.grid.weights @ A.apply(phi.values))


def lambda_vanishes(lam: np.ndarray, A: FourPotential, phi: SpinorField) -> bool:
    """The lambda-free test |lambda| <= 1e-6 |A|_L1 sup|Phi|."""
    return bool(np.linalg.norm(lam) <= _COLLAPSE_REL * norms(A)["l1"] * phi.sup_norm())


def classify_lambda_bar(crit: CriticalStructure) -> int:
    """0 when every basis tail moment vanishes (lambda_vanishes), 1 when
    none does; a mixed verdict is an error, matching the dichotomy
    assumed throughout (all tails or none).
    """
    A = crit.critical_potential()
    small = [lambda_vanishes(lam, A, phi) for phi, lam in zip(crit.basis, crit.lambda_values)]
    if any(small) and not all(small):
        raise ValueError(
            "mixed tail moments: configuration outside the pure lambda-bar classes"
        )
    return 0 if any(small) else 1


def extend_to_grid(crit: CriticalStructure, phi: SpinorField, eval_grid: Grid3) -> SpinorField:
    """Extend a threshold state to an arbitrary grid via Phi = T^{g*A} Phi."""
    A = crit.critical_potential()
    sup = A.support_indices()
    vals = apply_kernel_rows(
        0.0, eval_grid.points, A, phi.values[sup], A.grid.spacing
    )
    return SpinorField(eval_grid, vals)


def decay_decomposition(phi_ext: SpinorField, A: FourPotential, lam: np.ndarray) -> dict:
    """Split Phi = Phi_1 + Phi_2 and fit radial decay exponents.

    Phi_2(x) = -(4 pi |x|)^{-1} lambda(Phi) carries the whole |x|^{-1}
    tail; Phi_1 = Phi - Phi_2 decays at least as |x|^{-2}. Exponents are
    log-log fits of sup-over-shell on 8 shells from twice the support
    radius A.radius out to the grid's half-width.
    """
    R = A.radius
    grid = phi_ext.grid
    r = grid.radii()
    r_max = grid.half_width
    if r_max < 4.0 * R - 1e-12:
        raise ValueError("evaluation grid radius must reach 4x the support radius")
    edges = np.linspace(2.0 * R, r_max, 9)

    with np.errstate(divide="ignore", invalid="ignore"):
        phi2_vals = np.where(
            r[:, None] > 0, -lam[None, :] / (4.0 * np.pi * r[:, None]), 0.0
        )
    phi1_vals = phi_ext.values - phi2_vals

    def fit(values):
        mids, sups = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (r >= lo) & (r < hi)
            if not mask.any():
                continue
            sup = np.max(np.linalg.norm(values[mask], axis=1))
            if sup > 0:
                mids.append(0.5 * (lo + hi))
                sups.append(sup)
        if len(mids) < 5:
            raise ValueError("fewer than 5 usable radial shells beyond 2R")
        return float(np.polyfit(np.log(mids), np.log(sups), 1)[0])

    report = {
        "phi_1": SpinorField(grid, phi1_vals),
        "phi_2": SpinorField(grid, phi2_vals),
        "exponent_phi": fit(phi_ext.values),
        "exponent_phi1": fit(phi1_vals),
    }
    report["exponent_phi2"] = -1.0 if np.linalg.norm(lam) > 0 else None
    return report

