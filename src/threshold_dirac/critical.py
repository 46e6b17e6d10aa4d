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
    Eigenvalues locate g*, a residual certifies it. 1 - g T-hat is
    singular exactly when 1/g is an eigenvalue of T-hat = K W (k = 0; K
    Hermitian, W the node-wise shape). Where W is definite node by node
    T-hat is similar to a Hermitian matrix (Birman-Schwinger; M. Klaus,
    Helv. Phys. Acta 53, 1980), so every 1/g* is a real, well-conditioned
    eigenvalue of the Hermitian-definite pencil (W T-hat, W), solved
    densely on each symmetry sector. A candidate counts only when the
    residual of its eigenvector under 1 - g T-hat on the whole support,
    an upper bound on sigma_min, is below 1e-8 times a lower bound on
    |1 - g T-hat|_1 (a NaN never passes). No LU is made.

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
from .kernel import blas_matmul
from .potentials import FourPotential, Grid3, SpinorField, norms, pseudo_inner
from .solver import (
    apply_kernel_rows,
    assemble_sectors,
    cosine_block,
    residual_certificate,
    smallest_singular_value,
    symmetry_sectors,
    system_matrix,
)

__all__ = [
    "CriticalStructure",
    "find_critical_coupling",
    "lambda_of",
    "lambda_vanishes",
    "classify_lambda_bar",
    "decay_decomposition",
    "extend_to_grid",
    "sigma_min_at",
]

_CRITICAL_REL = 1e-8
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
    sigma_records: list = field(default_factory=list)  # (g, residual / scale) per coupling
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


def find_critical_coupling(
    shape: FourPotential,
    bracket: tuple,
) -> CriticalStructure:
    """Locate the coupling in the bracket where 1 - T^{gA}_1 is singular.

    One assemble_sectors pass gives the sector blocks K_s of the kernel
    at k = 0 (a shape without symmetry is one full-size block), and one
    scipy.linalg.eigh of (W_s K_s W_s, W_s), W_s = V^H W V the shape's
    block (signed to be positive definite), per sector gives every
    theta = 1/g in the bracket's image.  The candidates are taken
    in order of |g| and certified by one residual_certificate pass for
    all of them.  The first certified one wins, and every eigenvector
    certified at its g joins its null space: a Kramers pair, one
    eigenvalue in each of two conjugate sectors, is one coupling of dim
    2.  sigma_records holds (g, residual / scale) once per coupling; the
    pick goes by |g|, since the certificates of genuine couplings are
    all round-off.  ValueError when the shape is not definite
    (_definite_sign) or no candidate is certified ("not critical in
    range").
    """
    g_lo, g_hi = float(bracket[0]), float(bracket[1])
    if not g_lo < g_hi:
        raise ValueError("bracket must satisfy g_lo < g_hi")
    # (a, b] of theta = 1/g over the bracket, infinite at a zero end
    ends = sorted(1.0 / g if g else np.copysign(np.inf, g_lo + g_hi) for g in (g_lo, g_hi))
    image = (-np.inf, np.inf) if g_lo < 0.0 < g_hi else tuple(ends)
    sup = shape.support_indices()
    sign = _definite_sign(shape)
    rows = sign * shape.values[sup]
    sectors = symmetry_sectors(shape)
    gs, vecs = [], []
    for sector, K in zip(sectors, assemble_sectors(sectors, shape.grid, 0.0)):
        if not len(K):
            continue
        weight = sector.weigh(rows, np.eye(len(K), dtype=np.complex128))
        pencil = sign * blas_matmul(blas_matmul(weight, K), weight)
        theta, x = sla.eigh(pencil, weight, subset_by_value=image)
        g = 1.0 / theta
        keep = (g_lo < g) & (g < g_hi)
        if keep.any():
            gs.extend(g[keep])
            vecs.append(sector.extend(x[:, keep]))
    if not gs:
        raise ValueError("not critical in range")
    fields = np.concatenate(vecs, axis=1).T.reshape(len(gs), -1, 4)
    residuals, scales = residual_certificate(0.0, shape, fields, gs)
    passed = residuals < _CRITICAL_REL * scales[:, None]  # NaN never passes
    records, left, winner = [], np.ones(len(gs), dtype=bool), None
    for c in sorted(range(len(gs)), key=lambda c: abs(gs[c])):
        if not left[c]:
            continue
        members = left & passed[c]
        left &= ~members
        left[c] = False
        records.append((float(gs[c]), float(residuals[c, c] / scales[c])))
        if winner is None and passed[c, c]:
            winner = c, np.flatnonzero(members)
    if winner is None:
        raise ValueError("not critical in range")
    c, members = winner
    g_star = float(gs[c])

    # pin the gauge: round-off picks the rotation within a degenerate
    # null space, its projector does not
    null = np.linalg.qr(fields[members].reshape(len(members), -1).T)[0]
    pinned = null @ (null.conj().T @ cosine_block(len(null), len(members)))
    grid = shape.grid
    basis = []
    for vec in np.linalg.qr(pinned)[0].T:
        f = SpinorField.on_nodes(grid, sup, vec.reshape(-1, 4))
        phase = f.values.reshape(-1)[np.argmax(np.abs(f.values))]
        basis.append(f.scaled(abs(phase) / (phase * f.sup_norm())))

    A = shape.rescaled(g_star)
    lam = [lambda_of(f, A) for f in basis]
    gram_n = _pairing(basis, A, basis)
    gram_m = _pairing(basis, A, [SpinorField(grid, A.apply(f.values)) for f in basis])
    crit = CriticalStructure(
        shape=shape,
        g_star=g_star,
        basis=basis,
        lambda_values=lam,
        lambda_bar=0,
        gram_n=gram_n,
        gram_m=gram_m,
        sigma_records=sorted(records),
        sigma_min=float(residuals[c, c]),
        matrix_scale=float(scales[c]),
    )
    crit.lambda_bar = classify_lambda_bar(crit)
    return crit


def _definite_sign(shape: FourPotential) -> float:
    """+1 when a0 > |a| at every support node, -1 when a0 < -|a| at every
    one (the sign of a0 where |a0| - |a| is largest): then the search's
    pencil is Hermitian-definite.  ValueError naming the first support
    node where the shape is not definite with that sign."""
    sup = shape.support_indices()
    rows = shape.values[sup]
    size = np.linalg.norm(rows[:, 1:], axis=1)
    sign = 1.0 if rows[np.argmax(np.abs(rows[:, 0]) - size), 0] > 0.0 else -1.0
    bad = np.flatnonzero(sign * rows[:, 0] <= size)
    if len(bad):
        node = sup[bad[0]]
        raise ValueError(
            f"shape is not definite at support node {node} (x = {shape.grid.points[node]}, "
            f"a = {rows[bad[0]]}): no Hermitian coupling search"
        )
    return sign


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

