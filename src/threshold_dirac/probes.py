"""Sweep engine measuring divergence laws near a critical potential.

PHYSICS SCOPE
    A critical potential A carries threshold states at the band edge
    E = 1.  Perturbing to A + mu B0 and moving the energy to
    E_k = sqrt(1 + k^2) makes the generalized eigenfunctions blow up
    along specific curves in the (mu, k^2) plane: resonance peaks near
    mu = -gamma_l k^2 for real k and bound-state crossings near
    mu = gamma_l kappa^2 for k = i kappa, with gamma_l the curvature
    spectrum from the forms module (one formula, k^2 = -kappa^2).  This
    module measures those laws: divergence of sup norms, localization of
    the blow-up inside the threshold span, bound-state tracks in the gap
    (checked by an inertia count of crossings), inverse-operator norm
    bands, and the growth of k-derivatives.

MEASUREMENT CONVENTIONS
    Statements "norm <= C * bound" are probed two-sided: one constant is
    fitted (median ratio over unflagged records) and every record must
    then stay inside a declared band around the fit.  The norm of the
    span-parallel part is reported twice, as the sup norm of the
    projected field and as its gram-metric coefficient norm; fits use
    the sup norm and a flag records when the two verdicts differ.

    sup_norm of a sweep record is the maximum over the evaluation grid
    and the support nodes together, so the triangle inequality
    sup >= n_part - residual_part - 1 holds exactly (|chi| = 1 at every
    point by the free-spinor normalization).

UNITS
    hbar = c = m = 1; mu is an additive coupling shift along B0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .algebra import alpha_stack, identity4
from .critical import CriticalStructure
from .forms import gamma_spectrum, taylor_form
from .potentials import FourPotential, Grid3, SpinorField, fold_rows, norms, pseudo_inner
from .kernel import blas_matmul
from .solver import (
    _SECTOR_REL,
    _assembled,
    _coupling_scan,
    _reached,
    apply_kernel_rows,
    assemble_sectors,
    combine_potentials,
    default_eval_grid,
    factor,
    free_solution,
    free_spinor,
    kernel_rows,
    negative_count,
    residual_certificate,
    sector_solve,
    symmetry_sectors,
    system_matrix,
    weighed_kernel,
)

__all__ = [
    "SweepPlan",
    "SweepRecord",
    "SweepResult",
    "BoundStateRecord",
    "DerivativeBound",
    "resonance_prediction",
    "resonance_denominator",
    "pairing_inf",
    "resonance_sweep",
    "mu_peak",
    "boundstate_track",
    "crossing_count",
    "default_probe_field",
    "inverse_bound_probe",
    "derivative_recursion",
    "derivative_alpha",
    "derivative_bound",
    "lambda1_probe",
]

_CROSSING_REL = 1e-5
_BRANCH_REL = 1e-12  # block iteration: pencil values steady to this, relative
_BRANCH_STEPS = 40  # block iteration steps before a kappa counts as failed
_SECANT_REL = 1e-12  # crossing secant: |d kappa| <= this * kappa ends the run
_SECANT_STEPS = 30  # crossing secant: steps before the run counts as not converged
_PEAK_COARSE = 12  # coarse mu samples of mu_peak
_PEAK_TOL_REL = 1e-5  # mu_peak's xatol is this * max(|mu_hi|, 1): absolute below 1
_BAND = 10.0  # a clean sweep record counts as inside the law within this factor of the fit


@dataclass
class SweepPlan:
    """One sweep campaign over (mu, k, j) cells around a critical structure.

    The bound-state track reads mus, kappa_range (0 < lo < hi < 1, as
    for BoundStateRecord) and n_kappa: its coarse kappa curve has
    max(16, n_kappa // 10) points."""

    crit: CriticalStructure
    B0: FourPotential
    mus: tuple
    ks: tuple
    js: tuple = (1, 2)
    khat: tuple = (0.0, 0.0, 1.0)
    eval_grid: Grid3 | None = None
    n_kappa: int = 400
    kappa_range: tuple = (1e-4, 0.9)
    bound_mode: str = "eigen"  # the only mode; perfbench/campaigns.py passes it

    def __post_init__(self):
        self.mus = tuple(float(m) for m in self.mus)
        self.ks = tuple(float(k) for k in self.ks)
        self.js = tuple(int(j) for j in self.js)
        khat = np.asarray(self.khat, dtype=np.float64)
        norm = float(np.linalg.norm(khat))
        if khat.shape != (3,) or not 0.0 < norm < np.inf:
            raise ValueError("khat must be a finite, nonzero 3-vector")
        self.khat = tuple((khat / norm).tolist())  # a unit vector from here on
        if not self.mus or not self.ks:
            raise ValueError("mu and k lists must be nonempty")
        if any(k <= 0 for k in self.ks):
            raise ValueError("real-k probes need k > 0")
        if not self.B0.grid.same_layout(self.crit.shape.grid):
            raise ValueError("perturbation must live on the shape grid")
        self.kappa_range = span = tuple(float(x) for x in self.kappa_range)
        if len(span) != 2 or not 0.0 < span[0] < span[1] < 1.0:
            raise ValueError("kappa_range must be (lo, hi) with 0 < lo < hi < 1")
        if self.bound_mode != "eigen":
            raise ValueError("bound_mode must be eigen")


@dataclass(frozen=True)
class SweepRecord:
    mu: float
    k: float
    j: int
    sup_norm: float
    n_part_norm: float
    residual_part: float
    predicted_bound: float
    at_resonance: bool
    n_part_l2: float = 0.0  # kept out of the on-disk record


@dataclass(frozen=True)
class SweepResult:
    records: list
    fit_constant: float
    fit_constant_l2: float
    norm_verdict_differs: bool
    gammas: np.ndarray


@dataclass(frozen=True)
class BoundStateRecord:
    """One crossing.  sigma_min is the residual ||M phi|| / ||phi|| of the
    crossing's Ritz vector, M = 1 - T^{A + mu B0}(i kappa): an upper
    bound on the smallest singular value of M."""

    mu: float
    kappa: float
    kappa_sq: float
    E: float
    sigma_min: float

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("bound-state crossings need 0 < kappa < 1")


@dataclass(frozen=True)
class DerivativeBound:
    mu: float
    k: float
    alpha: float
    weighted_sup: dict  # m -> ||(1+|x|)^-m phi^(m)||_inf

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ValueError("alpha is 1 + nonnegative by definition")


# ---------------------------------------------------------------------------
# shared small pieces


def _metric_chol(gram: np.ndarray):
    """Cholesky factor of the definite gram metric (sign-normalized)."""
    sign = 1.0 if gram[0, 0].real >= 0 else -1.0
    return sla.cholesky(sign * gram, lower=True)


def resonance_denominator(crit: CriticalStructure, B: FourPotential | None, k: float) -> float:
    """inf over normalized span states of ||(P_N B + Rhat k^2) Psi|| + k^3,
    R the order-2 Taylor form of the critical structure.

    Norms are taken in the gram_n metric; B = None means the projected
    perturbation part is absent.
    """
    K = crit.coordinates(taylor_form(crit.critical_potential(), crit, 2)) * k**2
    if B is not None:
        K = K + crit.coordinates(crit.pairing(B))
    L = _metric_chol(crit.gram_n)
    Km = L.conj().T @ K @ np.linalg.inv(L.conj().T)
    return float(np.linalg.svd(Km, compute_uv=False)[-1] + k**3)


def pairing_inf(crit: CriticalStructure, B: FourPotential | None) -> float:
    """inf over gram-normalized span states of |<Psi, B, Psi>|."""
    if B is None:
        return 0.0
    L = _metric_chol(crit.gram_n)
    Linv = np.linalg.inv(L)
    vals = np.linalg.eigvalsh(Linv @ crit.pairing(B) @ Linv.conj().T)
    return float(np.min(np.abs(vals)))


def resonance_prediction(mu: float, k: float, gammas: np.ndarray) -> float:
    """Unfitted divergence kernel k * sum_l (|mu + gamma_l k^2| + k^3)^-1."""
    dens = np.abs(mu + np.asarray(gammas) * k**2) + k**3
    return float(k * np.sum(1.0 / dens))


# ---------------------------------------------------------------------------
# resonance sweep


def _sweep_column(crit, sectors, A: FourPotential, B, k: float, kvec, mus, js, eval_points):
    """Every (coupling, j) cell at one k: solve, extend, project.

    The cells solve (1 - T^{A + mu B}) u = chi(j, kvec) on the support of
    A + B (of A alone when B is None, mus then (0.0,)), whose symmetry
    sectors are sectors: one _coupling_scan from every j's plane wave,
    and per mu one sector_solve of each chi.  A cell is flagged when a
    block of its coupling is.  phi = chi + T phi is extended by one
    stacked kernel pass: kernel_rows applies the kernel to the cells'
    folded (V_mu u) rows on the support.  Returns one SweepRecord per
    cell, predicted_bound left 0.
    """
    V = combine_potentials(A, B)
    grid = V.grid
    union = V.support_indices()
    pts = grid.points[union]
    va = A.values[union]
    vb = None if B is None else B.values[union]
    chis = [free_solution(j, kvec) for j in js]
    rhs = np.stack([chi.values_at(pts).reshape(-1) for chi in chis], axis=1)
    scan = _coupling_scan(sectors, A, B, k, rhs)
    crit_A = crit.critical_potential()
    cells = []
    folded = []
    for mu in mus:
        systems = scan(mu)
        vmu_rows = va if vb is None else va + mu * vb
        for j, chi, b in zip(js, chis, rhs.T):
            u, _, flagged = sector_solve(systems, b)
            u = u.reshape(-1, 4)
            cells.append((mu, j, flagged, chi, u))
            folded.append(fold_rows(vmu_rows, u))
    exts = kernel_rows(k, eval_points, grid, union, np.stack(folded))
    out = []
    for (mu, j, flagged, chi, u), tail in zip(cells, exts.transpose(1, 0, 2)):
        ext = chi.values_at(eval_points) + tail
        phi = SpinorField.on_nodes(grid, union, u)
        npar = crit.project("N_par", phi)
        coeffs = crit.coordinates([pseudo_inner(p, crit_A, phi) for p in crit.basis])
        resid = phi.values[union] - npar.values[union] - chi.values_at(pts)
        out.append(
            SweepRecord(
                mu=mu,
                k=k,
                j=j,
                sup_norm=max(
                    float(np.max(np.linalg.norm(ext, axis=1))),
                    float(np.max(np.linalg.norm(u, axis=1))),
                ),
                n_part_norm=npar.sup_norm(),
                residual_part=float(np.max(np.linalg.norm(resid, axis=1))),
                predicted_bound=0.0,
                at_resonance=flagged,
                n_part_l2=float(np.sqrt(abs(coeffs.conj() @ (crit.gram_n @ coeffs)))),
            )
        )
    return out


def resonance_sweep(plan: SweepPlan) -> SweepResult:
    """Solve every (mu, k, j) cell, project onto the span, fit the law.

    Each k makes one _sweep_column: the blocks of T_A and T_B on the
    symmetry sectors that the plane waves reach come from one
    assemble_sectors pass of the kernel, weighed by each potential
    (solver._coupling_scan), and are recombined per mu, so a mu costs
    one small LU per reached sector (4 of 129 unknowns on the z axis of
    the n = 9 C4h well, 8 off it) and a k one kernel pass.  A potential
    pair with no common symmetry is one sector, the whole support, on
    the same path.  A cell is flagged when one of its blocks is (at
    resonance, or a failed LU); an unflagged cell whose solution misses
    the residual contract on the full support raises RuntimeError
    (solver.sector_solve).
    """
    crit = plan.crit
    A = crit.critical_potential()
    gammas = gamma_spectrum(crit, plan.B0, taylor_form(A, crit, 2)).gammas
    eval_grid = plan.eval_grid or default_eval_grid(A.grid)
    sectors = symmetry_sectors(A, plan.B0)

    def run_k(k: float) -> list:
        kvec = k * np.asarray(plan.khat)
        cells = _sweep_column(
            crit, sectors, A, plan.B0, k, kvec, plan.mus, plan.js, eval_grid.points
        )
        return [replace(r, predicted_bound=resonance_prediction(r.mu, k, gammas)) for r in cells]

    records = [r for k in plan.ks for r in run_k(k)]

    clean = [r for r in records if not r.at_resonance and r.predicted_bound > 0]
    if clean:
        c_sup = float(np.median([r.sup_norm / r.predicted_bound for r in clean]))
        c_l2 = float(np.median([r.n_part_l2 / r.predicted_bound for r in clean]))
    else:
        c_sup = c_l2 = float("nan")

    def n_violations(const, value):
        bad = 0
        for r in clean:
            pred = const * r.predicted_bound
            v = value(r)
            if v > _BAND * pred or v < pred / _BAND:
                bad += 1
        return bad

    differs = n_violations(c_sup, lambda r: r.sup_norm) != n_violations(
        c_l2, lambda r: r.n_part_l2
    )
    records = [replace(r, predicted_bound=c_sup * r.predicted_bound) for r in records]
    return SweepResult(
        records=records,
        fit_constant=c_sup,
        fit_constant_l2=c_l2,
        norm_verdict_differs=differs,
        gammas=gammas,
    )


def mu_peak(crit: CriticalStructure, B0: FourPotential, k: float, bracket: tuple) -> tuple:
    """Locate the mu maximizing the response of chi(1, k e_z) at fixed k:
    a coarse scan, then bounded Brent between the neighbours of its best
    sample.

    The objective is the solution sup norm over the support nodes; the
    divergent span part lives there, so the peak location matches the
    full-grid sup.  One _coupling_scan assembles the sector blocks that
    the plane wave reaches once, so each mu costs one small LU per
    reached sector and one sector_solve, held to the residual contract.
    Returns (mu_peak, sup_at_peak).
    """
    from scipy.optimize import minimize_scalar  # on use: its import costs every start-up 0.1 s

    A = crit.critical_potential()
    pts = A.grid.points[combine_potentials(A, B0).support_indices()]
    chi_rhs = free_solution(1, (0.0, 0.0, float(k))).values_at(pts).reshape(-1)
    scan = _coupling_scan(symmetry_sectors(A, B0), A, B0, float(k), chi_rhs)

    def sup_at(mu: float) -> float:
        u = sector_solve(scan(mu), chi_rhs)[0].reshape(-1, 4)
        return float(np.max(np.linalg.norm(u, axis=1)))

    mu_lo, mu_hi = float(bracket[0]), float(bracket[1])
    grid_mu = np.linspace(mu_lo, mu_hi, _PEAK_COARSE)
    vals = np.array([sup_at(m) for m in grid_mu])
    i = int(np.argmax(vals))
    a = grid_mu[max(i - 1, 0)]
    b = grid_mu[min(i + 1, _PEAK_COARSE - 1)]
    xatol = _PEAK_TOL_REL * max(abs(mu_hi), 1.0)
    best = minimize_scalar(
        lambda m: -sup_at(m), bounds=(a, b), method="bounded", options={"xatol": xatol}
    )
    return float(best.x), float(-best.fun)


# ---------------------------------------------------------------------------
# bound states in the gap


def _bound_record(mu: float, kappa, sigma) -> BoundStateRecord:
    kappa = float(kappa)
    return BoundStateRecord(
        mu=mu,
        kappa=kappa,
        kappa_sq=kappa * kappa,
        E=float(np.sqrt(1.0 - kappa * kappa)),
        sigma_min=float(sigma),
    )


def _block_iteration(apply, X: np.ndarray, shift: float):
    """Block inverse iteration X <- apply(Q) with a Rayleigh-Ritz step.

    Q is the orthonormalized block and H = Q^H apply(Q) the projected
    operator, whose eigenvalues theta give the pencil values
    shift + 1/theta.  Returns (Q, H) once those move by at most
    _BRANCH_REL of their size, None when the iterate stops being finite
    or never settles.
    """
    old = None
    with np.errstate(all="ignore"):
        for _ in range(_BRANCH_STEPS):
            Q = np.linalg.qr(X)[0]
            X = apply(Q)
            if not np.all(np.isfinite(X)):
                return None
            H = Q.conj().T @ X
            mus = np.sort_complex(shift + 1.0 / np.linalg.eigvals(H))
            if not np.all(np.isfinite(mus)):
                return None
            if old is not None and np.max(np.abs(mus - old)) <= _BRANCH_REL * np.max(np.abs(mus)):
                return Q, H
            old = mus
    return None


def _branch_seeds(A: FourPotential, B0: FourPotential, basis: list) -> list:
    """(sector, block) for each symmetry sector of A + B0 that holds the
    threshold basis: an orthonormal basis, in sector coordinates, of the
    range of the threshold basis's part there.  Directions of the part
    whose singular value is at most _SECTOR_REL of the basis's norm are
    round-off; potentials without a common symmetry give one seed, the
    whole support."""
    union = combine_potentials(A, B0).support_indices()
    X = np.stack([f.values[union].reshape(-1) for f in basis], axis=1)
    cut = _SECTOR_REL * np.linalg.norm(X)
    seeds = []
    for sector, part in _reached(symmetry_sectors(A, B0), X):
        u, s, _ = np.linalg.svd(part, full_matrices=False)
        seeds.append((sector, u[:, s > cut]))
    return seeds


def _kramers_kept(A: FourPotential, B0: FourPotential, seeds) -> list:
    """seeds less the second of each pair of sectors (lambda, p) and
    (conj(lambda), p) when A and B0 are purely electric: at k = i kappa
    time reversal maps one onto the other, so they have the same
    spectrum (Kramers).  Any vector part keeps every seed."""
    if np.any(A.values[:, 1:]) or np.any(B0.values[:, 1:]):
        return list(seeds)
    kept = []
    for sector, X in seeds:
        lam, p = sector.character
        if not any(t.character[1] == p and abs(np.conj(lam) - t.character[0]) < 1e-8 for t, _ in kept):
            kept.append((sector, X))
    return kept


def _sector_count(sector, K: np.ndarray, V: FourPotential):
    """crossing_count of V in one sector, from its kernel block K: the
    negative eigenvalues of (V^-1)_s - K, V^-1 the node-wise rows
    (a0, -a) / (a0^2 - |a|^2); None where V is singular at a node or
    the block is not finite."""
    rows = V.values[sector.nodes]
    det = rows[:, 0] ** 2 - np.sum(rows[:, 1:] ** 2, axis=1)
    if np.any(det == 0.0):
        return None
    H = sector.weigh(rows * [1.0, -1.0, -1.0, -1.0] / det[:, None], np.eye(len(K))) - K
    return negative_count(H) if np.all(np.isfinite(H)) else None


def _count_steady(A: FourPotential, B0: FourPotential, mu: float, sectors, lo, hi) -> bool:
    """mu is nonzero and its count in each sector is known and equal at
    the kernel blocks lo and hi: the count never falls as kappa grows,
    so no branch there crosses mu between their kappas."""
    V = combine_potentials(A, B0.rescaled(mu))
    counts = [[_sector_count(s, K, V) for s, K in zip(sectors, Ks)] for Ks in (lo, hi)]
    return mu != 0.0 and None not in counts[0] and counts[0] == counts[1]


def _branch(A: FourPotential, B0: FourPotential, kappa: float, shift: float, seeds, kernels=None):
    """Pencil values mu of 1 - T^{A + mu B0} at k = i kappa nearest shift.

    seeds holds (sector, block) pairs (see _branch_seeds); each block's
    size is the number of values its sector returns.  kernels holds the
    sectors' kernel blocks K_s at i kappa (assemble_sectors), assembled
    here when None: one offset table on the orbit representatives serves
    every sector.  Per sector, T_B = K_s B0_s and one LU of M = 1 -
    K_s (A + shift B0)_s (weighed_kernel) serve the block inverse
    iteration X <- M^-1 T_B X.  Returns (mus, seeds) with the Ritz blocks as the new seeds; None
    when factor fails or an iteration does not settle.
    """
    if kernels is None:
        kernels = assemble_sectors([sector for sector, _ in seeds], A.grid, 1j * kappa)
    V = combine_potentials(A, B0.rescaled(shift))
    mus, blocks = [], []
    for (sector, X), K in zip(seeds, kernels):
        TB, M = (weighed_kernel(sector, K, P) for P in (B0, V))
        lu = factor(system_matrix(M, out=M)).lu
        del M  # LAPACK factored a copy: only the LU stays
        if lu is None:
            return None
        got = _block_iteration(lambda Q: sla.lu_solve(lu, blas_matmul(TB, Q)), X, shift)
        if got is None:
            return None
        Q, H = got
        theta, S = np.linalg.eig(H)
        mus.append((shift + 1.0 / theta).real)
        blocks.append((sector, Q @ S))
    return np.concatenate(mus), blocks


def _secant_crossing(A, B0, mu: float, lo: float, hi: float, f_lo: float, f_hi: float, seeds):
    """The kappa in (lo, hi) where the branch value nearest mu equals mu.

    f_lo and f_hi are those values minus mu at the ends, of opposite
    sign.  Secant steps on f(kappa) = mu(kappa) - mu through the last
    two iterates, with mu itself as the shift, from the secant point of
    the ends; a step that leaves the bracket is replaced by bisection
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 3-4).  Stops when |d kappa| <= _SECANT_REL kappa and returns
    (kappa, branch): the new kappa and the (mus, Ritz blocks) of the last
    _branch call, whose vectors certify the crossing; None when a step
    fails or the run does not converge.
    """
    last, f_last = hi, f_hi
    kap = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    for _ in range(_SECANT_STEPS):
        got = _branch(A, B0, kap, mu, seeds)
        if got is None:
            return None
        mus, seeds = got
        f = mus[np.argmin(np.abs(mus - mu))] - mu
        if f == 0.0:
            return float(kap), got
        if (f < 0.0) == (f_lo < 0.0):
            lo, f_lo = kap, f
        else:
            hi = kap
        new = kap - f * (kap - last) / (f - f_last) if f != f_last else math.nan
        last, f_last = kap, f
        if not lo < new < hi:  # a NaN from a flat secant bisects too
            new = 0.5 * (lo + hi)
        if abs(new - kap) <= _SECANT_REL * kap:
            return float(new), got
        kap = new
    return None


def _certificate(A: FourPotential, B0: FourPotential, kappa: float, mu: float, branch) -> tuple:
    """residual_certificate of 1 - T^{A + mu B0}(i kappa) for the Ritz
    vector of branch = (mus, blocks) nearest mu, off its sector."""
    mus, blocks = branch
    ritz = np.concatenate([sector.extend(X) for sector, X in blocks], axis=1)
    V = combine_potentials(A, B0.rescaled(mu))
    on_grid = np.zeros((V.grid.n_nodes, 4), dtype=np.complex128)  # mu = 0 drops B0's nodes
    on_grid[blocks[0][0].nodes] = ritz[:, np.argmin(np.abs(mus - mu))].reshape(-1, 4)
    residuals, scales = residual_certificate(1j * kappa, V, on_grid[None, V.support_indices()])
    return float(residuals[0, 0]), float(scales[0])


def boundstate_track(plan: SweepPlan) -> list:
    """Locate bound-state crossings of 1 - T^{A + mu B0} at k = i kappa,
    for any B0, by continuing the threshold branch.

    At k = i kappa the couplings where 1 - T_A - mu T_B is singular are
    the eigenvalues mu of the pencil (1 - T_A, T_B); the branch that
    leaves mu = 0 at kappa = 0 is followed by block inverse iteration
    over a coarse kappa curve of max(16, plan.n_kappa // 10) log-spaced
    points across plan.kappa_range, starting from the threshold basis:
    one kernel block and one LU per kappa and sector that holds the
    basis, one sector per conjugate pair when A and B0 are purely
    electric (_kramers_kept).  Each sign change of mu(kappa) - mu is
    then solved by a bracketed secant on branch values alone.  Each
    crossing is certified off the sectors by _certificate, the residual
    of the secant's last Ritz vector: residual < _CROSSING_REL scale
    implies sigma_min(M) < _CROSSING_REL ||M||_1, and the residual is
    the record's sigma_min.  The curve's end blocks come first: when
    every mu's count in those sectors stays put between them
    (_count_steady), nothing crosses and the curve is skipped.  The
    full-size crossing_count is the independent check: its difference
    across a crossing is crit.dim.

    A mu of the wrong sign legitimately yields an empty list, and at
    mu = 0 the track sits at the kappa -> 0 boundary and is reported at
    the first curve point, certified by its vector nearest 0.  A failed
    factorization or a secant run that does not converge gives no
    record, never a crossing.
    """
    if plan.crit.lambda_bar != 0:
        raise ValueError("bound-state tracking needs the lambda-free class")
    crit = plan.crit
    A, B0 = crit.critical_potential(), plan.B0
    kmin, kmax = plan.kappa_range
    kappas = np.geomspace(kmin, kmax, max(16, plan.n_kappa // 10))

    # the branch leaves mu = 0 at kappa = 0 along the threshold basis
    # (zero on nodes of B0's support outside A's), in the symmetry sectors
    # that hold it; each kappa is shifted at the branch value of the one
    # before
    seeds = _kramers_kept(A, B0, _branch_seeds(A, B0, crit.basis))
    sectors = [sector for sector, _ in seeds]
    ends = [assemble_sectors(sectors, A.grid, 1j * kp) for kp in (kappas[0], kappas[-1])]
    if all(_count_steady(A, B0, mu, sectors, *ends) for mu in plan.mus):
        return []
    shift = 0.0
    curve = []
    for kp, kernels in zip(kappas, ends[:1] + [None] * (len(kappas) - 2) + ends[1:]):
        got = _branch(A, B0, kp, shift, seeds, kernels=kernels)
        curve.append(got)
        if got is not None:
            mus, seeds = got
            shift = float(np.mean(mus))

    def nearest(got, mu: float) -> float:
        if got is None:
            return float("nan")
        mus = got[0]
        return float(mus[np.argmin(np.abs(mus - mu))] - mu)

    records = []
    for mu in plan.mus:
        if mu == 0.0:  # the track sits at the kappa -> 0 boundary
            found = [] if curve[0] is None else [(float(kappas[0]), curve[0])]
        else:
            dvals = [nearest(got, mu) for got in curve]
            found = []
            for i in range(len(kappas) - 1):
                d0, d1 = dvals[i], dvals[i + 1]
                if not (np.isfinite(d0) and np.isfinite(d1)) or d0 == 0.0:
                    continue
                if d0 * d1 < 0.0:
                    got = _secant_crossing(A, B0, mu, kappas[i], kappas[i + 1], d0, d1, curve[i][1])
                    if got is not None and all(abs(got[0] - f) > 1e-6 * got[0] for f, _ in found):
                        found.append(got)
        for kap, branch in found:
            residual, scale = _certificate(A, B0, kap, mu, branch)
            if residual < _CROSSING_REL * scale:
                records.append(_bound_record(mu, kap, residual))
    return records


def crossing_count(V: FourPotential, kappa: float) -> int:
    """Negative eigenvalues of the Hermitian H = V^-1 - G(i kappa) on the
    support of V: G is the kernel matrix there (solver._assembled), V^-1 the
    node-wise (a0 - a.alpha) / (a0^2 - |a|^2).  H is singular where
    1 - T^V = (V^-1 - G) V is, and the count never falls as kappa grows
    (Birman-Schwinger for Dirac operators in the gap; M. Klaus, Helv.
    Phys. Acta 53, 1980): its rise between two kappas is the number of
    crossings there, with multiplicity.  At kappa = 0, V = g W with
    a0 > |a| on W, its rise across a bracket on one side of g = 0 is the
    number of critical couplings inside.  Full size, off the sectors,
    the branch and its residual certificate, so an independent check of
    boundstate_track.  Raises ValueError where V is singular at a
    support node (a0^2 = |a|^2); no node is skipped.
    """
    rows = V.values[V.support_indices()]
    det = rows[:, 0] ** 2 - np.sum(rows[:, 1:] ** 2, axis=1)
    if np.any(det == 0.0):
        raise ValueError("V is singular at a support node (a0^2 = |a|^2): no crossing count")
    inv = rows[:, :1, None] * identity4() - np.einsum("sl,lij->sij", rows[:, 1:], alpha_stack())
    n = len(rows)
    H = -_assembled(1j * kappa, V.grid, V.support_indices())
    H.reshape(n, 4, n, 4)[np.arange(n), :, np.arange(n), :] += inv / det[:, None, None]
    return negative_count(H)


# ---------------------------------------------------------------------------
# inverse-operator norm probe


def default_probe_field(crit: CriticalStructure) -> SpinorField:
    """Span-orthogonal probe field for the inverse-bound measurements.

    A fully symmetric probe (even envelope, upper components only) can
    decouple from the span through every order in k by angular
    selection, leaving nothing but roundoff to measure.  This default
    mixes all four components under an anisotropic envelope to break
    the degeneracy, then projects onto M_perp.
    """
    grid = crit.shape.grid
    pts = grid.points
    prof = np.exp(-2.0 * np.sum(pts**2, axis=1)) * (
        1.0 + 0.7 * pts[:, 0] + 0.4 * pts[:, 1] - 0.3 * pts[:, 2]
    )
    raw = SpinorField(grid, np.outer(prof, np.array([1.0, 0.3, 0.25 - 0.15j, -0.4])))
    return crit.project("M_perp", raw)


def inverse_bound_probe(
    crit: CriticalStructure,
    B: FourPotential | None,
    kvec,
    phi: SpinorField,
    m_perp: SpinorField,
) -> dict:
    """Measured norms of the four inverse-operator bounds at one (B, k).

    Solves (1 - T^{A+B}) u = A phi and (1 - T^{A+B}) v = m_perp on the
    union support and reports the span-parallel and span-perpendicular
    sup norms of both solutions together with the shared denominator
    and the perturbation norm factor.  One _coupling_scan at mu = 0 on
    the symmetry sectors of A + B that the two right-hand sides together
    reach, one sector_solve each.  rcond is the smallest block estimate
    (NaN when a block's LU failed), at_resonance sector_solve's flag.
    """
    A = crit.critical_potential()
    V = combine_potentials(A, B)
    union = V.support_indices()
    grid = A.grid
    k = float(np.linalg.norm(np.asarray(kvec, dtype=np.float64)))
    rhs1 = fold_rows(A.values[union], phi.values[union]).reshape(-1)
    rhs2 = m_perp.values[union].reshape(-1)
    systems = _coupling_scan(symmetry_sectors(V), V, None, k, np.stack([rhs1, rhs2], axis=1))(0.0)
    u, _, flagged = sector_solve(systems, rhs1)
    v = sector_solve(systems, rhs2)[0]

    bn = norms(B) if B is not None else {"l1": 0.0, "linf": 0.0}
    report = {
        "k": k,
        "rcond": np.min([fac.rcond for _, fac in systems]),
        "at_resonance": flagged,
        "denominator": resonance_denominator(crit, B, k),
        "b_l1": bn["l1"],
        "b_linf": bn["linf"],
    }
    for name, sol in (("aphi", u), ("mperp", v)):
        f = SpinorField.on_nodes(grid, union, sol.reshape(-1, 4))
        npar = crit.project("N_par", f)
        nperp = f.values[union] - npar.values[union]
        report[f"n_par_{name}"] = npar.sup_norm()
        report[f"n_perp_{name}"] = float(np.max(np.linalg.norm(nperp, axis=1)))
    return report


# ---------------------------------------------------------------------------
# k-derivatives of generalized eigenfunctions


def _free_derivatives(j: int, k: float, khat: np.ndarray, m: int, points: np.ndarray):
    """d^l/dk^l of chi = u_j(k) e^{i k khat.x} for l = 0..m at given points.

    The spinor factor is differentiated by tight central differences
    (the phase convention keeps u_j(k) smooth along a fixed direction);
    the phase factor is differentiated exactly.
    """
    d = 1e-6 * (1.0 + k)
    u0 = free_spinor(j, k * khat)
    up = free_spinor(j, (k + d) * khat)
    um = free_spinor(j, (k - d) * khat)
    du = (up - um) / (2.0 * d)
    ddu = (up - 2.0 * u0 + um) / d**2
    x = points @ khat
    phase = np.exp(1j * k * x)[:, None]
    out = [phase * u0[None, :]]
    if m >= 1:
        out.append(phase * (du[None, :] + 1j * x[:, None] * u0[None, :]))
    if m >= 2:
        out.append(
            phase
            * (
                ddu[None, :]
                + 2j * x[:, None] * du[None, :]
                - (x**2)[:, None] * u0[None, :]
            )
        )
    return out


def _weighted_sup(points: np.ndarray, values: np.ndarray, m: int) -> float:
    w = (1.0 + np.linalg.norm(points, axis=1)) ** (-m)
    return float(np.max(w * np.linalg.norm(values, axis=1)))


def derivative_recursion(
    A: FourPotential | None,
    B: FourPotential | None,
    j: int,
    kvec,
    m: int,
    eval_grid: Grid3 | None = None,
) -> dict:
    """phi^(m) = d^m/dk^m of the generalized eigenfunction, by recursion.

    Differentiating (1 - T) phi = chi in k gives
    (1 - T) phi^(m) = d^m chi + sum_{l=1..m} C(m,l) [d^l T] phi^(m-l),
    one sector_solve per order on one _coupling_scan at mu = 0, whose
    symmetry sectors of A + B are those that d^l chi, l = 0..m, reach:
    T commutes with the group, so the [d^l T] phi terms stay in them.
    The derivative kernels are the closed forms the forms module uses,
    here at real k.  The extension to the evaluation grid makes one
    stacked kernel pass per kernel order l.  With A None (no potential
    at all), phi^(m) = d^m chi exactly.  Returns the field, the weighted
    sup norms ||(1+|x|)^-l phi^(l)||_inf per order, rcond, the smallest
    block estimate (NaN when a block's LU failed), and at_resonance,
    sector_solve's flag (set when any block is).
    """
    if m not in (1, 2):
        raise ValueError("derivative recursion implemented for m = 1, 2")
    kvec = np.asarray(kvec, dtype=np.float64)
    k = float(np.linalg.norm(kvec))
    if k <= 0:
        raise ValueError("need k > 0")
    khat = kvec / k
    V = None if A is None else combine_potentials(A, B)

    if V is None or len(V.support_indices()) == 0:
        grid = eval_grid or (default_eval_grid(V.grid) if V is not None else Grid3(2.0, 21))
        chis = _free_derivatives(j, k, khat, m, grid.points)
        orders = {l: _weighted_sup(grid.points, chis[l], l) for l in range(1, m + 1)}
        return {
            "phi_m": SpinorField(grid, chis[m]),
            "weighted_sup": orders[m],
            "orders": orders,
            "rcond": float("inf"),
            "at_resonance": False,
        }

    union = V.support_indices()
    pts = V.grid.points[union]
    eval_grid = eval_grid or default_eval_grid(V.grid)
    chis_sup = _free_derivatives(j, k, khat, m, pts)
    rhs = np.stack([chi.reshape(-1) for chi in chis_sup], axis=1)
    systems = _coupling_scan(symmetry_sectors(V), V, None, k, rhs)(0.0)
    phis = []
    for order in range(m + 1):
        f = chis_sup[order].copy()
        for l in range(1, order + 1):
            dT = apply_kernel_rows(k, pts, V, phis[order - l], order=l)
            f += math.comb(order, l) * dT
        x, _, flagged = sector_solve(systems, f.reshape(-1))  # one flag for all: same blocks
        phis.append(x.reshape(-1, 4))

    targets = eval_grid.points
    # pass l applies [d^l T] to phi^(o - l) for every order o >= max(l, 1)
    stacks = [np.stack([phis[o - l] for o in range(max(l, 1), m + 1)]) for l in range(m + 1)]
    passes = [apply_kernel_rows(k, targets, V, f, order=l) for l, f in enumerate(stacks)]
    chis_eval = _free_derivatives(j, k, khat, m, targets)
    orders = {}
    for order in range(1, m + 1):
        ext = chis_eval[order].copy()
        for l in range(order + 1):
            ext += math.comb(order, l) * passes[l][:, order - max(l, 1)]
        orders[order] = max(
            _weighted_sup(targets, ext, order),
            _weighted_sup(pts, phis[order], order),
        )

    return {
        "phi_m": SpinorField(eval_grid, ext),
        "weighted_sup": orders[m],
        "orders": orders,
        "rcond": np.min([fac.rcond for _, fac in systems]),
        "at_resonance": flagged,
    }


def derivative_alpha(
    crit: CriticalStructure, B: FourPotential | None, k: float
) -> float:
    """alpha = 1 + (k + |B|_1) / (span denominator at k), always >= 1."""
    bn = norms(B)["l1"] if B is not None else 0.0
    return 1.0 + (k + bn) / resonance_denominator(crit, B, k)


def derivative_bound(
    crit: CriticalStructure,
    B0: FourPotential,
    mu: float,
    kvec,
    j: int = 1,
    eval_grid: Grid3 | None = None,
) -> DerivativeBound:
    """Measured weighted norms of the first two k-derivatives plus the
    predicted growth factor."""
    A = crit.critical_potential()
    B = B0.rescaled(mu)
    k = float(np.linalg.norm(np.asarray(kvec, dtype=np.float64)))
    rec = derivative_recursion(A, B, j, kvec, 2, eval_grid=eval_grid)
    return DerivativeBound(
        mu=float(mu),
        k=k,
        alpha=derivative_alpha(crit, B, k),
        weighted_sup=rec["orders"],
    )


# ---------------------------------------------------------------------------
# resonance-class (lambda-bar = 1) probe


def lambda1_probe(crit: CriticalStructure, B: FourPotential | None, ks) -> list:
    """Records of the divergence law for the 1/r-tail class.

    For each k: solve for chi(1, k e_z) at V = A (+ B if given) on the
    symmetry sectors of V that the plane wave reaches (one _sweep_column
    at mu = 0: one assemble_sectors pass and one small LU per reached
    sector), extend to the default evaluation grid, project onto the
    span, and record the sup norm, the span-part norms and the
    denominator inf |<Psi, B, Psi>| + k of the resonance-class bound.
    """
    if crit.lambda_bar != 1:
        raise ValueError("lambda1 probe needs a resonance-class structure")
    V = combine_potentials(crit.critical_potential(), B)
    eval_grid = default_eval_grid(V.grid)
    pinf = pairing_inf(crit, B)
    sectors = symmetry_sectors(V)

    out = []
    for k in ks:
        k = float(k)
        (r,) = _sweep_column(
            crit, sectors, V, None, k, (0.0, 0.0, k), (0.0,), (1,), eval_grid.points
        )
        out.append(
            {
                "k": k,
                "sup_norm": r.sup_norm,
                "n_part_norm": r.n_part_norm,
                "residual_part": r.residual_part,
                "denominator": pinf + k,
                "at_resonance": r.at_resonance,
            }
        )
    return out
