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
from scipy.optimize import minimize_scalar

from .algebra import alpha_stack, identity4
from .critical import CriticalStructure
from .forms import gamma_spectrum, taylor_form
from .potentials import FourPotential, Grid3, SpinorField, fold_rows, norms, pseudo_inner
from .kernel import blas_matmul
from .solver import (
    apply_kernel_rows,
    assemble_pair,
    assemble_sectors,
    assemble_T,
    combine_potentials,
    default_eval_grid,
    factor,
    free_solution,
    free_spinor,
    negative_count,
    smallest_singular_value,
    symmetry_sectors,
    system_matrix,
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
_NEWTON_REL = 1e-12  # crossing Newton: |d kappa| <= this * kappa ends the run
_NEWTON_STEPS = 30  # crossing Newton: steps before the run counts as not converged
_SECTOR_REL = 1e-8  # a symmetry sector holds the threshold basis above this weight
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


def _unit_potential(V: FourPotential) -> FourPotential:
    """Unit scalar potential on the support of V: kernel rows through it
    apply the kernel to already folded (V f) rows and fold nothing."""
    values = np.zeros_like(V.values)
    values[V.support_indices(), 0] = 1.0
    return FourPotential(V.grid, "unit", 1.0, V.radius, values)


# ---------------------------------------------------------------------------
# resonance sweep


def _sweep_column(crit, V: FourPotential, k: float, kvec, systems, js, eval_points) -> list:
    """Every (coupling, j) cell at one k: solve, extend, project.

    systems yields (mu, M, V_mu rows) per coupling, with M = 1 - T-hat of
    V_mu on the support of V and the rows of V_mu there.  phi = chi + T phi
    is extended by one stacked kernel pass: the cells' (V_mu u) rows are
    applied through the unit potential on the support.  Returns one
    SweepRecord per cell, predicted_bound left 0.
    """
    grid = V.grid
    union = V.support_indices()
    pts = grid.points[union]
    unit = _unit_potential(V)
    A = crit.critical_potential()
    cells = []
    folded = []
    for mu, M, vmu_rows in systems:
        fac = factor(M)
        for j in js:
            chi = free_solution(j, kvec)
            u = fac.solve(chi.values_at(pts).reshape(-1))[0].reshape(-1, 4)
            cells.append((mu, j, fac.at_resonance, chi, u))
            folded.append(fold_rows(vmu_rows, u))
        del M, fac  # this coupling's matrix and LU go before the next is built
    exts = apply_kernel_rows(k, eval_points, unit, np.stack(folded), grid.spacing)
    out = []
    for (mu, j, flagged, chi, u), tail in zip(cells, exts.transpose(1, 0, 2)):
        ext = chi.values_at(eval_points) + tail
        phi = SpinorField.on_nodes(grid, union, u)
        npar = crit.project("N_par", phi)
        coeffs = crit.coordinates([pseudo_inner(p, A, phi) for p in crit.basis])
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

    The operator pair is assembled once per k at unit couplings and
    recombined per mu (the contraction is exactly linear in the
    potential), so a mu scan costs one LU per cell and one kernel pass
    per k.  A flagged factorization (at resonance, or a failed LU) gives
    a flagged record; an unflagged solve that misses the residual
    contract raises RuntimeError (Factorization.solve).
    """
    crit = plan.crit
    A = crit.critical_potential()
    gammas = gamma_spectrum(crit, plan.B0, taylor_form(A, crit, 2)).gammas
    V = combine_potentials(A, plan.B0)
    union = V.support_indices()
    va, vb = A.values[union], plan.B0.values[union]
    eval_grid = plan.eval_grid or default_eval_grid(A.grid)

    def run_k(k: float) -> list:
        TA, TB = assemble_pair(A, plan.B0, k)
        systems = ((mu, system_matrix(TA, TB, mu), va + mu * vb) for mu in plan.mus)
        kvec = k * np.asarray(plan.khat)
        cells = _sweep_column(crit, V, k, kvec, systems, plan.js, eval_grid.points)
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
    full-grid sup.  Assembles the operator pair once, so each mu costs
    one LU.  Returns (mu_peak, sup_at_peak).
    """
    A = crit.critical_potential()
    union = combine_potentials(A, B0).support_indices()
    pts = A.grid.points[union]
    TA, TB = assemble_pair(A, B0, float(k))
    chi_rhs = free_solution(1, (0.0, 0.0, float(k))).values_at(pts).reshape(-1)

    def sup_at(mu: float) -> float:
        u = factor(system_matrix(TA, TB, mu)).solve(chi_rhs)[0].reshape(-1, 4)
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
    for sector in symmetry_sectors(A, B0):
        u, s, _ = np.linalg.svd(sector.project(X), full_matrices=False)
        if s[0] > cut:
            seeds.append((sector, u[:, s > cut]))
    return seeds


def _branch(A: FourPotential, B0: FourPotential, kappa: float, shift: float, seeds, derivative=False):
    """Pencil values mu of 1 - T^{A + mu B0} at k = i kappa nearest shift.

    seeds holds (sector, block) pairs (see _branch_seeds); each block's
    size is the number of values its sector returns.  One kernel-row
    pass on the orbit representatives serves every sector; per sector,
    one LU of M = 1 - T_A - shift T_B, built in place over T_A, serves
    the right block inverse iteration X <- M^-1 T_B X and, with
    derivative, the left one on M^H.  Then dmu/dkappa is the diagonal,
    in the Ritz basis, of -i (Y^H T_B X)^-1 Y^H T'_{A + mu B0} X (the
    eigenvalues of that matrix when the block is one degenerate branch),
    where T' = dT/dk is one order-1 kernel-row pass on the
    representatives for every sector's fields.  Returns (mus, dmus,
    seeds) with the Ritz blocks as the new seeds, dmus None without
    derivative; None when factor fails or an iteration does not settle.
    """
    blocks, lefts = [], []
    pairs = assemble_sectors([sector for sector, _ in seeds], A, B0, 1j * kappa)
    for (sector, X), (M, TB) in zip(seeds, pairs):  # M holds T_A until turned into M
        M += shift * TB  # T-hat of A + shift B0 first: the crossings' kappa bits depend on this order
        lu = factor(system_matrix(M, out=M)).lu
        del M  # LAPACK factored a copy: only the LU stays
        if lu is None:
            return None
        right = _block_iteration(lambda Q: sla.lu_solve(lu, blas_matmul(TB, Q)), X, shift)
        if right is None:
            return None
        Q, H = right
        theta, S = np.linalg.eig(H)
        X = Q @ S
        blocks.append((sector, X, (shift + 1.0 / theta).real))
        if not derivative:
            continue
        left = _block_iteration(
            lambda P: sla.lu_solve(lu, blas_matmul(P.conj().T, TB).conj().T, trans=2), X, shift
        )
        if left is None:
            return None
        lefts.append((left[0], blas_matmul(TB, X)))
    mus = np.concatenate([m for _, _, m in blocks])
    seeds = [(sector, X) for sector, X, _ in blocks]
    if not derivative:
        return mus, None, seeds
    first = seeds[0][0]  # every sector shares the support and the representatives
    va, vb = A.values[first.nodes], B0.values[first.nodes]
    fields = np.stack([
        fold_rows(va + m * vb, x.reshape(-1, 4))
        for sector, X, ms in blocks
        for m, x in zip(ms, sector.extend(X).T)
    ])
    unit = _unit_potential(combine_potentials(A, B0))
    dT = apply_kernel_rows(
        1j * kappa, A.grid.points[first.targets], unit, fields, A.grid.spacing, order=1
    )
    ends = np.cumsum([len(ms) for _, _, ms in blocks])[:-1]
    dmus = []
    for (sector, X, ms), (Y, TBX), part in zip(blocks, lefts, np.split(dT, ends, axis=1)):
        dTX = sector.restrict(part.transpose(1, 0, 2).reshape(len(ms), -1).T)
        D = -1j * np.linalg.solve(Y.conj().T @ TBX, Y.conj().T @ dTX)
        dmus.append(np.diagonal(D).real)
    return mus, np.concatenate(dmus), seeds


def _newton_crossing(A, B0, mu: float, lo: float, hi: float, f_lo: float, f_hi: float, seeds):
    """The kappa in (lo, hi) where the branch value nearest mu equals mu.

    f_lo and f_hi are those values minus mu at the ends, of opposite
    sign.  Newton on f(kappa) = mu(kappa) - mu with mu itself as the
    shift, from the secant point; a step that leaves the bracket is
    replaced by bisection.  Stops when |d kappa| <= _NEWTON_REL kappa
    and returns the new kappa; None when a step fails or the run does
    not converge.
    """
    kap = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    for _ in range(_NEWTON_STEPS):
        got = _branch(A, B0, kap, mu, seeds, derivative=True)
        if got is None:
            return None
        mus, dmus, seeds = got
        j = int(np.argmin(np.abs(mus - mu)))
        f = mus[j] - mu
        if f == 0.0:
            return float(kap)
        if (f < 0.0) == (f_lo < 0.0):
            lo, f_lo = kap, f
        else:
            hi = kap
        new = kap - f / dmus[j]
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - kap) <= _NEWTON_REL * kap:
            return float(new)
        kap = new
    return None


def _sigma_at(A: FourPotential, B0: FourPotential, kappa: float, mu: float) -> tuple:
    """(sigma_min, 1-norm) of 1 - T_A - mu T_B at k = i kappa, built in
    place over T_A in _branch's order (T-hat of A + mu B0 first)."""
    TA, TB = assemble_pair(A, B0, 1j * kappa)
    TB *= mu
    TA += TB
    del TB
    M = system_matrix(TA, out=TA)
    return smallest_singular_value(M), float(np.linalg.norm(M, 1))


def boundstate_track(plan: SweepPlan) -> list:
    """Locate bound-state crossings of 1 - T^{A + mu B0} at k = i kappa,
    for any B0, by continuing the threshold branch.

    At k = i kappa the couplings where 1 - T_A - mu T_B is singular are
    the eigenvalues mu of the pencil (1 - T_A, T_B); the branch that
    leaves mu = 0 at kappa = 0 is followed by block inverse iteration
    over a coarse kappa curve of max(16, plan.n_kappa // 10) log-spaced
    points across plan.kappa_range, one LU per kappa and sector,
    starting from the threshold basis.  Each sign change of
    mu(kappa) - mu is then solved by safeguarded Newton with the
    analytic dmu/dkappa, and every crossing is validated against the
    sigma_min criterion.  crossing_count is the independent check: its
    difference across a crossing is crit.dim.

    A mu of the wrong sign legitimately yields an empty list, and at
    mu = 0 the track sits at the kappa -> 0 boundary and is reported at
    the first curve point.  A failed factorization or a Newton run that
    does not converge gives no record, never a crossing.
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
    seeds = _branch_seeds(A, B0, crit.basis)
    shift = 0.0
    curve = []
    for kp in kappas:
        got = _branch(A, B0, kp, shift, seeds)
        curve.append(got)
        if got is not None:
            mus, _, seeds = got
            shift = float(np.mean(mus))

    def nearest(got, mu: float) -> float:
        if got is None:
            return float("nan")
        mus = got[0]
        return float(mus[np.argmin(np.abs(mus - mu))] - mu)

    records = []
    for mu in plan.mus:
        if mu == 0.0:  # the track sits at the kappa -> 0 boundary
            found = [float(kappas[0])]
        else:
            dvals = [nearest(got, mu) for got in curve]
            found = []
            for i in range(len(kappas) - 1):
                d0, d1 = dvals[i], dvals[i + 1]
                if not (np.isfinite(d0) and np.isfinite(d1)) or d0 == 0.0:
                    continue
                if d0 * d1 < 0.0:
                    kap = _newton_crossing(A, B0, mu, kappas[i], kappas[i + 1], d0, d1, curve[i][2])
                    if kap is not None and all(abs(kap - f) > 1e-6 * kap for f in found):
                        found.append(kap)
        for kap in found:
            sig, scale = _sigma_at(A, B0, kap, mu)
            if sig < _CROSSING_REL * scale:
                records.append(_bound_record(mu, kap, sig))
    return records


def crossing_count(V: FourPotential, kappa: float) -> int:
    """Negative eigenvalues of the Hermitian H = V^-1 - G(i kappa) on the
    support of V: G is T-hat of the unit potential there, V^-1 the
    node-wise (a0 - a.alpha) / (a0^2 - |a|^2).  H is singular where
    1 - T^V = (V^-1 - G) V is, and the count never falls as kappa grows
    (Birman-Schwinger for Dirac operators in the gap; M. Klaus, Helv.
    Phys. Acta 53, 1980): its rise between two kappas is the number of
    crossings there, with multiplicity.  At kappa = 0, V = g W with
    a0 > |a| on W, its rise across a bracket on one side of g = 0 is the
    number of critical couplings inside.  Full size, off the sectors,
    the branch and sigma_min, so an independent check of
    boundstate_track.  Raises ValueError where V is singular at a
    support node (a0^2 = |a|^2); no node is skipped.
    """
    rows = V.values[V.support_indices()]
    det = rows[:, 0] ** 2 - np.sum(rows[:, 1:] ** 2, axis=1)
    if np.any(det == 0.0):
        raise ValueError("V is singular at a support node (a0^2 = |a|^2): no crossing count")
    inv = rows[:, :1, None] * identity4() - np.einsum("sl,lij->sij", rows[:, 1:], alpha_stack())
    n = len(rows)
    H = -assemble_T(_unit_potential(V), 1j * kappa)
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
    and the perturbation norm factor.
    """
    A = crit.critical_potential()
    V = combine_potentials(A, B)
    union = V.support_indices()
    grid = A.grid
    k = float(np.linalg.norm(np.asarray(kvec, dtype=np.float64)))
    TV = assemble_T(V, k)
    fac = factor(system_matrix(TV, out=TV))

    rhs1 = fold_rows(A.values[union], phi.values[union]).reshape(-1)
    rhs2 = m_perp.values[union].reshape(-1)
    u = fac.solve(rhs1)[0].reshape(-1, 4)
    v = fac.solve(rhs2)[0].reshape(-1, 4)

    bn = norms(B) if B is not None else {"l1": 0.0, "linf": 0.0}
    report = {
        "k": k,
        "rcond": fac.rcond,
        "at_resonance": fac.at_resonance,
        "denominator": resonance_denominator(crit, B, k),
        "b_l1": bn["l1"],
        "b_linf": bn["linf"],
    }
    for name, sol in (("aphi", u), ("mperp", v)):
        f = SpinorField.on_nodes(grid, union, sol)
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
    solved with one LU shared across orders (Factorization.solve holds
    each solve to the residual contract); the derivative
    kernels are the closed forms the forms module uses, here at real k.
    The extension to the evaluation grid makes one stacked kernel pass
    per kernel order l.  With A None (no potential at all), phi^(m) =
    d^m chi exactly.  Returns the field, the weighted sup norms
    ||(1+|x|)^-l phi^(l)||_inf per order, and flags.
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
    h = V.grid.spacing
    eval_grid = eval_grid or default_eval_grid(V.grid)
    TV = assemble_T(V, k)
    fac = factor(system_matrix(TV, out=TV))

    chis_sup = _free_derivatives(j, k, khat, m, pts)
    phis = []
    for order in range(m + 1):
        f = chis_sup[order].copy()
        for l in range(1, order + 1):
            dT = apply_kernel_rows(k, pts, V, phis[order - l], h, order=l)
            f += math.comb(order, l) * dT
        phis.append(fac.solve(f.reshape(-1))[0].reshape(-1, 4))

    targets = eval_grid.points
    # pass l applies [d^l T] to phi^(o - l) for every order o >= max(l, 1)
    stacks = [np.stack([phis[o - l] for o in range(max(l, 1), m + 1)]) for l in range(m + 1)]
    passes = [apply_kernel_rows(k, targets, V, f, h, order=l) for l, f in enumerate(stacks)]
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
        "rcond": fac.rcond,
        "at_resonance": fac.at_resonance,
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

    For each k: solve for chi(1, k e_z) at A (+ B if given), extend to
    the default evaluation grid, project onto the span, and record the
    sup norm, the span-part norms and the denominator
    inf |<Psi, B, Psi>| + k of the resonance-class bound.
    """
    if crit.lambda_bar != 1:
        raise ValueError("lambda1 probe needs a resonance-class structure")
    V = combine_potentials(crit.critical_potential(), B)
    eval_grid = default_eval_grid(V.grid)
    pinf = pairing_inf(crit, B)
    vrows = V.values[V.support_indices()]

    out = []
    for k in ks:
        k = float(k)
        TV = assemble_T(V, k)
        system = (0.0, system_matrix(TV, out=TV), vrows)
        (r,) = _sweep_column(crit, V, k, (0.0, 0.0, k), [system], (1,), eval_grid.points)
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
