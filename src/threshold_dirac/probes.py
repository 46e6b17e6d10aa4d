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
    the blow-up inside the threshold span, bound-state tracks in the gap,
    inverse-operator norm bands, and the growth of k-derivatives.

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
from scipy.optimize import brentq

from .critical import CriticalStructure, make_projectors, sigma_min_at
from .forms import gamma_spectrum, taylor_form
from .potentials import FourPotential, Grid3, SpinorField, norms
from .solver import (
    apply_kernel_rows,
    assemble_pair,
    assemble_T,
    combine_potentials,
    default_eval_grid,
    factor,
    free_solution,
    free_spinor,
    smallest_singular_value,
    _fold_rows,
    _shift_invert_eigs,
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
    "default_probe_field",
    "inverse_bound_probe",
    "derivative_recursion",
    "derivative_alpha",
    "derivative_bound",
    "lambda1_probe",
]

_CROSSING_REL = 1e-5
_REFINE_TRIGGER_REL = 0.2
_MAX_REFINES_PER_MU = 6
_PEAK_COARSE = 12  # coarse mu samples of mu_peak
_PEAK_TOL_REL = 1e-5  # golden-section tolerance of mu_peak, relative


@dataclass
class SweepPlan:
    """One sweep campaign over (mu, k, j) cells around a critical structure."""

    crit: CriticalStructure
    B0: FourPotential
    mus: tuple
    ks: tuple
    js: tuple = (1, 2)
    khat: tuple = (0.0, 0.0, 1.0)
    eval_grid: Grid3 | None = None
    band: float = 10.0
    n_kappa: int = 400
    kappa_range: tuple = (1e-4, 0.9)
    bound_mode: str = "auto"  # auto | eigen | sigma-scan

    def __post_init__(self):
        self.mus = tuple(float(m) for m in self.mus)
        self.ks = tuple(float(k) for k in self.ks)
        self.js = tuple(int(j) for j in self.js)
        if not self.mus or not self.ks:
            raise ValueError("mu and k lists must be nonempty")
        if any(k <= 0 for k in self.ks):
            raise ValueError("real-k probes need k > 0")
        if not self.B0.grid.same_layout(self.crit.shape.grid):
            raise ValueError("perturbation must live on the shape grid")
        if self.bound_mode not in ("auto", "eigen", "sigma-scan"):
            raise ValueError("bound_mode must be auto, eigen or sigma-scan")


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


def resonance_denominator(
    crit: CriticalStructure, R: np.ndarray, B: FourPotential | None, k: float
) -> float:
    """inf over normalized span states of ||(P_N B + Rhat k^2) Psi|| + k^3.

    Norms are taken in the gram_n metric; B = None means the projected
    perturbation part is absent.
    """
    Rhat = np.linalg.solve(crit.gram_n, np.asarray(R, dtype=np.complex128))
    K = Rhat * k**2
    if B is not None:
        K = K + np.linalg.solve(crit.gram_n, crit.pairing(B))
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


def _embed(grid: Grid3, sup: np.ndarray, vals: np.ndarray) -> SpinorField:
    dense = np.zeros((grid.n_nodes, 4), dtype=np.complex128)
    dense[sup] = vals
    return SpinorField(grid, dense)


# ---------------------------------------------------------------------------
# resonance sweep


def _sweep_column(crit, proj, V: FourPotential, k: float, kvec, systems, js, eval_points) -> list:
    """Every (coupling, j) cell at one k: solve, extend, project.

    systems yields (mu, M, V_mu rows) per coupling, with M = 1 - T-hat of
    V_mu on the support of V and the rows of V_mu there.  phi = chi + T phi
    is extended by one stacked kernel pass: the cells' (V_mu u) rows are
    applied through a unit scalar potential on the support, which folds
    nothing.  Returns one SweepRecord per cell, predicted_bound left 0.
    """
    grid = V.grid
    union = V.support_indices()
    pts = grid.points[union]
    unit_values = np.zeros_like(V.values)
    unit_values[union, 0] = 1.0
    unit = FourPotential(grid, "unit", 1.0, V.radius, unit_values)
    cells = []
    folded = []
    for mu, M, vmu_rows in systems:
        fac = factor(M)
        for j in js:
            chi = free_solution(j, kvec)
            u = fac.solve(chi.values_at(pts).reshape(-1)).reshape(-1, 4)
            cells.append((mu, j, fac.at_resonance, chi, u))
            folded.append(_fold_rows(vmu_rows, u))
    exts = apply_kernel_rows(k, eval_points, unit, np.stack(folded), grid.spacing)
    out = []
    for (mu, j, flagged, chi, u), tail in zip(cells, exts.transpose(1, 0, 2)):
        ext = chi.values_at(eval_points) + tail
        phi = _embed(grid, union, u)
        npar = proj.project("N_par", phi)
        coeffs = proj._coeffs(crit.gram_n, phi)
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
    per k.  Solver failures become flagged records, never exceptions.
    """
    crit = plan.crit
    A = crit.critical_potential()
    gammas = gamma_spectrum(crit, plan.B0, taylor_form(A, crit, 2)).gammas
    V = combine_potentials(A, plan.B0)
    union = V.support_indices()
    va, vb = A.values[union], plan.B0.values[union]
    eval_grid = plan.eval_grid or default_eval_grid(A.grid)
    proj = make_projectors(crit)
    khat = np.asarray(plan.khat, dtype=np.float64)

    def run_k(k: float) -> list:
        TA, TB = assemble_pair(A, plan.B0, k)
        eye = np.eye(TA.shape[0], dtype=np.complex128)
        systems = ((mu, eye - TA - mu * TB, va + mu * vb) for mu in plan.mus)
        kvec = k * khat / np.linalg.norm(khat)
        cells = _sweep_column(crit, proj, V, k, kvec, systems, plan.js, eval_grid.points)
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
            if v > plan.band * pred or v < pred / plan.band:
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


def mu_peak(
    crit: CriticalStructure,
    B0: FourPotential,
    k: float,
    bracket: tuple,
    j: int = 1,
    khat=(0.0, 0.0, 1.0),
) -> tuple:
    """Locate the mu maximizing the response at fixed k (coarse + golden).

    The objective is the solution sup norm over the support nodes; the
    divergent span part lives there, so the peak location matches the
    full-grid sup.  Assembles the operator pair once, so each mu costs
    one LU.  Returns (mu_peak, sup_at_peak).
    """
    A = crit.critical_potential()
    union = combine_potentials(A, B0).support_indices()
    pts = A.grid.points[union]
    khat = np.asarray(khat, dtype=np.float64)
    kvec = float(k) * khat / np.linalg.norm(khat)
    TA, TB = assemble_pair(A, B0, float(k))
    eye = np.eye(TA.shape[0], dtype=np.complex128)
    chi_rhs = free_solution(j, kvec).values_at(pts).reshape(-1)

    def sup_at(mu: float) -> float:
        u = factor(eye - TA - mu * TB).solve(chi_rhs).reshape(-1, 4)
        return float(np.max(np.linalg.norm(u, axis=1)))

    mu_lo, mu_hi = float(bracket[0]), float(bracket[1])
    grid_mu = np.linspace(mu_lo, mu_hi, _PEAK_COARSE)
    vals = np.array([sup_at(m) for m in grid_mu])
    i = int(np.argmax(vals))
    a = grid_mu[max(i - 1, 0)]
    b = grid_mu[min(i + 1, _PEAK_COARSE - 1)]
    mu_best, neg = _golden_min(lambda m: -sup_at(m), a, b, _PEAK_TOL_REL * max(abs(mu_hi), 1.0))
    return float(mu_best), float(-neg)


# ---------------------------------------------------------------------------
# bound states in the gap


def _golden_min(f, a: float, b: float, tol: float):
    """Golden-section minimum of a scalar function on [a, b]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - g * (b - a)
    x2 = a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _proportional_coupling(crit: CriticalStructure, B0: FourPotential):
    """Scalar c with B0 = c * shape nodewise, or None when not proportional."""
    sv = crit.shape.values
    bv = B0.values
    i = np.unravel_index(int(np.argmax(np.abs(sv))), sv.shape)
    if sv[i] == 0:
        return None
    c = bv[i] / sv[i]
    if c == 0 or np.linalg.norm(bv - c * sv) > 1e-12 * max(np.linalg.norm(bv), 1e-300):
        return None
    if abs(c.imag) > 1e-14 * abs(c):
        return None
    return float(c.real)


def boundstate_track(plan: SweepPlan) -> list:
    """Locate bound-state crossings of 1 - T^{A + mu B0} at k = i kappa.

    Two modes, selected by plan.bound_mode:

    "eigen" (the default when B0 is proportional to the critical shape):
    per kappa, the eigenvalues nu of the unit-coupling operator near 1/g*
    give every crossing coupling at once via mu = (1/nu - g*)/c, so one
    coarse kappa scan serves all mu values; requested crossings are then
    refined by root finding on the branch curve and validated against the
    sigma_min criterion.

    "sigma-scan" (the fallback for general B0): scan a log-spaced kappa
    grid (one kernel pass per kappa serves every mu), refine each
    candidate local minimum of sigma_min by golden section, and accept
    when the refined singular value collapses.

    Either way, a mu of the wrong sign legitimately yields an empty
    list, and at mu = 0 the track sits at the kappa -> 0 boundary and is
    reported at the first grid point.
    """
    crit = plan.crit
    if crit.lambda_bar != 0:
        raise ValueError("bound-state tracking needs the lambda-free class")
    mode = plan.bound_mode
    if mode == "auto":
        mode = "eigen" if _proportional_coupling(crit, plan.B0) is not None else "sigma-scan"
    if mode == "eigen":
        c = _proportional_coupling(crit, plan.B0)
        if c is None:
            raise ValueError("eigen mode needs B0 proportional to the critical shape")
        return _track_eigen(plan, c)
    return _track_sigma_scan(plan)


def _track_eigen(plan: SweepPlan, c: float) -> list:
    crit = plan.crit
    shape = crit.shape
    g_star = crit.g_star
    sigma0 = 1.0 / g_star
    kmin, kmax = plan.kappa_range
    n_curve = max(16, plan.n_kappa // 10)
    kappas = np.geomspace(kmin, kmax, n_curve)
    n_eig = min(6, 4 * len(shape.support_indices()) - 2)

    def assemble(kappa: float) -> np.ndarray:
        return assemble_T(shape, 1j * kappa)

    def branch_mus(T: np.ndarray) -> np.ndarray:
        """All crossing shifts mu at this kappa, from eigenvalues near 1/g*."""
        nus = _shift_invert_eigs(T, sigma0, n_eig)
        nus = nus[np.abs(nus.imag) <= 1e-3 * np.abs(nus)]
        good = nus.real[np.abs(nus.real) > 1e-12]
        return np.sort((1.0 / good - g_star) / c)

    curve = [branch_mus(assemble(kp)) for kp in kappas]

    def nearest(mus: np.ndarray, mu: float) -> float:
        if len(mus) == 0:
            return float("inf")
        return float(mus[np.argmin(np.abs(mus - mu))] - mu)

    # validation threshold mirrors the sigma-scan acceptance
    def sigma_at(kappa: float, mu: float):
        return sigma_min_at(assemble(kappa), g_star + mu * c)

    records = []
    for mu in plan.mus:
        if mu == 0.0:
            sig, scale = sigma_at(kappas[0], 0.0)
            if sig < _CROSSING_REL * scale:
                records.append(
                    BoundStateRecord(
                        mu=0.0,
                        kappa=float(kappas[0]),
                        kappa_sq=float(kappas[0] ** 2),
                        E=float(np.sqrt(1.0 - kappas[0] ** 2)),
                        sigma_min=float(sig),
                    )
                )
            continue
        dvals = [nearest(mus, mu) for mus in curve]
        found = []
        for i in range(len(kappas) - 1):
            d0, d1 = dvals[i], dvals[i + 1]
            if not (np.isfinite(d0) and np.isfinite(d1)) or d0 == 0.0:
                continue
            if d0 * d1 < 0.0:
                kap = brentq(
                    lambda kp: nearest(branch_mus(assemble(kp)), mu),
                    kappas[i],
                    kappas[i + 1],
                    xtol=1e-10,
                    rtol=1e-10,
                )
                if all(abs(kap - f) > 1e-6 * kap for f in found):
                    found.append(float(kap))
        for kap in found:
            sig, scale = sigma_at(kap, mu)
            if sig < _CROSSING_REL * scale:
                records.append(
                    BoundStateRecord(
                        mu=mu,
                        kappa=kap,
                        kappa_sq=kap * kap,
                        E=float(np.sqrt(1.0 - kap * kap)),
                        sigma_min=float(sig),
                    )
                )
    return records


def _track_sigma_scan(plan: SweepPlan) -> list:
    crit = plan.crit
    A = crit.critical_potential()
    kmin, kmax = plan.kappa_range
    kappas = np.geomspace(kmin, kmax, plan.n_kappa)

    def sigma_of(kappa: float, mu: float) -> float:
        TA, TB = assemble_pair(A, plan.B0, 1j * kappa)
        M = np.eye(TA.shape[0], dtype=np.complex128) - TA - mu * TB
        return smallest_singular_value(M)

    def scan_col(kappa: float) -> list:
        TA, TB = assemble_pair(A, plan.B0, 1j * kappa)
        eye = np.eye(TA.shape[0], dtype=np.complex128)
        col = []
        for mu in plan.mus:
            M = eye - TA - mu * TB
            col.append((smallest_singular_value(M), float(np.linalg.norm(M, 1))))
        return col

    grid_vals = [scan_col(kappa) for kappa in kappas]

    records = []
    for im, mu in enumerate(plan.mus):
        sig = np.array([grid_vals[i][im][0] for i in range(len(kappas))])
        scl = np.array([grid_vals[i][im][1] for i in range(len(kappas))])
        trigger = _REFINE_TRIGGER_REL * float(np.median(scl))
        accept = _CROSSING_REL * float(np.median(scl))
        candidates = []
        if sig[0] < sig[1] and sig[0] < trigger:
            candidates.append(0)
        for i in range(1, len(kappas) - 1):
            if sig[i] < sig[i - 1] and sig[i] <= sig[i + 1] and sig[i] < trigger:
                candidates.append(i)
        candidates = sorted(candidates, key=lambda i: sig[i])[:_MAX_REFINES_PER_MU]
        for i in sorted(candidates):
            if i == 0:
                kap, val = kappas[0], sig[0]
            else:
                kap, val = _golden_min(
                    lambda x: sigma_of(x, mu),
                    kappas[i - 1],
                    kappas[i + 1],
                    1e-7 * kappas[i],
                )
            if val < accept:
                records.append(
                    BoundStateRecord(
                        mu=mu,
                        kappa=float(kap),
                        kappa_sq=float(kap * kap),
                        E=float(np.sqrt(1.0 - kap * kap)),
                        sigma_min=float(val),
                    )
                )
    return records


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
    return make_projectors(crit).project("M_perp", raw)


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
    fac = factor(np.eye(TV.shape[0], dtype=np.complex128) - TV)

    rhs1 = _fold_rows(A.values[union], phi.values[union]).reshape(-1)
    rhs2 = m_perp.values[union].reshape(-1)
    u = fac.solve(rhs1).reshape(-1, 4)
    v = fac.solve(rhs2).reshape(-1, 4)

    proj = make_projectors(crit)
    R = taylor_form(A, crit, 2)
    bn = norms(B) if B is not None else {"l1": 0.0, "linf": 0.0}
    report = {
        "k": k,
        "rcond": fac.rcond,
        "at_resonance": fac.at_resonance,
        "denominator": resonance_denominator(crit, R, B, k),
        "b_l1": bn["l1"],
        "b_linf": bn["linf"],
    }
    for name, sol in (("aphi", u), ("mperp", v)):
        f = _embed(grid, union, sol)
        npar = proj.project("N_par", f)
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
    solved with one LU shared across orders; the derivative kernels are
    the closed forms the forms module uses, here at real k.  With no
    potential at all, phi^(m) = d^m chi exactly.  Returns the field, the
    weighted sup norms ||(1+|x|)^-l phi^(l)||_inf per order, and flags.
    """
    if m not in (1, 2):
        raise ValueError("derivative recursion implemented for m = 1, 2")
    kvec = np.asarray(kvec, dtype=np.float64)
    k = float(np.linalg.norm(kvec))
    if k <= 0:
        raise ValueError("need k > 0")
    khat = kvec / k
    if A is None and B is not None:
        A, B = B, None
    V = combine_potentials(A, B) if (A is not None and B is not None) else A

    if V is None or len(V.support_indices()) == 0:
        grid = eval_grid or (V.grid if V is not None else Grid3(2.0, 21))
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
    fac = factor(np.eye(TV.shape[0], dtype=np.complex128) - TV)

    chis_sup = _free_derivatives(j, k, khat, m, pts)
    phis = [fac.solve(chis_sup[0].reshape(-1)).reshape(-1, 4)]
    for order in range(1, m + 1):
        f = chis_sup[order].copy()
        for l in range(1, order + 1):
            dT = apply_kernel_rows(k, pts, V, phis[order - l], h, order=l)
            f += math.comb(order, l) * dT
        phis.append(fac.solve(f.reshape(-1)).reshape(-1, 4))

    chis_eval = _free_derivatives(j, k, khat, m, eval_grid.points)
    orders = {}
    phi_m_field = None
    for order in range(1, m + 1):
        ext = chis_eval[order].copy()
        for l in range(0, order + 1):
            dT = apply_kernel_rows(k, eval_grid.points, V, phis[order - l], h, order=l)
            ext += math.comb(order, l) * dT
        orders[order] = max(
            _weighted_sup(eval_grid.points, ext, order),
            _weighted_sup(pts, phis[order], order),
        )
        if order == m:
            phi_m_field = SpinorField(eval_grid, ext)

    return {
        "phi_m": phi_m_field,
        "weighted_sup": orders[m],
        "orders": orders,
        "rcond": fac.rcond,
        "at_resonance": fac.at_resonance,
    }


def derivative_alpha(
    crit: CriticalStructure, B: FourPotential | None, k: float
) -> float:
    """alpha = 1 + (k + |B|_1) / (span denominator at k), always >= 1."""
    A = crit.critical_potential()
    R = taylor_form(A, crit, 2)
    denom = resonance_denominator(crit, R, B, k)
    bn = norms(B)["l1"] if B is not None else 0.0
    return 1.0 + (k + bn) / denom


def derivative_bound(
    crit: CriticalStructure,
    B0: FourPotential,
    mu: float,
    kvec,
    m: int = 2,
    j: int = 1,
    eval_grid: Grid3 | None = None,
) -> DerivativeBound:
    """Measured weighted derivative norms plus the predicted growth factor."""
    A = crit.critical_potential()
    B = B0.rescaled(mu)
    k = float(np.linalg.norm(np.asarray(kvec, dtype=np.float64)))
    rec = derivative_recursion(A, B, j, kvec, m, eval_grid=eval_grid)
    return DerivativeBound(
        mu=float(mu),
        k=k,
        alpha=derivative_alpha(crit, B, k),
        weighted_sup=rec["orders"],
    )


# ---------------------------------------------------------------------------
# resonance-class (lambda-bar = 1) probe


def lambda1_probe(
    crit: CriticalStructure,
    B: FourPotential | None,
    ks,
    j: int = 1,
    khat=(0.0, 0.0, 1.0),
    eval_grid: Grid3 | None = None,
) -> list:
    """Records of the divergence law for the 1/r-tail class.

    For each k: solve at A (+ B if given), project onto the span, and
    record the sup norm, the span-part norms and the denominator
    inf |<Psi, B, Psi>| + k of the resonance-class bound.
    """
    if crit.lambda_bar != 1:
        raise ValueError("lambda1 probe needs a resonance-class structure")
    V = combine_potentials(crit.critical_potential(), B)
    eval_grid = eval_grid or default_eval_grid(V.grid)
    proj = make_projectors(crit)
    pinf = pairing_inf(crit, B)
    khat = np.asarray(khat, dtype=np.float64)
    khat = khat / np.linalg.norm(khat)
    vrows = V.values[V.support_indices()]

    out = []
    for k in ks:
        k = float(k)
        TV = assemble_T(V, k)
        system = (0.0, np.eye(TV.shape[0], dtype=np.complex128) - TV, vrows)
        (r,) = _sweep_column(crit, proj, V, k, k * khat, [system], (j,), eval_grid.points)
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
