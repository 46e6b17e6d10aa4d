"""Independent radial oracle for spherically symmetric electric wells.

Solves the radial reduction of the same threshold problem by completely
different means (1D ODE integration and transcendental matching instead
of 3D quadrature), so it can certify the 3D pipeline.

PHYSICS
    For a pure electric potential V(r) supported in r <= R the 4-spinor
    problem splits into angular channels labeled by the integer
    kappa != 0. With the standard radial components (G, F) = r (g_r, f_r)
    the eigenvalue system at energy E is

        G' = -(kappa/r) G + (E + 1 - V) F
        F' = +(kappa/r) F - (E - 1 - V) G

    and the upper component satisfies G'' = l(l+1)/r^2 G - q^2 G with
    l(l+1) = kappa(kappa+1) and q^2 = (E - V)^2 - 1. For a constant well
    V = g at threshold E = 1 this gives q^2 = g^2 - 2g.

    Threshold (E = 1) exterior solutions are power laws: G = r^{-l},
    F = ((kappa - l)/2) r^{-l-1}. Two channels matter here:

      * kappa = -1 (l = 0): exterior G = const, F ~ 1/r, so the threshold
        state has a 1/r upper tail (resonance class). Sharp-well matching
        reduces to 2 Q R cos(QR) = g sin(QR).
      * kappa = +1 (l = 1): exterior F = 0, G ~ 1/r, so the state decays
        like r^{-2} (bound class, zero tail moment by angular
        integration). Sharp-well matching reduces to sin(QR) = 0, i.e.
        the closed form  g = 1 +- sqrt(1 + (n pi / R)^2).

    The angle-resolved spinor norm of a radial state is
    |Phi(x)|^2 = (G^2 + F^2)/(4 pi r^2) exactly (sigma.rhat is unitary,
    so the value is independent of the magnetic label and of any mixture
    of the Kramers pair). tail_ratio below exploits this to export a
    normalization-free tail-to-peak ratio for cross-checks.

NUMERICS
    Matching residuals are built from functions entire in q^2, so sign
    changes are honest across the oscillatory/evanescent boundary. The
    shooting route integrates the first-order system with RK45
    (rtol 1e-10) and exists to validate the closed-form matching; ramped
    wells (smoothstep edge of width w) integrate only over [R - w, R],
    the interior being exactly solvable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import spherical_in, spherical_jn, spherical_kn

__all__ = [
    "RadialWell",
    "threshold_residual",
    "critical_coupling",
    "bound_residual",
    "bound_energy",
    "tail_ratio",
    "SHARP_ROOTS",
]

# frozen sharp-well reference roots at R = 1 (see tests for the defining
# equations; the kappa=+1 values are the closed form 1 +- sqrt(1 + pi^2))
SHARP_ROOTS = {
    (-1, "attractive"): -1.1129234484805564,
    (-1, "repulsive"): 5.265568054176643,
    (1, "repulsive"): 4.296908309475615,
    (1, "attractive"): -2.296908309475615,
}


@dataclass(frozen=True)
class RadialWell:
    """Electric well V(r) = depth * S(r): 1 inside R - w, smoothstep to 0 at R."""

    depth: float
    radius: float
    kappa: int = -1
    edge_width: float = 0.0

    def __post_init__(self):
        if self.kappa == 0:
            raise ValueError("kappa must be a nonzero integer")
        if not 0.0 <= self.edge_width < self.radius:
            raise ValueError("edge width must satisfy 0 <= w < R")

    @property
    def l(self) -> int:
        k = self.kappa
        return k if k > 0 else -k - 1

    def shape_of_r(self, r):
        """Dimensionless profile S(r): 1 inside, smoothstep edge, 0 outside."""
        r = np.asarray(r, dtype=np.float64)
        R, w = self.radius, self.edge_width
        if w == 0.0:
            return np.where(r <= R, 1.0, 0.0)
        t = np.clip((r - (R - w)) / w, 0.0, 1.0)
        return 1.0 - (3.0 * t * t - 2.0 * t**3)


def _riccati_regular(l: int, q2: float, r):
    """Regular Riccati-Bessel G and G' for G'' = l(l+1)/r^2 G - q^2 G.

    Oscillatory (j_l) for q^2 > 0, evanescent (i_l) for q^2 < 0; both
    branches are values of the same entire function of q^2, so matching
    residuals built from them change sign honestly across q^2 = 0.
    """
    r = np.asarray(r, dtype=np.float64)
    if q2 >= 0.0:
        q = np.sqrt(q2) if q2 > 0 else 1e-150
        fn = spherical_jn
    else:
        q = np.sqrt(-q2)
        fn = spherical_in
    x = q * r
    j = fn(l, x)
    jp = fn(l, x, derivative=True)
    return x * j, q * (j + x * jp)


def _interior_state(well: RadialWell, g: float, energy: float, r):
    """(G, F) of the regular solution of the constant-depth interior at r."""
    ev = energy + 1.0 - g
    if abs(ev) < 1e-12:
        raise ValueError("degenerate channel: E + 1 - g too small")
    q2 = (energy - g) ** 2 - 1.0
    G, Gp = _riccati_regular(well.l, q2, r)
    F = (Gp + (well.kappa / np.asarray(r)) * G) / ev
    return G, F


def _exterior_threshold(well: RadialWell, r):
    """Decaying-limit exterior (G, F) at E = 1: power laws."""
    l = well.l
    r = np.asarray(r, dtype=np.float64)
    G = r ** (-l)
    F = 0.5 * (well.kappa - l) * r ** (-l - 1)
    return G, F


def _exterior_bound(well: RadialWell, ktilde: float, energy: float, r):
    """Decaying exterior (G, F) at E = sqrt(1 - ktilde^2) in the gap."""
    l = well.l
    x = ktilde * np.asarray(r, dtype=np.float64)
    kl = spherical_kn(l, x)
    klp = spherical_kn(l, x, derivative=True)
    G = x * kl
    Gp = ktilde * (kl + x * klp)
    F = (Gp + (well.kappa / np.asarray(r)) * G) / (energy + 1.0)
    return G, F


def _integrate_edge(well: RadialWell, g: float, energy: float, y0, r0: float, r1: float):
    kap = well.kappa

    def rhs(r, y):
        G, F = y
        v = g * float(well.shape_of_r(r))
        return [
            -kap / r * G + (energy + 1.0 - v) * F,
            kap / r * F - (energy - 1.0 - v) * G,
        ]

    sol = solve_ivp(rhs, (r0, r1), y0, method="RK45", rtol=1e-10, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"edge integration failed: {sol.message}")
    return sol.y[0, -1], sol.y[1, -1]


def _state_at_edge(well: RadialWell, g: float, energy: float, shoot_from: float = 0.0):
    """Regular solution (G, F) at r = R for coupling g.

    shoot_from > 0 replaces the analytic interior by RK45 integration
    started from the analytic solution at that radius (validation route).
    """
    R, w = well.radius, well.edge_width
    r_const = R - w if w > 0 else R
    if shoot_from > 0.0:
        G0, F0 = _interior_state(well, g, energy, shoot_from)
        return _integrate_edge(well, g, energy, [float(G0), float(F0)], shoot_from, R)
    G0, F0 = _interior_state(well, g, energy, r_const)
    if w == 0.0:
        return float(G0), float(F0)
    return _integrate_edge(well, g, energy, [float(G0), float(F0)], r_const, R)


def threshold_residual(well: RadialWell, g: float, method: str = "matching") -> float:
    """Wronskian mismatch of interior vs decaying exterior at E = 1.

    Zero exactly at a critical coupling. For the sharp kappa = -+1 wells
    the residual is proportional to the entire transcendental forms
    documented in the module docstring.
    """
    shoot_from = 0.05 * well.radius if method == "shooting" else 0.0
    Gi, Fi = _state_at_edge(well, g, 1.0, shoot_from)
    Ge, Fe = _exterior_threshold(well, well.radius)
    scale = max(abs(Gi), abs(Fi) * well.radius, 1e-300)
    return (Fi * Ge - Gi * Fe) / scale


def critical_coupling(
    well: RadialWell, bracket: tuple[float, float], method: str = "matching"
) -> float:
    """Root of threshold_residual inside the bracket (brentq, xtol 1e-13)."""
    f = lambda g: threshold_residual(well, g, method)
    a, b = bracket
    fa, fb = f(a), f(b)
    if fa * fb > 0:
        # walk a subdivision of the bracket to find a sign change
        gs = np.linspace(a, b, 41)
        vals = [f(x) for x in gs]
        for i in range(len(gs) - 1):
            if vals[i] * vals[i + 1] <= 0:
                a, b = gs[i], gs[i + 1]
                break
        else:
            raise ValueError("no sign change of the matching residual in bracket")
    return brentq(f, a, b, xtol=1e-13, rtol=8.9e-16)


def bound_residual(well: RadialWell, g: float, ktilde: float) -> float:
    """Log-derivative mismatch at r = R for an in-gap energy E = sqrt(1-kt^2)."""
    if not 0.0 < ktilde < 1.0:
        raise ValueError("ktilde must be in (0, 1)")
    energy = float(np.sqrt(1.0 - ktilde**2))
    Gi, Fi = _state_at_edge(well, g, energy)
    Ge, Fe = _exterior_bound(well, ktilde, energy, well.radius)
    scale = max(abs(Gi) * abs(Fe) + abs(Fi) * abs(Ge), 1e-300)
    return (Fi * Ge - Gi * Fe) / scale


def bound_energy(well: RadialWell, g: float) -> dict | None:
    """Bound state nearest threshold for coupling g, or None.

    Returns {'energy': E, 'ktilde': kt} with E in (0, 1). Scans a log
    mesh in ktilde on [1e-6, 0.999] for a sign change of the matching
    residual, then refines with brentq.
    """
    kts = np.geomspace(1e-6, 0.999, 160)
    vals = np.array([bound_residual(well, g, kt) for kt in kts])
    for i in range(len(kts) - 1):
        if vals[i] == 0.0:
            kt = kts[i]
            return {"energy": float(np.sqrt(1 - kt**2)), "ktilde": float(kt)}
        if vals[i] * vals[i + 1] < 0:
            kt = brentq(lambda t: bound_residual(well, g, t), kts[i], kts[i + 1], xtol=1e-14)
            return {"energy": float(np.sqrt(1 - kt**2)), "ktilde": float(kt)}
    return None


def tail_ratio(well: RadialWell, g: float | None = None, n_mesh: int = 2000) -> float:
    """Normalization-free tail-to-peak ratio of the threshold state.

    ratio = |tail coefficient of G| / max_r sqrt(G^2 + F^2)/r, which for
    the kappa = -1 channel equals (4 pi |Phi_2|-coefficient) / sup|Phi| of
    the 3D state. g defaults to the critical coupling near the frozen
    attractive root.
    """
    if well.kappa != -1:
        raise ValueError("tail ratio is defined for the 1/r-tail channel kappa = -1")
    if g is None:
        g0 = SHARP_ROOTS[(-1, "attractive")]
        g = critical_coupling(well, (1.5 * g0, 0.5 * g0))
    R, w = well.radius, well.edge_width
    r_const = R - w if w > 0 else R
    rs = np.linspace(1e-3 * R, r_const, n_mesh)
    G, F = _interior_state(well, g, 1.0, rs)
    peak = float(np.max(np.sqrt(G**2 + F**2) / rs))
    if w > 0:
        # continue across the ramp on a fine mesh
        y = [float(G[-1]), float(F[-1])]
        sub = np.linspace(r_const, R, 64)
        for a, b in zip(sub[:-1], sub[1:]):
            y = list(_integrate_edge(well, g, 1.0, y, a, b))
            peak = max(peak, float(np.hypot(*y)) / b)
        GR = y[0]
    else:
        GR = float(G[-1])
    # exterior: G is constant = G(R), F = c/r; the peak cannot grow outside
    return abs(GR) / peak
