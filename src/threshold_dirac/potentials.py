"""Grids, spinor fields, and compactly supported 4-potentials.

The grid is a uniform cube [-L, L]^3 with an odd number n of nodes per
axis (so the origin is a node), spacing h = 2L/(n-1), endpoint inclusive.
Quadrature weights are the tensor trapezoid weights, which sum to (2L)^3
exactly; for any integrand that vanishes on the boundary planes (every
potential here does, since the support radius R <= L and all shapes decay
to zero at r = R) they coincide node-by-node with the midpoint weight h^3,
so all potential-weighted integrals are plain midpoint sums.

A 4-potential is stored as four real component fields (a0, a1, a2, a3)
sampled on the grid; the pointwise matrix is

    A(x) = a0(x) I + sum_l a_l(x) alpha_l

which is Hermitian with eigenvalues a0 +- |a_vec|, so the pointwise
operator norm is |a0| + |a_vec| exactly (no eigensolves needed).

Builtin shapes (all C^1, compact support inside r <= R):
  * gaussian-bump   g * exp(-r^2/w^2) with a smoothstep cutoff over the
                    last two cells before R
  * spherical-well  g inside r <= R - w, cubic smoothstep down to zero at
                    r = R; default edge width w = 2h
  * table           per-node component values from CSV, validated against
                    the declared grid

Shapes can optionally be sampled as cell averages (subsampled means) when
a profile feature is thinner than a cell; the default is plain node
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import csv

import numpy as np

from .algebra import alpha_stack

__all__ = [
    "Grid3",
    "SpinorField",
    "FourPotential",
    "fold_rows",
    "build_potential",
    "norms",
    "pseudo_inner",
    "check_admissible",
    "check_class_c",
    "smoothstep_profile",
]

_ALPHA = alpha_stack()
_CLASS_C_REL = 1e-8  # a singular value or moment below this, relative, is zero
_FAST_DECAY = -1.8  # decay exponents at or below this are |x|^-2 decay


@dataclass
class Grid3:
    """Uniform cubic grid, immutable after construction."""

    half_width: float
    nodes_per_axis: int
    spacing: float = field(init=False)
    axis: np.ndarray = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        L, n = float(self.half_width), int(self.nodes_per_axis)
        if n < 5 or n % 2 == 0:
            raise ValueError("nodes_per_axis must be odd and >= 5")
        if L <= 0:
            raise ValueError("half_width must be positive")
        self.half_width = L
        self.nodes_per_axis = n
        self.spacing = 2.0 * L / (n - 1)
        self.axis = np.linspace(-L, L, n)
        X, Y, Z = np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")
        self.points = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
        w1 = np.full(n, self.spacing)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        self.weights = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).reshape(-1)

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis**3

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def flat_index(self, ix: int, iy: int, iz: int) -> int:
        n = self.nodes_per_axis
        return (ix * n + iy) * n + iz

    def same_layout(self, other: "Grid3") -> bool:
        return (
            self.nodes_per_axis == other.nodes_per_axis
            and abs(self.half_width - other.half_width) < 1e-12 * self.half_width
        )


@dataclass
class SpinorField:
    """Complex 4-component function sampled on a grid; values (n_nodes, 4)."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_nodes, 4):
            raise ValueError("values must have shape (n_nodes, 4)")
        self.values = v

    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def scaled(self, c) -> "SpinorField":
        return SpinorField(self.grid, c * self.values)

    @classmethod
    def on_nodes(cls, grid: Grid3, nodes: np.ndarray, rows: np.ndarray) -> "SpinorField":
        """rows at the given nodes, zero elsewhere."""
        dense = np.zeros((grid.n_nodes, 4), dtype=np.complex128)
        dense[nodes] = rows
        return cls(grid, dense)


def smoothstep_profile(r, inner: float, outer: float):
    """1 for r <= inner, cubic smoothstep down to 0 at r = outer (C^1)."""
    r = np.asarray(r, dtype=np.float64)
    if outer <= inner:
        return (r <= inner).astype(np.float64)
    t = np.clip((r - inner) / (outer - inner), 0.0, 1.0)
    return 1.0 - (3.0 * t * t - 2.0 * t * t * t)


def _shape_profile(kind: str, g: float, R: float, w: float):
    if kind == "spherical-well":
        return lambda r: g * smoothstep_profile(r, R - w, R)
    if kind == "gaussian-bump":
        # C^1 cutoff over the last stretch before R so the support is compact
        cut_in = max(R - w, 0.75 * R)
        return lambda r: g * np.exp(-(r / max(w, 1e-30)) ** 2) * smoothstep_profile(
            r, cut_in, R
        )
    raise ValueError(f"unknown builtin shape {kind!r}")


def fold_rows(pot_rows: np.ndarray, f_rows: np.ndarray) -> np.ndarray:
    """Pointwise A f = a0 f + sum_l a_l alpha_l f, row by row."""
    af = pot_rows[:, 0, None] * f_rows
    if np.any(pot_rows[:, 1:]):
        af = af + np.einsum("sl,lij,sj->si", pot_rows[:, 1:], _ALPHA, f_rows)
    return af


@dataclass
class FourPotential:
    """Sampled 4-potential; component values (n_nodes, 4) real."""

    grid: Grid3
    shape: str
    coupling: float
    radius: float
    values: np.ndarray
    edge_width: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_nodes, 4):
            raise ValueError("component values must have shape (n_nodes, 4)")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential samples must be finite")
        if self.radius > self.grid.half_width + 1e-12:
            raise ValueError("support radius exceeds the grid half width")
        outside = self.grid.radii() > self.radius + 1e-12
        if np.any(np.abs(v[outside]) > 0):
            raise ValueError("potential does not vanish outside its support radius")
        self.values = v

    def support_indices(self) -> np.ndarray:
        return np.nonzero(np.any(self.values != 0.0, axis=1))[0]

    def matrix_norms(self) -> np.ndarray:
        """Pointwise operator norm |a0| + |a_vec| per node (exact)."""
        a0 = np.abs(self.values[:, 0])
        av = np.linalg.norm(self.values[:, 1:], axis=1)
        return a0 + av

    def apply(self, values: np.ndarray) -> np.ndarray:
        """(A f) per node for spinor samples f of shape (n_nodes, 4)."""
        return fold_rows(self.values, values)

    def rescaled(self, c: float) -> "FourPotential":
        return FourPotential(
            self.grid, self.shape, c * self.coupling, self.radius, c * self.values,
            self.edge_width,
        )


def build_potential(
    grid: Grid3,
    shape: str,
    g: float,
    R: float,
    w: float | None = None,
    components=(1.0, 0.0, 0.0, 0.0),
    cell_average: bool = False,
    subsamples: int = 5,
    table_path: str | None = None,
) -> FourPotential:
    """Construct a sampled potential from a builtin shape or a table file.

    components scales the common radial profile into the (a0, a1, a2, a3)
    slots; the default is pure electric. The profile is sampled at the
    lattice radii (_lattice_radii); with cell_average=True it is averaged
    over m^3 subcells (m = subsamples), summed in ascending order, and
    nodes beyond R stay zero (for profile features thinner than a cell).
    """
    if shape == "table":
        if table_path is None:
            raise ValueError("table shape needs table_path")
        vals = _read_table(grid, table_path)
        return FourPotential(grid, shape, g, R, g * vals)
    if R > grid.half_width:
        raise ValueError("support radius exceeds the grid half width")
    if w is None:
        w = 2.0 * grid.spacing
    profile = _shape_profile(shape, 1.0, R, w)
    comp = np.asarray(components, dtype=np.float64)
    if comp.shape != (4,):
        raise ValueError("components must be a 4-vector")
    radii = _lattice_radii(grid, 1)[:, 0]
    if cell_average:
        # keep the declared support exact: nodes beyond R stay zero
        inside = radii <= R
        sub = profile(_lattice_radii(grid, int(subsamples), inside))
        sub.sort(axis=1)  # one summation order for every node
        prof = np.zeros(grid.n_nodes)
        prof[inside] = sub.sum(axis=1) / sub.shape[1]
    else:
        prof = profile(radii)
    vals = g * prof[:, None] * comp[None, :]
    return FourPotential(grid, shape, g, R, vals, edge_width=w)


def _lattice_radii(grid: Grid3, m: int, nodes=slice(None)) -> np.ndarray:
    """(nodes, m^3) radii (h / 2m) |q| of the subcell centres of each
    node's cell, q = 2m i + 2a + 1 - m (i the node's lattice offset, 0 <=
    a < m): functions of integers, so symmetric nodes get the same radii
    bit for bit.  m = 1 gives the node radii h |i|."""
    n = grid.nodes_per_axis
    offsets = np.indices((n, n, n)).reshape(3, -1)[:, nodes] - (n - 1) // 2
    q2 = (2 * m * offsets[..., None] + 2 * np.arange(m) + 1 - m) ** 2  # (3, nodes, m)
    total = q2[0][:, :, None, None] + q2[1][:, None, :, None] + q2[2][:, None, None, :]
    return grid.spacing / (2 * m) * np.sqrt(total.reshape(len(total), -1))


def _read_table(grid: Grid3, path: str) -> np.ndarray:
    vals = np.zeros((grid.n_nodes, 4))
    seen = np.zeros(grid.n_nodes, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"ix", "iy", "iz", "x", "y", "z", "a0", "a1", "a2", "a3"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"table file must have columns {sorted(need)}")
        for row in reader:
            i = grid.flat_index(int(row["ix"]), int(row["iy"]), int(row["iz"]))
            xyz = np.array([float(row["x"]), float(row["y"]), float(row["z"])])
            if np.max(np.abs(xyz - grid.points[i])) > 1e-9 * max(1.0, grid.half_width):
                raise ValueError("table node coordinates do not match the grid")
            vals[i] = [float(row["a0"]), float(row["a1"]), float(row["a2"]), float(row["a3"])]
            seen[i] = True
    if not seen.all():
        raise ValueError("table file does not cover every grid node")
    return vals


def norms(A: FourPotential) -> dict:
    """Quadrature L1 / sup norms of A and of (1+|x|)^2 A."""
    m = A.matrix_norms()
    if not np.any(m):
        return {"l1": 0.0, "linf": 0.0, "weighted_l1": 0.0, "weighted_linf": 0.0}
    wgt = (1.0 + A.grid.radii()) ** 2
    return {
        "l1": float(np.sum(A.grid.weights * m)),
        "linf": float(np.max(m)),
        "weighted_l1": float(np.sum(A.grid.weights * wgt * m)),
        "weighted_linf": float(np.max(wgt * m)),
    }


def pseudo_inner(f: SpinorField, A: FourPotential, g: SpinorField) -> complex:
    """Quadrature value of int f^dagger(x) A(x) g(x) d^3x."""
    if not (f.grid.same_layout(A.grid) and g.grid.same_layout(A.grid)):
        raise ValueError("fields and potential must share a grid")
    ag = A.apply(g.values)
    return complex(np.sum(A.grid.weights * np.einsum("ni,ni->n", f.values.conj(), ag)))


def _sample_span(basis: list[SpinorField]) -> list[SpinorField]:
    out = []
    for phi in basis:
        out.append(phi.scaled(1.0 / phi.sup_norm()))
    for p in range(len(basis)):
        for q in range(p + 1, len(basis)):
            for sgn in (1.0, -1.0):
                v = 0.5 * (basis[p].values + sgn * basis[q].values)
                f = SpinorField(basis[p].grid, v)
                s = f.sup_norm()
                if s > 0:
                    out.append(f.scaled(1.0 / s))
    return out


def check_admissible(B: FourPotential, K: float, basis: list[SpinorField]) -> dict:
    """Size-vs-pairing admissibility of a perturbation B on the threshold span.

    Evaluates  sup|Phi|^2 (|B|_1 + |B|_inf)^2 / |<Phi, B, Phi>|  over the
    normalized basis plus pairwise midpoint combinations. Admissible iff
    every sampled ratio is <= K.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    nb = norms(B)
    size = (nb["l1"] + nb["linf"]) ** 2
    ratios = []
    for phi in _sample_span(basis):
        pairing = abs(pseudo_inner(phi, B, phi))
        if pairing == 0.0:
            ratios.append(float("inf"))
        else:
            ratios.append(size / pairing)  # sup norm is 1 by construction
    worst = max(ratios)
    return {
        "admissible": bool(worst <= K),
        "worst_ratio": worst,
        "ratios": ratios,
        "outside_every_class": not np.isfinite(worst),
    }


def check_class_c(A: FourPotential, crit, decay_report: dict | None = None) -> dict:
    """Numeric verdicts for the regularity conditions of a critical pair.

    (a) is structural (builtin shapes are C^1 by construction; table input
    is only 'assumed'); (b) finiteness of the weighted norms; (c) the
    threshold basis pairs nondegenerately with itself under A (smallest
    singular value of the pairing Gram matrix); (d) when a decay report
    of critical.decay_decomposition is supplied, Phi_1 decays at least
    like |x|^-1.8 and Phi does exactly when lambda-bar = 0; (e) at least
    one of int A Phi or (1 - i beta) int A Phi x is nonzero.
    """
    if crit is None or not getattr(crit, "basis", None):
        raise ValueError("criticality structure with a nonempty basis is required")
    rep: dict = {}
    rep["a_holder"] = "by construction" if A.shape != "table" else "assumed"
    nb = norms(A)
    rep["b_weighted_finite"] = bool(
        np.isfinite(nb["weighted_l1"]) and np.isfinite(nb["weighted_linf"])
    )
    rep["b_norms"] = nb
    sv = np.linalg.svd(np.asarray(crit.gram_n), compute_uv=False)
    rep["c_gram_smin_rel"] = float(sv[-1] / sv[0])
    rep["c_nondegenerate"] = bool(sv[-1] > _CLASS_C_REL * sv[0])
    if decay_report is not None:
        fast = decay_report["exponent_phi"] <= _FAST_DECAY
        rep["d_decay_consistent"] = bool(
            decay_report["exponent_phi1"] <= _FAST_DECAY and fast == (crit.lambda_bar == 0)
        )
    else:
        rep["d_decay_consistent"] = "not evaluated"
    scale = nb["l1"] * max(phi.sup_norm() for phi in crit.basis)
    beta_i = np.diag([1 - 1j, 1 - 1j, 1 + 1j, 1 + 1j])
    best = 0.0
    for phi in crit.basis:
        f = A.apply(phi.values)
        m0 = np.linalg.norm(np.sum(A.grid.weights[:, None] * f, axis=0))
        m1 = np.einsum("n,nl,ni->il", A.grid.weights, A.grid.points, f)
        m1 = np.linalg.norm(beta_i @ m1)
        best = max(best, m0, m1)
    rep["e_moment_norm"] = float(best)
    rep["e_nonzero_moment"] = bool(best > _CLASS_C_REL * scale)
    return rep
