"""Discrete Lippmann-Schwinger solver for generalized eigenfunctions.

PROBLEM
    (1 - T^{A+B}_{E_k}) phi = chi(j, k, .)   with
    (T^A_E f)(x) = + int G_{E_k}(x - y) A(y) f(y) d^3y.

    The plus sign is the convention under which phi = chi + T phi is the
    resolvent (Lippmann-Schwinger) identity for the outgoing kernel of
    this package; it is asserted indirectly by the defect-identity test
    (applying E - D0 to T f recovers A f) and by the agreement of the
    critical couplings with the independent radial oracle.

    Since A vanishes off its support, the equation closes on the support
    nodes: the dense system has 4 N_s unknowns (N_s = support nodes).
    Solutions are then extended to arbitrary points via phi = chi + T phi,
    which is how sup-norms over the larger evaluation box are measured.

QUADRATURE
    Midpoint blocks h^3 G(x_i - y_j) A(y_j) off the diagonal; the self
    cell integrates the kernel analytically over the equal-volume sphere
    (the odd alpha terms drop by parity); cells within Chebyshev distance
    2h are integrated by midpoint on a 4x4x4 subdivision. The subdivision
    grid is anchored to the source cell, so T f is a smooth function of
    the target point; classification (self / near / far) only depends on
    the target-source displacement.

    A target on the source lattice has its blocks depend only on the
    integer offsets i_t - i_s. Per kernel call, the rule is evaluated
    once at every offset of the box that the call's on-lattice targets
    and the sources span (the 5^3 near cells are its centre block), and
    each chunk of on-lattice targets gathers table[i_t - i_s]: the 33^3
    classify grid at n = 9 has 9.2M pairs but 41^3 offsets. So on the
    lattice T-hat is exactly translation invariant, and where h is a
    power of two the offset times h is x_t - y_s exactly. Off-lattice
    targets use x_t - y_s, one pair at a time. The default evaluation
    grid (default_eval_grid) lies on the lattice.

    Every quadrature block lies in the span of the Clifford basis
    (I, beta, alpha_1, alpha_2, alpha_3) (see the kernel module): the
    midpoint samples, the sphere rule -(E I + beta) J_1 and its
    derivative orders, and every average over subcells or table entries.
    So quadrature is computed as (nt, ns, 5) complex coefficients, in
    chunks of about _PAIR_BUDGET target-source pairs. apply_kernel_rows
    applies a chunk to any number of fields as one complex GEMM,
    C.reshape(t, 5 ns) @ Y with Y[s, c] = B_c (A f)_s; only dense
    assembly expands coefficients into 4x4 blocks.

SOLVES
    One path: assemble_T (assemble_pair for a coupling scan), then
    system_matrix (1 - T_A - mu T_B), then factor: dense LU with partial
    pivoting, the package's only LU, and a reciprocal condition estimate.
    Systems whose estimate falls below 1e-10 are flagged "at-resonance"
    and solved in the least-squares sense instead (sweeps cross
    resonances on purpose). Factorization.solve is the one solve of a
    right-hand side: it returns the solution with its residual
    |M x - rhs| (node sup norm), and an unflagged solve whose residual
    exceeds 1e-8 sup|rhs| raises RuntimeError, so a wrong solution never
    reads as physics. sigma_min and null spaces come from one
    subspace_iteration on an LU from factor; at a critical coupling or a
    crossing its estimate is at the round-off floor from the first step,
    and it stops after two steps (four solves). A failed LU (LAPACK raised,
    or the LU is not finite) has lu None and rcond NaN; then solve gives
    NaN for the solution and the residual, sigma_min NaN,
    subspace_iteration None, and shift-invert raises. negative_count
    reads the inertia of a Hermitian matrix off one LDL^H; it solves
    nothing.

    Symmetry sectors: symmetry_sectors finds the largest group among
    C4h (the 90-degree rotation about z, (i, j, k) -> (n-1-j, i, k) with
    U = exp(-i pi/4 Sigma_3) on spinors, and inversion, flat node
    i -> N-1-i with beta), inversion and the trivial group that every
    potential admits, checked bit for bit through the integer node
    maps.  Every group element then commutes with T-hat, which is block
    diagonal over the group's one-dimensional characters: 8 sectors for
    C4h (U^4 = -1, so the rotation eigenvalues are e^{i pi (2m+1)/4}),
    2 for inversion, the whole support for the trivial group.  A Sector
    maps vectors to and from the coordinates of an orthonormal basis,
    one 4x4 SVD of the stabiliser projector per orbit type, so the
    centre node and the z axis need no special case.  assemble_sectors
    builds a pair's blocks on several sectors from one kernel-row pass
    over the orbit representatives (40 of the 251 nodes of the n = 9
    well), folding the columns at their images with the characters.
    The bound-state branch runs on the sectors that hold the threshold
    basis: at n = 9 two LUs of 129 unknowns per kappa.

    Matrix-sized products go through kernel.blas_matmul, scipy's BLAS,
    so numpy's separate OpenBLAS thread pool never spins beside an LU.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .algebra import alpha_stack, beta, identity4
from .kernel import CLIFFORD_BASIS, blas_matmul, expand, self_cell_coefficients
from .kernel import coefficients as kernel_coefficients
from .potentials import FourPotential, Grid3, SpinorField, fold_rows

__all__ = [
    "FreeSolution",
    "free_spinor",
    "free_solution",
    "assemble_T",
    "assemble_pair",
    "Sector",
    "symmetry_sectors",
    "assemble_sectors",
    "assemble_kernel_blocks",
    "contract_potential",
    "apply_kernel_rows",
    "Factorization",
    "factor",
    "system_matrix",
    "solve_generalized",
    "symmetry_probe",
    "combine_potentials",
    "subspace_iteration",
    "cosine_block",
    "smallest_singular_value",
    "negative_count",
    "default_eval_grid",
]

_ALPHA = alpha_stack()
_I4 = identity4()

_SUBDIV = 4
_NEAR_CELLS = 2  # Chebyshev distance, in cells
_LATTICE_TOL = 1e-9  # in cells: a point this close to a lattice node is on it
_RESONANCE_RCOND = 1e-10
_RESIDUAL_REL = 1e-8
_PAIR_BUDGET = 100_000  # target-source pairs per kernel chunk
_ITER_STEPS = 30  # cap on subspace_iteration steps
_ITER_REL = 1e-4  # relative change of the sigma_min estimate that stops it


# ---------------------------------------------------------------------------
# free solutions


def free_spinor(j: int, kvec) -> np.ndarray:
    """L^inf-normalized positive-energy spinor u_j(k), deterministic phase.

    Closed-form eigenvector of free_dirac_symbol(k) with eigenvalue +E_k:
    upper 2-spinor e_j, lower (sigma.k) e_j / (E+1), overall factor
    sqrt((E+1)/2E). The first nonzero component is real positive by
    construction and the Euclidean norm is exactly 1.
    """
    if j not in (1, 2):
        raise ValueError("spin index j must be 1 or 2")
    kvec = np.asarray(kvec, dtype=np.float64)
    if kvec.shape != (3,):
        raise ValueError("kvec must be a real 3-vector")
    E = float(np.sqrt(kvec @ kvec + 1.0))
    c = np.sqrt((E + 1.0) / (2.0 * E))
    chi2 = np.zeros(2, dtype=np.complex128)
    chi2[j - 1] = 1.0
    sk = (
        kvec[0] * np.array([[1, 0], [0, -1]])
        + kvec[1] * np.array([[0, 1], [1, 0]])
        + kvec[2] * np.array([[0, -1j], [1j, 0]])
    )
    u = np.empty(4, dtype=np.complex128)
    u[:2] = c * chi2
    u[2:] = c * (sk @ chi2) / (E + 1.0)
    return u


@dataclass(frozen=True)
class FreeSolution:
    """Plane-wave solution chi(j, k, x) = u_j(k) e^{i k.x}."""

    j: int
    kvec: tuple
    spinor: np.ndarray

    def values_at(self, points: np.ndarray) -> np.ndarray:
        phase = np.exp(1j * (np.asarray(points) @ np.asarray(self.kvec)))
        return phase[:, None] * self.spinor[None, :]


def free_solution(j: int, kvec) -> FreeSolution:
    """Plane wave chi(j, k, .) = u_j(k) e^{i k.x}; values_at evaluates it
    at arbitrary points."""
    return FreeSolution(j, tuple(np.asarray(kvec, dtype=float)), free_spinor(j, kvec))


# ---------------------------------------------------------------------------
# kernel block assembly


def _chunk_rows(n_sources: int) -> int:
    """Targets per chunk, so that one chunk holds about _PAIR_BUDGET pairs."""
    return max(1, _PAIR_BUDGET // max(n_sources, 1))


def _cube(steps: np.ndarray) -> np.ndarray:
    """Every point with all three coordinates in steps, as (n^3, 3)."""
    return np.stack(np.meshgrid(steps, steps, steps, indexing="ij"), axis=-1).reshape(-1, 3)


def _subdivided_coefficients(k: complex, disp: np.ndarray, h: float, order: int) -> np.ndarray:
    """Cell integrals of d^order G at near displacements, 4x4x4 midpoint."""
    sub = _cube((np.arange(_SUBDIV) + 0.5) / _SUBDIV - 0.5) * h
    out = np.empty((len(disp), 5), dtype=np.complex128)
    step = _chunk_rows(len(sub))
    for s in range(0, len(disp), step):
        d = disp[s : s + step, None, :] - sub
        out[s : s + step] = kernel_coefficients(k, d, order).mean(axis=1) * h**3
    return out


def _quadrature_coefficients(k, disp: np.ndarray, h: float, order: int) -> np.ndarray:
    """Clifford coefficients (..., 5) of the quadrature block at each
    target-source displacement (..., 3): within Chebyshev distance 2h the
    sphere rule at zero and 4x4x4 subdivided midpoint elsewhere, one
    midpoint sample beyond.  disp, a float array, is overwritten."""
    reach = (_NEAR_CELLS + _LATTICE_TOL) * h
    near = np.abs(disp[..., 0]) <= reach
    for l in (1, 2):
        near &= np.abs(disp[..., l]) <= reach
    dnear = disp[near]
    disp[near] = h  # a nonzero stand-in; these entries are replaced below
    out = kernel_coefficients(k, disp, order)
    out *= h**3
    if len(dnear):
        vals = np.empty((len(dnear), 5), dtype=np.complex128)
        centre = np.max(np.abs(dnear), axis=1) <= _LATTICE_TOL * h
        vals[centre] = self_cell_coefficients(k, h, order)
        vals[~centre] = _subdivided_coefficients(k, dnear[~centre], h, order)
        out[near] = vals
    return out


def _lattice_rule(k, lt: np.ndarray, ls: np.ndarray, h: float, order: int):
    """rows -> coefficients (t, ns, 5) of the targets with integer lattice
    indices lt[rows] against the sources with indices ls.

    They depend on the offsets lt - ls only, so they are gathered from
    one table of the box of offsets that lt and ls span, built in chunks
    of _PAIR_BUDGET offsets.
    """
    lo = lt.min(axis=0) - ls.max(axis=0)
    dims = lt.max(axis=0) - ls.min(axis=0) - lo + 1
    offsets = lo + np.indices(dims).reshape(3, -1).T  # row-major over the box
    table = np.empty((len(offsets), 5), dtype=np.complex128)
    for s in range(0, len(offsets), _PAIR_BUDGET):
        chunk = offsets[s : s + _PAIR_BUDGET] * h
        table[s : s + _PAIR_BUDGET] = _quadrature_coefficients(k, chunk, h, order)
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    kt, ks = (lt - lo) @ strides, ls @ strides
    return lambda rows: table[kt[rows, None] - ks]


def _coefficient_chunks(k, targets, sources, h, order):
    """(target rows, coefficients) for each target chunk of the quadrature.

    Sources are nodes of a lattice of spacing h.  A target within
    _LATTICE_TOL h of one of its nodes is on the lattice, and its
    coefficients are gathered from the offset table of _lattice_rule;
    the other targets use their displacements x_t - y_s, pair by pair.
    Off-lattice chunks come first, so the offset table is not held while
    they are computed; each chunk holds at most _chunk_rows(ns) targets
    in order.
    """
    k = complex(k)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    sources = np.atleast_2d(np.asarray(sources, dtype=np.float64))
    step = _chunk_rows(len(sources))
    on = np.zeros(len(targets), dtype=bool)
    if len(sources):
        src = (sources - sources[0]) / h
        tgt = (targets - sources[0]) / h
        ls, lt = np.rint(src).astype(np.int64), np.rint(tgt).astype(np.int64)
        if np.all(np.abs(src - ls) <= _LATTICE_TOL):
            on = np.all(np.abs(tgt - lt) <= _LATTICE_TOL, axis=1)
    rows_off, rows_on = np.flatnonzero(~on), np.flatnonzero(on)
    for s in range(0, len(rows_off), step):
        rows = rows_off[s : s + step]
        yield rows, _quadrature_coefficients(k, targets[rows, None] - sources, h, order)
    if len(rows_on):
        lattice = _lattice_rule(k, lt[rows_on], ls, h, order)
        for s in range(0, len(rows_on), step):
            yield rows_on[s : s + step], lattice(slice(s, s + step))


def assemble_kernel_blocks(
    k,
    targets: np.ndarray,
    sources: np.ndarray,
    h: float,
    order: int = 0,
) -> np.ndarray:
    """Quadrature blocks int_cell(y_j) d^order G(x_i - y) dy as (nt, ns, 4, 4).

    Targets on the source lattice take their blocks from integer
    offsets, the others from their displacements, so mixed target sets
    are fine.  Only dense assembly needs the 4x4 blocks; apply_kernel_rows
    works on the coefficients.
    """
    chunks = list(_coefficient_chunks(k, targets, sources, h, order))
    if len(chunks) == 1:  # one chunk holds every target, in order
        return expand(chunks[0][1])
    nt, ns = len(np.atleast_2d(targets)), len(np.atleast_2d(sources))
    coeffs = np.empty((nt, ns, 5), dtype=np.complex128)
    for rows, c in chunks:
        coeffs[rows] = c
    return expand(coeffs)


def contract_potential(
    blocks: np.ndarray, pot_values: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Fold per-node potential matrices into kernel blocks; flatten to 2D.

    blocks: (nt, ns, 4, 4); pot_values: (ns, 4) real components.
    Returns the (4 nt, 4 ns) matrix of f |-> sum_j block_ij A_j f_j,
    written into out when given (a C-contiguous complex array of that
    shape, such as a row slice of the assembled matrix).
    """
    nt, ns = blocks.shape[:2]
    if out is None:
        out = np.empty((4 * nt, 4 * ns), dtype=np.complex128)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    # (target, row, source, column) order is the row-major 2D layout
    view = out.reshape(nt, 4, ns, 4)
    if np.any(pot_values[:, 1:]):
        amat = (
            pot_values[:, 0, None, None] * _I4
            + np.einsum("sl,lij->sij", pot_values[:, 1:], _ALPHA)
        )
        view[...] = np.matmul(blocks, amat[None, :, :, :]).transpose(0, 2, 1, 3)
    else:
        np.multiply(blocks.transpose(0, 2, 1, 3), pot_values[None, None, :, 0, None], out=view)
    return out


def _assembled(k, grid: Grid3, nodes: np.ndarray, *pot_values: np.ndarray, rows=None) -> list:
    """Dense T-hat of each (n_nodes, 4) potential array on one node set,
    or its rows of the nodes at positions ``rows`` only.

    Each chunk of targets gets its 4x4 blocks from one
    assemble_kernel_blocks call and is contracted once per potential
    straight into the matrix rows.  The chunk budget counts each
    target-source pair once per potential, so a pair assembly, which
    holds one matrix more, holds a block array half as tall; no
    matrix-sized temporary is made.
    """
    pts = grid.points[nodes]
    vals = [v[nodes] for v in pot_values]
    n = len(pts)
    rows = np.arange(n) if rows is None else rows
    mats = [np.empty((4 * len(rows), 4 * n), dtype=np.complex128) for _ in vals]
    step = _chunk_rows(n * len(vals))
    for s in range(0, len(rows), step):
        blocks = assemble_kernel_blocks(k, pts[rows[s : s + step]], pts, grid.spacing)
        for mat, v in zip(mats, vals):
            contract_potential(blocks, v, out=mat[4 * s : 4 * (s + step)])
    return mats


def assemble_T(A: FourPotential, k) -> np.ndarray:
    """Dense T-hat of T^A_{E_k} on the support of A, (4 N_s, 4 N_s).

    Row and column blocks follow A.support_indices().
    """
    (matrix,) = _assembled(k, A.grid, A.support_indices(), A.values)
    return matrix


def assemble_pair(A: FourPotential, B: FourPotential, k) -> tuple:
    """(T-hat of A, T-hat of B) on the support of A + B, one kernel pass.

    The contraction is linear in the potential, so T-hat of A + mu B is
    TA + mu TB for every mu: a coupling scan recombines this pair instead
    of assembling again.
    """
    union = combine_potentials(A, B).support_indices()
    return tuple(_assembled(k, A.grid, union, A.values, B.values))


# ---------------------------------------------------------------------------
# symmetry sectors

_BETA = beta()
# the rotation by +90 degrees about z on spinors, exp(-i pi/4 Sigma_3) with
# Sigma_3 = -i alpha_1 alpha_2, in closed form: -i Sigma_3 = -alpha_1 alpha_2
_ROTATION = np.cos(np.pi / 4) * _I4 - np.sin(np.pi / 4) * (_ALPHA[0] @ _ALPHA[1])


def _columns(f: np.ndarray) -> np.ndarray:
    """A vector or block as a block: (n,) -> (n, 1)."""
    return f.reshape(len(f), -1)


@dataclass(frozen=True)
class Sector:
    """One symmetry sector: the vectors f with O_g f = chi(g) f for every
    element g of a group of lattice symmetries, (O_g f)_{g(s)} = U_g f_s.

    nodes is the sorted support (grid node indices); images[o, g] is the
    support position of g(r) for the representative r of orbit o, and
    images[:, 0] (the identity) are the representatives, shared by the
    group's sectors.  A sector vector is fixed on each orbit by its
    representative's components, f_{g(r)} = conj(chi(g)) U_g f_r, and
    these lie in the range of the representative's stabiliser projector.
    basis[o] holds an orthonormal basis of that range, times sqrt(orbit
    size), in its first columns (zero columns pad it to 4), and index
    picks the used columns out of the 4 n_o; the sector coordinates are
    those of an orthonormal basis V of the sector, and W =
    blockdiag(basis)[:, index] is V's rows on the representatives times
    the orbit sizes.  spread[o] stacks conj(chi(g)) U_g basis[o] / G
    over the G elements: V's rows at the images of r, a node reached
    from several elements taking their sum.  character is (chi(rotation),
    chi(inversion)), 1 for an element the group lacks.
    """

    nodes: np.ndarray
    images: np.ndarray
    character: tuple
    basis: np.ndarray
    spread: np.ndarray
    index: np.ndarray

    @property
    def order(self) -> int:
        return self.images.shape[1]

    @property
    def targets(self) -> np.ndarray:
        """The nodes whose rows the sector uses: the representatives."""
        return self.nodes[self.images[:, 0]]

    def _coordinates(self, at_reps: np.ndarray) -> np.ndarray:
        """W^H of a block (4 n_o, m) on the representatives."""
        x = self.basis.conj().transpose(0, 2, 1) @ at_reps.reshape(len(self.basis), 4, -1)
        return x.reshape(-1, x.shape[-1])[self.index]

    def restrict(self, f: np.ndarray) -> np.ndarray:
        """Sector coordinates of a sector vector (or block), given on the
        support or on the targets only."""
        cols = _columns(f)
        by_node = cols.reshape(-1, 4, cols.shape[1])
        if len(by_node) != len(self.basis):
            by_node = by_node[self.images[:, 0]]
        return self._coordinates(by_node).reshape((-1,) + f.shape[1:])

    def extend(self, x: np.ndarray) -> np.ndarray:
        """The sector vector (or block) on the whole support, V x."""
        y = np.zeros((4 * len(self.basis), _columns(x).shape[1]), dtype=np.complex128)
        y[self.index] = _columns(x)
        parts = (self.spread @ y.reshape(len(self.basis), 4, -1)).reshape(
            len(self.basis), self.order, 4, -1
        )
        full = np.zeros((len(self.nodes),) + parts.shape[2:], dtype=np.complex128)
        for g in range(self.order):  # one element maps distinct representatives apart
            full[self.images[:, g]] += parts[:, g]
        return full.reshape((-1,) + x.shape[1:])

    def project(self, f: np.ndarray) -> np.ndarray:
        """Sector coordinates of the sector part of f, V^H f."""
        cols = _columns(f)
        at_images = cols.reshape(len(self.nodes), 4, -1)[self.images]  # (n_o, G, 4, m)
        stacked = at_images.reshape(len(self.basis), -1, cols.shape[1])
        x = self.spread.conj().transpose(0, 2, 1) @ stacked
        return x.reshape(-1, x.shape[-1])[self.index].reshape((-1,) + f.shape[1:])

    def fold(self, tv: np.ndarray) -> np.ndarray:
        """The sector block V^H T V = W^H (T V) of an operator T that
        commutes with the group, from the rows (T V)[r] on the
        representatives, (rows, n_o, 4) with the padded columns."""
        return self._coordinates(tv.reshape(len(tv), -1)[:, self.index])


def _inversion_even(values: np.ndarray, inversion: np.ndarray) -> bool:
    """a0 at the mirror node equals a0, each a_l is its negative, bit for bit."""
    mirrored = values[inversion]
    return np.array_equal(mirrored[:, 0], values[:, 0]) and np.array_equal(
        mirrored[:, 1:], -values[:, 1:]
    )


def _rotation_even(values: np.ndarray, rotation: np.ndarray) -> bool:
    """a1 and a2 vanish, a0 and a3 are equal at the rotated node, bit for bit."""
    return not np.any(values[:, 1:3]) and np.array_equal(
        values[rotation][:, ::3], values[:, ::3]
    )


def symmetry_sectors(A: FourPotential, B: FourPotential | None = None) -> tuple:
    """The symmetry sectors of the support of A + B under the largest
    group among C4h, inversion and the trivial one that both potentials
    admit bit for bit on the lattice: 8 sectors, 2, or the whole support.

    The 90-degree rotation about z maps node (i, j, k) to (n-1-j, i, k)
    with U = _ROTATION, inversion maps flat node i to N-1-i with beta;
    the kernel is covariant under both, so every O_g commutes with
    T-hat and the operators are block diagonal over the sectors.  U^4 =
    -1, so the C4z characters are e^{i pi (2m+1)/4}; with parity +-1
    that gives the 8 one-dimensional characters of C4h.
    """
    pots = [P for P in (A, B) if P is not None]
    grid = A.grid
    n = grid.nodes_per_axis
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    rotation = ((n - 1 - j) * n + i) * n + k
    inversion = np.arange(grid.n_nodes)[::-1]
    parity = all(_inversion_even(P.values, inversion) for P in pots)
    turns = 4 if parity and all(_rotation_even(P.values, rotation) for P in pots) else 1
    flips = 2 if parity else 1

    nodes = combine_potentials(A, B).support_indices()
    maps, spins, powers = [], [], []
    for a in range(turns):
        for b in range(flips):
            image = np.arange(grid.n_nodes)
            for _ in range(a):
                image = rotation[image]
            maps.append(inversion[image] if b else image)
            spins.append(np.linalg.matrix_power(_ROTATION, a) @ np.linalg.matrix_power(_BETA, b))
            powers.append((a, b))
    moved = np.searchsorted(nodes, np.stack(maps)[:, nodes])  # (G, S) positions of g(s)
    reps = np.flatnonzero(moved.min(axis=0) == np.arange(len(nodes)))
    images = moved[:, reps].T  # (n_o, G)
    fixed = images == reps[:, None]  # g in the representative's stabiliser
    size = len(maps) / fixed.sum(axis=1)  # orbit sizes
    kinds, kind_of = np.unique(fixed, axis=0, return_inverse=True)
    spins = np.stack(spins)

    sectors = []
    for m in range(turns):
        lam = np.exp(1j * np.pi * (2 * m + 1) / 4) if turns > 1 else 1.0
        for p in (1, -1)[:flips]:
            chars = np.array([lam**a * p**b for a, b in powers], dtype=np.complex128)
            bases = []
            for stab in kinds:  # one SVD of the stabiliser projector per orbit type
                if stab.sum() == 1:  # only the identity fixes r: the projector is 1
                    bases.append(_I4)
                    continue
                proj = np.tensordot(chars[stab].conj(), spins[stab], axes=1) / stab.sum()
                u, s, _ = np.linalg.svd(proj)
                bases.append(np.where(s > 0.5, u, 0.0))
            basis = np.stack(bases)[kind_of.reshape(-1)] * np.sqrt(size)[:, None, None]
            spread = np.einsum("g,gij,ojk->ogik", chars.conj() / len(maps), spins, basis)
            index = np.flatnonzero(np.any(basis != 0.0, axis=1))
            spread = spread.reshape(len(reps), -1, 4)
            sectors.append(Sector(nodes, images, (complex(lam), p), basis, spread, index))
    return tuple(sectors)


def assemble_sectors(sectors: tuple, A: FourPotential, B: FourPotential, k) -> list:
    """(T-hat of A, T-hat of B) on each of some sectors of one
    symmetry_sectors(A, B) call, from one kernel-row pass over the orbit
    representatives (about 1/8 of the support for C4h, all of it for
    the trivial group).

    The rows of T V for every sector come from one product per matrix:
    the columns at the images of each representative, gathered once,
    against the sectors' spreads side by side; each sector then folds
    its own columns.
    """
    images = sectors[0].images
    pair = _assembled(k, A.grid, sectors[0].nodes, A.values, B.values, rows=images[:, 0])
    if sectors[0].order == 1:  # the trivial group: V = 1, the blocks are the matrices
        return [tuple(pair)]
    spreads = np.concatenate([sector.spread for sector in sectors], axis=2)
    folded = []
    for rows in pair:
        cols = np.take(rows.reshape(len(rows), -1, 4), images, axis=1)  # (m, n_o, G, 4)
        cols = cols.reshape(len(rows), len(images), -1).transpose(1, 0, 2) @ spreads
        tv = cols.transpose(1, 0, 2).reshape(len(rows), len(images), len(sectors), 4)
        folded.append([sector.fold(tv[:, :, i]) for i, sector in enumerate(sectors)])
    return list(zip(*folded))


def apply_kernel_rows(
    k,
    targets: np.ndarray,
    A: FourPotential,
    f_support: np.ndarray,
    h: float,
    order: int = 0,
) -> np.ndarray:
    """(T^A f) at arbitrary target points without storing the full matrix.

    f_support: (n_support, 4) samples of f on the support nodes of A, or
    a stack (m, n_support, 4) of m such fields; the result is (nt, 4),
    or (nt, m, 4) for a stack.  Each target chunk's (t, ns, 5) Clifford
    coefficients are computed once and applied to every field as one
    complex GEMM against Y[s, c] = B_c (A f)_s, so memory stays bounded
    regardless of the number of targets.
    """
    sup = A.support_indices()
    spts = A.grid.points[sup]
    f = np.asarray(f_support)
    stack = f if f.ndim == 3 else f[None]
    af = np.stack([fold_rows(A.values[sup], g) for g in stack])
    y = np.einsum("cij,msj->scmi", CLIFFORD_BASIS, af).reshape(5 * len(spts), 4 * len(stack))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    out = np.empty((len(targets), y.shape[1]), dtype=np.complex128)
    for rows, coeffs in _coefficient_chunks(k, targets, spts, h, order):
        out[rows] = blas_matmul(coeffs.reshape(len(rows), y.shape[0]), y)
    return out.reshape((len(targets),) + f.shape[:-2] + (4,))


# ---------------------------------------------------------------------------
# potentials algebra and solving


def combine_potentials(A: FourPotential, B: FourPotential | None) -> FourPotential:
    if B is None:
        return A
    if not A.grid.same_layout(B.grid):
        raise ValueError("potentials must share a grid")
    return FourPotential(
        A.grid,
        f"{A.shape}+{B.shape}",
        1.0,
        max(A.radius, B.radius),
        A.values + B.values,
        max(A.edge_width, B.edge_width),
    )


def default_eval_grid(support_grid: Grid3) -> Grid3:
    """The box of twice the support's half-width on the support lattice,
    so every extension to it gathers its kernel rows from one offset table."""
    return Grid3(2.0 * support_grid.half_width, 2 * support_grid.nodes_per_axis - 1)


def smallest_singular_value(matrix) -> float:
    """sigma_min of a square matrix, or of the matrix of a Factorization
    already made: the Ritz value of the one-column subspace_iteration.
    0.0 for an exactly zero pivot; NaN when the LU fails or the iteration
    breaks down, so a failure never passes a ``sigma < bound`` test."""
    if not isinstance(matrix, Factorization):
        if matrix.shape[0] == 0:
            return 0.0
        matrix = factor(matrix)
    if matrix.lu is not None and np.any(np.diagonal(matrix.lu[0]) == 0.0):
        return 0.0
    got = subspace_iteration(matrix, 1)
    return np.nan if got is None else float(got[1][-1])


def negative_count(H: np.ndarray) -> int:
    """Number of negative eigenvalues of a Hermitian matrix (its lower
    triangle is read), by Sylvester's law of inertia: H = L D L^H from one
    Bunch-Kaufman factorisation (scipy.linalg.ldl, LAPACK zhetrf; J. R.
    Bunch and L. Kaufman, Math. Comp. 31, 1977) has the inertia of D,
    whose 1x1 and 2x2 pivot blocks make it tridiagonal, with the
    eigenvalues of the real tridiagonal of |off-diagonal|.  ldl's
    ComplexWarning about round-off imaginary parts on the diagonal is
    ignored: they are not read.  A non-finite H raises ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        d = sla.ldl(H, hermitian=True)[1]
    lam = sla.eigvalsh_tridiagonal(d.diagonal().real, np.abs(d.diagonal(-1)))
    return int(np.count_nonzero(lam < 0.0))


def _shift_invert_eigs(fac: Factorization, shift: float, k: int) -> np.ndarray:
    """The k eigenvalues of T nearest ``shift``, by shift-invert ARPACK.

    fac = factor(T - shift I) serves every call; ARPACK's start vector is
    fixed (all ones), so repeated calls give the same eigenvalues bit for
    bit. Raises RuntimeError when the factorization failed.
    """
    if fac.lu is None:
        raise RuntimeError(f"shift-invert factorization of T - {shift} I failed")
    n = fac.matrix.shape[0]
    op = spla.LinearOperator(
        (n, n), matvec=lambda x: sla.lu_solve(fac.lu, x), dtype=np.complex128
    )
    v0 = np.ones(n, dtype=np.complex128)
    w = spla.eigs(op, k=k, which="LM", return_eigenvectors=False, v0=v0)
    return shift + 1.0 / w


def solve_generalized(
    A: FourPotential,
    B: FourPotential | None,
    j: int,
    kvec,
    eval_grid: Grid3 | None = None,
):
    """Solve (1 - T^{A+B}_{E_k}) phi = chi(j, k, .) and extend.

    Returns (phi on eval_grid, diagnostics dict). Diagnostics: sup_norm
    (evaluation grid), support_sup, residual (support nodes, sup norm),
    rcond estimate, at_resonance flag.
    """
    kvec = np.asarray(kvec, dtype=np.float64)
    k = float(np.linalg.norm(kvec))
    V = combine_potentials(A, B)
    if eval_grid is None:
        eval_grid = default_eval_grid(V.grid)
    chi = free_solution(j, kvec)
    sup = V.support_indices()
    diagnostics: dict = {"at_resonance": False, "rcond": np.inf}
    if len(sup) == 0:
        vals = chi.values_at(eval_grid.points)
        phi = SpinorField(eval_grid, vals)
        diagnostics.update(
            sup_norm=phi.sup_norm(), support_sup=1.0, residual=0.0, rcond=1.0
        )
        return phi, diagnostics

    TV = assemble_T(V, k)
    fac = factor(system_matrix(TV, out=TV))
    sol, diagnostics["residual"] = fac.solve(chi.values_at(V.grid.points[sup]).reshape(-1))
    diagnostics.update(rcond=fac.rcond, at_resonance=fac.at_resonance)
    phi_sup = sol.reshape(-1, 4)
    diagnostics["support_sup"] = float(np.max(np.linalg.norm(phi_sup, axis=1)))
    ext = apply_kernel_rows(k, eval_grid.points, V, phi_sup, V.grid.spacing)
    vals = chi.values_at(eval_grid.points) + ext
    phi = SpinorField(eval_grid, vals)
    diagnostics["sup_norm"] = phi.sup_norm()
    return phi, diagnostics


def _rcond_from_lu(M: np.ndarray, lu, anorm: float) -> float:
    """1-norm reciprocal condition estimate; NaN when LAPACK fails."""
    try:
        gecon = sla.get_lapack_funcs("gecon", (M,))
        rcond, info = gecon(lu[0], anorm, norm="1")
    except Exception:
        return np.nan
    return float(rcond) if info == 0 else np.nan


@dataclass(frozen=True)
class Factorization:
    """Dense LU of a system matrix, its 1-norm rcond and resonance flag.

    A failed factorization (see factor) has lu None and rcond NaN: it is
    flagged, not read as exactly singular. rcond is computed on first use.
    """

    matrix: np.ndarray
    lu: tuple | None

    @cached_property
    def rcond(self) -> float:
        if self.lu is None:
            return np.nan
        return _rcond_from_lu(self.matrix, self.lu, float(np.linalg.norm(self.matrix, 1)))

    @property
    def at_resonance(self) -> bool:
        return not self.rcond >= _RESONANCE_RCOND

    def solve(self, rhs: np.ndarray) -> tuple:
        """(x, node sup norm of M x - rhs): an LU solve, least squares when
        flagged, NaN for both when the LU failed.

        An unflagged solve is held to the residual contract
        residual <= _RESIDUAL_REL sup|rhs| and raises RuntimeError when it
        misses it. LAPACK's least-squares routine does not return on a
        non-finite matrix, so a failed factorization yields NaN instead.
        """
        if self.lu is None:
            return np.full(rhs.shape, np.nan, dtype=np.complex128), np.nan
        if self.at_resonance:
            x, *_ = np.linalg.lstsq(self.matrix, rhs, rcond=None)
        else:
            x = sla.lu_solve(self.lu, rhs)
        res, scale = (float(np.max(np.linalg.norm(v.reshape(-1, 4), axis=1)))
                      for v in (blas_matmul(self.matrix, x) - rhs, rhs))
        if not self.at_resonance and res > _RESIDUAL_REL * max(scale, 1e-300):
            raise RuntimeError(
                f"residual contract violated: {res:.3e} > {_RESIDUAL_REL:.0e} * {scale:.3e}"
            )
        return x, res


def factor(M: np.ndarray) -> Factorization:
    """The package's only LU. It fails (lu None) when LAPACK raises (M
    not finite) or the LU is not finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            lu = sla.lu_factor(M)
        except (ValueError, np.linalg.LinAlgError):
            return Factorization(M, None)
    return Factorization(M, lu if np.all(np.isfinite(lu[0])) else None)


def cosine_block(n: int, b: int) -> np.ndarray:
    """The fixed start block cos(i j), 0 <= i < n, 1 <= j <= b, complex."""
    return np.cos(np.outer(np.arange(n), np.arange(1, b + 1))).astype(np.complex128)


def subspace_iteration(fac: Factorization, b: int):
    """Block inverse iteration on (M^H M)^-1 from cosine_block(n, b), a
    QR per step, then the Rayleigh-Ritz SVD M Q = U diag(s) Wh.

    The sigma_min estimate 1/sqrt(largest Ritz value of Y = (M^H M)^-1 Q
    against Q) is an upper bound on sigma_min. It stops the iteration
    once steady to _ITER_REL above the round-off floor n eps |M|_F, or
    once two consecutive estimates are at or below the floor: a shift
    exact to working precision converges in one or two steps, and two
    upper bounds at the floor certify sigma_min at round-off. At most
    _ITER_STEPS steps. Returns (Q, s, Wh), s descending, s[-1] >=
    sigma_min(M) by interlacing; None when the LU failed or the
    iteration broke down.
    """
    if fac.lu is None:
        return None
    m, lu = fac.matrix, fac.lu
    n = m.shape[0]
    # |M|_F in one BLAS pass: no matrix-sized |M| beside the LU
    flat = m.ravel()
    floor = n * np.finfo(float).eps * np.sqrt(sla.blas.zdotc(flat, flat).real)
    q = cosine_block(n, b)
    sigma = None
    with np.errstate(all="ignore"):
        for step in range(_ITER_STEPS):
            x = sla.lu_solve(lu, q, trans=2, check_finite=False)
            y = sla.lu_solve(lu, x, check_finite=False)
            if not np.all(np.isfinite(y)):
                return None
            # Q^H Q = I but at the cosine start: the generalized problem
            qh = q.conj().T
            lam = np.linalg.eigvals(np.linalg.solve(qh @ q, qh @ y)).real.max()
            old, sigma = sigma, 1.0 / np.sqrt(lam)
            q = np.linalg.qr(y)[0]
            if step and (
                max(sigma, old) <= floor
                or (sigma > floor and abs(sigma - old) <= _ITER_REL * sigma)
            ):
                break
    _, s, wh = np.linalg.svd(blas_matmul(m, q), full_matrices=False)
    return q, s, wh


def system_matrix(TA: np.ndarray, TB=None, mu: float = 0.0, out=None) -> np.ndarray:
    """1 - TA - mu TB, into out if given (out may be TA). Bit for bit
    np.eye(n) - TA - mu * TB: 0 - TA keeps TA's exact zeros +0, where
    negation would flip them and with them the LU's bits."""
    out = np.subtract(0.0, TA, out=out)
    out.flat[:: len(out) + 1] += 1.0
    if TB is not None:
        out -= mu * TB
    return out


def symmetry_probe(
    A: FourPotential, B: FourPotential, k, h: SpinorField, g: SpinorField
):
    """Independently computed (<h, A, T^B g>, <T^A h, B, g>).

    Both sides are plain quadrature sums; T is applied only at the nodes
    where the weighting potential is nonzero.
    """
    if not (A.grid.same_layout(B.grid) and h.grid.same_layout(A.grid) and g.grid.same_layout(A.grid)):
        raise ValueError("shared grid required")
    grid = A.grid
    supA = A.support_indices()
    supB = B.support_indices()
    w = grid.weights

    if len(supA) == 0 or len(supB) == 0:
        return 0.0 + 0.0j, 0.0 + 0.0j

    # side 1: <h, A, T^B g>, needing T^B g only where A is nonzero
    tbg = apply_kernel_rows(k, grid.points[supA], B, g.values[supB], grid.spacing)
    a_tbg = fold_rows(A.values[supA], tbg)
    side1 = complex(np.sum(w[supA] * np.einsum("ni,ni->n", h.values[supA].conj(), a_tbg)))

    # side 2: <T^A h, B, g>
    tah = apply_kernel_rows(k, grid.points[supB], A, h.values[supA], grid.spacing)
    bg = fold_rows(B.values[supB], g.values[supB])
    side2 = complex(np.sum(w[supB] * np.einsum("ni,ni->n", tah.conj(), bg)))
    return side1, side2
