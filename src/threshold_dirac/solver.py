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
    classify grid at n = 9 has 9.2M pairs but 41^3 offsets. A call whose
    box has more entries than its on-lattice pairs evaluates the offsets
    pair by pair instead, with the same bits. So on the lattice T-hat is
    exactly translation invariant, and where h is a power of two the
    offset times h is x_t - y_s exactly. Off-lattice targets use x_t - y_s.

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
    resonances on purpose). sigma_min and null spaces come from one
    subspace_iteration on an LU from factor. A failed LU (LAPACK raised,
    or the LU is not finite) has lu None and rcond NaN; then solve and
    sigma_min give NaN, subspace_iteration None, shift-invert raises.

    Parity sectors: when every potential is parity-even on the lattice
    (a0 equal and each a_l opposite at the mirror node, bit for bit),
    parity (P f)_s = beta f_{S-1-s} commutes with T-hat and the operators
    split into an even and an odd block of half the size.
    parity_sectors finds them, or the whole support as one sector;
    assemble_sector builds a pair's block from the kernel rows of the
    representative half of the support plus the centre node, folding
    the mirrored columns, and ParitySector maps vectors to and from its
    coordinates. The bound-state branch runs on the sectors that hold
    the threshold basis: one LU of half the size per kappa.

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

from .algebra import alpha_stack, identity4
from .kernel import CLIFFORD_BASIS, blas_matmul, expand, self_cell_coefficients
from .kernel import coefficients as kernel_coefficients
from .potentials import FourPotential, Grid3, SpinorField, fold_rows

__all__ = [
    "FreeSolution",
    "free_spinor",
    "free_solution",
    "assemble_T",
    "assemble_pair",
    "ParitySector",
    "parity_sectors",
    "assemble_sector",
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
_ITER_STEPS = 30  # subspace_iteration steps at or below the round-off floor
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


def free_solution(
    j: int, kvec, grid: Grid3 | None = None
) -> FreeSolution | SpinorField:
    """Plane wave chi(j, k, .) = u_j(k) e^{i k.x}, in one of two forms.

    Without a grid, returns the FreeSolution itself, which evaluates at
    arbitrary points through values_at.  With a grid, returns its samples
    on the grid nodes as a SpinorField.
    """
    fs = FreeSolution(j, tuple(np.asarray(kvec, dtype=float)), free_spinor(j, kvec))
    if grid is None:
        return fs
    return SpinorField(grid, fs.values_at(grid.points))


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
    target-source displacement (..., 3): the sphere rule at zero, 4x4x4
    subdivided midpoint within Chebyshev distance 2h, one midpoint
    sample beyond.  disp, a float array, is overwritten."""
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

    They depend on the offsets lt - ls only.  When the box of offsets
    has no more entries than the targets have pairs, they are gathered
    from one table of the box, built in chunks of _PAIR_BUDGET offsets,
    else evaluated at the offsets pair by pair; both give the same bits.
    """
    lo = lt.min(axis=0) - ls.max(axis=0)
    dims = lt.max(axis=0) - ls.min(axis=0) - lo + 1
    if np.prod(dims) > len(lt) * len(ls):
        return lambda rows: _quadrature_coefficients(k, (lt[rows, None] - ls) * h, h, order)
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
    coefficients come from the integer offsets i_t - i_s (_lattice_rule);
    the other targets use their displacements x_t - y_s.  Off-lattice
    chunks come first, so the offset table is not held while they are
    computed; each chunk holds at most _chunk_rows(ns) targets in order.
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
    or its rows of the first ``rows`` nodes only.

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
    rows = n if rows is None else rows
    mats = [np.empty((4 * rows, 4 * n), dtype=np.complex128) for _ in vals]
    step = _chunk_rows(n * len(vals))
    for s in range(0, rows, step):
        blocks = assemble_kernel_blocks(k, pts[s : min(s + step, rows)], pts, grid.spacing)
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
# parity sectors

_BETA_DIAG = np.array([1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True)
class ParitySector:
    """One parity sector of the operators on a support.

    nodes is the sorted support (grid node indices).  The grid mirror
    x -> -x maps flat node i to N - 1 - i, so on a mirror-symmetric
    support it maps the s-th support node to the (S - 1 - s)-th.  With
    sign +1 or -1 the sector holds the vectors with f_{S-1-s} = sign
    beta f_s, the eigenvectors of parity (P f)_s = beta f_{S-1-s};
    their coordinates are the components on the representative half
    s < S // 2 and, when S is odd, the centre node's beta = sign
    components.  Sign 0 is the whole support, one sector, in the full
    coordinates.
    """

    nodes: np.ndarray
    sign: int = 0

    @property
    def targets(self) -> np.ndarray:
        """The nodes whose rows the sector uses: half plus centre."""
        return self.nodes[: (len(self.nodes) + 1) // 2] if self.sign else self.nodes

    @cached_property
    def index(self) -> np.ndarray:
        """Positions of the sector coordinates among the targets' components."""
        if not self.sign:
            return np.arange(4 * len(self.nodes))
        half = len(self.nodes) // 2
        centre = 4 * half + (np.arange(2) if self.sign > 0 else np.arange(2, 4))
        return np.concatenate([np.arange(4 * half), centre[: 2 * (len(self.nodes) % 2)]])

    def restrict(self, f: np.ndarray) -> np.ndarray:
        """Sector coordinates of a sector vector (or block), given on the
        support or on the targets only."""
        return f[self.index] if self.sign else f

    def extend(self, x: np.ndarray) -> np.ndarray:
        """The sector vector (or block) on the whole support."""
        if not self.sign:
            return x
        n, half = len(self.nodes), len(self.nodes) // 2
        full = np.zeros((4 * n,) + x.shape[1:], dtype=np.complex128)
        full[self.index] = x
        by_node = full.reshape((n, 4) + x.shape[1:])
        beta = _BETA_DIAG.reshape((4,) + (1,) * (x.ndim - 1))
        by_node[n - half :] = (self.sign * beta) * by_node[:half][::-1]
        return full

    def project(self, f: np.ndarray) -> np.ndarray:
        """Sector coordinates of the sector part (f + sign P f) / 2."""
        if not self.sign:
            return f
        by_node = f.reshape((len(self.nodes), 4) + f.shape[1:])
        beta = _BETA_DIAG.reshape((4,) + (1,) * (f.ndim - 1))
        pf = (beta * by_node[::-1]).reshape(f.shape)
        return self.restrict(0.5 * (f + self.sign * pf))

    def fold(self, rows: np.ndarray) -> np.ndarray:
        """The sector block of an operator that commutes with parity, from
        its rows on the targets: (T_sign)_ij = T_ij + sign T_{i,m(j)} beta,
        the mirrored columns folded in place, then the sector's rows and
        columns."""
        if not self.sign:
            return rows
        n, half = len(self.nodes), len(self.nodes) // 2
        cols = rows.reshape(len(rows), n, 4)
        cols[:, :half] += (self.sign * _BETA_DIAG) * cols[:, n - half :][:, ::-1]
        return rows[np.ix_(self.index, self.index)]


def _parity_even(A: FourPotential) -> bool:
    """a0 at the mirror node equals a0, each a_l is its negative, bit for bit."""
    mirrored = A.values[::-1]
    return np.array_equal(mirrored[:, 0], A.values[:, 0]) and np.array_equal(
        mirrored[:, 1:], -A.values[:, 1:]
    )


def parity_sectors(A: FourPotential, B: FourPotential | None = None) -> tuple:
    """The parity sectors of the support of A + B: (even, odd) when both
    are parity-even on the lattice, else the whole support as one.

    Parity commutes with T-hat for such potentials, since beta G(-z)
    beta = G(z) and the near-cell rules are mirror symmetric, so the
    operators are block diagonal over the sectors.
    """
    nodes = combine_potentials(A, B).support_indices()
    if all(_parity_even(P) for P in (A, B) if P is not None):
        return ParitySector(nodes, 1), ParitySector(nodes, -1)
    return (ParitySector(nodes),)


def assemble_sector(sector: ParitySector, A: FourPotential, B: FourPotential, k) -> tuple:
    """(T-hat of A, T-hat of B) on one parity sector of the support of
    A + B (parity_sectors(A, B)), from the kernel rows of its targets
    only: about half of assemble_pair's kernel pass for a parity sector,
    all of it for the whole support, where the pair is assemble_pair's."""
    pair = _assembled(k, A.grid, sector.nodes, A.values, B.values, rows=len(sector.targets))
    return tuple(sector.fold(m) for m in pair)


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
    return Grid3(2.0 * support_grid.half_width, 21)


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

    rhs = chi.values_at(V.grid.points[sup]).reshape(-1)
    chi_sup = float(np.max(np.linalg.norm(rhs.reshape(-1, 4), axis=1)))

    TV = assemble_T(V, k)
    fac = factor(system_matrix(TV, out=TV))
    diagnostics.update(rcond=fac.rcond, at_resonance=fac.at_resonance)
    sol = fac.solve(rhs)
    residual = blas_matmul(fac.matrix, sol) - rhs
    res_sup = float(np.max(np.linalg.norm(residual.reshape(-1, 4), axis=1)))
    diagnostics["residual"] = res_sup
    if not diagnostics["at_resonance"] and res_sup > _RESIDUAL_REL * max(chi_sup, 1e-300):
        raise RuntimeError(
            f"residual contract violated: {res_sup:.3e} > {_RESIDUAL_REL:.0e} * {chi_sup:.3e}"
        )

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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """LU solve, least squares when flagged, NaN when the LU failed.

        LAPACK's least-squares driver does not return on a non-finite
        matrix, so a failed factorization yields NaN instead of a solution.
        """
        if self.lu is None:
            return np.full(rhs.shape, np.nan, dtype=np.complex128)
        if self.at_resonance:
            x, *_ = np.linalg.lstsq(self.matrix, rhs, rcond=None)
            return x
        return sla.lu_solve(self.lu, rhs)


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
    against Q) stops it once steady to _ITER_REL while above the
    round-off floor n eps |M|_F; at or below the floor it runs all
    _ITER_STEPS, so a singular matrix never stops on noise. Returns
    (Q, s, Wh), s descending, s[-1] >= sigma_min(M) by interlacing; None
    when the LU failed or the iteration broke down.
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
            if step and sigma > floor and abs(sigma - old) <= _ITER_REL * sigma:
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
