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
    integer offsets i_t - i_s. Per kernel call, one table holds the rule
    at every offset of the box that the call's on-lattice targets and
    the sources span (the 5^3 near cells are its centre block): the
    33^3 classify grid at n = 9 has 9.2M pairs but 39^3 offsets.  The
    rule is reflection symmetric bit for bit (I and beta even, alpha_l
    odd in offset_l), so it is evaluated on one octant only, at the
    distinct |offset| per axis (20^3 offsets and the 26 near cells
    there), and the box is filled by reflection.  So on the lattice
    T-hat is exactly translation and reflection invariant, and where h
    is a power of two the offset times h is x_t - y_s exactly. Dense
    assembly gathers table[i_t - i_s] for each chunk of targets, one
    table per assembly; the sector blocks gather it at the pairs of an
    orbit representative and an image.  apply_kernel_rows does not
    gather: its on-lattice rows are a discrete convolution of the table
    with the folded fields, computed by zero-padded FFTs
    (_convolved_rows).  Its round-off is
    spread over the box, so it is about 1e-15 of the largest row, not
    of each entry (an entry 1e-3 of the largest moves by up to about
    1e-13 of itself).  Off-lattice targets use x_t - y_s, one pair at a
    time. The default evaluation grid (default_eval_grid) lies on the
    lattice.

    Every quadrature block lies in the span of the Clifford basis
    (I, beta, alpha_1, alpha_2, alpha_3) (see the kernel module): the
    midpoint samples, the sphere rule -(E I + beta) J_1 and its
    derivative orders, and every average over subcells or table entries.
    So quadrature is computed as (nt, ns, 5) complex coefficients, in
    chunks of about _PAIR_BUDGET target-source pairs. apply_kernel_rows
    applies an off-lattice chunk to any number of fields as one complex
    GEMM, C.reshape(t, 5 ns) @ Y with Y[s, c] = B_c (A f)_s, and an
    on-lattice target set the symbol sum_c That_c B_c in frequency
    space; assemble_sectors folds the coefficients with the sectors'
    spreads in the same span, and only dense assembly (_assembled, which
    also gives the trivial group's kernel matrix as T-hat of the unit
    potential) expands coefficients into 4x4 blocks.

SOLVES
    One path: _coupling_scan assembles the kernel's blocks K_s on the
    symmetry sectors (below) that the right-hand sides reach (_reached)
    in one assemble_sectors pass, weighs them by the potentials, T_s =
    K_s W_s (weighed_kernel, through Sector.weigh), forms 1 - T_A - mu
    T_B (system_matrix) per coupling mu and factors each block;
    sector_solve solves.  factor is the package's only LU, with a
    reciprocal condition estimate; a block below 1e-10 is flagged
    "at-resonance" and solved by least squares (sweeps cross resonances
    on purpose).  sector_solve is the only solve: it joins the block
    solutions as x = sum_s V_s x_s and returns x with its residual on
    the full support, r = sum_s V_s M_s x_s - rhs (node sup norm), so
    the part of rhs in a sector left out counts; it is flagged when any
    block is, and an unflagged solve whose residual exceeds 1e-8
    sup|rhs| raises RuntimeError, so a wrong solution never reads as
    physics.  solve_generalized, the inverse-bound probe and
    the derivative recursion scan once at mu = 0, the resonance sweep,
    mu_peak and the resonance-class probe once per k.  Neither a
    critical coupling nor a bound-state crossing needs a solve:
    residual_certificate applies 1 - c T^V to candidate vectors in one
    apply_kernel_rows pass, and their residuals bound sigma_min from
    above.  smallest_singular_value, one subspace_iteration on an LU
    from factor, is the dense reference the tests and sigma_min_at use.
    A failed LU (LAPACK raised, or the LU is not finite) has lu None and
    rcond NaN; then its block solves to NaN and flags the solve,
    sigma_min is NaN and subspace_iteration None. negative_count reads
    the inertia of a Hermitian matrix off one LDL^H; it solves nothing.

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
    centre node and the z axis need no special case; for the trivial
    group both maps are the identity, bit for bit.  assemble_sectors
    builds the kernel blocks K_s of several sectors from one offset
    table, gathered at the pairs of an orbit representative (40 of the
    251 nodes of the n = 9 well) and an image and folded with the
    sectors' spreads in the Clifford span; a potential enters only
    through Sector.weigh.  The critical-coupling search solves one dense
    Hermitian pencil (W_s K_s W_s, W_s) per sector, W_s the block of the
    node-wise shape.  The bound-state branch runs on the sectors that
    hold the threshold basis, one per Kramers pair: at n = 9 one LU of
    129 unknowns per kappa.  A plane wave on the z axis reaches four
    blocks of 129 unknowns, one off it all eight, instead of one matrix
    of 1004.

    Matrix-sized products go through scipy's BLAS (kernel.blas_matmul,
    or zgemm for the off-lattice kernel rows), so numpy's separate
    OpenBLAS thread pool never spins beside an LU.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
import warnings

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla

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
    "weighed_kernel",
    "assemble_kernel_blocks",
    "contract_potential",
    "apply_kernel_rows",
    "Factorization",
    "factor",
    "sector_solve",
    "system_matrix",
    "solve_generalized",
    "symmetry_probe",
    "combine_potentials",
    "subspace_iteration",
    "cosine_block",
    "smallest_singular_value",
    "residual_certificate",
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
_SECTOR_REL = 1e-8  # a vector or a block reaches a symmetry sector above this weight
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
    midpoint sample beyond.  A subdivided cell is integrated at |d| and
    each alpha_l coefficient taken times sign(d_l), so the rule is
    exactly reflection symmetric, as the midpoint sample is: I and beta
    even, alpha_l odd in d_l, bit for bit (at d_l = 0 the subcells
    cancel alpha_l only to about 1e-18, and it is 0).  disp, a float
    array, is overwritten."""
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
        vals[~centre] = _subdivided_coefficients(k, np.abs(dnear[~centre]), h, order)
        vals[:, 2:] *= np.sign(dnear)
        out[near] = vals
    return out


def _lattice_indices(targets: np.ndarray, sources: np.ndarray, h: float) -> tuple:
    """(on, lt, ls): the integer lattice indices of the targets and the
    sources, counted from sources[0] in steps of h, and on, which marks
    the targets within _LATTICE_TOL h of a node.  No target is on the
    lattice when the sources are not all on it, or there are none."""
    on = np.zeros(len(targets), dtype=bool)
    if not len(sources):
        return on, None, None
    src = (sources - sources[0]) / h
    tgt = (targets - sources[0]) / h
    ls, lt = np.rint(src).astype(np.int64), np.rint(tgt).astype(np.int64)
    if np.all(np.abs(src - ls) <= _LATTICE_TOL):
        on = np.all(np.abs(tgt - lt) <= _LATTICE_TOL, axis=1)
    return on, lt, ls


def _offset_table(k, lt: np.ndarray, ls: np.ndarray, h: float, order: int) -> tuple:
    """(table, lo): the Clifford coefficients (d0, d1, d2, 5) of the rule
    at every integer offset lo + (a, b, c) of the box that the offsets
    lt - ls of targets lt against sources ls span.  The rule is
    evaluated, in chunks of _PAIR_BUDGET offsets, only at the distinct
    |offset| on each axis (one octant of a box symmetric about 0), and
    the box is filled by reflection, I and beta even and alpha_l odd in
    offset_l: each entry is the rule at its own offset bit for bit (see
    _quadrature_coefficients)."""
    lo = lt.min(axis=0) - ls.max(axis=0)
    steps = [np.arange(a, b + 1) for a, b in zip(lo, lt.max(axis=0) - ls.min(axis=0))]
    folds = [np.unique(np.abs(s), return_inverse=True) for s in steps]
    octant = np.stack(np.meshgrid(*(u for u, _ in folds), indexing="ij"), axis=-1).reshape(-1, 3)
    coeffs = np.empty((len(octant), 5), dtype=np.complex128)
    for s in range(0, len(octant), _PAIR_BUDGET):
        chunk = octant[s : s + _PAIR_BUDGET] * h
        coeffs[s : s + _PAIR_BUDGET] = _quadrature_coefficients(k, chunk, h, order)
    coeffs = coeffs.reshape(tuple(len(u) for u, _ in folds) + (5,))
    table = coeffs[np.ix_(*(inverse for _, inverse in folds))]
    for l, s in enumerate(steps):  # the negative offsets come first on each axis
        flip = [slice(None)] * 3 + [2 + l]
        flip[l] = slice(np.count_nonzero(s < 0))
        alpha = table[tuple(flip)]
        np.negative(alpha, out=alpha)
    return table, lo


def _coefficient_chunks(k, targets, sources, h, order, table=None):
    """(target rows, coefficients) for each target chunk of the quadrature.

    Sources are nodes of a lattice of spacing h.  A target within
    _LATTICE_TOL h of one of its nodes is on the lattice, and its
    coefficients are gathered from an _offset_table of its offsets to
    the sources: table when given (it must cover them), else one built
    here; the other targets use their displacements x_t - y_s, pair by
    pair.  Off-lattice chunks come first, so the offset table is not
    held while they are computed; each chunk holds at most
    _chunk_rows(ns) targets in order.
    """
    k = complex(k)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    sources = np.atleast_2d(np.asarray(sources, dtype=np.float64))
    step = _chunk_rows(len(sources))
    on, lt, ls = _lattice_indices(targets, sources, h)
    rows_off, rows_on = np.flatnonzero(~on), np.flatnonzero(on)
    for s in range(0, len(rows_off), step):
        rows = rows_off[s : s + step]
        yield rows, _quadrature_coefficients(k, targets[rows, None] - sources, h, order)
    if len(rows_on):
        coeffs, lo = table or _offset_table(k, lt[rows_on], ls, h, order)
        dims = coeffs.shape[:3]
        strides = np.array([dims[1] * dims[2], dims[2], 1])
        kt, ks = (lt[rows_on] - lo) @ strides, ls @ strides
        flat = coeffs.reshape(-1, 5)
        for s in range(0, len(rows_on), step):
            yield rows_on[s : s + step], flat[kt[s : s + step, None] - ks]


def assemble_kernel_blocks(
    k,
    targets: np.ndarray,
    sources: np.ndarray,
    h: float,
    order: int = 0,
    *,
    table: tuple | None = None,
) -> np.ndarray:
    """Quadrature blocks int_cell(y_j) d^order G(x_i - y) dy as (nt, ns, 4, 4).

    Targets on the source lattice take their blocks from integer
    offsets, the others from their displacements, so mixed target sets
    are fine.  A chunked caller passes one _offset_table of the sources
    that covers all its targets as table, so the chunks share it (see
    _coefficient_chunks); the blocks are the same bits.  Only dense
    assembly needs the 4x4 blocks; apply_kernel_rows works on the
    coefficients.
    """
    chunks = list(_coefficient_chunks(k, targets, sources, h, order, table))
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


def _assembled(k, grid: Grid3, nodes: np.ndarray, *pot_values: np.ndarray) -> list:
    """Dense T-hat of each (n_nodes, 4) potential array on one node set.

    The rule is evaluated once, on the offset table of all the nodes.
    Each chunk of targets gathers its 4x4 blocks from it in one
    assemble_kernel_blocks call and is contracted once per potential
    straight into the matrix rows.  The chunk budget counts each
    target-source pair once per potential, so a pair assembly, which
    holds one matrix more, holds a block array half as tall; no
    matrix-sized temporary is made.
    """
    pts = grid.points[nodes]
    vals = [v[nodes] for v in pot_values]
    n = len(pts)
    mats = [np.empty((4 * n, 4 * n), dtype=np.complex128) for _ in vals]
    if not n:
        return mats
    _, lt, ls = _lattice_indices(pts, pts, grid.spacing)
    table = _offset_table(k, lt, ls, grid.spacing, 0)
    step = _chunk_rows(n * len(vals))
    for s in range(0, n, step):
        blocks = assemble_kernel_blocks(k, pts[s : s + step], pts, grid.spacing, table=table)
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
    TA + mu TB for every mu.  The coupling scans recombine the pair's
    sector blocks (assemble_sectors); this full-size pair is their
    dense reference.
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

    def weigh(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """V^H W V x for sector coordinates x (n_s, m), W the node-wise
        multiplication by a0 + a.alpha of (n_support, 4) potential rows
        that the group leaves invariant.  W V = V W_s, and W_s is block
        diagonal over the orbits: basis^H W_r basis over the orbit size at
        the representative r, so no support-sized vector is made."""
        reps = self.images[:, 0]
        mats = rows[reps, 0, None, None] * _I4 + np.einsum("sl,lij->sij", rows[reps, 1:], _ALPHA)
        sizes = 1 + np.count_nonzero(np.diff(np.sort(self.images, axis=1), axis=1), axis=1)
        blocks = self.basis.conj().transpose(0, 2, 1) @ mats @ self.basis / sizes[:, None, None]
        padded = np.zeros((4 * len(reps), x.shape[1]), dtype=np.complex128)
        padded[self.index] = x
        return (blocks @ padded.reshape(len(reps), 4, -1)).reshape(padded.shape)[self.index]

    def fold(self, tv: np.ndarray) -> np.ndarray:
        """The sector block V^H T V = W^H (T V) of an operator T that
        commutes with the group, from the rows (T V)[r] on the
        representatives, (rows, n_o, 4) with the padded columns."""
        at_reps = tv.reshape(len(tv), -1)[:, self.index].reshape(len(self.basis), 4, -1)
        x = self.basis.conj().transpose(0, 2, 1) @ at_reps
        return x.reshape(-1, x.shape[-1])[self.index]


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


def _orbit_coefficients(k, grid: Grid3, sector: Sector) -> np.ndarray:
    """The rule's Clifford coefficients (n_o, R, G, 5) at the blocks of
    T-hat from each orbit representative r (rows) to each image g of the
    representative of each orbit o (columns), gathered from one
    _offset_table of the R representatives against the support."""
    pts = grid.points[sector.nodes]
    _, lt, ls = _lattice_indices(pts, pts, grid.spacing)
    reps = sector.images[:, 0]
    table, lo = _offset_table(k, lt[reps], ls, grid.spacing, 0)
    dims = table.shape[:3]
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    kt, ks = (lt[reps] - lo) @ strides, ls @ strides
    return table.reshape(-1, 5)[kt[None, :, None] - ks[sector.images][:, None, :]]


def assemble_sectors(sectors: tuple, grid: Grid3, k) -> list:
    """The blocks K_s = V^H K V of the kernel matrix K (T-hat of the unit
    potential) on each of some sectors of one symmetry_sectors call; a
    potential W enters as K_s W_s (weighed_kernel).

    The rows (K V)[r] on the R orbit representatives (about 1/8 of the
    support for C4h) come from the coefficients at the (representative,
    image) pairs (_orbit_coefficients), folded in Clifford space: per
    orbit o, one product of the (R, 5 G) coefficients against Y_o[g, c,
    i, :] = sum_j B_c[i, j] spread_o[g, j, :], the sectors' spreads side
    by side; each sector then folds its own columns.  The products go
    through scipy's BLAS: a stacked numpy matmul of this size wakes
    numpy's thread pool, which then spins beside the next sector LU.
    For the trivial group V = 1, and K is T-hat of the unit potential.
    """
    first = sectors[0]
    if first.order == 1:
        unit = np.zeros((grid.n_nodes, 4))
        unit[:, 0] = 1.0
        return _assembled(k, grid, first.nodes, unit)
    n_o, G = first.images.shape
    # every Y_o in one product: the spreads' columns x (the sectors side
    # by side) as rows against B_c[i, j], then laid out (n_o, (g, c), (x, i))
    spreads = np.concatenate([sector.spread for sector in sectors], axis=2)
    spreads = spreads.reshape(n_o, G, 4, -1).transpose(0, 1, 3, 2).reshape(-1, 4)
    ys = blas_matmul(spreads, CLIFFORD_BASIS.transpose(2, 0, 1).reshape(4, 20))
    ys = ys.reshape(n_o, G, -1, 5, 4).transpose(0, 1, 3, 2, 4).reshape(n_o, 5 * G, -1)
    coeffs = _orbit_coefficients(k, grid, first)
    rows = np.stack([blas_matmul(c.reshape(n_o, -1), y) for c, y in zip(coeffs, ys)])
    tv = rows.reshape(n_o, n_o, len(sectors), 4, 4).transpose(2, 1, 4, 0, 3)
    return [sector.fold(t.reshape(4 * n_o, n_o, 4)) for sector, t in zip(sectors, tv)]


def weighed_kernel(sector: Sector, K: np.ndarray, P: FourPotential) -> np.ndarray:
    """T-hat of the potential P on a sector, K_s W_s, from the sector's
    kernel block K_s (assemble_sectors): (W_s K_s^H)^H by Sector.weigh,
    W_s being Hermitian."""
    return sector.weigh(P.values[sector.nodes], K.conj().T).conj().T


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
    or (nt, m, 4) for a stack.

    Targets on the support lattice take every row from one discrete
    convolution (_convolved_rows).  Off the lattice, each target chunk's
    (t, ns, 5) Clifford coefficients are computed once and applied to
    every field as one complex GEMM against Y[s, c] = B_c (A f)_s, so
    memory stays bounded regardless of the number of targets.  For that
    GEMM the sources are padded to a multiple of 8 by copies of the first
    with zero rows of Y: at a contraction length that is a multiple of 8
    the zgemm's bits do not depend on the BLAS thread count.
    """
    sup = A.support_indices()
    spts = A.grid.points[sup]
    f = np.asarray(f_support)
    stack = f if f.ndim == 3 else f[None]
    af = np.array([fold_rows(A.values[sup], g) for g in stack]).reshape(len(stack), len(sup), 4)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    out = np.empty((len(targets), len(stack), 4), dtype=np.complex128)
    on, lt, ls = _lattice_indices(targets, spts, h)
    if np.any(on):
        out[on] = _convolved_rows(k, lt[on], ls, af, h, order)
    if not np.all(on):
        out[~on] = _gemm_rows(k, targets[~on], spts, af, h, order)
    return out.reshape((len(targets),) + f.shape[:-2] + (4,))


def _gemm_rows(k, targets: np.ndarray, spts: np.ndarray, af: np.ndarray, h: float, order: int):
    """Kernel rows (t, m, 4) at any targets of the folded fields af (m,
    ns, 4) at the source points spts, chunk by chunk, one zgemm each."""
    pad = -len(spts) % 8
    spts = np.concatenate([spts, np.repeat(spts[:1], pad, axis=0)])
    af = np.concatenate([af, np.zeros((len(af), pad, 4), dtype=np.complex128)], axis=1)
    y = np.einsum("cij,msj->scmi", CLIFFORD_BASIS, af).reshape(5 * len(spts), 4 * len(af))
    out = np.empty((len(targets), y.shape[1]), dtype=np.complex128)
    step = _chunk_rows(len(spts))
    for s in range(0, len(targets), step):
        coeffs = _quadrature_coefficients(k, targets[s : s + step, None] - spts, h, order)
        # zgemm even for a one-row chunk: zgemv's bits depend on the threads
        out[s : s + step] = sla.blas.zgemm(1.0, y.T, coeffs.reshape(len(coeffs), -1).T).T
    return out.reshape(len(targets), len(af), 4)


def _padded_fft(x: np.ndarray, shape) -> np.ndarray:
    """The FFT over the last three axes of x zero-padded to shape, one
    axis at a time from the last, each padded as it is transformed: the
    lines of the padding that hold only zeros are never transformed."""
    for axis, n in zip((-1, -2, -3), shape[::-1]):
        x = sfft.fft(x, n=n, axis=axis)
    return x


def _cropped_ifft(x: np.ndarray, start, stop) -> np.ndarray:
    """The inverse FFT over the last three axes of x, cut to start:stop,
    one axis at a time from the first, each cut as soon as it is done.
    x is overwritten."""
    for axis in range(3):
        x = sfft.ifft(x, axis=axis - 3, overwrite_x=True)
        x = x[(Ellipsis, slice(start[axis], stop[axis])) + (slice(None),) * (2 - axis)]
    return x


def _symbol_terms() -> tuple:
    """(weights, terms): the entry (i, j) of the symbol sum_c x_c B_c (B
    = CLIFFORD_BASIS) is sum_c w_c x_c for one of the distinct weight
    rows w = B[:, i, j], and terms[i] lists the (w's index, j) of row
    i's nonzero entries."""
    weights, terms = [], [[] for _ in range(4)]
    for i, j in zip(*np.nonzero(np.any(CLIFFORD_BASIS, axis=0))):
        w = tuple(CLIFFORD_BASIS[:, i, j])
        if w not in weights:
            weights.append(w)
        terms[i].append((weights.index(w), j))
    return weights, terms


_SYMBOL_WEIGHTS, _SYMBOL_TERMS = _symbol_terms()


def _convolved_rows(k, lt: np.ndarray, ls: np.ndarray, af: np.ndarray, h: float, order: int):
    """Kernel rows (t, m, 4) at the targets with lattice indices lt of
    the folded fields af (m, ns, 4) at the sources with indices ls.

    Row t is sum_s sum_c table_c[lt_t - ls_s] B_c af_s: a discrete
    convolution of the _offset_table with the fields laid out on their
    source box, read off at the targets.  Zero-padded to the
    next_fast_len of the table's box on each axis, the circular
    convolution is the linear one there.  In frequency space it is the
    4x4 Clifford symbol sum_c That_c B_c applied to each field's
    transform: one transform per distinct symbol entry (6), 4m forward
    and 4m inverse ones, the inverse one spinor component at a time so
    that only one component of the product is held.  scipy.fft runs on
    one worker, so the bits do not depend on threads.
    """
    table, _ = _offset_table(k, lt, ls, h, order)
    shape = [sfft.next_fast_len(int(d)) for d in table.shape[:3]]
    symbols = [
        _padded_fft(sum(w[c] * table[..., c] for c in np.flatnonzero(w)), shape)
        for w in _SYMBOL_WEIGHTS
    ]
    del table
    s0 = ls.min(axis=0)
    box = ls.max(axis=0) - s0 + 1
    field = np.zeros((len(af), 4) + tuple(box), dtype=np.complex128)
    field[(slice(None), slice(None)) + tuple((ls - s0).T)] = af.transpose(0, 2, 1)
    fhat = _padded_fft(field, shape)
    # the linear convolution holds target lt at lt - min(lt) + box - 1
    at = lt - lt.min(axis=0)
    rows = np.empty((len(lt), len(af), 4), dtype=np.complex128)
    for i, terms in enumerate(_SYMBOL_TERMS):
        ghat = sum(symbols[w] * fhat[:, j] for w, j in terms)
        g = _cropped_ifft(ghat, box - 1, box + at.max(axis=0))
        rows[:, :, i] = g[(slice(None),) + tuple(at.T)].T
    return rows


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
    so every extension to it takes its kernel rows from one offset table
    by one FFT convolution."""
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


def residual_certificate(k, V: FourPotential, fields: np.ndarray, couplings=(1.0,)) -> tuple:
    """(residuals, scales) of M_c = 1 - c T^V_k on the support of V for
    each coupling c: residuals[c, i] = ||M_c f_i|| / ||f_i|| for the
    (m, n_support, 4) fields, each an upper bound on sigma_min(M_c), and
    scales[c] the largest 1-norm of the columns M_c e_j at the node of
    largest |V| (the most central among ties), a lower bound on
    ||M_c||_1.  One apply_kernel_rows pass on the support applies T^V to
    the fields and those four columns: no matrix, no LU."""
    sup = V.support_indices()
    pts = V.grid.points[sup]
    stack = np.zeros((len(fields) + 4, len(sup), 4), dtype=np.complex128)
    stack[: len(fields)] = fields
    off_centre = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    node = np.lexsort((off_centre, -np.linalg.norm(V.values[sup], axis=1)))[0]
    stack[len(fields) :, node] = np.eye(4)
    tf = apply_kernel_rows(k, pts, V, stack, V.grid.spacing).transpose(1, 0, 2)
    residuals = np.empty((len(couplings), len(fields)))
    scales = np.empty(len(couplings))
    for c, coupling in enumerate(couplings):
        mf = stack - coupling * tf
        residuals[c] = [np.linalg.norm(m) / np.linalg.norm(f) for m, f in zip(mf, fields)]
        scales[c] = np.max(np.sum(np.abs(mf[len(fields) :]), axis=(1, 2)))
    return residuals, scales


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


def solve_generalized(
    A: FourPotential,
    B: FourPotential | None,
    j: int,
    kvec,
    eval_grid: Grid3 | None = None,
):
    """Solve (1 - T^{A+B}_{E_k}) phi = chi(j, k, .) and extend.

    One _coupling_scan at mu = 0 on the symmetry sectors of A + B that
    chi reaches, and one sector_solve.  Returns (phi on eval_grid,
    diagnostics dict). Diagnostics: sup_norm (evaluation grid),
    support_sup, residual (support nodes, sup norm), rcond, the smallest
    block estimate (NaN when a block's LU failed), and at_resonance,
    sector_solve's flag (set when any block is).
    """
    kvec = np.asarray(kvec, dtype=np.float64)
    k = float(np.linalg.norm(kvec))
    V = combine_potentials(A, B)
    eval_grid = eval_grid or default_eval_grid(V.grid)
    chi = free_solution(j, kvec)
    sup = V.support_indices()
    if len(sup) == 0:
        phi = SpinorField(eval_grid, chi.values_at(eval_grid.points))
        return phi, dict(
            sup_norm=phi.sup_norm(), support_sup=1.0, residual=0.0, rcond=1.0, at_resonance=False
        )

    rhs = chi.values_at(V.grid.points[sup]).reshape(-1)
    systems = _coupling_scan(symmetry_sectors(V), V, None, k, rhs)(0.0)
    sol, residual, flagged = sector_solve(systems, rhs)
    phi_sup = sol.reshape(-1, 4)
    ext = apply_kernel_rows(k, eval_grid.points, V, phi_sup, V.grid.spacing)
    phi = SpinorField(eval_grid, chi.values_at(eval_grid.points) + ext)
    return phi, dict(
        sup_norm=phi.sup_norm(),
        support_sup=float(np.max(np.linalg.norm(phi_sup, axis=1))),
        residual=residual,
        rcond=np.min([fac.rcond for _, fac in systems]),
        at_resonance=flagged,
    )


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
    """Dense LU of a system matrix, its 1-norm rcond and resonance flag;
    sector_solve solves with it.

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

    def _solution(self, rhs: np.ndarray) -> np.ndarray:
        """x of M x = rhs, unchecked (sector_solve checks it): an LU
        solve, least squares when flagged, NaN when the LU failed.
        LAPACK's least-squares routine does not return on a non-finite
        matrix, so a failed factorization yields NaN instead."""
        if self.lu is None:
            return np.full(rhs.shape, np.nan, dtype=np.complex128)
        if self.at_resonance:
            return np.linalg.lstsq(self.matrix, rhs, rcond=None)[0]
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


def _reached(sectors, X: np.ndarray) -> list:
    """(sector, sector.project(X)) for each sector where X, a vector or a
    block of columns on the sectors' nodes, has a part whose largest
    singular value exceeds _SECTOR_REL of X's norm; its parts in the
    other sectors are round-off."""
    cut = _SECTOR_REL * np.linalg.norm(X)
    parts = [(sector, sector.project(X)) for sector in sectors]
    return [(sector, part) for sector, part in parts if np.linalg.norm(part, 2) > cut]


def _coupling_scan(sectors, A: FourPotential, B: FourPotential | None, k: float, rhs):
    """mu -> [(sector, factor of 1 - T-hat of A + mu B there)] on those
    of the sectors (symmetry_sectors(A, B)) that rhs, a vector or a
    block of columns, reaches (see _reached): the systems that
    sector_solve takes; with B None, 1 - T-hat of A.

    The kernel blocks K_s come from one assemble_sectors pass at k; the
    potentials enter as T_A,s = K_s W_A,s and T_B,s = K_s W_B,s
    (weighed_kernel), recombined per mu, so each mu costs one small LU
    per reached sector.
    """
    reached = [sector for sector, _ in _reached(sectors, rhs)]
    pots = [P for P in (A, B) if P is not None]
    blocks = [
        [weighed_kernel(sector, K, P) for P in pots]
        for sector, K in zip(reached, assemble_sectors(reached, A.grid, k))
    ]
    return lambda mu: [
        (sector, factor(system_matrix(*pair, mu=mu))) for sector, pair in zip(reached, blocks)
    ]


def sector_solve(systems: list, rhs: np.ndarray) -> tuple:
    """Solve M x = rhs on the support of a symmetry group's sectors, M
    block diagonal over them, from the factorizations of the blocks M_s
    on the sectors that rhs reaches: a _coupling_scan's systems.

    systems holds (sector, factorization of M_s) pairs, rhs is a (4 n,)
    vector on the sectors' nodes.  Each block solves the sector
    coordinates of rhs (Sector.project; Factorization._solution), and
    the pieces join as x = sum_s V_s x_s (Sector.extend).  Returns (x,
    residual, flagged): flagged when any block is; residual the node sup
    norm of sum_s V_s M_s x_s - rhs on the full support, which counts
    rhs's part in every sector left out.  Unless flagged, the residual
    contract residual <= _RESIDUAL_REL sup|rhs| holds or RuntimeError is
    raised.  One trivial sector maps by the identity, so there x is
    scipy's lu_solve(lu_factor(M), rhs) bit for bit.
    """
    flagged = any(fac.at_resonance for _, fac in systems)
    parts, applied = [], []
    for sector, fac in systems:
        x = fac._solution(sector.project(rhs))
        parts.append(sector.extend(x))
        applied.append(sector.extend(blas_matmul(fac.matrix, x)))
    x, mx = (reduce(np.add, v) for v in (parts, applied))
    res, scale = (float(np.max(np.linalg.norm(v.reshape(-1, 4), axis=1))) for v in (mx - rhs, rhs))
    if not flagged and res > _RESIDUAL_REL * max(scale, 1e-300):
        raise RuntimeError(
            f"residual contract violated: {res:.3e} > {_RESIDUAL_REL:.0e} * {scale:.3e}"
        )
    return x, res, flagged


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
