import numpy as np
import pytest
from scipy.integrate import quad

from threshold_dirac.potentials import (
    FourPotential,
    Grid3,
    SpinorField,
    build_potential,
    check_admissible,
    check_class_c,
    norms,
    pseudo_inner,
    smoothstep_profile,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def make_grid(n=9, L=1.0):
    return Grid3(L, n)


def test_grid_invariants():
    g = make_grid(9, 1.3)
    assert g.spacing == pytest.approx(2 * 1.3 / 8)
    assert g.weights.sum() == pytest.approx((2 * 1.3) ** 3, rel=1e-14)
    # origin is a node
    i0 = g.flat_index(4, 4, 4)
    assert np.allclose(g.points[i0], 0.0)
    with pytest.raises(ValueError):
        Grid3(1.0, 8)
    with pytest.raises(ValueError):
        Grid3(1.0, 3)


def test_interior_weights_are_midpoint():
    g = make_grid(7, 1.0)
    interior = np.all(np.abs(g.points) < g.half_width - 1e-12, axis=1)
    assert np.allclose(g.weights[interior], g.spacing**3)


def test_well_l1_norm_matches_radial_integral():
    g = make_grid(21, 1.0)
    R, w = 0.8, 2 * g.spacing
    A = build_potential(g, "spherical-well", 2.0, R, w=w)
    # analytic volume integral of the smoothed profile
    vol = 4 * np.pi * quad(lambda r: smoothstep_profile(r, R - w, R) * r**2, 0, R)[0]
    assert norms(A)["l1"] == pytest.approx(2.0 * vol, rel=0.02)


def test_gaussian_sup_norm_at_origin():
    g = make_grid(9, 1.0)
    A = build_potential(g, "gaussian-bump", 1.7, 0.9, w=0.3)
    n = norms(A)
    assert n["linf"] == pytest.approx(1.7)
    assert n["weighted_linf"] >= n["linf"]


def test_zero_potential_norms():
    g = make_grid(5, 1.0)
    A = FourPotential(g, "spherical-well", 0.0, 0.5, np.zeros((g.n_nodes, 4)))
    assert all(v == 0.0 for v in norms(A).values())


def test_coupling_monotone():
    g = make_grid(9, 1.0)
    A = build_potential(g, "spherical-well", 1.0, 0.7)
    B = A.rescaled(2.0)
    na, nb = norms(A), norms(B)
    assert nb["l1"] == pytest.approx(2 * na["l1"], rel=1e-14)
    assert nb["linf"] == pytest.approx(2 * na["linf"], rel=1e-14)


def test_lattice_radii_make_wells_symmetric_and_positive():
    """Profiles sampled at lattice radii, and cell averages summed after
    sorting, are invariant bit for bit under the lattice symmetries: the
    smooth and the cell-averaged wells admit C4h (8 sectors) at n = 7, 9
    and 13, and no support node of the smooth well is round-off
    negative (linspace radii put 6 and 14 such nodes at n = 7 and 13:
    supports of 99 and 909 nodes instead of 93 and 895)."""
    from threshold_dirac.solver import symmetry_sectors

    for n, size in ((7, 93), (9, 251), (13, 895)):
        grid = make_grid(n, 1.0)
        smooth = build_potential(grid, "spherical-well", 1.0, 1.0)
        cell = build_potential(
            grid, "spherical-well", 1.0, 1.0, w=0.12, cell_average=True, subsamples=5
        )
        assert len(smooth.support_indices()) == size
        assert np.all(smooth.values[smooth.support_indices(), 0] > 0.0)
        assert len(symmetry_sectors(smooth)) == len(symmetry_sectors(cell)) == 8


def test_support_enforced():
    g = make_grid(9, 1.0)
    vals = np.ones((g.n_nodes, 4))
    with pytest.raises(ValueError):
        FourPotential(g, "table", 1.0, 0.5, vals)


def test_pseudo_inner_basics(rng):
    g = make_grid(7, 1.0)
    A = build_potential(g, "spherical-well", 1.3, 0.8)
    f = SpinorField(g, rng.standard_normal((g.n_nodes, 4)) + 1j * rng.standard_normal((g.n_nodes, 4)))
    h = SpinorField(g, rng.standard_normal((g.n_nodes, 4)) + 1j * rng.standard_normal((g.n_nodes, 4)))
    v = pseudo_inner(f, A, h)
    assert pseudo_inner(h, A, f) == pytest.approx(np.conj(v), rel=1e-12)
    # positivity for positive electric weight
    p = pseudo_inner(f, A, f)
    assert p.real > 0 and abs(p.imag) < 1e-12 * p.real
    # zero potential
    Z = FourPotential(g, "spherical-well", 0.0, 0.5, np.zeros((g.n_nodes, 4)))
    assert pseudo_inner(f, Z, h) == 0.0


def test_pseudo_inner_grid_mismatch():
    g1, g2 = make_grid(7), make_grid(9)
    A = build_potential(g1, "spherical-well", 1.0, 0.7)
    f = SpinorField(g2, np.zeros((g2.n_nodes, 4)))
    with pytest.raises(ValueError):
        pseudo_inner(f, A, f)


if HAVE_HYPOTHESIS:

    @given(st.integers(0, 2**32 - 1), st.complex_numbers(max_magnitude=3.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_pseudo_inner_sesquilinear(seed, c):
        g = make_grid(5, 1.0)
        r = np.random.default_rng(seed)
        A = build_potential(g, "spherical-well", 0.9, 0.8)
        f, g1, g2 = (
            SpinorField(g, r.standard_normal((g.n_nodes, 4)) + 1j * r.standard_normal((g.n_nodes, 4)))
            for _ in range(3)
        )
        lhs = pseudo_inner(f, A, SpinorField(g, c * g1.values + g2.values))
        rhs = c * pseudo_inner(f, A, g1) + pseudo_inner(f, A, g2)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs) + abs(rhs))


def test_admissibility_ratio_scales_with_coupling(rng):
    g = make_grid(9, 1.0)
    A = build_potential(g, "spherical-well", 1.0, 0.8)
    phi = SpinorField(g, np.tile([1.0, 0.5, 0.0, 0.2], (g.n_nodes, 1)))
    rep1 = check_admissible(A.rescaled(0.1), 1e9, [phi])
    rep2 = check_admissible(A.rescaled(0.2), 1e9, [phi])
    # ratio ~ (|B|_1+|B|_inf)^2/|<..B..>| scales linearly in the coupling
    assert rep2["worst_ratio"] == pytest.approx(2 * rep1["worst_ratio"], rel=1e-10)
    assert rep1["admissible"]


def test_admissibility_rejects_zero_pairing():
    g = make_grid(9, 1.0)
    # alpha_1-component potential pairs upper against lower; a pure upper
    # spinor therefore has exactly zero diagonal pairing
    B = build_potential(g, "spherical-well", 1.0, 0.8, components=(0, 1, 0, 0))
    phi = SpinorField(g, np.tile([1.0, 0.0, 0.0, 0.0], (g.n_nodes, 1)))
    rep = check_admissible(B, 1e12, [phi])
    assert not rep["admissible"]
    assert rep["outside_every_class"]


def test_class_c_requires_crit():
    g = make_grid(9, 1.0)
    A = build_potential(g, "spherical-well", 1.0, 0.8)
    with pytest.raises(ValueError):
        check_class_c(A, None)


def test_table_roundtrip(tmp_path):
    g = make_grid(5, 1.0)
    A = build_potential(g, "spherical-well", 1.5, 0.9)
    path = tmp_path / "pot.csv"
    n = g.nodes_per_axis
    with open(path, "w") as fh:
        fh.write("ix,iy,iz,x,y,z,a0,a1,a2,a3\n")
        for ix in range(n):
            for iy in range(n):
                for iz in range(n):
                    i = g.flat_index(ix, iy, iz)
                    x, y, z = g.points[i]
                    a = A.values[i]
                    fh.write(
                        f"{ix},{iy},{iz},{x:.12g},{y:.12g},{z:.12g},"
                        f"{a[0]:.17g},{a[1]:.17g},{a[2]:.17g},{a[3]:.17g}\n"
                    )
    B = build_potential(g, "table", 1.0, 0.9, table_path=str(path))
    assert np.allclose(B.values, A.values, atol=1e-15)


def test_cell_average_close_for_smooth_shape():
    g = make_grid(9, 1.0)
    A = build_potential(g, "gaussian-bump", 1.0, 0.9, w=0.5)
    B = build_potential(g, "gaussian-bump", 1.0, 0.9, w=0.5, cell_average=True)
    # smooth profile: cell means differ from node values only at O(h^2);
    # here h^2/24 * max|laplacian| ~ 0.06
    d = np.max(np.abs(A.values - B.values))
    assert 0 < d < 0.08
    # and refining the grid shrinks the discrepancy quadratically
    g2 = make_grid(17, 1.0)
    A2 = build_potential(g2, "gaussian-bump", 1.0, 0.9, w=0.5)
    B2 = build_potential(g2, "gaussian-bump", 1.0, 0.9, w=0.5, cell_average=True)
    d2 = np.max(np.abs(A2.values - B2.values))
    assert d2 < 0.35 * d
