import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from threshold_dirac.algebra import alpha, alpha_stack, beta, identity4, one_plus_beta
from threshold_dirac.kernel import (
    CLIFFORD_BASIS,
    blas_matmul,
    coefficients,
    energy,
    expand,
    fd_reference,
    green,
    green_dk,
    radial_moment,
    self_cell_coefficients,
    self_cell_integral,
    sphere_radius,
)


def test_energy_branch():
    assert energy(0.0) == 1.0
    assert abs(energy(0.6j) - 0.8) < 1e-15
    assert abs(energy(1.0) - np.sqrt(2.0)) < 1e-15
    # outgoing sheet: Im E >= 0 for Im k >= 0 in the strip we use
    assert energy(0.3 + 0.2j).imag >= 0.0


def _sample_points(rng, n):
    # mix of real and in-gap imaginary momenta, displacements O(1); the
    # imaginary magnitudes stay below 0.75 so the FD reference keeps its
    # accuracy away from the k = i branch point
    ks = []
    for i in range(n):
        if i % 3 == 2:
            ks.append(1j * rng.uniform(0.05, 0.75))
        else:
            ks.append(complex(rng.uniform(0.05, 2.0)))
    xs = rng.uniform(-1.5, 1.5, size=(n, 3))
    xs[np.linalg.norm(xs, axis=1) < 0.2] += 0.5
    return ks, xs


def test_derivatives_match_finite_differences(rng):
    ks, xs = _sample_points(rng, 18)
    for k, x in zip(ks, xs):
        for order in (1, 2, 3):
            closed = green_dk(k, x, order)
            ref = fd_reference(k, x, order, step=5e-3)
            scale = max(np.max(np.abs(ref)), 1e-12)
            assert np.max(np.abs(closed - ref)) / scale < 1e-6, (k, x, order)


def test_first_derivative_at_zero_is_constant_kernel(rng):
    expect = -0.25j / np.pi * one_plus_beta()
    for _ in range(5):
        x = rng.uniform(-1, 1, 3)
        if np.linalg.norm(x) < 0.3:
            x = x + 1.0
        got = green_dk(0.0, x, 1)
        assert np.max(np.abs(got - expect)) < 1e-14


def test_higher_derivatives_at_zero_closed_forms(rng):
    I4, b, al = identity4(), beta(), alpha_stack()
    for _ in range(5):
        z = rng.uniform(0.2, 1.2, 3)
        r = np.linalg.norm(z)
        adotz = np.einsum("l,lij->ij", z, al)
        d2 = (r * (I4 + b) - 1j * adotz / r - I4 / r) / (4 * np.pi)
        d3 = (1j * r**2 * (I4 + b) + 2 * adotz - 3j * I4) / (4 * np.pi)
        assert np.max(np.abs(green_dk(0.0, z, 2) - d2)) < 1e-13
        assert np.max(np.abs(green_dk(0.0, z, 3) - d3)) < 1e-13


def test_kernel_dagger_symmetry_at_zero_and_imaginary_k(rng):
    # G_k(-z)^dagger = G_k(z) exactly at k = 0 and on the imaginary axis
    for k in (0.0, 0.35j, 0.7j):
        for _ in range(4):
            z = rng.uniform(-1, 1, 3)
            if np.linalg.norm(z) < 0.3:
                z = z + 0.8
            a = green(k, -np.asarray(z)).conj().T
            bm = green(k, z)
            assert np.max(np.abs(a - bm)) < 1e-14


def test_zero_displacement_raises():
    with pytest.raises(ValueError):
        green(0.3, np.zeros(3))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("k", [0.0, 0.17, 2.4, 9.0, 0.4j, 1.9 + 0.3j])
def test_radial_moment_against_quadrature(n, k):
    a = 0.37
    re = quad(lambda r: (r**n * np.exp(1j * complex(k) * r)).real, 0, a, limit=200)[0]
    im = quad(lambda r: (r**n * np.exp(1j * complex(k) * r)).imag, 0, a, limit=200)[0]
    got = radial_moment(n, k, a)
    assert abs(got - (re + 1j * im)) < 1e-12 * max(1.0, abs(got))


def test_radial_moment_series_recursion_consistency():
    # straddle the internal switch at |k a| = 2
    a = 1.0
    for n in range(5):
        lo = radial_moment(n, 1.999, a)
        hi = radial_moment(n, 2.001, a)
        assert abs(hi - lo) < 5e-3 * max(abs(lo), 1e-6)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [0.0, 0.3, 1.1, 0.5j])
def test_self_cell_integral_against_quadrature(order, k):
    h = 0.25
    a = sphere_radius(h)
    got = self_cell_integral(k, h, order)
    # independent route: integrate the radial profiles of d^order G over
    # the ball; the alpha terms vanish by parity, so only the I and beta
    # profiles contribute: int_0^a r^2 e^{ikr} c(r) dr for each
    from threshold_dirac.kernel import _profiles

    def prof_integral(which):
        def f(r):
            cI, cb, _ = _profiles(complex(k), np.array([r]), order)
            c = cI[0] if which == "I" else cb[0]
            return np.exp(1j * complex(k) * r) * r**2 * c

        re = quad(lambda r: f(r).real, 1e-12, a, limit=400)[0]
        im = quad(lambda r: f(r).imag, 1e-12, a, limit=400)[0]
        return re + 1j * im

    expect = prof_integral("I") * identity4() + prof_integral("b") * beta()
    assert np.max(np.abs(got - expect)) < 1e-10 * max(1.0, np.max(np.abs(expect)))


# ---------------------------------------------------------------------------
# Clifford-coefficient representation


def _green_written_out(k, z):
    """G_k(z) typed in from the physics formula, with algebra's matrices."""
    k = complex(k)
    r = np.linalg.norm(z)
    E = np.sqrt(k * k + 1.0)
    adotz = sum(z[l] / r * alpha(l + 1) for l in range(3))
    return (np.exp(1j * k * r) / (4 * np.pi)) * (
        -(E * np.eye(4) + beta()) / r - (k / r + 1j / r**2) * adotz
    )


def _green_dk_contour(k, z, order, radius=0.3, nodes=64):
    """d^order G by the trapezoid Cauchy integral of _green_written_out."""
    ts = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    total = sum(_green_written_out(k + radius * t, z) / t**order for t in ts)
    return math.factorial(order) * total / (nodes * radius**order)


@pytest.mark.parametrize("k", [0.0, 0.7, 0.45j, 0.9 + 0.3j])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_coefficients_expand_to_written_out_kernel(rng, k, order):
    basis = CLIFFORD_BASIS
    # the five basis matrices are trace-orthogonal: tr(B_c B_d) = 4 delta
    gram = np.einsum("cij,dji->cd", basis, basis)
    assert np.array_equal(gram, 4 * np.eye(5))
    zs = rng.uniform(-1.5, 1.5, size=(6, 3))
    zs[np.linalg.norm(zs, axis=1) < 0.3] += 0.6
    coeffs = coefficients(k, zs, order)
    assert coeffs.shape == (6, 5)
    for z, c in zip(zs, coeffs):
        if order == 0:
            want = _green_written_out(k, z)
        else:
            want = _green_dk_contour(k, z, order)
        scale = np.max(np.abs(want))
        got = expand(c)
        assert np.max(np.abs(got - want)) < 1e-11 * scale, (k, order, z)
        # the coefficients are the trace projections of the matrix
        proj = np.einsum("cij,ji->c", basis, want) / 4
        assert np.max(np.abs(c - proj)) < 1e-11 * scale
    single = green(k, zs[0]) if order == 0 else green_dk(k, zs[0], order)
    assert np.max(np.abs(single - expand(coeffs[0]))) < 1e-15 * np.max(np.abs(single))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_self_cell_coefficients_expand_to_integral(order):
    c = self_cell_coefficients(0.3 + 0.1j, 0.25, order)
    assert np.all(c[2:] == 0)
    m = self_cell_integral(0.3 + 0.1j, 0.25, order)
    assert np.array_equal(m, expand(c))


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_blas_matmul_bits_equal_numpy_matmul():
    """scipy's BLAS with numpy's call gives numpy's bits for a 1028 x 1028
    matrix times b = 1, 2 and 16 columns, a vector, a single row, and
    the Clifford expansion's (rows, 5) @ (5, 16)."""
    rng = np.random.default_rng(11)
    a = _complex(rng, 1028, 1028)
    for b in (1, 2, 16):
        q = _complex(rng, 1028, b)
        assert blas_matmul(a, q).tobytes() == (a @ q).tobytes()
    v = _complex(rng, 1028)
    assert blas_matmul(a, v).tobytes() == (a @ v).tobytes()
    row = _complex(rng, 1, 1028)
    assert blas_matmul(row, a).tobytes() == (row @ a).tobytes()
    coeffs = _complex(rng, 5000, 5)
    basis = CLIFFORD_BASIS.reshape(5, 16)
    assert blas_matmul(coeffs, basis).tobytes() == (coeffs @ basis).tobytes()
    assert expand(coeffs).tobytes() == np.tensordot(coeffs, CLIFFORD_BASIS, axes=1).tobytes()


_MATRIX_SIZED_PROBE = """
import numpy as np
from threshold_dirac.kernel import blas_matmul
rng = np.random.default_rng(12)
a = rng.normal(size=(1028, 1028)) + 1j * rng.normal(size=(1028, 1028))
for left in (rng.normal(size=(1028, 1028)) + 1j * rng.normal(size=(1028, 1028)),
             (rng.normal(size=(1028, 2)) + 1j * rng.normal(size=(1028, 2))).conj().T):
    print(blas_matmul(left, a).tobytes() == (left @ a).tobytes())
"""


def test_blas_matmul_matrix_sized_right_operand_bits_at_one_thread(run_python):
    """A matrix-sized right operand, with a square and with a conjugate-
    transposed 2 x 1028 left one: numpy's bits at one BLAS thread. At
    two, numpy's OpenBLAS 0.3.31 and scipy's 0.3.30 split such
    mid-size products differently (n x n for n from 396 to 1028 differ
    in the last bit of about 0.4% of the entries), so this runs in a
    one-thread child."""
    proc = run_python("-c", _MATRIX_SIZED_PROBE, threads=1, timeout=300, check=True)
    assert proc.stdout.split() == ["True", "True"]


_POOL_PROBE = """
import contextlib, io, json, os, sys, tempfile, time
try:
    def tids():
        return set(os.listdir("/proc/self/task"))

    def run_ns(tid):
        with open(f"/proc/self/task/{tid}/schedstat") as f:
            return int(f.read().split()[0])

    before = tids()
    import numpy
    pool = sorted(tids() - before)
    [run_ns(t) for t in pool]
except OSError as exc:
    print(json.dumps({"skip": f"schedstat not readable: {exc}"}))
    raise SystemExit
if not pool:
    print(json.dumps({"skip": "numpy started no BLAS worker thread"}))
    raise SystemExit
from threshold_dirac.cli import main
from threshold_dirac.critical import find_critical_coupling
from threshold_dirac.forms import compute_forms
from threshold_dirac.potentials import Grid3, build_potential

start = None
for _ in range(100):  # let the workers' start-up spin end
    now = [run_ns(t) for t in pool]
    if now == start:
        break
    start = now
    time.sleep(0.05)
ran = {}
configs = os.path.join(sys.argv[1], "scripts", "configs")
ref, bs = os.path.join(configs, "reference.ini"), os.path.join(configs, "boundstates.ini")
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    out = lambda name: os.path.join(tmp, name)
    for argv in (
        ["forms", "--config", ref, "--out", out("forms.csv")],
        ["sweep", "--plan", ref, "--out", out("sweep")],
        ["classify", "--config", ref, "--out", out("classify.csv")],
        ["boundstates", "--plan", bs, "--out", out("boundstates")],
        ["find-critical", "--config", ref, "--bracket=5,7", "--out", out("critical.csv")],
    ):
        main(argv)
        ran[argv[0]] = [run_ns(t) - s for t, s in zip(pool, start)]
    shape = build_potential(Grid3(1.0, 15), "spherical-well", 1.0, 1.0)
    crit = find_critical_coupling(shape, (5.0, 7.0))
    ran["search n=15"] = [run_ns(t) - s for t, s in zip(pool, start)]
    compute_forms(crit)
    ran["compute_forms n=15"] = [run_ns(t) - s for t, s in zip(pool, start)]
print(json.dumps({"ran_ns": ran}))
"""


def test_numpy_blas_pool_stays_asleep(run_python):
    """numpy and scipy each load an OpenBLAS with its own thread pool;
    every matrix-sized product goes through blas_matmul, so numpy's pool
    never wakes to spin beside scipy's. A child at two BLAS threads runs
    the forms, sweep, classify, boundstates and find-critical CLIs on
    scripts/configs, then a search and compute_forms on the smooth well
    at n = 15, where lambda_of's product is past numpy's threading cut.
    The worker threads that `import numpy` started run 0 ns of CPU
    meanwhile (their /proc schedstat run time)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = run_python("-c", _POOL_PROBE, root, threads=2, timeout=300, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    if "skip" in got:
        pytest.skip(got["skip"])
    assert all(ns == 0 for ran in got["ran_ns"].values() for ns in ran), got["ran_ns"]
