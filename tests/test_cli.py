"""CLI plumbing: determinism of dumps and the solve field round trip."""

import os

import numpy as np
import pytest

from threshold_dirac import configio as cio
from threshold_dirac.cli import main

SOLVE_CONFIG = """
[grid]
L = 1.0
n = 5

[eval]
L = 1.5
n = 7

[potential]
shape = spherical-well
g = -1.0
R = 1.0
"""


def test_kernel_check_is_byte_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "k1.csv"), str(tmp_path / "k2.csv")
    assert main(["kernel-check", "--samples", "5", "--out", p1]) == 0
    assert main(["kernel-check", "--samples", "5", "--out", p2]) == 0
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    rel = np.loadtxt(p1, delimiter=",", skiprows=1, usecols=3)
    assert np.max(rel) <= 1e-6


def test_solve_dumps_field_with_sidecar(tmp_path):
    cfg_path = tmp_path / "solve.ini"
    cfg_path.write_text(SOLVE_CONFIG)
    out = str(tmp_path / "field.csv")
    assert main(["solve", "--config", str(cfg_path), "--kz", "0.3", "--out", out]) == 0
    grid, vals, meta = cio.read_field_csv(out)
    assert grid.nodes_per_axis == 7
    assert vals.shape == (343, 4)
    assert np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))
    assert meta["shape"] == "spherical-well"
    assert float(meta["g"]) == -1.0
    # rerun reproduces the dump byte for byte
    out2 = str(tmp_path / "field2.csv")
    assert main(["solve", "--config", str(cfg_path), "--kz", "0.3", "--out", out2]) == 0
    assert open(out, "rb").read() == open(out2, "rb").read()


def test_readme_classify_reference_config(tmp_path):
    """The README quick-start `classify --config scripts/configs/reference.ini`
    fits the decay on the 4R grid, not on the default evaluation box of
    half-width 2."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = os.path.join(root, "scripts", "configs", "reference.ini")
    out = str(tmp_path / "classify.csv")
    assert main(["classify", "--config", config, "--out", out]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (2, 5)
    exponents = rows[:, 2:4]
    assert np.all(np.isfinite(exponents))
    assert np.all(np.abs(exponents + 2.0) <= 0.15)
    assert np.all(rows[:, 4] == 0)


BUMP_CONFIG = """
[grid]
L = 1
n = 7

[potential]
shape = gaussian-bump
R = 1
w = 0.5
"""


def test_find_critical_config_shape_is_used(tmp_path):
    """Without --shape, find-critical searches the config's shape with
    its width, not a spherical well of the same radius."""
    cfg_path = tmp_path / "bump.ini"
    cfg_path.write_text(BUMP_CONFIG)

    def g_star(*extra):
        out = str(tmp_path / "fc.csv")
        argv = ["find-critical", "--config", str(cfg_path), "--bracket=-40,-0.5", "--out", out]
        assert main(argv + list(extra)) == 0
        return float(open(out).read().splitlines()[1].split(",")[0])

    bump = g_star()
    assert bump == g_star("--shape", "gaussian-bump")
    assert abs(bump - (-4.740388463580667)) <= 1e-10 * 4.75
    assert abs(g_star("--shape", "spherical-well") - (-2.3756240169762934)) <= 1e-10 * 2.38


@pytest.mark.parametrize(
    "script", ["boundstate_lines.py", "derivative_growth.py", "divergence_sweep.py"]
)
def test_experiment_scripts_import_and_parse(script, run_python):
    """Each experiment script imports what it uses from the package and
    parses its arguments (--help exits 0 before any computation)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = run_python(os.path.join(root, "scripts", script), "--help", timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_out_the_optimizer_and_the_integrator(run_python):
    """Importing the CLI in a fresh interpreter loads neither
    scipy.optimize nor scipy.integrate: only mu_peak and the radial
    oracle (oracle-compare) use them, and they import them on use."""
    probe = (
        "import sys, threshold_dirac.cli; "
        "print(' '.join(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    proc = run_python("-c", probe, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_search_without_a_coupling_exits_naming_the_bracket(tmp_path):
    """A bracket that holds no certified coupling ends find-critical, and
    every config command that searches first, with a one-line exit that
    names the bracket, not a traceback."""
    with pytest.raises(SystemExit, match=r"bracket -1\.6, -1\.0: not critical in range"):
        main(["find-critical", "--bracket=-1.6,-1.0"])
    cfg_path = tmp_path / "empty.ini"
    cfg_path.write_text(BUMP_CONFIG + "bracket = -0.5, -0.4\n")
    with pytest.raises(SystemExit, match=r"bracket -0\.5, -0\.4: not critical in range"):
        main(["classify", "--config", str(cfg_path)])
