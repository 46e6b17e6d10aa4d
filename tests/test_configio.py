"""Config parsing and deterministic CSV round trips."""

import dataclasses

import numpy as np
import pytest

from threshold_dirac.potentials import Grid3, build_potential
from threshold_dirac import configio as cio
from threshold_dirac.probes import BoundStateRecord, SweepRecord

CONFIG_TEXT = """
[grid]
L = 1.0
n = 9

[eval]
L = 2.0
n = 11

[potential]
shape = spherical-well
g = 5.9
R = 1.0
bracket = 5.0, 7.0

[perturbation]
shape = spherical-well
g = 1.0
R = 1.0
mus = 0.01, 0.02

[sweep]
ks = 0.1, 0.2
js = 1
khat = 0, 0, 1
n_kappa = 150
kappa_range = 0.02, 0.3
"""


def _write_config(tmp_path):
    path = tmp_path / "ref.ini"
    path.write_text(CONFIG_TEXT)
    return str(path)


def test_unread_section_or_key_is_rejected(tmp_path):
    path = tmp_path / "extra.ini"
    path.write_text(CONFIG_TEXT + "\n[tolerances]\ncrossing_rel = 1e-5\n")
    with pytest.raises(ValueError, match=r"extra\.ini: \[tolerances\]"):
        cio.load_config(str(path))
    path.write_text(CONFIG_TEXT.replace("n_kappa", "kappas"))
    with pytest.raises(ValueError, match=r"extra\.ini: \[sweep\] kappas"):
        cio.load_config(str(path))
    path.write_text(CONFIG_TEXT + "\n[solver]\nmode = dense\n")
    with pytest.raises(ValueError, match=r"extra\.ini: \[solver\]"):
        cio.load_config(str(path))


def test_config_round_trip(tmp_path):
    cfg = cio.load_config(_write_config(tmp_path))
    grid = cio.grid_from_config(cfg)
    assert grid.nodes_per_axis == 9 and grid.half_width == 1.0
    ev = cio.eval_grid_from_config(cfg)
    assert ev.nodes_per_axis == 11 and ev.half_width == 2.0
    pot = cio.potential_from_config(cfg, grid)
    assert pot.shape == "spherical-well" and pot.coupling == 5.9
    assert cio.bracket_from_config(cfg) == (5.0, 7.0)
    assert cio.mus_from_config(cfg) == (0.01, 0.02)
    kw = cio.sweep_kwargs_from_config(cfg)
    assert kw["ks"] == (0.1, 0.2) and kw["js"] == (1,)
    assert kw["n_kappa"] == 150
    assert kw["kappa_range"] == (0.02, 0.3)


def test_table_config_reads_its_support_radius(tmp_path):
    """A shape = table section loads like build_potential with its R: a
    5^3 table of the R = 0.9 well is nonzero on 27 nodes off the origin,
    which a zero radius would reject."""
    grid = Grid3(1.0, 5)
    well = build_potential(grid, "spherical-well", 1.5, 0.9)
    assert len(well.support_indices()) == 27
    table = tmp_path / "pot.csv"
    rows = ["ix,iy,iz,x,y,z,a0,a1,a2,a3"]
    for i, (x, a) in enumerate(zip(grid.points, well.values)):
        ix, iy, iz = np.unravel_index(i, (5, 5, 5))
        rows.append(",".join([f"{ix},{iy},{iz}"] + [repr(float(v)) for v in (*x, *a)]))
    table.write_text("\n".join(rows) + "\n")
    path = tmp_path / "table.ini"
    path.write_text(f"[grid]\nL = 1.0\nn = 5\n\n[potential]\nshape = table\ntable = {table}\ng = 2.0\nR = 0.9\n")
    got = cio.potential_from_config(cio.load_config(str(path)), grid)
    want = build_potential(grid, "table", 2.0, 0.9, table_path=str(table))
    assert (got.shape, got.coupling, got.radius) == (want.shape, want.coupling, want.radius)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.values, 2.0 * well.values)


def test_field_csv_round_trip(tmp_path):
    grid = Grid3(0.5, 5)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(grid.n_nodes, 4)) + 1j * rng.normal(size=(grid.n_nodes, 4))
    path = str(tmp_path / "field.csv")
    meta = {"L": grid.half_width, "n": grid.nodes_per_axis, "shape": "table", "g": -1.5}
    cio.write_field_csv(path, grid, vals, meta)
    grid2, vals2, meta2 = cio.read_field_csv(path)
    assert grid2.same_layout(grid)
    # repr round-trips doubles exactly
    assert np.array_equal(vals2, vals)
    assert meta2["shape"] == "table" and float(meta2["g"]) == -1.5


def test_record_columns_match_dataclass_order():
    names = [f.name for f in dataclasses.fields(SweepRecord)]
    assert list(cio.RECORD_COLUMNS) == names[: len(cio.RECORD_COLUMNS)]
    assert "n_part_l2" in names and "n_part_l2" not in cio.RECORD_COLUMNS
    names_b = [f.name for f in dataclasses.fields(BoundStateRecord)]
    assert list(cio.BOUNDSTATE_COLUMNS) == names_b


def test_writers_are_byte_deterministic(tmp_path):
    records = [
        SweepRecord(0.01, 0.1, 1, 12.5, 11.0, 0.4, 13.0, False),
        SweepRecord(0.044, 0.2, 2, 250.0, 248.0, 1.1, 260.0, True),
    ]
    bounds = [BoundStateRecord(-0.004, 0.0612, 0.0612**2, float(np.sqrt(1 - 0.0612**2)), 2e-11)]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cio.write_records_csv(a, records)
    cio.write_records_csv(b, records)
    assert open(a, "rb").read() == open(b, "rb").read()
    cio.write_boundstates_csv(a, bounds)
    cio.write_boundstates_csv(b, bounds)
    assert open(a, "rb").read() == open(b, "rb").read()
    rows = [(r.mu, r.k, r.sup_norm) for r in records]
    cio.write_dat(a, ("mu", "k", "sup"), rows)
    with open(a) as fh:
        first = fh.readline()
    assert first.startswith("# mu k sup")


def test_records_csv_content(tmp_path):
    rec = SweepRecord(0.5, 0.25, 1, 2.0, 1.5, 0.25, 3.0, True)
    path = str(tmp_path / "records.csv")
    cio.write_records_csv(path, [rec])
    lines = open(path).read().splitlines()
    assert lines[0] == "mu,k,j,sup_norm,n_part_norm,residual_part,predicted_bound,at_resonance"
    assert lines[1] == "0.5,0.25,1,2.0,1.5,0.25,3.0,1"


def test_retired_sweep_keys_are_rejected(tmp_path):
    """band and bound_mode had one value in use and are no longer settable
    from a config; a file that still sets them is rejected by name."""
    path = tmp_path / "old.ini"
    for line in ("band = 10.0", "bound_mode = eigen"):
        path.write_text(CONFIG_TEXT + line + "\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=rf"old\.ini: \[sweep\] {key}: unknown key"):
            cio.load_config(str(path))
