"""Config files and deterministic CSV / gnuplot writers.

FILE CONVENTIONS

Config files are key=value INI sections read with configparser (no
interpolation).  The sections in use:

  [grid]          L, n                    cube half width and odd nodes/axis
  [eval]          L, n                    optional evaluation grid of solve,
                                          sweep and derivatives (defaults to
                                          the solver's standard extension);
                                          classify always fits its decay on
                                          L = 4R, n = 33
  [potential]     shape, g, R, w, components, cell_average, subsamples,
                  table, bracket          bracket present means "solve for
                                          the critical coupling first"
  [perturbation]  shape, g, R, w, components, mus
  [sweep]         ks, js, khat, n_kappa, kappa_range

load_config rejects any other section or key, naming file, section and
key: a setting that nothing reads must not look as if it took effect.

List values are comma separated.  Every writer below uses repr() of the
Python float, which is the shortest round-trip form: a rerun with the
same config reproduces each file byte for byte (no timestamps, no dict
ordering, no locale).

Field dumps carry a key=value .meta sidecar (L, n, shape, g) so a dump
can be re-read without the original config.
"""

from __future__ import annotations

import configparser

import numpy as np

from .potentials import Grid3, FourPotential, build_potential

__all__ = [
    "fmt_float",
    "load_config",
    "grid_from_config",
    "eval_grid_from_config",
    "potential_from_config",
    "bracket_from_config",
    "mus_from_config",
    "sweep_kwargs_from_config",
    "write_field_csv",
    "read_field_csv",
    "write_records_csv",
    "write_boundstates_csv",
    "write_derivatives_csv",
    "write_inverse_csv",
    "write_forms_csv",
    "write_dat",
]

RECORD_COLUMNS = (
    "mu",
    "k",
    "j",
    "sup_norm",
    "n_part_norm",
    "residual_part",
    "predicted_bound",
    "at_resonance",
)
# sigma_min: the crossing's residual bound ||M phi|| / ||phi|| >= sigma_min(M)
BOUNDSTATE_COLUMNS = ("mu", "kappa", "kappa_sq", "E", "sigma_min")
DERIVATIVE_COLUMNS = ("mu", "k", "alpha", "sup_m1", "sup_m2")
INVERSE_COLUMNS = (
    "mu",
    "k",
    "denominator",
    "b_l1",
    "b_linf",
    "n_par_aphi",
    "n_perp_aphi",
    "n_par_mperp",
    "n_perp_mperp",
    "at_resonance",
)


def fmt_float(x) -> str:
    """Shortest exact decimal form of a float; deterministic across runs."""
    return repr(float(x))


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return fmt_float(x)


def _floats(text: str) -> tuple:
    return tuple(float(t) for t in text.replace(",", " ").split())


def _ints(text: str) -> tuple:
    return tuple(int(t) for t in text.replace(",", " ").split())


# [sweep] key -> parser of its value (the SweepPlan keyword of the same name)
_SWEEP_KEYS = {
    "ks": _floats,
    "js": _ints,
    "khat": _floats,
    "n_kappa": int,
    "kappa_range": _floats,
}
_POTENTIAL_KEYS = {"shape", "g", "r", "w", "components", "cell_average", "subsamples", "table"}
_KNOWN_KEYS = {
    "grid": {"l", "n"},
    "eval": {"l", "n"},
    "potential": _POTENTIAL_KEYS | {"bracket"},
    "perturbation": _POTENTIAL_KEYS | {"mus"},
    "sweep": set(_SWEEP_KEYS),
}


def load_config(path: str) -> configparser.ConfigParser:
    """Read a config; ValueError on any section or key nothing reads."""
    cfg = configparser.ConfigParser(interpolation=None)
    with open(path, "r") as fh:
        cfg.read_file(fh)
    known = {cfg.default_section: set(), **_KNOWN_KEYS}
    for section in (cfg.default_section, *cfg.sections()):
        if section not in known:
            raise ValueError(f"{path}: [{section}]: unknown section")
        for key in cfg[section]:
            if key not in known[section]:
                raise ValueError(f"{path}: [{section}] {key}: unknown key")
    return cfg


def grid_from_config(cfg, section: str = "grid") -> Grid3:
    return Grid3(cfg.getfloat(section, "L"), cfg.getint(section, "n"))


def eval_grid_from_config(cfg) -> Grid3 | None:
    return grid_from_config(cfg, "eval") if cfg.has_section("eval") else None


def potential_from_config(
    cfg, grid: Grid3, section: str = "potential", g: float | None = None
) -> FourPotential:
    """Build the potential a config section describes.

    g overrides the config coupling (used after a critical-coupling
    solve).  A table shape reads its samples from the path in `table`
    and, like every shape, its support radius from `R`.
    """
    shape = cfg.get(section, "shape")
    if g is None:
        g = cfg.getfloat(section, "g", fallback=1.0)
    R = cfg.getfloat(section, "R")
    if shape == "table":
        return build_potential(grid, "table", g, R, table_path=cfg.get(section, "table"))
    w = cfg.getfloat(section, "w", fallback=None)
    components = _floats(cfg.get(section, "components", fallback="1, 0, 0, 0"))
    return build_potential(
        grid,
        shape,
        g,
        R,
        w=w,
        components=components,
        cell_average=cfg.getboolean(section, "cell_average", fallback=False),
        subsamples=cfg.getint(section, "subsamples", fallback=5),
    )


def bracket_from_config(cfg) -> tuple | None:
    if not cfg.has_option("potential", "bracket"):
        return None
    lo, hi = _floats(cfg.get("potential", "bracket"))
    return (lo, hi)


def mus_from_config(cfg) -> tuple:
    return _floats(cfg.get("perturbation", "mus"))


def sweep_kwargs_from_config(cfg) -> dict:
    """SweepPlan keyword arguments from the [sweep] section."""
    if not cfg.has_section("sweep"):
        return {}
    keys = [key for key in _SWEEP_KEYS if cfg.has_option("sweep", key)]
    return {key: _SWEEP_KEYS[key](cfg.get("sweep", key)) for key in keys}


# ---------------------------------------------------------------------------
# writers


def _write_lines(path: str, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_field_csv(path: str, grid: Grid3, values: np.ndarray, meta: dict) -> None:
    """Spinor field dump: ix,iy,iz,x,y,z,re0,im0,...,re3,im3 (+ .meta sidecar)."""
    vals = np.asarray(values, dtype=np.complex128)
    n = grid.nodes_per_axis
    lines = ["ix,iy,iz,x,y,z,re0,im0,re1,im1,re2,im2,re3,im3"]
    for node in range(grid.n_nodes):
        ix, iy, iz = node // (n * n), (node // n) % n, node % n
        x, y, z = grid.points[node]
        comps = []
        for c in range(4):
            comps.append(fmt_float(vals[node, c].real))
            comps.append(fmt_float(vals[node, c].imag))
        lines.append(
            ",".join([str(ix), str(iy), str(iz), fmt_float(x), fmt_float(y), fmt_float(z)] + comps)
        )
    _write_lines(path, lines)
    meta_lines = [f"{key}={_cell(val) if not isinstance(val, str) else val}" for key, val in meta.items()]
    _write_lines(path + ".meta", meta_lines)


def read_field_csv(path: str):
    """Read a field dump back; returns (grid, values, meta)."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    meta: dict = {}
    with open(path + ".meta", "r") as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            meta[key] = val
    n = int(round(raw[:, 0].max())) + 1
    grid = Grid3(float(meta["L"]), n)
    vals = raw[:, 6::2] + 1j * raw[:, 7::2]
    return grid, vals, meta


def _table_lines(header, rows) -> list:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return lines


def write_records_csv(path: str, records) -> list:
    """Sweep records in declared field order (n_part_l2 stays off-disk);
    like every table writer, returns its rows for write_dat."""
    rows = [
        (r.mu, r.k, r.j, r.sup_norm, r.n_part_norm, r.residual_part, r.predicted_bound, r.at_resonance)
        for r in records
    ]
    _write_lines(path, _table_lines(RECORD_COLUMNS, rows))
    return rows


def write_boundstates_csv(path: str, records) -> list:
    rows = [(r.mu, r.kappa, r.kappa_sq, r.E, r.sigma_min) for r in records]
    _write_lines(path, _table_lines(BOUNDSTATE_COLUMNS, rows))
    return rows


def write_derivatives_csv(path: str, bounds) -> list:
    rows = [
        (b.mu, b.k, b.alpha, b.weighted_sup.get(1, 0.0), b.weighted_sup.get(2, 0.0))
        for b in bounds
    ]
    _write_lines(path, _table_lines(DERIVATIVE_COLUMNS, rows))
    return rows


def write_inverse_csv(path: str, reports) -> list:
    rows = [
        tuple(rep[c] if c != "mu" else rep.get("mu", 0.0) for c in INVERSE_COLUMNS)
        for rep in reports
    ]
    _write_lines(path, _table_lines(INVERSE_COLUMNS, rows))
    return rows


def _matrix_block(name: str, M: np.ndarray) -> list:
    lines = [f"# {name}", "p,q,re,im"]
    M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    for p in range(M.shape[0]):
        for q in range(M.shape[1]):
            lines.append(f"{p},{q},{fmt_float(M[p, q].real)},{fmt_float(M[p, q].imag)}")
    return lines


def _list_block(name: str, vals) -> list:
    lines = [f"# {name}", "p,value"]
    for p, v in enumerate(vals):
        lines.append(f"{p},{fmt_float(v)}")
    return lines


def write_forms_csv(path: str, forms) -> None:
    """Taylor-form data as stacked CSV blocks (R, S, gammas, C1..C3)."""
    lines = _matrix_block("R", forms.R)
    lines += [""] + _matrix_block("S", forms.S)
    if forms.gammas is not None:
        lines += [""] + _list_block("gammas", forms.gammas)
    for name in ("C1", "C2", "C3"):
        vals = getattr(forms, name)
        if vals is not None:
            lines += [""] + _list_block(name, vals)
    _write_lines(path, lines)


def write_dat(path: str, columns: tuple, rows) -> None:
    """Gnuplot-friendly table: `# col col ...` header, space separated."""
    lines = ["# " + " ".join(columns)]
    for row in rows:
        lines.append(" ".join(_cell(v) for v in row))
    _write_lines(path, lines)
