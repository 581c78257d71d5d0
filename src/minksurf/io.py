"""File formats: CSV fields, triple bundles, immersions, legacy VTK, reports.

All floating-point output is printed with 17 significant digits so that CSV
and JSON artifacts round-trip float64 exactly and repeated runs are
byte-identical.  Grid CSVs are field CSVs (`u,v,value`) and immersion CSVs
(`u,v,x1,x2,x3,x4`); a triple bundle is a directory holding lambda.csv,
mu.csv, nu.csv and a triple.json sidecar `{"case": ...}` with no other key
(the CSVs carry the grid and mu's sign).  A grid CSV is read only if it has
the exact header, rows u outer / v fastest over uniform nodes (within
1e-9 × each axis' span), finite values and at least 5 nodes per axis;
anything else raises a ValidationError (exit 1), never a misread surface.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

import numpy as np

from .analysis import Immersion, InvariantReport
from .errors import ConfigError, ValidationError
from .fields import GridSpec, ScalarField
from .natural import CanonicalTriple, Case

FLOAT_FMT = "%.17g"
FIELD_HEADER = "u,v,value"
IMMERSION_HEADER = "u,v,x1,x2,x3,x4"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


# ---------------------------------------------------------------------------
# grid files


def _rows(table: np.ndarray, sep: str) -> str:
    """One line of `sep`-joined 17-digit values per row of a 2-D table."""
    line = sep.join([FLOAT_FMT] * table.shape[1]) + "\n"
    return (line * table.shape[0]) % tuple(table.ravel().tolist())


def _write_grid_csv(path: str, header: str, grid: GridSpec, samples: np.ndarray) -> None:
    """`header`, then one `u,v,samples...` row per node, u outer / v fastest.

    Each coordinate is formatted once, and a u row's template is one join of
    the v rows with that u; one `%` fills in the samples.
    """
    table = samples.reshape(grid.Nu * grid.Nv, -1)
    tail = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    v_rows = [fmt(v) + "," + tail for v in grid.v_nodes]
    template = "".join([u + u.join(v_rows) for u in (fmt(u) + "," for u in grid.u_nodes)])
    with open(path, "w") as fh:
        fh.write(header + "\n" + template % tuple(table.ravel().tolist()))


def _read_grid_csv(path: str, header: str) -> tuple[GridSpec, np.ndarray]:
    """Parse and check a grid CSV; returns the grid and samples[Nu, Nv, k]."""

    def bad(why) -> ConfigError:
        return ConfigError(f"{path}: {why}")

    try:
        with open(path) as fh:
            found, lines = fh.readline().rstrip("\n"), fh.readlines()
    except ValueError as exc:  # undecodable text
        raise bad(exc) from exc
    if found != header:
        raise bad(f"header {found!r} is not {header!r}")
    if len(lines) < 2:
        raise bad(f"only {len(lines)} data rows")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:  # non-numeric text, ragged rows
        raise bad(exc) from exc
    ncols = header.count(",") + 1
    if data.shape[1] != ncols:
        raise bad(f"{data.shape[1]} columns, expected {ncols} ({header})")
    if not np.all(np.isfinite(data)):
        raise bad(f"non-finite value on line {np.argwhere(~np.isfinite(data))[0, 0] + 2}")
    u, v = np.unique(data[:, 0]), np.unique(data[:, 1])
    if len(u) < 2 or len(v) < 2 or len(u) * len(v) != len(data):
        raise bad(f"{len(data)} rows over {len(u)} u and {len(v)} v values: not a full rectangular grid")
    grid = GridSpec(u[0], u[-1], v[0], v[-1], len(u), len(v))
    nodes = np.column_stack([X.ravel() for X in grid.mesh()])
    off = np.any(np.abs(data[:, :2] - nodes) > 1e-9 * np.ptp(nodes, axis=0), axis=1)
    if np.any(off):
        k = int(np.argmax(off))
        raise bad(f"line {k + 2} has (u, v) = {data[k, :2].tolist()}, not {nodes[k].tolist()}: "
                  "rows must run u outer / v fastest over uniform nodes")
    return grid, data[:, 2:].reshape(grid.Nu, grid.Nv, ncols - 2)


def write_field_csv(field: ScalarField, path: str) -> None:
    _write_grid_csv(path, FIELD_HEADER, field.grid, field.values)


def read_field_csv(path: str) -> ScalarField:
    grid, samples = _read_grid_csv(path, FIELD_HEADER)
    return ScalarField(grid, samples[..., 0])


def write_immersion_csv(m: Immersion, path: str) -> None:
    _write_grid_csv(path, IMMERSION_HEADER, m.grid, m.points)


def read_immersion_csv(path: str) -> Immersion:
    return Immersion(*_read_grid_csv(path, IMMERSION_HEADER))


def write_vtk_structured(
    path: str,
    m: Immersion,
    n1: np.ndarray | None = None,
    n2: np.ndarray | None = None,
) -> None:
    """ASCII legacy VTK: points are (x1, x2, x3), x4 rides along as a scalar.

    Normal fields are written as 3-component vectors (spatial part) plus a
    scalar for their timelike component, since legacy VTK vectors are 3-d.
    """
    g = m.grid
    npts = g.Nu * g.Nv
    blocks = [(m.points, f"POINTS {npts} double", f"POINT_DATA {npts}\nSCALARS x4 double 1")]
    for name, vec in (("n1", n1), ("n2", n2)):
        if vec is not None:
            blocks.append((vec, f"VECTORS {name} double", f"SCALARS {name}_x4 double 1"))
    parts = ["# vtk DataFile Version 3.0\ntimelike surface reconstruction\nASCII\n"
             f"DATASET STRUCTURED_GRID\nDIMENSIONS {g.Nu} {g.Nv} 1\n"]
    for vec, head3, head1 in blocks:
        table = np.swapaxes(vec, 0, 1).reshape(-1, 4)  # VTK orders the first DIMENSION fastest
        parts += [head3 + "\n", _rows(table[:, :3], " "),
                  head1 + "\nLOOKUP_TABLE default\n", _rows(table[:, 3:], " ")]
    with open(path, "w") as fh:
        fh.write("".join(parts))


# ---------------------------------------------------------------------------
# triple bundles


def write_triple_bundle(t: CanonicalTriple, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_field_csv(t.lam, os.path.join(dirpath, "lambda.csv"))
    write_field_csv(t.mu, os.path.join(dirpath, "mu.csv"))
    write_field_csv(t.nu, os.path.join(dirpath, "nu.csv"))
    write_report({"case": t.case.value}, os.path.join(dirpath, "triple.json"))


def read_triple_bundle(dirpath: str) -> CanonicalTriple:
    """Read a bundle; triple.json holds the case alone, the CSVs everything else."""
    try:
        with open(os.path.join(dirpath, "triple.json")) as fh:
            sidecar = json.load(fh)
        case = Case(sidecar["case"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{dirpath}: malformed triple.json: {exc!r}") from exc
    unknown = set(sidecar) - {"case"}
    if unknown:
        raise ConfigError(f"{dirpath}: triple.json holds only the case; drop {sorted(unknown)}")
    lam, mu, nu = (read_field_csv(os.path.join(dirpath, f"{name}.csv")) for name in ("lambda", "mu", "nu"))
    for name, field in (("mu", mu), ("nu", nu)):
        if field.grid != lam.grid:
            raise ValidationError(f"{dirpath}: triple fields must share one grid; {name}.csv lies on "
                                  f"{_grid_text(field.grid)}, lambda.csv on {_grid_text(lam.grid)}")
    return CanonicalTriple(lam=lam, mu=mu, nu=nu, case=case)


def _grid_text(g: GridSpec) -> str:
    u0, u1, v0, v1 = (float(x) for x in (g.u0, g.u1, g.v0, g.v1))  # repr: the shortest exact decimal
    return f"{g.Nu} x {g.Nv} nodes on [{u0!r}, {u1!r}] x [{v0!r}, {v1!r}]"


# ---------------------------------------------------------------------------
# reports


def _emit(obj, out: list) -> None:
    if isinstance(obj, Mapping):
        out.append("{")
        for idx, (k, val) in enumerate(obj.items()):
            if idx:
                out.append(", ")
            out.append(json.dumps(str(k)) + ": ")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, val in enumerate(obj):
            if idx:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt(obj) if np.isfinite(obj) else "null")  # JSON has no nan or inf
    else:
        out.append(json.dumps(str(obj)))


def report_text(report: dict) -> str:
    """Deterministic JSON with floats at 17 significant digits; nan and inf as null."""
    out: list = []
    _emit(report, out)
    return "".join(out) + "\n"


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(report_text(report))


# every invariant field, in the summary's order; the betas are summarized by
# one key, beta_max, at their place
INVARIANT_FIELDS = (
    ("K_metric", lambda rep: rep.K_metric),
    ("K_frame", lambda rep: rep.K_frame),
    ("KmH2_formula", lambda rep: rep.KmH2_formula),
    ("Delta1", lambda rep: rep.Delta1),
    ("Delta2", lambda rep: rep.Delta2),
    ("Delta3", lambda rep: rep.Delta3),
    ("beta1", lambda rep: rep.functions.beta1),
    ("beta2", lambda rep: rep.functions.beta2),
    ("nu", lambda rep: rep.functions.nu),
)


def invariant_report_dict(rep: InvariantReport) -> dict:
    """Interior min/max of each invariant field (two boundary layers dropped); the betas' largest |.|; the class."""
    summary = {}
    for name, get in INVARIANT_FIELDS:
        field = get(rep)
        if name.startswith("beta"):
            summary["beta_max"] = max(summary.get("beta_max", 0.0), field.interior_max_abs())
        else:
            inner = field.values[field.grid.interior()]
            summary[name] = {"min": float(np.min(inner)), "max": float(np.max(inner))}
    summary["classification"] = rep.classification.value
    return summary


def write_invariant_report(rep: InvariantReport, dirpath: str) -> None:
    """The summary as invariants.json, and one field CSV per entry of INVARIANT_FIELDS."""
    os.makedirs(dirpath, exist_ok=True)
    write_report(invariant_report_dict(rep), os.path.join(dirpath, "invariants.json"))
    for name, get in INVARIANT_FIELDS:
        write_field_csv(get(rep), os.path.join(dirpath, f"{name}.csv"))
