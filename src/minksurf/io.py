"""File formats: CSV fields, triple bundles, immersions, legacy VTK, reports.

All floating-point output is printed with 17 significant digits so that CSV
and JSON artifacts round-trip float64 exactly and repeated runs are
byte-identical.  Field CSVs are `u,v,value` rows, u outer / v fastest; a
triple bundle is a directory holding lambda.csv, mu.csv, nu.csv and a
triple.json sidecar; immersions are `u,v,x1,x2,x3,x4` CSVs.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

import numpy as np

from .analysis import Immersion, InvariantReport
from .errors import ConfigError
from .fields import GridSpec, ScalarField
from .natural import CanonicalTriple, Case

FLOAT_FMT = "%.17g"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


# ---------------------------------------------------------------------------
# scalar fields


def write_field_csv(field: ScalarField, path: str) -> None:
    g = field.grid
    u, v = g.u_nodes, g.v_nodes
    with open(path, "w") as fh:
        fh.write("u,v,value\n")
        for i in range(g.Nu):
            for j in range(g.Nv):
                fh.write(f"{fmt(u[i])},{fmt(v[j])},{fmt(field.values[i, j])}\n")


def read_field_csv(path: str) -> ScalarField:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    u = np.unique(data[:, 0])
    v = np.unique(data[:, 1])
    Nu, Nv = len(u), len(v)
    if Nu * Nv != data.shape[0]:
        raise ConfigError(f"{path}: not a full rectangular grid")
    grid = GridSpec(u[0], u[-1], v[0], v[-1], Nu, Nv)
    vals = data[:, 2].reshape(Nu, Nv)
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# triple bundles


def write_triple_bundle(t: CanonicalTriple, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_field_csv(t.lam, os.path.join(dirpath, "lambda.csv"))
    write_field_csv(t.mu, os.path.join(dirpath, "mu.csv"))
    write_field_csv(t.nu, os.path.join(dirpath, "nu.csv"))
    sidecar = {
        "case": t.case.value,
        "sign_mu": t.sign_mu,
        "grid": t.grid.to_dict(),
        "flags": list(t.flags),
    }
    write_report(sidecar, os.path.join(dirpath, "triple.json"))


def read_triple_bundle(dirpath: str) -> CanonicalTriple:
    """Read a bundle; the sidecar's grid and sign_mu must agree with the CSVs."""
    with open(os.path.join(dirpath, "triple.json")) as fh:
        sidecar = json.load(fh)
    try:
        case = Case(sidecar["case"])
        grid = GridSpec.from_dict(sidecar["grid"])
        sign_mu = sidecar["sign_mu"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{dirpath}: malformed triple.json: {exc!r}") from exc
    lam = read_field_csv(os.path.join(dirpath, "lambda.csv"))
    mu = read_field_csv(os.path.join(dirpath, "mu.csv"))
    nu = read_field_csv(os.path.join(dirpath, "nu.csv"))
    t = CanonicalTriple(lam=lam, mu=mu, nu=nu, case=case, flags=tuple(sidecar.get("flags", [])))
    if grid != t.grid:
        raise ConfigError(f"{dirpath}: triple.json grid {grid} disagrees with the CSV grid {t.grid}")
    if sign_mu != t.sign_mu:
        raise ConfigError(f"{dirpath}: triple.json sign_mu {sign_mu} disagrees with mu.csv ({t.sign_mu})")
    return t


# ---------------------------------------------------------------------------
# immersions


def write_immersion_csv(m: Immersion, path: str) -> None:
    g = m.grid
    u, v = g.u_nodes, g.v_nodes
    with open(path, "w") as fh:
        fh.write("u,v,x1,x2,x3,x4\n")
        for i in range(g.Nu):
            for j in range(g.Nv):
                p = m.points[i, j]
                fh.write(
                    f"{fmt(u[i])},{fmt(v[j])},{fmt(p[0])},{fmt(p[1])},{fmt(p[2])},{fmt(p[3])}\n"
                )


def read_immersion_csv(path: str) -> Immersion:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    u = np.unique(data[:, 0])
    v = np.unique(data[:, 1])
    Nu, Nv = len(u), len(v)
    if Nu * Nv != data.shape[0]:
        raise ConfigError(f"{path}: not a full rectangular grid")
    grid = GridSpec(u[0], u[-1], v[0], v[-1], Nu, Nv)
    pts = data[:, 2:6].reshape(Nu, Nv, 4)
    return Immersion(grid, pts)


# ---------------------------------------------------------------------------
# legacy VTK structured grid


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
    lines = [
        "# vtk DataFile Version 3.0",
        "timelike surface reconstruction",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {g.Nu} {g.Nv} 1",
        f"POINTS {npts} double",
    ]
    # VTK orders the first DIMENSION fastest
    for j in range(g.Nv):
        for i in range(g.Nu):
            p = m.points[i, j]
            lines.append(f"{fmt(p[0])} {fmt(p[1])} {fmt(p[2])}")
    lines.append(f"POINT_DATA {npts}")
    lines.append("SCALARS x4 double 1")
    lines.append("LOOKUP_TABLE default")
    for j in range(g.Nv):
        for i in range(g.Nu):
            lines.append(fmt(m.points[i, j, 3]))
    for name, vec in (("n1", n1), ("n2", n2)):
        if vec is None:
            continue
        lines.append(f"VECTORS {name} double")
        for j in range(g.Nv):
            for i in range(g.Nu):
                w = vec[i, j]
                lines.append(f"{fmt(w[0])} {fmt(w[1])} {fmt(w[2])}")
        lines.append(f"SCALARS {name}_x4 double 1")
        lines.append("LOOKUP_TABLE default")
        for j in range(g.Nv):
            for i in range(g.Nu):
                lines.append(fmt(vec[i, j, 3]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reports


def _emit(obj, out: list) -> None:
    if isinstance(obj, Mapping):
        out.append("{")
        first = True
        for k, val in obj.items():
            if not first:
                out.append(", ")
            first = False
            out.append(json.dumps(str(k)))
            out.append(": ")
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
        out.append(fmt(obj))
    else:
        out.append(json.dumps(str(obj)))


def report_text(report: dict) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    out: list = []
    _emit(report, out)
    return "".join(out) + "\n"


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(report_text(report))


def invariant_report_dict(rep: InvariantReport, layers: int = 2) -> dict:
    """Interior min/max summary of every invariant field."""
    g = rep.K_metric.grid
    su, sv = g.interior(layers)

    def mm(field: ScalarField) -> dict:
        inner = field.values[su, sv]
        return {"min": float(np.min(inner)), "max": float(np.max(inner))}

    return {
        "K_metric": mm(rep.K_metric),
        "K_frame": mm(rep.K_frame),
        "H2": mm(rep.H2),
        "KmH2_direct": mm(rep.KmH2_direct),
        "KmH2_formula": mm(rep.KmH2_formula),
        "Delta1": mm(rep.Delta1),
        "Delta2": mm(rep.Delta2),
        "Delta3": mm(rep.Delta3),
        "beta_max": float(
            max(rep.functions.beta1.interior_max_abs(layers), rep.functions.beta2.interior_max_abs(layers))
        ),
        "nu": mm(rep.functions.nu),
        "classification": rep.overall_class().value,
    }


def write_invariant_report(rep: InvariantReport, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_report(invariant_report_dict(rep), os.path.join(dirpath, "invariants.json"))
    for name, field in (
        ("K_metric", rep.K_metric),
        ("K_frame", rep.K_frame),
        ("H2", rep.H2),
        ("KmH2_direct", rep.KmH2_direct),
        ("KmH2_formula", rep.KmH2_formula),
        ("Delta1", rep.Delta1),
        ("Delta2", rep.Delta2),
        ("Delta3", rep.Delta3),
        ("nu", rep.functions.nu),
        ("beta1", rep.functions.beta1),
        ("beta2", rep.functions.beta2),
    ):
        write_field_csv(field, os.path.join(dirpath, f"{name}.csv"))
