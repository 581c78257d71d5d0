"""The failure contract: located errors, and malformed inputs through the CLI."""

import contextlib
import io as stdio
import json
import math
import os
import tempfile

import numpy as np
import pytest
from conftest import degenerate_metric_immersion, graph_surface, immersion_of, null_plane, unstable_triple
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minksurf import io
from minksurf.analysis import Immersion, geometric_frame
from minksurf.canonical import canonicalize
from minksurf.cli import run
from minksurf.errors import (
    BlowUp,
    DegenerateMetric,
    LocatedError,
    MinimalOrTotallyGeodesic,
    NearZeroField,
    NotIsotropic,
    NotSeparable,
    ResidualTooLarge,
    StepUnstable,
)
from minksurf.fields import GridSpec, ScalarField, is_integral, ln_abs
from minksurf.fixtures import constant_triple, cylinder_immersion, goursat_degenerate_triple, jet_triple
from minksurf.frames import coefficient_matrices, integrate_frame, reconstruct
from minksurf.jets import MAX_JET_ORDER
from minksurf.natural import Case, solve_goursat_degenerate, solve_goursat_hyperbolic

G33 = GridSpec(0, 1, 0, 1, 33, 33)
G65 = GridSpec(0, 1, 0, 1, 65, 65)


def _zero_at_two_nodes():
    vals = np.ones((33, 33))
    vals[3, 3] = vals[5, 7] = 0.0
    ln_abs(ScalarField(G33, vals))


def _hyperbolic_sweep_blowup(grid):
    const = lambda x: 20.0 + 0.0 * x  # noqa: E731
    solve_goursat_hyperbolic(const, const, const, const, lambda u: 0 * u, lambda v: 0 * v, grid)


def _f_positive_plane():
    # the null plane with v reversed: E = G = 0 and F = +1 at every node
    m = null_plane()
    return Immersion(m.grid, m.points[:, ::-1].copy())


def _non_pnmc_immersion():
    return immersion_of(reconstruct(jet_triple(Case.POSITIVE_KH, order=4, radius=0.2, nodes=33), tol_build=math.inf))


# every raise site that names a node: (the call that fails, its grid, the error)
LOCATED = {
    "near-zero-field": (_zero_at_two_nodes, G33, NearZeroField),
    "march-blowup": (lambda: solve_goursat_degenerate(lambda u: 1 + u, lambda u: 0 * u, lambda v: 0 * v,
                                                      lambda u: 0 * u, G65), G65, BlowUp),
    "sweep-blowup": (lambda: _hyperbolic_sweep_blowup(GridSpec(0, 0.5, 0, 0.5, 33, 33)),
                     GridSpec(0, 0.5, 0, 0.5, 33, 33), BlowUp),
    "step-unstable": (lambda: integrate_frame(coefficient_matrices(unstable_triple())), unstable_triple().grid,
                      StepUnstable),
    "residual-too-large": (lambda: reconstruct(goursat_degenerate_triple(33)), G33, ResidualTooLarge),
    "degenerate-metric": (lambda: geometric_frame(degenerate_metric_immersion()), G33, DegenerateMetric),
    "not-isotropic-E-G": (lambda: geometric_frame(graph_surface()), G33, NotIsotropic),
    "not-isotropic-F": (lambda: geometric_frame(_f_positive_plane()), G33, NotIsotropic),
    "minimal": (lambda: geometric_frame(null_plane()), G33, MinimalOrTotallyGeodesic),
    "not-separable": (lambda: canonicalize(_non_pnmc_immersion()), GridSpec(-0.2, 0.2, -0.2, 0.2, 33, 33),
                      NotSeparable),
}


@pytest.mark.parametrize("call, grid, error", LOCATED.values(), ids=LOCATED.keys())
def test_located_error_names_node_and_uv(call, grid, error):
    with pytest.raises(error) as info:
        call()
    exc = info.value
    assert isinstance(exc, LocatedError)
    assert exc.uv == grid.uv(exc.node)
    assert str(exc).endswith(f"at node {exc.node}, (u, v) = {exc.uv}")


# ---------------------------------------------------------------------------
# malformed inputs through cli.run: exit 0-3, never a traceback, and one JSON
# error report on stderr for every non-zero exit

NODES = 7
BAD_CELLS = ["abc", "", "nan", "inf", "-inf", "1e400", "0x10", "1,2"]


@st.composite
def immersion_csv(draw):
    """A 7 x 7 immersion CSV, edited; known-invalid edits: a bad cell or a missing row."""
    cyl = cylinder_immersion(NODES)
    with tempfile.TemporaryDirectory() as d:
        io.write_immersion_csv(cyl, os.path.join(d, "m.csv"))
        with open(os.path.join(d, "m.csv")) as fh:
            header, *rows = fh.read().splitlines()
    kind = draw(st.sampled_from(["cell", "drop-row", "truncate", "header"]))
    k = draw(st.integers(0, len(rows) - 1))
    if kind == "cell":
        cells = rows[k].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
        rows[k] = ",".join(cells)
    elif kind == "drop-row":
        del rows[k]
    elif kind == "header":
        header = draw(st.text(max_size=12))
    text = "\n".join([header] + rows) + "\n"
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    return {"kind": "csv", "text": text, "invalid": kind in ("cell", "drop-row")}


# bounded, so that no drawn value is a valid but huge node count
FLOATS = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([float("nan"), float("inf"), float("-inf")]))
BAD_COUNTS = st.sampled_from([6.5, 33.7, float("inf"), float("-inf"), float("nan")])
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=4), FLOATS, st.lists(st.integers(0, 9), max_size=2),
)


@st.composite
def triple_sidecar(draw):
    """The sidecar of a 7 x 7 bundle: a case or none, and up to two more keys; 1e400 is written as text.

    Known-invalid: any key but case, a missing case, and a case that is not a Case value.
    """
    cases = [c.value for c in Case]
    sidecar = {}
    if draw(st.booleans()):
        sidecar["case"] = draw(st.one_of(st.sampled_from(cases), st.just("@"), JSON_VALUES))
    for key in draw(st.lists(st.sampled_from(["grid", "sign_mu", "flags", "Nu", "extra"]), max_size=2, unique=True)):
        sidecar[key] = draw(st.one_of(st.just("@"), BAD_COUNTS, FLOATS, JSON_VALUES))
    text = json.dumps(sidecar).replace('"@"', "1e400")
    valid = set(sidecar) == {"case"} and sidecar["case"] in cases
    return {"kind": "sidecar", "text": text, "invalid": not valid}


@st.composite
def job_config(draw):
    """A residual job config: the jet at 9 nodes with a drawn order, or each key present or not by its own draw.

    Known-invalid: a non-integral or non-finite node count, and the jet with
    an order that is not an integer in 2..MAX_JET_ORDER.
    """
    if draw(st.booleans()):
        config = {"fixture": "jet", "order": draw(st.integers(-5, 30) | JSON_VALUES), "nodes": 9}
    else:
        values = {"fixture": st.one_of(st.just("jet"), JSON_VALUES),
                  "nodes": st.one_of(BAD_COUNTS, FLOATS, JSON_VALUES)}
        config = {k: draw(values.get(k, JSON_VALUES))
                  for k in ("fixture", "order", "radius", "case", "command", "extra", "nodes") if draw(st.booleans())}
    nodes, order = config.get("nodes"), config.get("order")
    bad_order = config.get("fixture") == "jet" and "order" in config and not (
        is_integral(order) and 2 <= order <= MAX_JET_ORDER)
    return {"kind": "config", "text": json.dumps(config),
            "invalid": isinstance(nodes, float) and not nodes.is_integer() or bad_order}


MISSING = st.sampled_from([{"kind": k, "text": None, "invalid": True} for k in ("csv", "sidecar", "config")])


def _run_case(d: str, case: dict) -> tuple[int, str]:
    if case["kind"] == "csv":
        path = os.path.join(d, "m.csv")
        argv = ["analyze", "--immersion", path]
    elif case["kind"] == "sidecar":
        io.write_triple_bundle(constant_triple(NODES), os.path.join(d, "tri"))
        path = os.path.join(d, "tri", "triple.json")
        argv = ["residual", "--triple", os.path.join(d, "tri")]
    else:
        path = os.path.join(d, "job.json")
        argv = ["--config", path, "residual"]
    if case["text"] is None:
        if os.path.exists(path):
            os.remove(path)
    else:
        with open(path, "w") as fh:
            fh.write(case["text"])
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


SIDECAR_NU_1E400 = json.dumps({"case": "negative", "sign_mu": 1, "grid": {
    "u0": 0.0, "u1": 1.0, "v0": 0.0, "v1": 1.0, "Nu": "@", "Nv": NODES}, "flags": []}).replace('"@"', "1e400")
SIDECAR_SIGN_TRUE = json.dumps({"case": "negative", "sign_mu": True, "grid": {
    "u0": 0.0, "u1": 1.0, "v0": 0.0, "v1": 1.0, "Nu": NODES, "Nv": NODES}, "flags": []})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=st.one_of(immersion_csv(), triple_sidecar(), job_config(), MISSING))
@example(case={"kind": "sidecar", "text": SIDECAR_NU_1E400, "invalid": True})  # once an OverflowError traceback
@example(case={"kind": "config", "text": '{"fixture": "jet", "order": 0}', "invalid": True})  # once an IndexError
@example(case={"kind": "sidecar", "text": SIDECAR_SIGN_TRUE, "invalid": True})  # once read as +1, exit 0
def test_malformed_inputs_end_in_one_json_error_report(case):
    with tempfile.TemporaryDirectory() as d:
        code, err = _run_case(d, case)
    assert code in (0, 1, 2, 3)
    if code:
        report = json.loads(err)  # exactly one JSON document
        assert report["status"] == "error"
    if case["invalid"]:
        assert code in (1, 3), (code, err)
