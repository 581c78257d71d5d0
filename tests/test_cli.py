import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import degenerate_metric_immersion, graph_surface, null_plane, unstable_triple

from minksurf import io
from minksurf.analysis import Immersion
from minksurf.cli import _emit_error, run
from minksurf.errors import NoConvergence
from minksurf.fields import GridSpec, ScalarField
from minksurf.fixtures import (
    cylinder_immersion,
    goursat_degenerate_triple,
    jet_triple,
    make_triple_fixture,
    nonsolution_triple,
)
from minksurf.frames import reconstruct
from minksurf.natural import Case, residual


def _cli_process(*argv: str) -> subprocess.CompletedProcess:
    """The command line run in a fresh interpreter, where warnings reach the real stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "minksurf.cli", *argv], capture_output=True, text=True, env=env)


def test_residual_constant_fixture(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = run(["residual", "--fixture", "constant", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "r1 max" in out
    data = json.loads(report.read_text())
    assert data["status"] == "ok"
    assert data["metrics"]["max_abs"] <= 1e-12


def test_reconstruct_writes_bundle(tmp_path):
    out = tmp_path / "bundle"
    report = tmp_path / "rec.json"
    code = run([
        "reconstruct", "--fixture", "constant",
        "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    assert (out / "immersion.csv").exists()
    assert (out / "surface.vtk").exists()
    assert (out / "diagnostics.json").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["gram_drift"] <= 1e-10


def test_reconstruct_nonsolution_exit_2(tmp_path):
    bad = tmp_path / "bad"
    io.write_triple_bundle(nonsolution_triple(33), str(bad))
    report = tmp_path / "err.json"
    code = run([
        "reconstruct", "--triple", str(bad),
        "--out", str(tmp_path / "out"), "--report", str(report),
    ])
    assert code == 2
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "ResidualTooLarge"


def test_step_unstable_report_locates_failure(tmp_path):
    t = unstable_triple()
    g = t.grid
    io.write_triple_bundle(t, str(tmp_path / "unstable"))
    report = tmp_path / "err.json"
    code = run([
        "reconstruct", "--triple", str(tmp_path / "unstable"), "--tol-build", "inf",
        "--out", str(tmp_path / "out"), "--report", str(report),
    ])
    assert code == 2
    data = json.loads(report.read_text())
    assert data["error"] == "StepUnstable"
    assert data["sweep"] == "columns"
    i, j = data["node"]
    assert data["uv"] == [g.u_nodes[i], g.v_nodes[j]]
    assert g.v_nodes[j - 1] < data["s"] <= g.v_nodes[j]


def test_residual_too_large_report_locates_failure(tmp_path):
    # goursat-degenerate fails its own build gate at 33 nodes; r3 is the worst equation
    report = tmp_path / "err.json"
    code = run(["roundtrip", "--fixture", "goursat-degenerate", "--nodes", "33", "--report", str(report)])
    assert code == 2
    data = json.loads(report.read_text())
    assert data["error"] == "ResidualTooLarge"
    assert data["node"] == [30, 30]
    t = goursat_degenerate_triple(33)
    assert data["uv"] == [t.grid.u_nodes[30], t.grid.v_nodes[30]]
    rep = residual(t)
    assert abs(rep.r3.values[30, 30]) == rep.interior_max_abs > 1e-3
    assert "residual r3 = 2.611e-03" in data["message"] and "node (30, 30)" in data["message"]
    # the numbers are keys of their own, not only text in the message
    assert data["measured"] == rep.interior_max_abs and f"{data['measured']:.3e}" == "2.611e-03"
    assert data["tol"] == 1e-3


def test_near_zero_mu_report_locates_failure(tmp_path):
    # on a radius-2 patch the eps = -1 jet's g = ln|mu| falls to -35 at a corner
    report = tmp_path / "r.json"
    code = run(["residual", "--fixture", "jet", "--case", "negative", "--radius", "2", "--report", str(report)])
    assert code == 2
    data = json.loads(report.read_text())
    assert data["error"] == "NearZeroField"
    assert data["node"] == [64, 64]
    assert data["uv"] == [2.0, 2.0]
    assert "node (64, 64)" in data["message"]


def test_no_convergence_report_has_deltas(tmp_path, capsys):
    report = tmp_path / "err.json"
    _emit_error("solve", str(report), NoConvergence("sweep diverged", deltas=[0.5, 0.25, float("nan")]))
    data = json.loads(report.read_text())
    assert data["error"] == "NoConvergence"
    assert data["deltas"] == [0.5, 0.25, None]
    assert json.loads(capsys.readouterr().err) == data


def test_bundle_fields_on_different_grids_exit_1(tmp_path):
    # a ValidationError, not a bare ValueError, naming the bundle, the file that differs and both grids
    bundle = tmp_path / "bundle"
    io.write_triple_bundle(goursat_degenerate_triple(33), str(bundle))
    io.write_field_csv(ScalarField.constant(GridSpec(0, 1, 0, 1, 9, 9), 1.0), str(bundle / "lambda.csv"))
    report = tmp_path / "err.json"
    assert run(["residual", "--triple", str(bundle), "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["error"] == "ValidationError"
    assert data["message"] == (f"{bundle}: triple fields must share one grid; mu.csv lies on 33 x 33 nodes "
                               f"on [0.0, 1.0] x [0.0, 1.0], lambda.csv on 9 x 9 nodes on [0.0, 1.0] x [0.0, 1.0]")


def test_bundle_mu_changing_sign_exit_1(tmp_path):
    # no generator writes a mu that changes sign, so a bundle with one is bad input, located where it flips
    bundle = tmp_path / "bundle"
    t = goursat_degenerate_triple(9)
    io.write_triple_bundle(t, str(bundle))
    mu = t.mu.values.copy()
    mu[4, 3] = -mu[4, 3]
    io.write_field_csv(ScalarField(t.grid, mu), str(bundle / "mu.csv"))
    report = tmp_path / "err.json"
    assert run(["residual", "--triple", str(bundle), "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["error"] == "SignChange"
    assert data["node"] == [4, 3]
    assert data["uv"] == list(t.grid.uv((4, 3)))
    assert data["message"].startswith("mu changes sign")


def test_unknown_triple_fixture_exit_1(tmp_path):
    # cylinder is an immersion fixture, not a triple fixture
    report = tmp_path / "err.json"
    code = run(["residual", "--fixture", "cylinder", "--report", str(report)])
    assert code == 1
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "ConfigError"


def test_triple_fixture_rejects_a_misspelled_jet_option():
    # the jet options go on to jet_triple, which has the only defaults
    with pytest.raises(TypeError):
        make_triple_fixture("jet", orde=4)


@pytest.mark.parametrize("order", ["0", "-5", "25", "100000000"])
def test_jet_order_out_of_range_exit_1(capsys, order):
    # 0 was an IndexError, -5 a ValueError and 1e8 an OverflowError, before any check
    assert run(["residual", "--fixture", "jet", "--nodes", "9", "--order", order]) == 1
    data = json.loads(capsys.readouterr().err)  # one JSON document
    assert (data["error"], data["message"]) == ("ValidationError", "jet order must be between 2 and 24")


def test_jet_overflow_stderr_is_one_json_document():
    # exp overflows at radius 50; numpy's warning must not precede the error report
    proc = _cli_process("residual", "--fixture", "jet", "--radius", "50", "--nodes", "9")
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "ValidationError"


def test_unknown_case_exit_1(tmp_path):
    report = tmp_path / "err.json"
    code = run(["residual", "--fixture", "jet", "--case", "sideways", "--report", str(report)])
    assert code == 1
    data = json.loads(report.read_text())
    assert data["error"] == "ConfigError"
    assert data["message"] == "case must be one of ['degenerate', 'negative', 'positive']"


@pytest.mark.parametrize(
    "source, code, error",
    [("fixture", 1, "ConfigError"), ("triple", 2, "ResidualTooLarge")],
)
def test_config_report_receives_error(tmp_path, source, code, error):
    # "nonsolution" names no triple fixture; as a bundle it fails the residual gate
    bad = tmp_path / "nonsolution"
    io.write_triple_bundle(nonsolution_triple(33), str(bad))
    report = tmp_path / "err.json"
    job = {"command": "reconstruct", "report": str(report), "out": str(tmp_path / "out")}
    job[source] = "nonsolution" if source == "fixture" else str(bad)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    assert run(["--config", str(cfg), "reconstruct"]) == code
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == error


def test_solve_and_residual_roundtrip(tmp_path):
    out = tmp_path / "triple"
    code = run(["solve", "--fixture", "goursat-degenerate", "--nodes", "33", "--out", str(out)])
    assert code == 0
    report = tmp_path / "res.json"
    code = run(["residual", "--triple", str(out), "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["metrics"]["interior_max_abs"] <= 1e-2


def test_report_inputs_from_triple_bundle(tmp_path):
    out = tmp_path / "triple"
    assert run(["solve", "--fixture", "jet", "--case", "negative", "--nodes", "33", "--out", str(out)]) == 0
    report = tmp_path / "res.json"
    assert run(["residual", "--triple", str(out), "--report", str(report)]) == 0
    # the bundle carries the grid and the triple: no fixture, size or jet option was read
    assert json.loads(report.read_text())["inputs"] == {"triple": str(out)}


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--fixture", "goursat-degenerate", "--nodes", "65"],
    ["solve", "--fixture", "goursat-degenerate", "--nodes", "65"],
])
def test_report_inputs_of_non_jet_source(tmp_path, argv):
    report = tmp_path / "r.json"
    assert run(argv + ["--out", str(tmp_path / "out"), "--report", str(report)]) == 0
    inputs = json.loads(report.read_text())["inputs"]
    assert inputs["nodes"] == 65
    assert not {"order", "radius", "case", "seed"} & set(inputs)


@pytest.mark.parametrize("argv, keys", [
    (["residual", "--fixture", "jet", "--nodes", "33"], {"fixture", "nodes", "order", "radius", "case"}),
    (["solve", "--fixture", "jet", "--nodes", "33", "--out", "OUT"],
     {"fixture", "nodes", "order", "radius", "case", "seed", "out"}),
])
def test_report_inputs_of_jet_keep_jet_options(tmp_path, argv, keys):
    report = tmp_path / "r.json"
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    assert run(argv + ["--report", str(report)]) == 0
    inputs = json.loads(report.read_text())["inputs"]
    assert set(inputs) == keys
    assert inputs["case"] == "positive" and inputs["order"] == 6


def test_analyze_cylinder(tmp_path):
    report = tmp_path / "inv.json"
    code = run(["analyze", "--fixture", "cylinder", "--nodes", "33", "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["metrics"]["classification"] == "parallel-H"
    assert data["inputs"]["nodes"] == 33
    # without --nodes the fixture keeps its default size
    assert run(["analyze", "--fixture", "cylinder", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["inputs"]["nodes"] == 65


def test_analyze_immersion_takes_no_nodes(tmp_path):
    csv = tmp_path / "cyl.csv"
    io.write_immersion_csv(cylinder_immersion(33), str(csv))
    report = tmp_path / "inv.json"
    assert run(["analyze", "--immersion", str(csv), "--report", str(report)]) == 0
    # the grid comes from the CSV, so the report names no node count
    assert "nodes" not in json.loads(report.read_text())["inputs"]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "analyze", "immersion": str(csv), "nodes": 33}))
    for argv in (["analyze", "--immersion", str(csv), "--nodes", "33"], ["--config", str(cfg), "analyze"]):
        err = tmp_path / "err.json"
        assert run(argv + ["--report", str(err)]) == 1
        data = json.loads(err.read_text())
        assert data["error"] == "ConfigError"
        assert "nodes" in data["message"]


def test_analyze_out_writes_one_csv_per_invariant_field(tmp_path):
    csv = tmp_path / "cyl.csv"
    io.write_immersion_csv(cylinder_immersion(33), str(csv))
    report = tmp_path / "inv.json"
    assert run(["analyze", "--immersion", str(csv), "--out", str(tmp_path / "d"), "--report", str(report)]) == 0
    # H^2 = nu^2 and K - H^2 = K_frame - nu^2 are not written
    names = ["K_metric", "K_frame", "KmH2_formula", "Delta1", "Delta2", "Delta3", "beta1", "beta2", "nu"]
    assert [name for name, _ in io.INVARIANT_FIELDS] == names
    assert sorted(os.listdir(tmp_path / "d")) == sorted([f"{name}.csv" for name in names] + ["invariants.json"])
    metrics = json.loads(report.read_text())["metrics"]
    assert list(metrics) == [*names[:6], "beta_max", "nu", "classification"]
    assert json.loads((tmp_path / "d" / "invariants.json").read_text()) == metrics


@pytest.mark.parametrize("surface, code, error", [
    ("degenerate", 2, "DegenerateMetric"),
    ("overflow", 1, "ValidationError"),
    ("graph", 1, "NotIsotropic"),
])
def test_analyze_metric_gates(tmp_path, surface, code, error):
    cyl = cylinder_immersion(33)
    m = {
        "degenerate": degenerate_metric_immersion,
        "overflow": lambda: Immersion(cyl.grid, cyl.points * 1e160),
        "graph": graph_surface,
    }[surface]()
    csv = tmp_path / "m.csv"
    io.write_immersion_csv(m, str(csv))
    report = tmp_path / "err.json"
    assert run(["analyze", "--immersion", str(csv), "--report", str(report)]) == code
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == error


def f_sign_immersion(i_star: int, nodes: int = 33) -> Immersion:
    """Isotropic, with <z_u, z_v> >= 0 exactly on the rows from `i_star` on.

    z = phi(u) n + v m for the null vectors n = (s, 0, 0, s) and m = (s, 0, 0, -s),
    s = 1/sqrt2, <n, m> = 1, and phi' = u - u*, with u* halfway between rows
    i_star - 1 and i_star: E = G = 0 and F = u - u*, which stays away from 0 on the
    nodes, so the metric gates pass and the F gate is the first to fail.
    """
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    U, V = g.mesh()
    u_star = 0.5 * (g.u_nodes[i_star - 1] + g.u_nodes[i_star])
    phi = 0.5 * (U - u_star) ** 2
    s, zero = 1 / np.sqrt(2), np.zeros_like(U)
    return Immersion(g, np.stack([s * (phi + V), zero, zero, s * (phi - V)], axis=-1))


@pytest.mark.parametrize("surface, node, message", [
    # E = -3 and G = 1 at every node, so the first node of the largest max(|E|, |G|) is the first node
    ("graph", (0, 0), "exceeds"),
    ("f-sign", (10, 0), "< 0 at every node"),
])
def test_analyze_not_isotropic_reports_node(tmp_path, surface, node, message):
    m = graph_surface() if surface == "graph" else f_sign_immersion(node[0])
    csv = tmp_path / "m.csv"
    io.write_immersion_csv(m, str(csv))
    report = tmp_path / "err.json"
    assert run(["analyze", "--immersion", str(csv), "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["error"] == "NotIsotropic"
    assert data["node"] == list(node)
    assert data["uv"] == list(m.grid.uv(node))
    assert f"node {node}" in data["message"] and message in data["message"]


def located_gate_immersion(error: str, node: tuple[int, int], nodes: int = 33) -> Immersion:
    """An immersion that fails geometric_frame's gate `error` at `node` and at no other node.

    With (u*, v*) the node's coordinates and e = 0.01:
    DegenerateMetric: z = (u + v, e (u - u*)^2 / 2, e (v - v*)^2 / 2, 0).  EG - F^2
    is the sum of the squared 2x2 minors of (z_u, z_v), -e (u - u*),
    e (v - v*) and e^2 (u - u*)(v - v*), so it vanishes at (u*, v*) only.
    MinimalOrTotallyGeodesic: the null plane ((u - v)/sqrt2, 0, 0, (u + v)/sqrt2)
    bent by e (u - u*)^2 v / 2 and e u (v - v*)^2 / 2 in the middle components,
    so z_uv = (0, e (u - u*), e (v - v*), 0) and H vanish at (u*, v*) only.
    Both are polynomials the order-4 stencils differentiate exactly.
    """
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    U, V = g.mesh()
    du, dv = U - g.u_nodes[node[0]], V - g.v_nodes[node[1]]
    e, s = 0.01, 1 / np.sqrt(2)
    if error == "DegenerateMetric":
        pts = [U + V, e * du * du / 2, e * dv * dv / 2, np.zeros_like(U)]
    else:
        pts = [(U - V) * s, e * du * du * V / 2, e * U * dv * dv / 2, (U + V) * s]
    return Immersion(g, np.stack(pts, axis=-1))


@pytest.mark.parametrize("error", ["DegenerateMetric", "MinimalOrTotallyGeodesic"])
def test_analyze_metric_gate_reports_node(tmp_path, error):
    node = (10, 20)
    m = located_gate_immersion(error, node)
    csv = tmp_path / "m.csv"
    io.write_immersion_csv(m, str(csv))
    report = tmp_path / "err.json"
    assert run(["analyze", "--immersion", str(csv), "--report", str(report)]) == 2
    data = json.loads(report.read_text())
    assert data["error"] == error
    assert data["node"] == list(node)
    assert data["uv"] == list(m.grid.uv(node))
    assert f"node {node}" in data["message"]
    # the gate fails at that node alone
    assert data["failing"] == 1
    assert "at 1 of 1089 nodes" in data["message"]


@pytest.mark.parametrize("surface, error", [
    ("degenerate", "DegenerateMetric"),
    ("null-plane", "MinimalOrTotallyGeodesic"),
])
def test_analyze_whole_patch_verdict_counts_nodes(tmp_path, surface, error):
    # z = (u + v, 0, 0, 0) and the null plane fail their gate at every node of 33 x 33;
    # the report says so beside the node it names
    m = degenerate_metric_immersion() if surface == "degenerate" else null_plane()
    csv = tmp_path / "m.csv"
    io.write_immersion_csv(m, str(csv))
    report = tmp_path / "err.json"
    assert run(["analyze", "--immersion", str(csv), "--report", str(report)]) == 2
    data = json.loads(report.read_text())
    assert (data["error"], data["failing"]) == (error, 1089)
    assert "at 1089 of 1089 nodes" in data["message"]


def test_metric_overflow_stderr_is_one_json_document(tmp_path):
    # numpy's overflow warnings must not reach stderr ahead of the error report
    cyl = cylinder_immersion(33)
    csv = tmp_path / "m.csv"
    io.write_immersion_csv(Immersion(cyl.grid, cyl.points * 1e160), str(csv))
    proc = _cli_process("analyze", "--immersion", str(csv))
    assert proc.returncode == 1
    data = json.loads(proc.stderr)
    assert (data["error"], data["message"]) == (
        "ValidationError", "metric overflow: E, F, G not finite (the samples are finite)")


def test_canonicalize_command(tmp_path):
    rec = tmp_path / "rec"
    assert run(["reconstruct", "--fixture", "constant", "--nodes", "33", "--out", str(rec)]) == 0
    out = tmp_path / "canon"
    report = tmp_path / "canon.json"
    code = run([
        "canonicalize", "--immersion", str(rec / "immersion.csv"),
        "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    assert (out / "lambda.csv").exists()
    assert (out / "triple.json").read_bytes() == b'{"case": "negative"}\n'
    assert list(json.loads((out / "reparametrization.json").read_text())) == ["phi", "psi", "ubar_map", "vbar_map"]
    data = json.loads(report.read_text())
    assert data["metrics"]["metric_law_max_dev"] <= 1e-2
    # the grid comes from the CSV, so the report names no node count
    assert "nodes" not in data["inputs"]


def test_canonicalize_non_separable_exit_2(tmp_path):
    # an isotropic surface that is not PNMC: the forced order-4 jet at radius 0.2
    bundle = reconstruct(jet_triple(Case.POSITIVE_KH, order=4, radius=0.2, nodes=33), tol_build=math.inf)
    csv = tmp_path / "immersion.csv"
    io.write_immersion_csv(Immersion(bundle.grid, bundle.points), str(csv))
    report = tmp_path / "err.json"
    code = run([
        "canonicalize", "--immersion", str(csv),
        "--out", str(tmp_path / "out"), "--report", str(report),
    ])
    assert code == 2
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "NotSeparable"
    # located where the largest law's deviation peaks, two layers in
    node = tuple(data["node"])
    assert all(2 <= k <= 30 for k in node)
    assert data["uv"] == list(bundle.grid.uv(node))
    assert data["message"].endswith(f"at node {node}, (u, v) = {bundle.grid.uv(node)}")


def test_canonicalize_both_mu_zero_is_a_whole_patch_verdict(tmp_path):
    csv = tmp_path / "cyl.csv"
    io.write_immersion_csv(cylinder_immersion(33), str(csv))
    report = tmp_path / "err.json"
    assert run(["canonicalize", "--immersion", str(csv), "--out", str(tmp_path / "out"),
                "--report", str(report)]) == 2
    data = json.loads(report.read_text())
    assert data["error"] == "BothMuZero"
    assert "node" not in data and "uv" not in data
    assert "whole patch" in data["message"]


def test_canonicalize_config_rejects_nodes(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "canonicalize", "immersion": "x.csv", "nodes": 33}))
    report = tmp_path / "err.json"
    assert run(["--config", str(cfg), "canonicalize", "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["error"] == "ConfigError"
    assert "nodes" in data["message"]


def test_reconstruct_goursat_hyperbolic_passes_build_gate(tmp_path):
    # default 65 nodes, residual gate on: the eps = -1 fixture reconstructs
    assert run(["reconstruct", "--fixture", "goursat-hyperbolic", "--out", str(tmp_path / "rec")]) == 0
    assert (tmp_path / "rec" / "immersion.csv").exists()


def test_roundtrip_jet(tmp_path):
    report = tmp_path / "rt.json"
    code = run([
        "roundtrip", "--fixture", "jet", "--order", "6", "--case", "positive",
        "--radius", "0.1", "--report", str(report),
    ])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["metrics"]["triple_recovery_error"] <= 5e-4


def test_export_command(tmp_path):
    rec = tmp_path / "rec"
    assert run(["reconstruct", "--fixture", "constant", "--nodes", "33", "--out", str(rec)]) == 0
    out = tmp_path / "exported.vtk"
    assert run(["export", "--immersion", str(rec / "immersion.csv"), "--out", str(out)]) == 0
    assert out.read_text().startswith("# vtk DataFile")


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "residual", "fixture": "constant", "nodes": 33}))
    r1 = tmp_path / "r1.json"
    assert run(["--config", str(cfg), "residual", "--report", str(r1)]) == 0
    data = json.loads(r1.read_text())
    assert data["inputs"]["nodes"] == 33
    # flag overrides config
    r2 = tmp_path / "r2.json"
    assert run(["--config", str(cfg), "residual", "--nodes", "65", "--report", str(r2)]) == 0
    assert json.loads(r2.read_text())["inputs"]["nodes"] == 65


def test_unknown_config_key_exit_1(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "residual", "fixtur": "constant"}))
    assert run(["--config", str(cfg), "residual"]) == 1


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--forse", "--fixture", "constant"],
    ["reconstruct", "--fix", "constant"],
    ["residual", "--nodes", "abc"],
    [],
], ids=["unknown-option", "abbreviated-option", "non-numeric-nodes", "no-command"])
def test_malformed_command_line_exit_1(capsys, argv):
    # argparse's usage text and exit 2 would break the contract: exit 1, one JSON document
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    data = json.loads(err)
    assert (data["status"], data["error"]) == ("error", "ConfigError")
    assert data["message"].startswith("minksurf")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        run(["reconstruct", "-h"])
    assert info.value.code == 0
    assert "--tol-build" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag, value", [
    ("reconstruct", "force", None),
    ("solve", "method", "jet"),
    ("export", "bundle", "rec"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_removed_spellings_exit_1(tmp_path, capsys, command, flag, value, source):
    # --fixture, --tol-build inf and --immersion are the one spelling of each input
    out = tmp_path / "out"
    if source == "flag":
        argv = [command, "--" + flag, *([value] if value else []), "--out", str(out)]
    else:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": command, flag: value or True, "out": str(out)}))
        argv = ["--config", str(cfg), command]
    assert run(argv) == 1
    data = json.loads(capsys.readouterr().err)
    assert data["error"] == "ConfigError"
    assert flag in data["message"]
    assert not out.exists()


def test_tol_build_inf_opens_the_gate(tmp_path):
    # goursat-degenerate misses the 1e-3 gate at 33 nodes (residual 2.6e-3); inf lets it through
    report = tmp_path / "r.json"
    assert run(["reconstruct", "--fixture", "goursat-degenerate", "--nodes", "33", "--tol-build", "inf",
                "--out", str(tmp_path / "rec"), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["tolerances"] == {"tol_build": None}  # JSON has no inf
    assert data["metrics"]["residual_max"] > 1e-3
    assert "force" not in data["inputs"]


def test_bad_tolerance_exit_1(tmp_path):
    code = run(["reconstruct", "--fixture", "constant", "--tol-build", "-1",
                "--out", str(tmp_path / "x")])
    assert code == 1
    # NaN would switch the residual gate off
    assert run(["reconstruct", "--fixture", "constant", "--tol-build", "nan", "--out", str(tmp_path / "y")]) == 1


def test_missing_file_exit_3(tmp_path):
    report = tmp_path / "err.json"
    code = run(["analyze", "--immersion", str(tmp_path / "missing.csv"), "--report", str(report)])
    assert code == 3
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "key, value",
    [("nodes", 33.7), ("nodes", True), ("nodes", "33"), ("radius", True), ("radius", float("nan"))],
)
def test_config_value_of_wrong_type_exit_1(tmp_path, key, value):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "residual", "fixture": "jet", key: value}))
    report = tmp_path / "err.json"
    assert run(["--config", str(cfg), "residual", "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "ConfigError"
    assert key in data["message"]


def test_config_integral_float_is_an_int(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "residual", "fixture": "constant", "nodes": 33.0}))
    report = tmp_path / "r.json"
    assert run(["--config", str(cfg), "residual", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["inputs"]["nodes"] == 33


def _set_cell(row: str, col: int, text: str) -> str:
    cells = row.split(",")
    cells[col] = text
    return ",".join(cells)


def _cube_u(row: str) -> str:
    return _set_cell(row, 0, repr(float(row.split(",")[0]) ** 3))


# each edit maps (header, data rows of a valid 9x9 immersion CSV) to the lines of a bad file
MALFORMED_IMMERSIONS = {
    "wrong-header": lambda h, rows: ["u,v,x,y,z,t"] + rows,
    "header-only": lambda h, rows: [h],
    "one-row": lambda h, rows: [h, rows[0]],
    "five-columns": lambda h, rows: [h] + [r.rsplit(",", 1)[0] for r in rows],
    "non-numeric": lambda h, rows: [h] + rows[:3] + [_set_cell(rows[3], 2, "abc")] + rows[4:],
    "nan": lambda h, rows: [h] + rows[:3] + [_set_cell(rows[3], 4, "nan")] + rows[4:],
    "single-u": lambda h, rows: [h] + rows[:9],
    "v-outer": lambda h, rows: [h] + [rows[9 * i + j] for j in range(9) for i in range(9)],
    "non-uniform-u": lambda h, rows: [h] + [_cube_u(r) for r in rows],
}


@pytest.mark.parametrize("edit", MALFORMED_IMMERSIONS.values(), ids=MALFORMED_IMMERSIONS.keys())
def test_malformed_immersion_csv_exit_1(tmp_path, edit):
    path = tmp_path / "imm.csv"
    io.write_immersion_csv(cylinder_immersion(9), str(path))
    io.read_immersion_csv(str(path))  # the unedited file is valid
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join(edit(header, rows)) + "\n")
    report = tmp_path / "err.json"
    assert run(["analyze", "--immersion", str(path), "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "ConfigError"


@pytest.mark.parametrize(
    "name, edit",
    [("lambda.csv", lambda text: text.rsplit("\n", 2)[0] + "\n"), ("triple.json", lambda text: "{")],
    ids=["lambda-csv-missing-node", "triple-json-not-json"],
)
def test_malformed_triple_bundle_exit_1(tmp_path, name, edit):
    bundle = tmp_path / "bundle"
    io.write_triple_bundle(goursat_degenerate_triple(9), str(bundle))
    target = bundle / name
    target.write_text(edit(target.read_text()))
    report = tmp_path / "err.json"
    assert run(["residual", "--triple", str(bundle), "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["error"] == "ConfigError"


@pytest.mark.parametrize("count", ["1e400", "33.7", "true", '"33"'])
def test_sidecar_node_count_must_be_an_integer(tmp_path, capsys, count):
    # 1e400 reads as inf; 33.7 is not integral; a boolean and a string are not numbers.
    # The CSVs carry the grid, so a sidecar stating any node count is refused outright.
    bundle = tmp_path / "bundle"
    io.write_triple_bundle(goursat_degenerate_triple(33), str(bundle))
    sidecar = bundle / "triple.json"
    sidecar.write_text('{"case": "degenerate", "grid": {"Nu": %s}}' % count)
    capsys.readouterr()
    assert run(["residual", "--triple", str(bundle)]) == 1
    data = json.loads(capsys.readouterr().err)  # one JSON document
    assert (data["status"], data["error"]) == ("error", "ConfigError")
    assert data["message"] == f"{bundle}: triple.json holds only the case; drop ['grid']"


@pytest.mark.parametrize("sign", ["true", '"1"', "1.5"])
def test_sidecar_sign_mu_must_be_an_integer(tmp_path, capsys, sign):
    # mu.csv carries mu's sign, so a sidecar stating any sign_mu is refused outright
    bundle = tmp_path / "bundle"
    io.write_triple_bundle(goursat_degenerate_triple(9), str(bundle))
    sidecar = bundle / "triple.json"
    sidecar.write_text('{"case": "degenerate", "sign_mu": %s}' % sign)
    capsys.readouterr()
    assert run(["residual", "--triple", str(bundle)]) == 1
    data = json.loads(capsys.readouterr().err)
    assert (data["error"], data["message"]) == ("ConfigError", f"{bundle}: triple.json holds only the case; "
                                                                f"drop ['sign_mu']")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exit_1(tmp_path, capsys, source):
    # numpy's generator rejects a negative seed with a bare ValueError; the merge rejects it first
    out = tmp_path / "tri"
    if source == "flag":
        argv = ["solve", "--fixture", "jet", "--seed", "-1", "--nodes", "9", "--out", str(out)]
    else:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": "solve", "fixture": "jet", "seed": -3, "nodes": 9, "out": str(out)}))
        argv = ["--config", str(cfg), "solve"]
    capsys.readouterr()
    assert run(argv) == 1
    data = json.loads(capsys.readouterr().err)  # exactly one JSON document
    assert (data["error"], data["message"]) == ("ConfigError", "seed must be non-negative")
    assert not out.exists()


def test_malformed_config_json_exit_1(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text("{")
    report = tmp_path / "err.json"
    # the merge failed, so the report goes to --report
    assert run(["--config", str(cfg), "residual", "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "ConfigError"


# canonicalize writes its diagnostics in this order, per case
CANONICAL_DIAGNOSTIC_KEYS = {
    "jet": ["separability_dev_u", "separability_dev_v", "metric_law_max_dev",
            "sigma_relation_max_dev", "case"],
    "goursat-degenerate": ["separability_dev_v", "metric_law_max_dev", "nu_projection_dev", "case"],
}


@pytest.mark.parametrize(
    "command, fixture",
    [("residual", "jet"), ("canonicalize", "jet"), ("canonicalize", "goursat-degenerate")],
)
def test_report_byte_determinism(tmp_path, command, fixture):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = [command, "--fixture", fixture, "--nodes", "33"]
    if command == "canonicalize":
        # goursat-degenerate misses the build gate at 33 nodes (residual 2.6e-3)
        rec = tmp_path / "rec"
        assert run(["reconstruct", "--fixture", fixture, "--nodes", "33", "--tol-build", "inf", "--out", str(rec)]) == 0
        argv = [command, "--immersion", str(rec / "immersion.csv"), "--out", str(tmp_path / "canon")]
    assert run(argv + ["--report", str(r1)]) == 0
    assert run(argv + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    if command == "canonicalize":
        assert list(json.loads(r1.read_text())["metrics"]) == CANONICAL_DIAGNOSTIC_KEYS[fixture]


@pytest.mark.parametrize(
    "argv",
    [
        # the work would fail first: this fixture misses the build gate at 33 nodes (exit 2)
        ["reconstruct", "--fixture", "goursat-degenerate", "--nodes", "33"],
        # ... and this file does not exist (exit 3)
        ["canonicalize", "--immersion", "no-such-immersion.csv"],
    ],
    ids=["reconstruct", "canonicalize"],
)
def test_missing_out_is_checked_before_the_work(tmp_path, argv):
    report = tmp_path / "err.json"
    assert run(argv + ["--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["error"] == "ConfigError"
    assert "needs --out" in data["message"]


@pytest.mark.parametrize("fixture", ["cylinder", "picard"])
def test_solve_rejects_non_solver_names(tmp_path, fixture):
    # solve builds what make_triple_fixture builds; the cylinder is an immersion, picard no fixture
    report = tmp_path / "err.json"
    assert run(["solve", "--fixture", fixture, "--out", str(tmp_path / "tri"), "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["error"] == "ConfigError"
    assert f"unknown triple fixture {fixture!r}" in data["message"]
    assert not (tmp_path / "tri").exists()


def test_solve_constant_bundle_is_exact(tmp_path):
    # the constant triple solves the system exactly, so its bundle is a valid solved triple
    report = tmp_path / "r.json"
    assert run(["solve", "--fixture", "constant", "--nodes", "9", "--out", str(tmp_path / "tri"),
                "--report", str(report)]) == 0
    assert json.loads(report.read_text())["metrics"] == {"residual_max": 0.0, "residual_interior_max": 0.0}
    assert residual(io.read_triple_bundle(str(tmp_path / "tri"))).max_abs == 0.0


@pytest.mark.parametrize(
    "fixture, case", [("jet", "positive"), ("goursat-degenerate", "degenerate"), ("goursat-hyperbolic", "negative")])
def test_solve_bundle_sidecar_is_the_case_alone(tmp_path, fixture, case):
    # the CSVs carry the grid and mu's sign; triple.json states only what they cannot
    out = tmp_path / "tri"
    assert run(["solve", "--fixture", fixture, "--nodes", "9", "--out", str(out)]) == 0
    assert (out / "triple.json").read_bytes() == b'{"case": "%s"}\n' % case.encode()


def test_solve_jet_degenerate_case(tmp_path):
    out = tmp_path / "triple"
    code = run([
        "solve", "--fixture", "jet", "--case", "degenerate",
        "--order", "6", "--nodes", "33", "--out", str(out),
    ])
    assert code == 0
    data = json.loads((out / "triple.json").read_text())
    assert data["case"] == "degenerate"
    back = io.read_triple_bundle(str(out))
    assert np.max(np.abs(np.diff(back.nu.values, axis=1))) == 0.0


def test_solve_jet_bundle_is_the_default_jet(tmp_path):
    # the CLI's jet options default to jet_triple's, so the two bundles agree byte for byte
    assert run(["solve", "--fixture", "jet", "--nodes", "33", "--out", str(tmp_path / "cli")]) == 0
    io.write_triple_bundle(jet_triple(nodes=33), str(tmp_path / "lib"))
    names = sorted(os.listdir(tmp_path / "lib"))
    assert sorted(os.listdir(tmp_path / "cli")) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name


def test_report_numbers_reproducible(tmp_path):
    # every numeric in a report must equal the library value
    from minksurf.fixtures import constant_triple
    from minksurf.natural import residual as lib_residual

    report = tmp_path / "r.json"
    assert run(["residual", "--fixture", "constant", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    rep = lib_residual(constant_triple(65))
    assert data["metrics"]["max_abs"] == rep.max_abs
    assert data["metrics"]["r1_interior_max"] == rep.r1.interior_max_abs()
