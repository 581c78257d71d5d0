import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import degenerate_metric_immersion, graph_surface, unstable_triple

from minksurf import io
from minksurf.analysis import Immersion
from minksurf.cli import _emit_error, run
from minksurf.errors import NoConvergence
from minksurf.fields import GridSpec, ScalarField
from minksurf.fixtures import cylinder_immersion, goursat_degenerate_triple, jet_triple, nonsolution_triple
from minksurf.frames import reconstruct
from minksurf.natural import Case, residual


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
        "reconstruct", "--triple", str(tmp_path / "unstable"), "--force",
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
    # CanonicalTriple's grid check raises a ValidationError, no longer a bare ValueError
    bundle = tmp_path / "bundle"
    io.write_triple_bundle(goursat_degenerate_triple(33), str(bundle))
    io.write_field_csv(ScalarField.constant(GridSpec(0, 1, 0, 1, 9, 9), 1.0), str(bundle / "lambda.csv"))
    report = tmp_path / "err.json"
    assert run(["residual", "--triple", str(bundle), "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["error"] == "ValidationError"
    assert "one grid" in data["message"]


def test_unknown_triple_fixture_exit_1(tmp_path):
    # cylinder is an immersion fixture, not a triple fixture
    report = tmp_path / "err.json"
    code = run(["residual", "--fixture", "cylinder", "--report", str(report)])
    assert code == 1
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "ConfigError"


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
    code = run(["solve", "--method", "goursat-degenerate", "--nodes", "33", "--out", str(out)])
    assert code == 0
    report = tmp_path / "res.json"
    code = run(["residual", "--triple", str(out), "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["metrics"]["interior_max_abs"] <= 1e-2


def test_report_inputs_from_triple_bundle(tmp_path):
    out = tmp_path / "triple"
    assert run(["solve", "--method", "jet", "--case", "negative", "--nodes", "33", "--out", str(out)]) == 0
    report = tmp_path / "res.json"
    assert run(["residual", "--triple", str(out), "--report", str(report)]) == 0
    # the bundle carries the grid and the triple: no fixture, size or jet option was read
    assert json.loads(report.read_text())["inputs"] == {"triple": str(out)}


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--fixture", "goursat-degenerate", "--nodes", "65"],
    ["solve", "--method", "goursat-degenerate", "--nodes", "65"],
])
def test_report_inputs_of_non_jet_source(tmp_path, argv):
    report = tmp_path / "r.json"
    assert run(argv + ["--out", str(tmp_path / "out"), "--report", str(report)]) == 0
    inputs = json.loads(report.read_text())["inputs"]
    assert inputs["nodes"] == 65
    assert not {"order", "radius", "case", "seed"} & set(inputs)


@pytest.mark.parametrize("argv, keys", [
    (["residual", "--fixture", "jet", "--nodes", "33"], {"fixture", "nodes", "order", "radius", "case"}),
    (["solve", "--method", "jet", "--nodes", "33", "--out", "OUT"],
     {"method", "nodes", "order", "radius", "case", "seed", "out"}),
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


def test_metric_overflow_stderr_is_one_json_document(tmp_path):
    # numpy's overflow warnings must not reach stderr ahead of the error report
    cyl = cylinder_immersion(33)
    csv = tmp_path / "m.csv"
    io.write_immersion_csv(Immersion(cyl.grid, cyl.points * 1e160), str(csv))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "minksurf.cli", "analyze", "--immersion", str(csv)],
                          capture_output=True, text=True, env=env)
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
    assert (out / "reparametrization.json").exists()
    data = json.loads(report.read_text())
    assert data["metrics"]["metric_law_max_dev"] <= 1e-2
    # the grid comes from the CSV, so the report names no node count
    assert "nodes" not in data["inputs"]


def test_canonicalize_non_separable_exit_2(tmp_path):
    # an isotropic surface that is not PNMC: the forced order-4 jet at radius 0.2
    bundle = reconstruct(jet_triple(Case.POSITIVE_KH, order=4, radius=0.2, nodes=33), force=True)
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
    assert run(["export", "--bundle", str(rec), "--out", str(out)]) == 0
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
        assert run(["reconstruct", "--fixture", fixture, "--nodes", "33", "--force", "--out", str(rec)]) == 0
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


def test_solve_jet_degenerate_case(tmp_path):
    out = tmp_path / "triple"
    code = run([
        "solve", "--method", "jet", "--case", "degenerate",
        "--order", "6", "--nodes", "33", "--out", str(out),
    ])
    assert code == 0
    data = json.loads((out / "triple.json").read_text())
    assert data["case"] == "degenerate"
    back = io.read_triple_bundle(str(out))
    assert np.max(np.abs(np.diff(back.nu.values, axis=1))) == 0.0


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
