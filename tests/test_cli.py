import json

import numpy as np
import pytest

from minksurf import io
from minksurf.cli import run
from minksurf.fixtures import nonsolution_triple


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


def test_unknown_triple_fixture_exit_1(tmp_path):
    # cylinder is an immersion fixture, not a triple fixture
    report = tmp_path / "err.json"
    code = run(["residual", "--fixture", "cylinder", "--report", str(report)])
    assert code == 1
    data = json.loads(report.read_text())
    assert data["status"] == "error"
    assert data["error"] == "ConfigError"


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


def test_analyze_cylinder(tmp_path):
    report = tmp_path / "inv.json"
    code = run(["analyze", "--fixture", "cylinder", "--nodes", "33", "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["metrics"]["classification"] == "parallel-H"


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


def test_missing_file_exit_3(tmp_path):
    code = run(["analyze", "--immersion", str(tmp_path / "missing.csv")])
    assert code == 3


def test_report_byte_determinism(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["residual", "--fixture", "jet", "--nodes", "33", "--report", str(r1)]) == 0
    assert run(["residual", "--fixture", "jet", "--nodes", "33", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


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
