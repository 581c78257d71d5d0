import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import immersion_of
from minksurf import io
from minksurf.analysis import Immersion, invariants
from minksurf.errors import ConfigError
from minksurf.fields import GridSpec, ScalarField
from minksurf.fixtures import goursat_degenerate_triple


def test_field_csv_roundtrip_exact(tmp_path):
    g = GridSpec(0, 1, -0.5, 0.5, 9, 7)
    rng = np.random.default_rng(0)
    field = ScalarField(g, rng.standard_normal((9, 7)))
    path = tmp_path / "field.csv"
    io.write_field_csv(field, str(path))
    back = io.read_field_csv(str(path))
    assert back.grid == g
    assert np.array_equal(back.values, field.values)  # bit-exact via 17 digits


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_field_csv_roundtrip_random(tmp_path_factory, seed):
    # 17 significant digits must round-trip any float64 samples bit-exactly
    rng = np.random.default_rng(seed)
    g = GridSpec(-1.0, 2.0, 0.0, 0.5, 6, 8)
    vals = rng.standard_normal((6, 8)) * 10.0 ** rng.integers(-300, 300, size=(6, 8))
    vals[0, :3] = (-0.0, 5e-324, np.finfo(float).max)
    field = ScalarField(g, vals)
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    io.write_field_csv(field, str(path))
    back = io.read_field_csv(str(path))
    assert np.array_equal(back.values, field.values)


def test_field_csv_layout(tmp_path):
    g = GridSpec(0, 1, 0, 1, 5, 5)
    field = ScalarField.from_function(g, lambda U, V: U + 10 * V)
    path = tmp_path / "layout.csv"
    io.write_field_csv(field, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,value"
    # v fastest: second line is (u0, v0), third is (u0, v1)
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith("0,0.25,")


def test_writer_bytes_pinned(tmp_path):
    # + - * / only, so the samples are the same bits on every platform; the
    # digests pin number format, row order and VTK layout byte for byte
    g = GridSpec(0.0, 2.0, -1.0, 0.5, 9, 7)
    U, V = g.mesh()
    field = ScalarField(g, (U * V - V / 3.0 + U * U * U / 7.0) * 2.0**-40)
    gi = GridSpec(-0.5, 0.5, 0.0, 1.0, 9, 9)
    U, V = gi.mesh()
    m = Immersion(gi, np.stack([U + V, U * V / 3.0, U - V / 7.0, (U * U + V * V) / 11.0], axis=-1))
    n1 = np.stack([V / 3.0, -U, U * V, 1.0 + U / 9.0], axis=-1)
    n2 = np.stack([-U / 5.0, V * V, 0.1 * U, 1.0 - V / 13.0], axis=-1)
    io.write_field_csv(field, str(tmp_path / "f.csv"))
    io.write_immersion_csv(m, str(tmp_path / "i.csv"))
    io.write_vtk_structured(str(tmp_path / "s.vtk"), m, n1=n1, n2=n2)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("f.csv", "i.csv", "s.vtk")
    }
    assert digests == {
        "f.csv": "9573c72aa08117d444aa835f53be1d2f3e14ca576131dc8a60127e200c94d3da",
        "i.csv": "a0e968944060ae36e0752e2a639aa1ecc25779946c4117fa374bc7c7469cf178",
        "s.vtk": "bbefde158fda4edda9425c452ad2026003e9ff2e4403526c1953c1aaaea88c7a",
    }


def test_triple_bundle_roundtrip(tmp_path):
    t = goursat_degenerate_triple(33)
    io.write_triple_bundle(t, str(tmp_path / "bundle"))
    back = io.read_triple_bundle(str(tmp_path / "bundle"))
    assert back.case is t.case
    assert back.grid == t.grid
    assert np.array_equal(back.lam.values, t.lam.values)
    assert np.array_equal(back.mu.values, t.mu.values)
    assert np.array_equal(back.nu.values, t.nu.values)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda sc: sc["grid"].update(Nu=99), "drop ['flags', 'grid', 'sign_mu']"),
        (lambda sc: sc["grid"].update(v1=2.0), "drop ['flags', 'grid', 'sign_mu']"),
        (lambda sc: sc.update(sign_mu=-sc["sign_mu"]), "drop ['flags', 'grid', 'sign_mu']"),
        (lambda sc: sc.pop("grid"), "drop ['flags', 'sign_mu']"),
        (lambda sc: sc.update(flags=5), "drop ['flags', 'grid', 'sign_mu']"),
        (lambda sc: sc.update(flags="nu-constant"), "drop ['flags', 'grid', 'sign_mu']"),
        (lambda sc: sc.update(flags=[1, None]), "drop ['flags', 'grid', 'sign_mu']"),
    ],
    ids=["grid-nodes", "grid-bounds", "sign-mu", "no-grid", "flags-not-a-list", "flags-a-string",
         "flags-not-strings"],
)
def test_triple_bundle_sidecar_must_match_csvs(tmp_path, edit, message):
    # a sidecar in the older layout restated the grid, mu's sign and flags; edited or not, it is refused
    bundle = tmp_path / "bundle"
    io.write_triple_bundle(goursat_degenerate_triple(9), str(bundle))
    sidecar = {
        "case": "degenerate",
        "sign_mu": 1,
        "grid": {"u0": 0.0, "u1": 1.0, "v0": 0.0, "v1": 1.0, "Nu": 9, "Nv": 9},
        "flags": [],
    }
    edit(sidecar)
    (bundle / "triple.json").write_text(json.dumps(sidecar))
    with pytest.raises(ConfigError) as err:
        io.read_triple_bundle(str(bundle))
    assert message in str(err.value)


@pytest.mark.parametrize(
    "sidecar, message",
    [
        ({}, "KeyError('case')"),
        ({"case": "sideways"}, "'sideways' is not a valid Case"),
        ({"case": 5}, "5 is not a valid Case"),
        (["degenerate"], "list indices must be integers"),
    ],
    ids=["no-case", "case-sideways", "case-a-number", "a-list"],
)
def test_triple_bundle_sidecar_holds_only_the_case(tmp_path, sidecar, message):
    bundle = tmp_path / "bundle"
    io.write_triple_bundle(goursat_degenerate_triple(9), str(bundle))
    sidecar_path = bundle / "triple.json"
    assert json.loads(sidecar_path.read_text()) == {"case": "degenerate"}
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(ConfigError) as err:
        io.read_triple_bundle(str(bundle))
    assert message in str(err.value)


def test_immersion_roundtrip(tmp_path, constant_bundle):
    m = immersion_of(constant_bundle)
    path = tmp_path / "imm.csv"
    io.write_immersion_csv(m, str(path))
    back = io.read_immersion_csv(str(path))
    assert np.array_equal(back.points, m.points)
    assert back.grid == m.grid


def test_vtk_export(tmp_path, constant_bundle):
    m = immersion_of(constant_bundle)
    path = tmp_path / "surf.vtk"
    io.write_vtk_structured(
        str(path), m,
        n1=constant_bundle.frames[..., 2, :],
        n2=constant_bundle.frames[..., 3, :],
    )
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_GRID" in text
    assert f"DIMENSIONS {m.grid.Nu} {m.grid.Nv} 1" in text
    assert f"POINTS {m.grid.Nu * m.grid.Nv} double" in text
    assert "SCALARS x4 double 1" in text
    assert "VECTORS n1 double" in text
    assert "VECTORS n2 double" in text


def test_report_determinism(tmp_path):
    report = {"command": "x", "metrics": {"a": 0.1, "b": 1.0 / 3.0, "n": 5}, "status": "ok"}
    t1 = io.report_text(report)
    t2 = io.report_text(report)
    assert t1 == t2
    assert "0.10000000000000001" in t1  # 17 significant digits
    # round trip through json parses to the same float
    import json

    parsed = json.loads(t1)
    assert parsed["metrics"]["a"] == 0.1
    assert parsed["metrics"]["b"] == 1.0 / 3.0


def test_report_nonfinite_floats_are_null():
    report = {"a": float("nan"), "b": [np.inf, -np.inf, 1.5], "c": {"d": np.float64("nan")}}
    parsed = json.loads(io.report_text(report))
    assert parsed == {"a": None, "b": [None, None, 1.5], "c": {"d": None}}


def test_report_finite_bytes_pinned():
    report = {"command": "x", "metrics": {"a": 0.1, "b": -2.5e-300, "n": 5, "ok": True}, "v": [1.0, None]}
    assert io.report_text(report) == (
        '{"command": "x", "metrics": {"a": 0.10000000000000001, "b": -2.5e-300, '
        '"n": 5, "ok": true}, "v": [1, null]}\n'
    )


def test_invariant_report(tmp_path, degenerate_bundle):
    rep = invariants(immersion_of(degenerate_bundle))
    io.write_invariant_report(rep, str(tmp_path / "inv"))
    import json

    with open(tmp_path / "inv" / "invariants.json") as fh:
        data = json.load(fh)
    assert data["classification"] == "pnmc"
    assert set(data["K_metric"]) == {"min", "max"}
    assert (tmp_path / "inv" / "K_metric.csv").exists()
