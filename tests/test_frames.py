import numpy as np
import pytest
from conftest import unstable_triple
from scipy.interpolate import make_interp_spline
from scipy.linalg import expm

from minksurf import frames as frames_module
from minksurf.errors import ResidualTooLarge, StepUnstable, ValidationError
from minksurf.fields import GridSpec, ScalarField
from minksurf.fixtures import (
    constant_triple,
    goursat_degenerate_triple,
    goursat_hyperbolic_triple,
    jet_triple,
    nonsolution_triple,
    perturbed_constant_triple,
)
from minksurf.frames import (
    RK4_SUBSTEPS,
    _stage_matrices,
    _transport,
    coefficient_matrices,
    compatibility_residual,
    integrate_frame,
    integrate_position,
    reconstruct,
)
from minksurf.minkowski import METRIC_DIAG, lorentz_inner, standard_frame
from minksurf.natural import CanonicalTriple, Case

A_CONST = np.array([[0, 0, 0, 1], [0, 0, -2, 0], [-2, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
B_CONST_NEG = np.array([[0, 0, -2, 0], [0, 0, 0, 1], [0, -2, 0, 0], [1, 0, 0, 0]], dtype=float)


def triple_const(lam, mu, nu, case, nodes=33):
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    return CanonicalTriple(
        lam=ScalarField.constant(g, lam),
        mu=ScalarField.constant(g, mu),
        nu=ScalarField.constant(g, nu),
        case=case,
        flags=("nu-constant",),
    )


def test_coefficient_matrices_constant_example():
    cm = coefficient_matrices(triple_const(0, 1, 2, Case.NEGATIVE_KH))
    assert np.allclose(cm.A[7, 9], A_CONST)
    assert np.allclose(cm.B[7, 9], B_CONST_NEG)


def test_coefficient_matrices_epsilon_flip():
    cm = coefficient_matrices(triple_const(0, 1, 2, Case.POSITIVE_KH))
    assert np.allclose(cm.B[3, 3, 1], [0, 0, 0, -1])
    assert np.allclose(cm.B[3, 3, 2], [0, -2, 0, 0])
    assert np.allclose(cm.B[3, 3, 3], [-1, 0, 0, 0])


def test_coefficient_matrices_degenerate_rows():
    t = goursat_degenerate_triple(33)
    cm = coefficient_matrices(t)
    # last row of B vanishes; second row has only gamma2
    assert np.max(np.abs(cm.B[..., 3, :])) == 0.0
    assert np.max(np.abs(cm.B[..., 1, 0])) == 0.0
    assert np.max(np.abs(cm.B[..., 1, 2])) == 0.0
    assert np.max(np.abs(cm.B[..., 1, 3])) == 0.0


def test_coefficient_matrices_match_direct_assembly():
    # A @ F rows must equal the right sides assembled term by term
    t = jet_triple(Case.POSITIVE_KH, order=4, radius=0.1, nodes=33)
    cm = coefficient_matrices(t)
    rng = np.random.default_rng(11)
    F = rng.standard_normal((4, 4))
    i, j = 12, 20
    lam = t.lam.values[i, j]
    mu = t.mu.values[i, j]
    nu = t.nu.values[i, j]
    root = np.sqrt(abs(mu))
    # gamma = -grad sqrt|mu| by the order-2 stencil, as the frame equations take it
    root_field = np.sqrt(np.abs(t.mu.values))
    g1 = -np.gradient(root_field, t.grid.hu, axis=0, edge_order=2)[i, j]
    g2 = -np.gradient(root_field, t.grid.hv, axis=1, edge_order=2)[i, j]
    x, y, n1, n2 = F
    rhs_u = np.stack([
        (g1 * x + lam * n1 + mu * n2) / root,
        (-g1 * y - nu * n1) / root,
        (-nu * x + lam * y) / root,
        (mu * y) / root,
    ])
    assert np.allclose(cm.A[i, j] @ F, rhs_u, atol=1e-12)
    eps = 1
    rhs_v = np.stack([
        (-g2 * x - nu * n1) / root,
        (g2 * y - eps * lam * n1 - eps * mu * n2) / root,
        (-eps * lam * x - nu * y) / root,
        (-eps * mu * x) / root,
    ])
    assert np.allclose(cm.B[i, j] @ F, rhs_v, atol=1e-12)


def test_sqrt_mu_prefactor_structure():
    t = goursat_degenerate_triple(33)
    cm = coefficient_matrices(t)
    root = np.sqrt(np.abs(t.mu.values))
    scaled = cm.A * root[..., None, None]
    # zero pattern of sqrt|mu| * A
    for (r, c) in [(0, 1), (1, 0), (1, 3), (2, 2), (2, 3), (3, 0), (3, 2), (3, 3)]:
        assert np.max(np.abs(scaled[..., r, c])) == 0.0
    assert np.allclose(scaled[..., 0, 3], t.mu.values)
    assert np.allclose(scaled[..., 2, 0], -t.nu.values)


def test_compatibility_constant_solutions():
    assert compatibility_residual(coefficient_matrices(constant_triple(33))).max_abs() <= 1e-12
    c = compatibility_residual(coefficient_matrices(triple_const(0, 1, 2, Case.NEGATIVE_KH)))
    assert np.max(np.abs(c.values - 3.0)) <= 1e-12


def test_compatibility_jet_scaling():
    c1 = compatibility_residual(coefficient_matrices(jet_triple(Case.POSITIVE_KH, 6, 0.1, 65))).interior_max_abs()
    c2 = compatibility_residual(coefficient_matrices(jet_triple(Case.POSITIVE_KH, 6, 0.05, 65))).interior_max_abs()
    assert c1 <= 1e-3
    assert c1 / c2 >= 2 ** 3.5, (c1, c2)


def test_integrate_frame_matches_matrix_exponential():
    # constant (0, 1, 1): A and B commute, so F = expm(A u + B v) F0 exactly
    t = constant_triple(65)
    frames, diag = integrate_frame(coefficient_matrices(t))
    A = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [-1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    B = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)
    F0 = standard_frame()
    g = t.grid
    worst = 0.0
    for i in range(0, 65, 8):
        for j in range(0, 65, 8):
            exact = expm(A * g.u_nodes[i] + B * g.v_nodes[j]) @ F0
            worst = max(worst, np.max(np.abs(frames[i, j] - exact)))
    assert worst <= 1e-9, worst
    assert diag["gram_drift"] <= 1e-10


def test_integrate_frame_rejects_impure_frame():
    t = constant_triple(33)
    bad = standard_frame() + 1e-3
    with pytest.raises(ValidationError):
        integrate_frame(coefficient_matrices(t), bad)


def _nan_frame():
    F = standard_frame()
    F[2, 1] = np.nan
    return F


@pytest.mark.parametrize("F0, message", [
    (np.zeros((3, 4)), "must be 4x4"),
    (_nan_frame(), "impure"),  # NaN compares false against any bound
], ids=["shape-3x4", "nan-entry"])
def test_integrate_frame_rejects_malformed_frame(F0, message):
    with pytest.raises(ValidationError, match=message):
        integrate_frame(coefficient_matrices(constant_triple(17)), F0)


def test_integrate_frame_linear_in_initial_frame():
    # linearity of the transport itself (arbitrary initial matrices)
    t = jet_triple(Case.POSITIVE_KH, order=4, radius=0.1, nodes=33)
    cm = coefficient_matrices(t)
    rng = np.random.default_rng(2)
    Fa = rng.standard_normal((4, 4))
    Fb = rng.standard_normal((4, 4))
    a, b = 0.7, -1.3
    out_a = np.stack(_transport(cm, Fa))  # both paths
    out_b = np.stack(_transport(cm, Fb))
    out_ab = np.stack(_transport(cm, a * Fa + b * Fb))
    assert np.max(np.abs(out_ab - (a * out_a + b * out_b))) <= 1e-10


def test_path_discrepancy_detects_perturbation():
    _, diag0 = integrate_frame(coefficient_matrices(constant_triple(65)))
    _, diag1 = integrate_frame(coefficient_matrices(perturbed_constant_triple(65)))
    assert diag1["path_discrepancy"] >= 10 * max(diag0["path_discrepancy"], 1e-12)


def test_integrate_position_initial_point_and_metric():
    t = constant_triple(65)
    frames, _ = integrate_frame(coefficient_matrices(t))
    p0 = np.array([1.0, 2.0, 3.0, 4.0])
    z, disc = integrate_position(frames, t.mu, p0)
    assert np.all(z[0, 0] == p0)
    assert disc <= 1e-6
    # FD metric law <z_u, z_v> = -1/|mu| = -1 (order-4 interior check)
    from minksurf.fields import diff_values

    g = t.grid
    zu = diff_values(z, g.hu, axis=0, order=4)
    zv = diff_values(z, g.hv, axis=1, order=4)
    su, sv = g.interior(2)
    F = lorentz_inner(zu, zv)
    assert np.max(np.abs(F + 1.0)[su, sv]) <= 1e-6


def test_integrate_position_isotropy_degenerate():
    t = goursat_degenerate_triple(65)
    frames, _ = integrate_frame(coefficient_matrices(t))
    z, _ = integrate_position(frames, t.mu, np.zeros(4))
    from minksurf.fields import diff_values

    g = t.grid
    zu = diff_values(z, g.hu, axis=0, order=4)
    zv = diff_values(z, g.hv, axis=1, order=4)
    su, sv = g.interior(2)
    assert np.max(np.abs(lorentz_inner(zu, zu))[su, sv]) <= 1e-4
    assert np.max(np.abs(lorentz_inner(zv, zv))[su, sv]) <= 1e-6
    # metric law <z_u, z_v> = -1/|mu|
    F = lorentz_inner(zu, zv)
    assert np.max(np.abs(F + 1.0 / np.abs(t.mu.values))[su, sv]) <= 1e-4


def test_reconstruct_jet_path_discrepancy():
    bundle = reconstruct(jet_triple(Case.POSITIVE_KH, order=6, radius=0.1, nodes=65))
    assert bundle.diagnostics["path_discrepancy"] <= 1e-6


def test_reconstruct_gates_on_residual():
    with pytest.raises(ResidualTooLarge):
        reconstruct(nonsolution_triple(33))
    bundle = reconstruct(nonsolution_triple(33), force=True)
    assert bundle.diagnostics["residual_max"] > 1.0


@pytest.mark.parametrize("p0, message", [
    ([np.nan, 0.0, 0.0, 0.0], "must be finite"),
    (np.zeros(3), "must be 4 numbers"),
    (np.zeros((17, 17, 4)), "must be 4 numbers"),
], ids=["nan-entry", "shape-3", "shape-17x17x4"])
def test_reconstruct_rejects_malformed_p0(p0, message):
    with pytest.raises(ValidationError, match=message):
        reconstruct(constant_triple(17), p0)


@pytest.mark.parametrize("make", [
    lambda: jet_triple(Case.POSITIVE_KH, 6, 0.1, 65),
    lambda: goursat_hyperbolic_triple(65),
], ids=["jet-positive", "goursat-hyperbolic"])
def test_reconstruct_covariant_under_lorentz_motion(make):
    # the transport is linear in F0 and z_u, z_v are rows of F, so moving the
    # initial frame by a Lorentz transformation L = expm(eta S) (S antisymmetric)
    # and the initial point by p0 moves the whole surface the same way
    t = make()
    rng = np.random.default_rng(5)
    S = np.triu(0.3 * rng.standard_normal((4, 4)), 1)
    L = expm(np.diag(METRIC_DIAG) @ (S - S.T))
    p0 = rng.standard_normal(4)
    base = reconstruct(t)
    moved = reconstruct(t, p0, F0=standard_frame() @ L.T)
    assert np.max(np.abs(moved.frames - base.frames @ L.T)) <= 1e-13
    assert np.max(np.abs(moved.points - (base.points @ L.T + p0))) <= 1e-13


def test_reconstruct_diagnostics_constant():
    bundle = reconstruct(constant_triple(65))
    d = bundle.diagnostics
    assert d["gram_drift"] <= 1e-10
    assert d["compat_max"] <= 1e-12
    assert np.all(bundle.points[0, 0] == np.zeros(4))


def test_gram_drift_decreases_under_refinement():
    drifts = []
    for n in (33, 65):
        t = goursat_degenerate_triple(n)
        _, diag = integrate_frame(coefficient_matrices(t))
        drifts.append(diag["gram_drift"])
    assert drifts[1] < drifts[0]


def test_step_unstable_guard():
    t = unstable_triple()
    g = t.grid
    with pytest.raises(StepUnstable) as info:
        integrate_frame(coefficient_matrices(t))
    exc = info.value
    # the bottom edge survives; the columns sweep fails first on the last column,
    # where the edge left the largest frame
    assert exc.sweep == "columns"
    i, j = exc.node
    assert i == g.Nu - 1 and 1 <= j < g.Nv
    assert exc.uv == (g.u_nodes[i], g.v_nodes[j])
    assert g.v_nodes[j - 1] < exc.s <= g.v_nodes[j]
    assert f"node {exc.node}" in str(exc)


def _transport_reference(cm, F0m, bottom_first, mul):
    """The transport as six separate spline calls per interval and `mul` products."""

    def line(F, spl, coords, substeps=RK4_SUBSTEPS):
        h = (coords[1] - coords[0]) / substeps
        out = [F]
        for k in range(len(coords) - 1):
            for m in range(substeps):
                s = coords[k] + m * h
                M0, M1, M2 = spl(s), spl(s + 0.5 * h), spl(s + h)
                k1 = mul(M0, F)
                k2 = mul(M1, F + 0.5 * h * k1)
                k3 = mul(M1, F + 0.5 * h * k2)
                k4 = mul(M2, F + h * k3)
                F = F + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            out.append(F)
        return np.stack(out)

    u, v = cm.grid.u_nodes, cm.grid.v_nodes
    if bottom_first:
        edge = line(F0m[None], make_interp_spline(u, cm.A[:, :1], k=3, axis=0), u)[:, 0]
        return np.moveaxis(line(edge, make_interp_spline(v, cm.B, k=3, axis=1), v), 0, 1)
    edge = line(F0m[None], make_interp_spline(v, cm.B[:1], k=3, axis=1), v)[:, 0]
    return line(edge, make_interp_spline(u, cm.A, k=3, axis=0), u)


@pytest.mark.parametrize("bottom_first", [True, False])
def test_transport_matches_einsum_reference(bottom_first):
    cm = coefficient_matrices(jet_triple(Case.POSITIVE_KH, 6, 0.1, 65))
    F0m = standard_frame()
    frames = _transport(cm, F0m)[0 if bottom_first else 1]
    einsum = _transport_reference(cm, F0m, bottom_first, lambda M, F: np.einsum("...ij,...jk->...ik", M, F))
    assert np.max(np.abs(frames - einsum)) <= 1e-15
    # the stage matrices are make_interp_spline's to round-off, not to the bit
    assert np.max(np.abs(frames - _transport_reference(cm, F0m, bottom_first, np.matmul))) <= 2e-15


@pytest.mark.parametrize("nodes", [5, 6, 33])
def test_stage_matrices_are_the_not_a_knot_spline(nodes):
    # smooth entries (rough data would measure the B-spline reference's own
    # round-off), passed as a strided (lines, batch, 4, 4) view, as the columns
    # sweep passes B
    rng = np.random.default_rng(nodes)
    s = np.linspace(0.2, 0.7, nodes)
    amp, phase = rng.standard_normal((2, 3, 1, 4, 4))
    mats = np.swapaxes(amp * np.sin(3 * s[:, None, None] + phase), 0, 1)
    spline = make_interp_spline(s, mats, k=3)
    frac = np.arange(2 * RK4_SUBSTEPS + 1) / (2 * RK4_SUBSTEPS)
    intervals = list(_stage_matrices(mats))
    assert len(intervals) == nodes - 1
    for k, stages in enumerate(intervals):
        assert len(stages) == 2 * RK4_SUBSTEPS + 1
        # a stage at a node is the node matrix itself
        assert np.array_equal(stages[0], mats[k]) and np.array_equal(stages[-1], mats[k + 1])
        assert np.max(np.abs(np.stack(stages) - spline(s[k] + frac * (s[1] - s[0])))) <= 4e-15


def test_reconstruct_builds_coefficient_matrices_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return coefficient_matrices(t)

    monkeypatch.setattr(frames_module, "coefficient_matrices", counted)
    reconstruct(constant_triple(33))
    assert len(calls) == 1
