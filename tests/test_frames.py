import math

import numpy as np
import pytest
from conftest import unstable_triple
from scipy.interpolate import make_interp_spline
from scipy.linalg import expm, solve_banded

from minksurf import frames as frames_module
from minksurf.errors import ResidualTooLarge, StepUnstable, ValidationError
from minksurf.fields import GridSpec, ScalarField, _solve_folded_spline, diff_values
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
    _rk4_increment,
    _stage_matrices,
    _transport,
    coefficient_matrices,
    compatibility_residual,
    integrate_frame,
    integrate_position,
    reconstruct,
)
from minksurf.minkowski import METRIC_DIAG, gram_matrix, lorentz_inner, standard_frame
from minksurf.natural import CanonicalTriple, Case, residual, system_residuals

A_CONST = np.array([[0, 0, 0, 1], [0, 0, -2, 0], [-2, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
B_CONST_NEG = np.array([[0, 0, -2, 0], [0, 0, 0, 1], [0, -2, 0, 0], [1, 0, 0, 0]], dtype=float)


def triple_const(lam, mu, nu, case, nodes=33):
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    return CanonicalTriple(
        lam=ScalarField.constant(g, lam),
        mu=ScalarField.constant(g, mu),
        nu=ScalarField.constant(g, nu),
        case=case,
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


def compat(t):
    return compatibility_residual(residual(t), t.mu)


def test_compatibility_constant_solutions():
    assert compat(constant_triple(33)).max_abs() <= 1e-12
    c = compat(triple_const(0, 1, 2, Case.NEGATIVE_KH))
    assert np.max(np.abs(c.values - 3.0)) <= 1e-12


def test_compatibility_jet_scaling():
    c1 = compat(jet_triple(Case.POSITIVE_KH, 6, 0.1, 65)).interior_max_abs()
    c2 = compat(jet_triple(Case.POSITIVE_KH, 6, 0.05, 65)).interior_max_abs()
    assert c1 <= 1e-3
    assert c1 / c2 >= 2 ** 3.5, (c1, c2)


def _symbolic_matrices(sp, case, lam, mu, nu, u, v):
    """A and B of `coefficient_matrices`, entry by entry, with gamma = -grad sqrt|mu| taken exactly."""
    root = sp.sqrt(sp.Abs(mu))
    g1, g2 = -sp.diff(root, u), -sp.diff(root, v)
    A, B = sp.zeros(4), sp.zeros(4)
    A[0, 0], A[0, 2], A[0, 3] = g1, lam, mu
    A[1, 1], A[1, 2] = -g1, -nu
    A[2, 0], A[2, 1] = -nu, lam
    A[3, 1] = mu
    B[0, 0], B[0, 2] = -g2, -nu
    B[1, 1] = g2
    B[2, 1] = -nu
    if case is not Case.DEGENERATE:
        eps = case.epsilon
        B[1, 2], B[1, 3] = -eps * lam, -eps * mu
        B[2, 0] = -eps * lam
        B[3, 0] = -eps * mu
    return A / root, B / root


@pytest.mark.parametrize("case", list(Case), ids=lambda c: c.value)
def test_symbolic_matrices_are_the_codes(case):
    # on a triple whose sqrt|mu| is linear the order-2 gammas are exact, so
    # the typed matrices must be coefficient_matrices' at every node
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v", real=True)
    fields = (0.3 + 0.2 * u - 0.1 * v * v, -(1 + 0.2 * u + 0.3 * v) ** 2, 0.7 + 0.4 * u)
    A, B = (sp.lambdify((u, v), M) for M in _symbolic_matrices(sp, case, *fields, u, v))
    g = GridSpec(0, 1, 0, 1, 9, 9)
    lam, mu, nu = (ScalarField.from_function(g, sp.lambdify((u, v), f)) for f in fields)
    cm = coefficient_matrices(CanonicalTriple(lam=lam, mu=mu, nu=nu, case=case))
    for i, j in [(0, 0), (3, 5), (8, 2)]:
        ui, vj = g.uv((i, j))
        assert np.max(np.abs(cm.A[i, j] - A(ui, vj))) <= 1e-13
        assert np.max(np.abs(cm.B[i, j] - B(ui, vj))) <= 1e-13


@pytest.mark.parametrize("sign_mu", [1, -1])
@pytest.mark.parametrize("case", list(Case), ids=lambda c: c.value)
def test_compatibility_is_the_residual_exactly(case, sign_mu):
    # M = A_v - B_u + [A, B] is the frames module docstring's reweighting of
    # r1, r2, r3 as system_residuals states them, with mu = sign_mu e^g
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v", real=True)
    lam, g = (sp.Function(name, real=True)(u, v) for name in ("lam", "g"))
    nu = sp.Function("nu", real=True)(u) if case is Case.DEGENERATE else sp.Function("nu", real=True)(u, v)
    abs_mu = sp.exp(g)
    A, B = _symbolic_matrices(sp, case, lam, sign_mu * abs_mu, nu, u, v)
    M = A.diff(v) - B.diff(u) + A * B - B * A
    r1, r2, r3 = system_residuals(case, lam, nu, g, abs_mu, abs_mu ** 2, lambda a: sp.diff(a, u),
                                  lambda a: sp.diff(a, v), lambda a, b: a * b)
    s = 1 if case is Case.POSITIVE_KH else -1
    root = sp.sqrt(abs_mu)
    closed = sp.zeros(4)
    closed[0, 0], closed[1, 1] = -r3 / abs_mu, r3 / abs_mu
    closed[0, 2] = closed[2, 1] = r1 / root
    closed[1, 2] = closed[2, 0] = s * r2 / root
    assert sp.simplify(M - closed) == sp.zeros(4)


def discrete_compatibility(t):
    """A_v - B_u + AB - BA by order-2 differencing of the node matrices (the test oracle)."""
    cm = coefficient_matrices(t)
    A_v = diff_values(cm.A, t.grid.hv, axis=1)
    B_u = diff_values(cm.B, t.grid.hu, axis=0)
    return A_v - B_u + (cm.A @ cm.B - cm.B @ cm.A)


def closed_compatibility(t):
    """The same matrix field from the stencil residuals, by the identity above."""
    rep = residual(t)
    abs_mu = np.abs(t.mu.values)
    root = np.sqrt(abs_mu)
    s = 1 if t.case is Case.POSITIVE_KH else -1
    M = np.zeros(abs_mu.shape + (4, 4))
    M[..., 0, 0], M[..., 1, 1] = -rep.r3.values / abs_mu, rep.r3.values / abs_mu
    M[..., 0, 2] = M[..., 2, 1] = rep.r1.values / root
    M[..., 1, 2] = M[..., 2, 0] = s * rep.r2.values / root
    return M


def negated_mu(t):
    # the natural system reads only |mu| and mu^2, so -mu solves it too
    return CanonicalTriple(lam=t.lam, mu=ScalarField(t.grid, -t.mu.values), nu=t.nu, case=t.case)


@pytest.mark.parametrize("make, bound", [
    (goursat_degenerate_triple, 1e-4),
    (goursat_hyperbolic_triple, 2e-5),
    (lambda n: jet_triple(Case.POSITIVE_KH, 6, 0.1, n), 4e-6),
    (lambda n: jet_triple(Case.NEGATIVE_KH, 6, 0.1, n), 4e-6),
    (lambda n: jet_triple(Case.DEGENERATE, 6, 0.1, n), 4e-6),
    (lambda n: negated_mu(jet_triple(Case.POSITIVE_KH, 6, 0.1, n)), 4e-6),
], ids=["goursat-degenerate", "goursat-hyperbolic", "jet-positive", "jet-negative", "jet-degenerate",
        "jet-positive-mu-negated"])
def test_compatibility_closed_form_matches_discrete_oracle(make, bound):
    # differencing A and B checks every entry of coefficient_matrices against
    # the residual; the two fields agree entry by entry to O(h^2), two layers in.
    # Measured at 65 / 129 nodes: 4.9e-5 / 1.3e-5 (goursat-degenerate),
    # 7.9e-6 / 2.0e-6 (goursat-hyperbolic), 1.4e-6 / 3.6e-7 or less (jets)
    gaps = []
    for n in (65, 129):
        t = make(n)
        closed = closed_compatibility(t)
        su, sv = t.grid.interior(2)
        gaps.append(float(np.max(np.abs(discrete_compatibility(t) - closed)[su, sv])))
        # the package's field is the closed form's per-node max-norm
        assert np.array_equal(compat(t).values, np.max(np.abs(closed), axis=(-2, -1)))
    assert gaps[0] <= bound and gaps[1] <= bound / 3.5, gaps
    assert gaps[0] / gaps[1] >= 3, gaps


@pytest.mark.parametrize("make", [
    lambda n: jet_triple(Case.POSITIVE_KH, nodes=n),
    lambda n: jet_triple(Case.NEGATIVE_KH, nodes=n),
    lambda n: jet_triple(Case.DEGENERATE, nodes=n),
    goursat_hyperbolic_triple,
    goursat_degenerate_triple,
], ids=["jet-positive", "jet-negative", "jet-degenerate", "goursat-hyperbolic", "goursat-degenerate"])
def test_sign_of_mu_only_orients_n2(make):
    # mu enters the transport as sign(mu) sqrt|mu| in n2's rows and columns, so
    # -mu from the initial frame with n2 reversed gives the same surface bit for bit
    t = make(65)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    plus = reconstruct(t)
    minus = reconstruct(negated_mu(t), F0=flip @ standard_frame())
    assert np.array_equal(minus.points, plus.points)
    assert minus.diagnostics == plus.diagnostics
    assert np.array_equal(minus.frames, flip @ plus.frames)


@pytest.mark.parametrize("make", [
    lambda n: jet_triple(Case.POSITIVE_KH, nodes=n),
    lambda n: jet_triple(Case.NEGATIVE_KH, nodes=n),
    lambda n: jet_triple(Case.DEGENERATE, nodes=n),
    goursat_hyperbolic_triple,
    goursat_degenerate_triple,
    constant_triple,
], ids=["jet-positive", "jet-negative", "jet-degenerate", "goursat-hyperbolic", "goursat-degenerate", "constant"])
def test_gram_matrix_of_transported_frames_is_the_strided_product(make):
    # gram_matrix multiplies by a contiguous copy of F^T; the strided view gives the same bits
    frames = integrate_frame(coefficient_matrices(make(65)))[0]
    assert np.array_equal(gram_matrix(frames), (frames * METRIC_DIAG) @ np.swapaxes(frames, -1, -2))


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
    bundle = reconstruct(nonsolution_triple(33), tol_build=math.inf)
    assert bundle.diagnostics["residual_max"] > 1.0


@pytest.mark.parametrize("p0, message", [
    ([np.nan, 0.0, 0.0, 0.0], "must be finite"),
    (np.zeros(3), "must be 4 numbers"),
    (np.zeros((17, 17, 4)), "must be 4 numbers"),
], ids=["nan-entry", "shape-3", "shape-17x17x4"])
def test_reconstruct_rejects_malformed_p0(p0, message):
    with pytest.raises(ValidationError, match=message):
        reconstruct(constant_triple(17), p0)


@pytest.mark.parametrize("tol_build", [float("nan"), 0.0, -1.0])
def test_reconstruct_rejects_non_positive_tol_build(tol_build):
    # NaN would switch the residual gate off: the non-solution (residual 1) would build
    with pytest.raises(ValidationError, match="tol_build must be positive"):
        reconstruct(nonsolution_triple(33), tol_build=tol_build)


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
    # measured: lines 31 and 32 both leave the bound in the same step; 32's entries are larger
    assert (exc.node, exc.s) == ((32, 6), 0.171875)
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


@pytest.mark.parametrize("nodes", [5, 6, 12, 33])
def test_stage_matrices_are_the_not_a_knot_spline(nodes):
    # smooth entries (rough data would measure the B-spline reference's own
    # round-off), passed as a strided (lines, batch, 4, 4) view, as the columns
    # sweep passes B; in blocks of 4 intervals, 5 and 11 intervals end on a
    # partial block
    block = 4
    rng = np.random.default_rng(nodes)
    s = np.linspace(0.2, 0.7, nodes)
    amp, phase = rng.standard_normal((2, 3, 1, 4, 4))
    mats = np.swapaxes(amp * np.sin(3 * s[:, None, None] + phase), 0, 1)
    spline = make_interp_spline(s, mats, k=3)
    frac = np.arange(2 * RK4_SUBSTEPS + 1) / (2 * RK4_SUBSTEPS)
    blocks = list(_stage_matrices(mats, block))
    assert [k0 for k0, _ in blocks] == list(range(0, nodes - 1, block))
    for k0, stages in blocks:
        nb = min(block, nodes - 1 - k0)
        assert len(stages) == 2 * RK4_SUBSTEPS + 1
        assert all(stage.shape == (nb,) + mats.shape[1:] for stage in stages)
        # a stage at a node is the node matrix itself
        assert np.array_equal(stages[0], mats[k0:k0 + nb]) and np.array_equal(stages[-1], mats[k0 + 1:k0 + nb + 1])
        for k in range(nb):
            at = s[k0 + k] + frac * (s[1] - s[0])
            assert np.max(np.abs(np.stack([stage[k] for stage in stages]) - spline(at))) <= 4e-15


def folded_bands(m):
    """solve_banded's (1, 1) bands of the folded not-a-knot matrix on m inner nodes."""
    bands = np.zeros((3, m))
    bands[0, 2:] = bands[2, :-2] = 1.0
    bands[1] = 4.0
    bands[1, [0, -1]] = 6.0
    return bands


@pytest.mark.parametrize("nodes", [5, 6, 33, 129, 257])
def test_folded_spline_solve_is_lapacks_bit_for_bit(nodes):
    # the Thomas sweep runs in dgtsv's operation order, so it is LAPACK's solution
    # exactly, on right-hand sides whose magnitudes span 16 decades
    rng = np.random.default_rng(nodes)
    r = rng.standard_normal((nodes - 2, 48)) * 10.0 ** rng.uniform(-8, 8, (nodes - 2, 48))
    b = r.copy()
    _solve_folded_spline(b)
    assert np.array_equal(b, solve_banded((1, 1), folded_bands(nodes - 2), r))


def test_folded_spline_solve_keeps_a_nan_in_its_column():
    # a NaN fills its own column, as in LAPACK's solve, and leaves the others exact
    rng = np.random.default_rng(2)
    r = rng.standard_normal((31, 16))
    r[12, 5] = np.nan
    b = r.copy()
    _solve_folded_spline(b)
    assert np.isnan(b[:, 5]).all() and np.isfinite(np.delete(b, 5, axis=1)).all()
    assert np.array_equal(b, solve_banded((1, 1), folded_bands(31), r, check_finite=False), equal_nan=True)


def test_rk4_increment_is_one_rk4_step():
    # F + D F is the RK4 step of F' = M F taken from F itself, stage by stage
    rng = np.random.default_rng(3)
    M0, M1, M2 = rng.standard_normal((3, 6, 4, 4))
    F = rng.standard_normal((6, 4, 4))
    h = 0.05
    k1 = M0 @ F
    k2 = M1 @ (F + 0.5 * h * k1)
    k3 = M1 @ (F + 0.5 * h * k2)
    k4 = M2 @ (F + h * k3)
    step = F + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(F + _rk4_increment(M0, M1, M2, h) @ F - step)) <= 1e-15


@pytest.mark.parametrize("nodes", [33, 100])
def test_transport_does_not_depend_on_block_size(monkeypatch, nodes):
    # each interval's increments are formed matrix by matrix, so the blocks only
    # group the work; at 100 nodes the default blocks of the columns and rows
    # sweeps (21 intervals of 100 lines) leave a partial last block
    cm = coefficient_matrices(jet_triple(Case.POSITIVE_KH, 6, 0.1, nodes))
    default = _transport(cm, standard_frame())
    for matrices in (1, 7, 10 ** 6):
        monkeypatch.setattr(frames_module, "BLOCK_MATRICES", matrices)
        for a, b in zip(default, _transport(cm, standard_frame())):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("where, sweep, node", [
    ("A", "bottom edge", (1, 0)),
    ("B", "columns", (10, 1)),
], ids=["A-bottom-edge", "B-column"])
def test_step_unstable_guard_catches_nan(where, sweep, node):
    # a NaN coefficient fails the guard instead of filling the frames with NaN.
    # The spline solve spreads it over its whole line, so a NaN in A on the
    # bottom edge fails that edge's first step, and one in B up column 10 fails
    # that column's first step
    cm = coefficient_matrices(jet_triple(Case.POSITIVE_KH, 6, 0.1, 33))
    (cm.A if where == "A" else cm.B)[10, 0 if where == "A" else 7, 0, 2] = np.nan
    g = cm.grid
    with pytest.raises(StepUnstable) as info:
        integrate_frame(cm)
    exc = info.value
    assert (exc.sweep, exc.node, exc.uv) == (sweep, node, g.uv(node))
    assert exc.s == (g.u_nodes[0] + g.hu / RK4_SUBSTEPS if where == "A" else g.v_nodes[0] + g.hv / RK4_SUBSTEPS)
    assert f"node {node}" in str(exc)


def test_reconstruct_builds_coefficient_matrices_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return coefficient_matrices(t)

    monkeypatch.setattr(frames_module, "coefficient_matrices", counted)
    reconstruct(constant_triple(33))
    assert len(calls) == 1
