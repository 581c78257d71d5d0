import operator
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import jets, natural
from minksurf.errors import BlowUp, BothMuZero, NearZeroField, NoConvergence, ValidationError
from minksurf.fields import GridSpec, ScalarField
from minksurf.fixtures import (
    DEGENERATE_EDGE_LEVEL,
    _hyperbolic_edge_functions,
    constant_triple,
    degenerate_g_exact,
    goursat_degenerate_triple,
    goursat_hyperbolic_triple,
    jet_triple,
    nonsolution_triple,
)
from minksurf.natural import (
    G_LIMIT,
    NEWTON_TOL,
    PICARD_TOL,
    CanonicalTriple,
    Case,
    _characteristic_sums,
    _curvature_rhs,
    _goursat_march,
    _wavefronts,
    classify_from_frame,
    nu_constancy_tol,
    residual,
    solve_goursat_degenerate,
    solve_goursat_hyperbolic,
    system_residuals,
)

G65 = GridSpec(0, 1, 0, 1, 65, 65)


# ---------------------------------------------------------------------------
# residual


def test_constant_solution_residual_zero():
    rep = residual(constant_triple(65))
    assert rep.max_abs <= 1e-12


def test_nonsolution_residual_values():
    # (lambda, mu, nu) = (1, e, u), eps = +1: r1 = 1, r2 = 0, r3 = 1 + e^2 at (0, 0)
    rep = residual(nonsolution_triple(65))
    assert abs(rep.r1.values[0, 0] - 1.0) < 1e-10
    assert abs(rep.r2.values[0, 0]) < 1e-10
    assert abs(rep.r3.values[0, 0] - (1.0 + np.e**2)) < 1e-8


def test_goursat_degenerate_residual_convergence():
    errs = []
    for n in (33, 65, 129):
        tri = goursat_degenerate_triple(n)
        errs.append(residual(tri).interior_max_abs)
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.8, (errs, slopes)


def test_residual_nu_shift_changes_only_r3():
    tri = goursat_degenerate_triple(33)
    base = residual(tri)
    c = 0.37
    shifted = CanonicalTriple(
        lam=tri.lam,
        mu=tri.mu,
        nu=ScalarField(tri.grid, tri.nu.values + c),
        case=Case.DEGENERATE,
    )
    rep = residual(shifted)
    # r1, r2 depend on nu only through derivatives
    assert np.max(np.abs(rep.r1.values - base.r1.values)) <= 1e-12
    assert np.max(np.abs(rep.r2.values - base.r2.values)) <= 1e-12
    expected = base.r3.values + 2 * tri.nu.values * c + c * c
    assert np.max(np.abs(rep.r3.values - expected)) <= 1e-12


def test_degenerate_r3_independent_of_lambda():
    tri = goursat_degenerate_triple(33)
    other = CanonicalTriple(
        lam=ScalarField(tri.grid, tri.lam.values + np.sin(tri.grid.mesh()[0])),
        mu=tri.mu,
        nu=tri.nu,
        case=Case.DEGENERATE,
    )
    assert np.max(np.abs(residual(other).r3.values - residual(tri).r3.values)) <= 1e-12


def test_triple_validation():
    with pytest.raises(NearZeroField) as info:
        CanonicalTriple(
            lam=ScalarField.constant(G65, 0.0),
            mu=ScalarField.constant(G65, 0.0),
            nu=ScalarField.constant(G65, 1.0),
            case=Case.NEGATIVE_KH,
        )
    assert info.value.node == (0, 0)
    assert info.value.uv == (G65.u0, G65.v0)
    assert str(info.value).startswith("min |mu| = 0.000e+00")
    U, V = G65.mesh()
    with pytest.raises(NearZeroField) as info:
        CanonicalTriple(  # mu = 0 on the line u = v; the first sign flip is at node (1, 0)
            lam=ScalarField.constant(G65, 0.0),
            mu=ScalarField(G65, np.where(U > V, 1.0, -1.0)),
            nu=ScalarField.constant(G65, 1.0),
            case=Case.NEGATIVE_KH,
        )
    assert info.value.node == (1, 0)
    assert info.value.uv == (G65.u_nodes[1], G65.v0)
    assert str(info.value).startswith("mu changes sign")
    U, _ = G65.mesh()
    with pytest.raises(ValidationError):
        # nu varying along v contradicts the degenerate case tag
        CanonicalTriple(
            lam=ScalarField.constant(G65, 0.0),
            mu=ScalarField.constant(G65, 1.0),
            nu=ScalarField(G65, G65.mesh()[1].copy()),
            case=Case.DEGENERATE,
        )


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    case, km = classify_from_frame(0, 1, 0, 1)
    assert case is Case.NEGATIVE_KH and abs(km + 1) < 1e-14
    case, km = classify_from_frame(1, 1, -2, -2)
    assert case is Case.POSITIVE_KH and abs(km - 4) < 1e-14
    case, km = classify_from_frame(0, 1, 0, 0)
    assert case is Case.DEGENERATE
    with pytest.raises(BothMuZero):
        classify_from_frame(1, 0, 1, 0)


def test_classify_role_swap():
    # mu1 = 0, mu2 != 0: swaps internally instead of dividing by zero
    case, km = classify_from_frame(0, 0, 0, 2)
    assert case is Case.DEGENERATE or np.isfinite(km)


@given(
    st.floats(-2, 2),
    st.floats(0.05, 2),
    st.floats(0.05, 2),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=200)
def test_classify_sign_law(lam1, m1, m2, s1, s2):
    mu1 = m1 if s1 else -m1
    mu2 = m2 if s2 else -m2
    lam2 = lam1 * mu2 / mu1  # integrability-consistent
    case, km = classify_from_frame(lam1, mu1, lam2, mu2)
    expected = Case.NEGATIVE_KH if -mu1 * mu2 < 0 else Case.POSITIVE_KH
    assert case is expected
    assert np.sign(km) == np.sign(-mu1 * mu2)


# ---------------------------------------------------------------------------
# Goursat, degenerate case


def test_goursat_degenerate_rejects_constant_nu():
    with pytest.raises(ValidationError):
        solve_goursat_degenerate(
            lambda u: 0 * u, lambda u: 0 * u, lambda v: 0 * v, lambda u: 0 * u, G65
        )


def test_goursat_degenerate_nu_copied_exactly():
    tri = goursat_degenerate_triple(33)
    assert np.max(np.abs(np.diff(tri.nu.values, axis=1))) == 0.0


def test_goursat_degenerate_matches_closed_form():
    # raised-edge data admits g = c + 2 ln(1 - (v/2) e^{-c} W(u)); the march
    # must approach it at second order
    errs = []
    for n in (33, 65, 129):
        tri = goursat_degenerate_triple(n)
        U, V = tri.grid.mesh()
        g_num = np.log(np.abs(tri.mu.values))
        errs.append(np.max(np.abs(g_num - degenerate_g_exact(U, V))))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.9, (errs, slopes)
    assert errs[-1] < 2e-5


def test_goursat_degenerate_lambda_matches_closed_form():
    # with lam = 0 on the bottom edge and nu_u = 1, lam_v = lam g_v - 1 integrates
    # to lam = -e^g int_0^v e^{-g} = -v (1 - (v/2) e^{-c} W(u)) on the closed-form g
    c = DEGENERATE_EDGE_LEVEL
    errs = []
    for n in (33, 65, 129, 257):
        tri = goursat_degenerate_triple(n)
        U, V = tri.grid.mesh()
        W = ((1.0 + U) ** 3 - 1.0) / 3.0
        errs.append(np.max(np.abs(tri.lam.values + V * (1.0 - 0.5 * V * np.exp(-c) * W))))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(slopes) >= 1.9, (errs, slopes)
    assert errs[2] < 2e-6


def test_goursat_degenerate_zero_data_exists_on_subdomain():
    g = GridSpec(0, 0.7, 0, 0.7, 65, 65)
    tri = solve_goursat_degenerate(
        lambda u: 1 + u, lambda u: 0 * u, lambda v: 0 * v, lambda u: 0 * u, g
    )
    assert residual(tri).interior_max_abs <= 1e-2


def test_goursat_degenerate_zero_data_blows_up_on_unit_square():
    # the closed-form solution is singular at v * int(nu^2) = 2, inside [0,1]^2
    with pytest.raises(BlowUp) as info:
        solve_goursat_degenerate(
            lambda u: 1 + u, lambda u: 0 * u, lambda v: 0 * v, lambda u: 0 * u, G65
        )
    i, j = info.value.node
    assert (i, j) == (64, 56)
    u, v = info.value.uv
    assert (u, v) == (G65.u_nodes[i], G65.v_nodes[j])
    assert f"node {(i, j)}" in str(info.value)
    # the march fails where the exact solution does: on the singular curve v W(u) = 2
    W = ((1.0 + u) ** 3 - 1.0) / 3.0
    assert abs(v * W - 2.0) <= 0.1, (i, j, v * W)


def test_goursat_degenerate_incompatible_corner():
    with pytest.raises(ValidationError):
        solve_goursat_degenerate(
            lambda u: 1 + u, lambda u: 1 + 0 * u, lambda v: 0 * v, lambda u: 0 * u, G65
        )


# ---------------------------------------------------------------------------
# Goursat, hyperbolic case


def test_goursat_hyperbolic_constant_solution():
    g = GridSpec(0, 0.5, 0, 0.5, 33, 33)
    tri = solve_goursat_hyperbolic(
        lambda u: 1 + 0 * u, lambda v: 1 + 0 * v,
        lambda v: -1 + 0 * v, lambda u: -1 + 0 * u,
        lambda u: 0 * u, lambda v: 0 * v, g,
    )
    assert residual(tri).max_abs <= 1e-12
    assert np.max(np.abs(tri.lam.values)) == 0.0
    assert np.max(np.abs(tri.nu.values - 1.0)) == 0.0
    assert np.max(np.abs(tri.mu.values - 1.0)) == 0.0
    assert np.ptp(tri.nu.values) <= nu_constancy_tol(tri.nu.max_abs())


def test_goursat_hyperbolic_equal_edge_data_gives_nonzero_nu():
    # p = q on the edges does not make nu = 0 inside: with nu = 0 the first two
    # equations force lam = 0.5 e^g, so q_top would be 0.5 e^g, not 0.5, once g
    # grows.  max |nu| converges to 0.09277, so nu is not constant
    for n in (33, 65):
        g = GridSpec(0, 0.5, 0, 0.5, n, n)
        tri = solve_goursat_hyperbolic(
            lambda u: 0.5 + 0 * u, lambda v: 0.5 + 0 * v,
            lambda v: 0.5 + 0 * v, lambda u: 0.5 + 0 * u,
            lambda u: 0 * u, lambda v: 0 * v, g,
        )
        assert np.ptp(tri.nu.values) > nu_constancy_tol(tri.nu.max_abs())
        assert abs(np.max(np.abs(tri.nu.values)) - 0.09277) < 1e-4, n


def test_goursat_hyperbolic_convergence():
    # trapezoid along the characteristics: second order once past 33 nodes (1.73 there)
    errs = []
    for n in (65, 129, 257):
        errs.append(residual(goursat_hyperbolic_triple(n)).interior_max_abs)
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.8, (errs, slopes)


def test_goursat_hyperbolic_rejects_unequal_spacing():
    # the diagonal steps of the sweep land on nodes only when hu == hv
    g = GridSpec(0, 0.5, 0, 1.0, 33, 33)
    with pytest.raises(ValidationError, match="hu == hv"):
        solve_goursat_hyperbolic(grid=g, **_hyperbolic_edges(g))


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(p_left=1.0), "corner data for p"),
        (dict(q_top=1.0), "corner data for q"),
        (dict(g_left=1.0), "corner data: g_bottom"),
    ],
    ids=["hyperbolic-p-corner", "hyperbolic-q-corner", "hyperbolic-g-corner"],
)
def test_goursat_solvers_reject_bad_data(change, message):
    # an edge shifted by 1 breaks its corner match
    g = GridSpec(0, 0.5, 0, 0.5, 33, 33)
    kwargs = dict(_hyperbolic_edges(g), grid=g)
    for name, value in change.items():
        kwargs[name] = lambda x, e=kwargs[name]: e(x) + value
    with pytest.raises(ValidationError, match=message):
        solve_goursat_hyperbolic(**kwargs)


def _hyperbolic_edges(grid: GridSpec, functions=None) -> dict:
    """solve_goursat_hyperbolic's edge data of P, Q, G (default: those of the goursat-hyperbolic fixture)."""
    P, Q, G = functions or _hyperbolic_edge_functions()
    return dict(
        p_bottom=lambda u: P(u, grid.v0), p_left=lambda v: P(grid.u0, v),
        q_left=lambda v: Q(grid.u0, v), q_top=lambda u: Q(u, grid.v1),
        g_bottom=lambda u: G(u, grid.v0), g_left=lambda v: G(grid.u0, v),
    )


def test_goursat_hyperbolic_no_convergence_reports_sweeps(monkeypatch):
    monkeypatch.setattr(natural, "MAX_SWEEPS", 2)
    g = GridSpec(0, 0.5, 0, 0.5, 33, 33)
    with pytest.raises(NoConvergence) as info:
        solve_goursat_hyperbolic(grid=g, **_hyperbolic_edges(g))
    deltas = info.value.deltas
    assert len(deltas) == 2
    assert deltas[1] < deltas[0]
    assert all(f"{d:.3e}" in str(info.value) for d in deltas)
    assert "in 2 sweeps" in str(info.value)


def test_goursat_hyperbolic_blowup_located():
    # p = q = a and g = 0 on the edges: the first sweep's right-hand side is a^2 + 1
    # everywhere, so it sets g(i, j) = i j h^2 (a^2 + 1) = 401 i j / 4096, which first
    # exceeds G_LIMIT = 50 in C order at node (16, 32) (50.1; (15, 32) reads 47.0,
    # (16, 31) 48.6)
    a, grid = 20.0, GridSpec(0, 0.5, 0, 0.5, 33, 33)
    assert G_LIMIT == 50.0
    expected = (16, 32)
    const = lambda x: a + 0.0 * x  # noqa: E731
    with pytest.raises(BlowUp) as info:
        solve_goursat_hyperbolic(const, const, const, const, lambda u: 0 * u, lambda v: 0 * v, grid)
    assert info.value.node == expected
    assert info.value.uv == grid.uv(expected)
    assert f"node {expected}" in str(info.value) and "Picard sweep 1" in str(info.value)


@pytest.mark.parametrize("solver, name, at, bad", [
    ("hyperbolic", "p_bottom", 5, np.nan),
    ("hyperbolic", "q_top", 0, np.inf),
    ("hyperbolic", "g_left", 0, np.nan),  # the corner sample: the corner check would pass a NaN
    ("degenerate", "nu_of_u", 7, -np.inf),
    ("degenerate", "g_bottom", 0, np.nan),
    ("degenerate", "lambda_bottom", 32, np.nan),
], ids=["hyperbolic-p_bottom-nan", "hyperbolic-q_top-inf", "hyperbolic-g_left-corner-nan",
        "degenerate-nu_of_u-inf", "degenerate-g_bottom-corner-nan", "degenerate-lambda_bottom-nan"])
@pytest.mark.parametrize("as_array", [False, True], ids=["callable", "array"])
def test_goursat_solvers_reject_non_finite_edge_data(solver, name, at, bad, as_array):
    # a non-finite edge sample is invalid input (exit 1), named with its index,
    # not a numerical BlowUp of the solve it would poison
    g = GridSpec(0, 0.5, 0, 0.5, 33, 33)
    if solver == "hyperbolic":
        kwargs = dict(_hyperbolic_edges(g), grid=g)
    else:
        kwargs = dict(nu_of_u=lambda u: 1 + u, g_bottom=lambda u: 0 * u, g_left=lambda v: 0 * v,
                      lambda_bottom=lambda u: 0 * u, grid=g)
    nodes = g.v_nodes if name in ("p_left", "q_left", "g_left") else g.u_nodes
    samples = np.asarray(kwargs[name](nodes), dtype=float) * np.ones_like(nodes)
    samples[at] = bad
    kwargs[name] = samples if as_array else (lambda x, a=samples: a.copy())
    solve = solve_goursat_hyperbolic if solver == "hyperbolic" else solve_goursat_degenerate
    with pytest.raises(ValidationError, match=f"{name}: sample {at} is {bad}, not finite"):
        solve(**kwargs)


def _jet_edge_functions(seed: int):
    """P, Q, G of the order-8 negative jet of seed `seed`, built as the goursat-hyperbolic fixture builds its own."""
    s = jets.JetSeed.random(8, np.random.default_rng(seed), amplitude=0.35)
    jt = jets.jet_manufacture(Case.NEGATIVE_KH, 8, s, center=(0.25, 0.25), radius=0.26, nodes=9)
    lam, nu, mu = jt.lam.evaluator, jt.nu.evaluator, jt.mu.evaluator
    return (lambda U, V: lam(U, V) + nu(U, V), lambda U, V: lam(U, V) - nu(U, V),
            lambda U, V: np.log(np.abs(mu(U, V))))


def _row_loop_sums(steps, slope):
    """`_characteristic_sums` node by node: each row from the one before, one diagonal step at a time."""
    out = steps.copy()
    for i in range(1, steps.shape[0]):
        if slope < 0:
            out[i, 1:] = out[i - 1, :-1] + steps[i, 1:]
        else:
            out[i, :-1] = out[i - 1, 1:] + steps[i, :-1]
    return out


def _march_per_sweep_reference(grid, p_bottom, p_left, q_left, q_top, g_bottom, g_left):
    """The eps = -1 Picard sweep with a full Goursat march of g in every sweep: lam, nu and mu.

    Same edge extensions, transports and stopping rule as `solve_goursat_hyperbolic`, but g is
    marched with the implicit corner rule from the old p q instead of updated from the old g.
    """
    u, v = grid.u_nodes, grid.v_nodes
    pb, pl, ql, qt, gb, gl = (f(x) for f, x in ((p_bottom, u), (p_left, v), (q_left, v), (q_top, u),
                                               (g_bottom, u), (g_left, v)))
    p = pb[:, None] + pl[None, :] - pb[0]
    q = ql[None, :] + qt[:, None] - ql[-1]
    g = gb[:, None] + gl[None, :] - gb[0]
    for _ in range(natural.MAX_SWEEPS):
        p_old, q_old, g_old = p, q, g
        lam = 0.5 * (p_old + q_old)
        g = _goursat_march(grid, gb, gl, p_old * q_old, -1)
        p = np.empty_like(g)
        p[:, 0] = pb
        p[0, :] = pl
        p[1:, 1:] = 0.5 * (lam[1:, 1:] + lam[:-1, :-1]) * (g[1:, 1:] - g[:-1, :-1])
        p = _row_loop_sums(p, -1)
        q = np.empty_like(g)
        q[0, :] = ql
        q[:, -1] = qt
        q[1:, :-1] = 0.5 * (lam[1:, :-1] + lam[:-1, 1:]) * (g[1:, :-1] - g[:-1, 1:])
        q = _row_loop_sums(q, 1)
        if max(np.max(np.abs(p - p_old)), np.max(np.abs(q - q_old)), np.max(np.abs(g - g_old))) <= PICARD_TOL:
            return 0.5 * (p + q), 0.5 * (p - q), np.exp(g)
    raise AssertionError("reference sweep did not converge")


@pytest.mark.parametrize(
    "nodes, seed",
    [(33, None), (65, None), (129, None), (65, 11), (65, 16)],
    ids=["fixture-33", "fixture-65", "fixture-129", "jet-seed11-65", "jet-seed16-65"],
)
def test_goursat_hyperbolic_matches_march_per_sweep(nodes, seed):
    # the whole-grid update of g is the implicit corner rule at the sweep's fixed
    # point, so only the path to the solution differs from a march per sweep
    g = GridSpec(0, 0.5, 0, 0.5, nodes, nodes)
    edges = _hyperbolic_edges(g, None if seed is None else _jet_edge_functions(seed))
    tri = solve_goursat_hyperbolic(grid=g, **edges)
    for got, want in zip((tri.lam, tri.nu, tri.mu), _march_per_sweep_reference(g, **edges)):
        assert np.max(np.abs(got.values - want)) <= 1e-11


@pytest.mark.parametrize("shape", [(9, 9), (7, 12), (12, 7)])
@pytest.mark.parametrize("slope", [-1, 1])
def test_characteristic_sums_bit_identical_to_row_loop(shape, slope):
    # one cumsum over the sheared buffer adds in the row loop's order; the -0.0
    # padding is the exact additive identity, so a -0.0 start value and -0.0 or
    # +0.0 steps keep their signs
    rng = np.random.default_rng(5)
    steps = rng.standard_normal(shape)
    steps[rng.random(shape) < 0.2] = 0.0
    steps[rng.random(shape) < 0.2] = -0.0
    steps[0, 3] = -0.0
    steps[2:, 0 if slope < 0 else -1] = -0.0  # start values of the diagonals that begin on the first or last column
    got, want = _characteristic_sums(steps, slope), _row_loop_sums(steps, slope)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[0, 3]) and np.sum(np.signbit(got) & (got == 0.0)) > 1


def _reference_march(grid, g_bottom, g_left, coef, eps):
    """Reference Goursat march: the right-hand side evaluated afresh at the three known corners of every cell.

    Same predictor as the march, extrapolated from those three corner values,
    and the same stopping rule: Newton steps until the front's largest
    correction is at or below NEWTON_TOL, at most 3.
    """
    Nu, Nv = grid.Nu, grid.Nv
    g = np.empty((Nu, Nv))
    g[:, 0] = g_bottom
    g[0, :] = g_left
    cell = grid.hu * grid.hv / 4.0

    def f(i, j, x):
        return _curvature_rhs(coef[i, j], x, eps)

    for s in range(2, Nu + Nv - 1):
        i = np.arange(max(1, s - (Nv - 1)), min(Nu - 1, s - 1) + 1)
        j = s - i
        base = g[i - 1, j] + g[i, j - 1] - g[i - 1, j - 1]
        r_duv = f(i - 1, j - 1, g[i - 1, j - 1])[0]
        r_du = f(i - 1, j, g[i - 1, j])[0]
        r_dv = f(i, j - 1, g[i, j - 1])[0]
        fixed = base + cell * (r_duv + r_du + r_dv)
        x = fixed + cell * (r_du + r_dv - r_duv)
        for _ in range(3):
            val, dval = f(i, j, x)
            dx = (x - fixed - cell * val) / (1.0 - cell * dval)
            x = x - dx
            if np.max(np.abs(dx)) <= NEWTON_TOL:
                break
        g[i, j] = x
    return g


def _three_step_reference_march(grid, g_bottom, g_left, coef, eps):
    """Reference Goursat march with a fixed three Newton steps per front and no stopping test."""
    Nu, Nv = grid.Nu, grid.Nv
    g = np.empty((Nu, Nv))
    g[:, 0] = g_bottom
    g[0, :] = g_left
    cell = grid.hu * grid.hv / 4.0

    def f(i, j, x):
        return _curvature_rhs(coef[i, j], x, eps)[0]

    for s in range(2, Nu + Nv - 1):
        i = np.arange(max(1, s - (Nv - 1)), min(Nu - 1, s - 1) + 1)
        j = s - i
        base = g[i - 1, j] + g[i, j - 1] - g[i - 1, j - 1]
        known = f(i - 1, j - 1, g[i - 1, j - 1]) + f(i - 1, j, g[i - 1, j]) + f(i, j - 1, g[i, j - 1])
        x = base + cell * (known + f(i, j, base))
        for _ in range(3):
            val, dval = _curvature_rhs(coef[i, j], x, eps)
            phi = x - base - cell * (known + val)
            x = x - phi / (1.0 - cell * dval)
        g[i, j] = x
    return g


def _march_cases():
    """(grid, g_bottom, g_left, coef, eps) of four marches: fixture-like data, then zero edges
    and a rough coefficient, for which the marched values are mostly cell * known, so a change
    in how the corners are summed shows in the bits."""
    g = GridSpec(0, 0.5, 0, 0.5, 33, 33)
    cases = [(g, *_hyperbolic_march_data(g), -1)]
    g = GridSpec(0, 1, 0, 1, 33, 33)
    u, v = g.u_nodes, g.v_nodes
    nusq = np.broadcast_to(((1.0 + u) ** 2)[:, None], (33, 33))
    cases.append((g, 2.0 + 0.3 * np.sin(3 * u), 2.0 - 0.2 * v, -nusq, 0))
    rng = np.random.default_rng(0)
    zero = np.zeros(33)
    cases.append((g, zero, zero, rng.standard_normal((33, 33)), -1))
    cases.append((g, zero, zero, -rng.uniform(0.5, 2.0, (33, 33)), 0))
    return cases


def _hyperbolic_march_data(grid):
    """g_bottom, g_left and the first sweep's p q of the goursat-hyperbolic edge data."""
    e = _hyperbolic_edges(grid)
    u, v = grid.u_nodes, grid.v_nodes
    pb, pl, ql, qt = e["p_bottom"](u), e["p_left"](v), e["q_left"](v), e["q_top"](u)
    pq = (pb[:, None] + pl[None, :] - pb[0]) * (ql[None, :] + qt[:, None] - ql[-1])
    return e["g_bottom"](u), e["g_left"](v), pq


def test_goursat_march_bit_identical_to_reference():
    # storing each node's right-hand side once it is final must not change a bit;
    # compared within one run, not against stored values, because exp's last
    # bits may differ between CPUs
    for case in _march_cases():
        assert np.array_equal(_goursat_march(*case), _reference_march(*case))


def test_goursat_march_matches_three_step_newton():
    # stopping Newton at NEWTON_TOL leaves the solution at round-off from three full steps
    for case in _march_cases():
        g = _goursat_march(*case)
        err = np.max(np.abs(g - _three_step_reference_march(*case)))
        assert err <= 1e-13 * (1.0 + np.max(np.abs(g))), err


def _rhs_calls(case) -> list:
    """Marches the case with a counting `_curvature_rhs`; returns the coefficient array of each call."""
    calls = []

    def counted(c, g, eps):
        calls.append(c)
        return _curvature_rhs(c, g, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(natural, "_curvature_rhs", counted)
        _goursat_march(*case)
    return calls


def _newton_steps_per_front(case) -> list:
    """The Newton steps of each front of the case's march."""
    # after the two edges, each front calls rhs for its Newton steps and once more
    # for the final value, all on the one view of the front's coefficients; the
    # calls keep every view alive, so no two fronts share an id
    return [len(list(run)) - 1 for _, run in groupby(_rhs_calls(case)[2:], key=id)]


def test_goursat_march_newton_steps():
    steps = _newton_steps_per_front(_fixture_march_case("goursat-hyperbolic", 129))
    assert steps == [1] * len(_wavefronts(129, 129))
    for case in _march_cases()[2:]:
        steps = _newton_steps_per_front(case)
        assert len(steps) == len(_wavefronts(33, 33)) and max(steps) <= 3


def _fixture_march_case(fixture: str, nodes: int):
    """(grid, g_bottom, g_left, coef, eps) of the fixture's (first) march."""
    if fixture == "goursat-hyperbolic":
        g = GridSpec(0, 0.5, 0, 0.5, nodes, nodes)
        return (g, *_hyperbolic_march_data(g), -1)
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    edge = np.full(nodes, DEGENERATE_EDGE_LEVEL)
    nusq = np.broadcast_to(((1.0 + g.u_nodes) ** 2)[:, None], (nodes, nodes))
    return (g, edge, edge, -nusq, 0)


@pytest.mark.parametrize("nodes, calls", [(129, 512), (257, 1024)])
@pytest.mark.parametrize("fixture", ["goursat-hyperbolic", "goursat-degenerate"])
def test_goursat_march_rhs_calls(fixture, nodes, calls):
    # 2 + 2 x (2 nodes - 3 fronts): one call per edge, then per front one Newton
    # step and the final value; the predictor reads the stored corner values
    assert len(_rhs_calls(_fixture_march_case(fixture, nodes))) == calls


def test_characteristic_reformulation_symbolic():
    sympy = pytest.importorskip("sympy")
    sp = sympy
    u, v = sp.symbols("u v")
    lam = sp.Function("lam")(u, v)
    nu = sp.Function("nu")(u, v)
    g = sp.Function("g")(u, v)
    r1 = sp.diff(nu, u) + sp.diff(lam, v) - lam * sp.diff(g, v)
    r2 = sp.diff(lam, u) + sp.diff(nu, v) - lam * sp.diff(g, u)  # eps = -1
    r3 = sp.exp(g) * sp.diff(g, u, v) + nu**2 - lam**2 - sp.exp(2 * g)
    p = lam + nu
    q = lam - nu
    c1 = sp.diff(p, u) + sp.diff(p, v) - lam * (sp.diff(g, u) + sp.diff(g, v))
    c2 = sp.diff(q, u) - sp.diff(q, v) - lam * (sp.diff(g, u) - sp.diff(g, v))
    c3 = sp.diff(g, u, v) - p * q * sp.exp(-g) - sp.exp(g)
    assert sp.simplify(c1 - (r1 + r2)) == 0
    assert sp.simplify(c2 - (r2 - r1)) == 0
    assert sp.simplify(sp.exp(g) * c3 - r3) == 0


@pytest.mark.parametrize("case", list(Case), ids=lambda c: c.value)
def test_system_residuals_symbolic(case):
    # system_residuals, fed sympy's derivatives, is the system of the natural
    # module docstring, written out here case by case, with |mu| = e^g
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v")
    lam, nu, g = (sp.Function(name)(u, v) for name in ("lam", "nu", "g"))
    mu = sp.exp(g)
    lam_u, lam_v, nu_u, nu_v = sp.diff(lam, u), sp.diff(lam, v), sp.diff(nu, u), sp.diff(nu, v)
    g_u, g_v, g_uv = sp.diff(g, u), sp.diff(g, v), sp.diff(g, u, v)
    docstring = {
        Case.POSITIVE_KH: (nu_u + lam_v - lam * g_v, lam_u - nu_v - lam * g_u,
                           mu * g_uv - (-nu**2 - (lam**2 + mu**2))),
        Case.NEGATIVE_KH: (nu_u + lam_v - lam * g_v, lam_u + nu_v - lam * g_u,
                           mu * g_uv - (-nu**2 + (lam**2 + mu**2))),
        # nu = nu(u) is the equation nu_v = 0
        Case.DEGENERATE: (nu_u + lam_v - lam * g_v, nu_v, mu * g_uv - (-nu**2)),
    }[case]
    stated = system_residuals(case, lam, nu, g, mu, mu**2, lambda a: sp.diff(a, u), lambda a: sp.diff(a, v),
                              operator.mul)
    assert all(sp.simplify(x - y) == 0 for x, y in zip(stated, docstring))


def test_degenerate_system_gauge_in_v():
    # (lambda, mu, nu)(u, v) -> (lambda / psi', mu / psi', nu)(u, psi(v)), psi' > 0,
    # carries each degenerate residual over unchanged, so the degenerate
    # canonical triple is unique only up to this gauge
    sp = pytest.importorskip("sympy")
    u, v, w = sp.symbols("u v w", real=True)
    lam, g = sp.Function("lam", real=True), sp.Function("g", real=True)
    nu = sp.Function("nu", real=True)(u)
    psi = sp.Function("psi", real=True)(v)
    dpsi = sp.diff(psi, v)

    def stated(lam_, g_, y):
        return system_residuals(Case.DEGENERATE, lam_, nu, g_, sp.exp(g_), None, lambda a: sp.diff(a, u),
                                lambda a: sp.diff(a, y), operator.mul)

    gauged = stated(lam(u, psi) / dpsi, g(u, psi) - sp.log(dpsi), v)  # ln|mu / psi'| = g - ln psi'
    composed = (r.subs(w, psi) for r in stated(lam(u, w), g(u, w), w))
    assert all(sp.simplify((a - b).doit()) == 0 for a, b in zip(gauged, composed))


@pytest.mark.parametrize("eps", [0, -1])
def test_curvature_rhs_solves_r3(eps):
    # with coef = -(nu^2 + eps lam^2) the right-hand side is the g_uv that makes
    # r3 = e^g g_uv + nu^2 + eps (lam^2 + e^{2g}) vanish, and the slope is its g-derivative
    rng = np.random.default_rng(3)
    lam, nu, g = rng.normal(size=(3, 200))
    coef = -(nu * nu + eps * lam * lam)
    val, slope = _curvature_rhs(coef, g, eps)
    r3 = np.exp(g) * val + nu * nu + eps * (lam * lam + np.exp(2 * g))
    assert np.max(np.abs(r3)) <= 1e-13 * (1.0 + np.max(nu * nu + lam * lam + np.exp(2 * g)))
    h = 1e-6
    fd = (_curvature_rhs(coef, g + h, eps)[0] - _curvature_rhs(coef, g - h, eps)[0]) / (2 * h)
    assert np.allclose(slope, fd, rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize(
    "case, passes",
    [(Case.POSITIVE_KH, 7), (Case.NEGATIVE_KH, 7), (Case.DEGENERATE, 6)],
    ids=["positive", "negative", "degenerate"],
)
def test_residual_stencil_passes(monkeypatch, case, passes):
    # one order-2 pass per derivative: g_uv differentiates g_u, and the
    # degenerate case takes no lam_u
    t = jet_triple(case, nodes=17)
    calls = []
    diff = natural.diff_values
    monkeypatch.setattr(natural, "diff_values", lambda *args: calls.append(1) or diff(*args))
    residual(t)
    assert len(calls) == passes
