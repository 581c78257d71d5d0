import numpy as np
import pytest

from conftest import degenerate_metric_immersion, graph_surface, immersion_of
from minksurf import fields
from minksurf.analysis import (
    Immersion,
    SurfaceClass,
    frame_functions,
    geometric_frame,
    invariants,
)
from minksurf.canonical import canonicalize
from minksurf.errors import DegenerateMetric, MinimalOrTotallyGeodesic, NotIsotropic, ValidationError
from minksurf.fields import GridSpec, diff_values, ln_abs
from minksurf.fixtures import goursat_hyperbolic_triple, jet_triple
from minksurf.frames import reconstruct
from minksurf.natural import Case


def null_plane(nodes=33) -> Immersion:
    g = GridSpec(0, 1, 0, 1, nodes, nodes)
    U, V = g.mesh()
    s = 1 / np.sqrt(2)
    pts = np.stack([(U - V) * s, np.zeros_like(U), np.zeros_like(U), (U + V) * s], axis=-1)
    return Immersion(g, pts)


def test_cylinder_form(cylinder):
    # F = -1 on the cylinder, so f = sqrt(-F) = 1
    assert np.max(np.abs(geometric_frame(cylinder).f.values - 1)) <= 5e-8


def test_graph_not_isotropic():
    # timelike (EG - F^2 = -3 < 0), but E = -3 is not small against F = 0
    with pytest.raises(NotIsotropic, match="exceeds"):
        geometric_frame(graph_surface())


def test_degenerate_metric():
    with pytest.raises(DegenerateMetric, match="EG - F\\^2 is numerically zero"):
        geometric_frame(degenerate_metric_immersion())


def test_metric_overflow_is_not_finite(cylinder):
    # the samples are finite but E, F and G overflow; no gate may pass them on
    big = Immersion(cylinder.grid, cylinder.points * 1e160)
    with pytest.raises(ValidationError, match=r"^metric overflow: E, F, G not finite \(the samples are finite\)$"):
        geometric_frame(big)


def test_null_plane_minimal():
    with pytest.raises(MinimalOrTotallyGeodesic):
        geometric_frame(null_plane())


def test_cylinder_geometric_frame(cylinder):
    gf = geometric_frame(cylinder)
    su, sv = cylinder.grid.interior(2)
    assert np.max(np.abs(gf.nu.values - 0.5)[su, sv]) <= 1e-4
    # n1 = (-cos th, -sin th, 0, 0)
    U, V = cylinder.grid.mesh()
    th = (U - V) / np.sqrt(2)
    n1 = gf.frames[..., 2, :]
    assert np.max(np.abs(n1[..., 0] + np.cos(th))[su, sv]) < 1e-5
    assert np.max(np.abs(n1[..., 1] + np.sin(th))[su, sv]) < 1e-5
    assert np.max(np.abs(n1[..., 2])[su, sv]) < 1e-10


# every surface the frame is built on: the cylinder, each reconstructed fixture
# and a canonicalized immersion
ORIENTED_SURFACES = {
    "cylinder": lambda request: request.getfixturevalue("cylinder"),
    "jet-positive": lambda request: immersion_of(request.getfixturevalue("jet_bundle")),
    "jet-negative": lambda request: immersion_of(request.getfixturevalue("negative_jet_bundle")),
    "jet-degenerate": lambda request: immersion_of(reconstruct(jet_triple(Case.DEGENERATE, nodes=33))),
    "goursat-degenerate": lambda request: immersion_of(request.getfixturevalue("degenerate_bundle")),
    "goursat-hyperbolic": lambda request: immersion_of(reconstruct(goursat_hyperbolic_triple(33))),
    "canonicalized-jet": lambda request: canonicalize(immersion_of(request.getfixturevalue("jet_bundle"))).immersion,
}


@pytest.mark.parametrize("surface", ORIENTED_SURFACES)
def test_geometric_frame_orientation(request, surface):
    # n2 is oriented by construction; this determinant is the only check of it
    gf = geometric_frame(ORIENTED_SURFACES[surface](request))
    det = np.linalg.det(gf.frames)
    assert np.all(det > 0)
    assert np.max(np.abs(det - 1.0)) <= 1e-3


def test_order4_stencil_passes(monkeypatch, jet_bundle):
    # each derivative of z is taken once per frame
    m = immersion_of(jet_bundle)
    calls = []
    diff4 = fields._diff4
    monkeypatch.setattr(fields, "_diff4", lambda *args: calls.append(1) or diff4(*args))

    def passes(fn, arg=m):
        calls.clear()
        fn(arg)
        return len(calls)

    # z_u, z_v, z_uv; x_u, y_v, n1_u, n1_v; and invariants adds (ln f)_u,
    # (ln f)_uv, z_uu and z_vv; canonicalize analyzes two immersions
    assert passes(geometric_frame) == 3
    assert passes(frame_functions, geometric_frame(m)) == 4
    assert passes(invariants) == 11
    assert passes(canonicalize) == 14


def test_cylinder_frame_functions(cylinder):
    funcs = frame_functions(geometric_frame(cylinder))
    assert funcs.beta1.max_abs() <= 1e-6
    assert funcs.beta2.max_abs() <= 1e-6
    su, sv = cylinder.grid.interior(2)
    assert np.max(np.abs(funcs.nu.values - 0.5)[su, sv]) <= 1e-4
    # mu1 = mu2 = 0: the cylinder sits in a 3-dimensional subspace
    assert funcs.mu1.interior_max_abs() <= 1e-8
    assert funcs.mu2.interior_max_abs() <= 1e-8


def test_cylinder_invariants(cylinder):
    rep = invariants(cylinder)
    su, sv = cylinder.grid.interior(2)
    assert np.max(np.abs(rep.K_metric.values[su, sv])) <= 1e-4
    assert np.max(np.abs(rep.K_frame.values[su, sv])) <= 1e-4
    for D in (rep.Delta1, rep.Delta2, rep.Delta3):
        assert D.interior_max_abs() <= 1e-8
    assert rep.classification is SurfaceClass.PARALLEL_H
    # mu1 = 0 everywhere, so the quotient formula has no valid nodes
    assert not rep.formula_valid[su, sv].any()


def test_k_metric_formula_symbolic():
    sympy = pytest.importorskip("sympy")
    sp = sympy
    u, v = sp.symbols("u v")
    f = sp.Function("f", positive=True)(u, v)
    gamma1 = sp.diff(f, u) / f**2
    gamma2 = sp.diff(f, v) / f**2
    K = sp.diff(gamma2, u) / f + sp.diff(gamma1, v) / f + 2 * gamma1 * gamma2
    assert sp.simplify(K - 2 / f**2 * sp.diff(sp.log(f), u, v)) == 0


def test_round_trip_constant(constant_bundle):
    m = immersion_of(constant_bundle)
    rep = invariants(m)
    funcs = rep.functions
    su, sv = m.grid.interior(2)
    assert np.max(np.abs(funcs.lambda1.values[su, sv])) <= 1e-4
    assert np.max(np.abs(funcs.mu1.values - 1.0)[su, sv]) <= 1e-4
    assert np.max(np.abs(funcs.nu.values - 1.0)[su, sv]) <= 1e-4
    # eps = -1: lambda2 = +lambda, mu2 = +mu
    assert np.max(np.abs(funcs.lambda2.values[su, sv])) <= 1e-4
    assert np.max(np.abs(funcs.mu2.values - 1.0)[su, sv]) <= 1e-4
    # K = nu^2 + eps (lam^2 + mu^2) = 0, K - H^2 = -1
    assert np.max(np.abs(rep.K_frame.values[su, sv])) <= 1e-4
    assert np.max(np.abs(rep.KmH2_direct.values + 1.0)[su, sv]) <= 1e-3
    assert rep.classification is SurfaceClass.PARALLEL_H


def test_round_trip_jet(jet_bundle):
    t = jet_bundle.triple
    m = immersion_of(jet_bundle)
    rep = invariants(m)
    funcs = rep.functions
    su, sv = m.grid.interior(2)
    assert np.max(np.abs(funcs.lambda1.values - t.lam.values)[su, sv]) <= 5e-4
    assert np.max(np.abs(funcs.mu1.values - t.mu.values)[su, sv]) <= 5e-4
    assert np.max(np.abs(funcs.nu.values - t.nu.values)[su, sv]) <= 5e-4
    # eps = +1: lambda2 = -lambda, mu2 = -mu
    assert np.max(np.abs(funcs.lambda2.values + t.lam.values)[su, sv]) <= 5e-4
    assert np.max(np.abs(funcs.mu2.values + t.mu.values)[su, sv]) <= 5e-4
    assert rep.classification is SurfaceClass.PNMC


def test_round_trip_degenerate_k_equals_nu_squared(degenerate_bundle):
    m = immersion_of(degenerate_bundle)
    rep = invariants(m)
    su, sv = m.grid.interior(2)
    U, _ = m.grid.mesh()
    nu_sq = (1 + U) ** 2
    rel = np.abs(rep.K_frame.values - nu_sq) / nu_sq
    assert np.max(rel[su, sv]) <= 1e-3
    assert rep.classification is SurfaceClass.PNMC


def test_two_curvature_formulas_agree(degenerate_bundle):
    m = immersion_of(degenerate_bundle)
    rep = invariants(m)
    su, sv = m.grid.interior(2)
    assert np.max(np.abs(rep.K_metric.values - rep.K_frame.values)[su, sv]) <= 1e-3


def test_sign_law_formula_vs_direct(jet_bundle):
    rep = invariants(immersion_of(jet_bundle))
    su, sv = jet_bundle.grid.interior(2)
    direct = rep.KmH2_direct.values[su, sv]
    formula = rep.KmH2_formula.values[su, sv]
    valid = rep.formula_valid[su, sv] & (np.abs(formula) > 1e-6)
    assert np.all(np.sign(direct[valid]) == np.sign(formula[valid]))


def test_integrability_mu1_lam2_relation(jet_bundle):
    # mu1 lambda2 - lambda1 mu2 = 0 on parallel-normal surfaces
    funcs = invariants(immersion_of(jet_bundle)).functions
    su, sv = jet_bundle.grid.interior(2)
    resid = funcs.mu1.values * funcs.lambda2.values - funcs.lambda1.values * funcs.mu2.values
    assert np.max(np.abs(resid[su, sv])) <= 1e-4


# In null parameters the only Christoffel symbols are G111 = 2 (ln f)_u and
# G222 = 2 (ln f)_v, with f the geometric frame's metric function.

def _ln_f_derivative(m, axis):
    f = geometric_frame(m).f
    return diff_values(np.log(f.values), (f.grid.hu, f.grid.hv)[axis], axis, order=4)


def test_christoffel_cylinder(cylinder):
    # f = 1
    assert np.max(np.abs(2 * _ln_f_derivative(cylinder, 0))) <= 1e-6
    assert np.max(np.abs(2 * _ln_f_derivative(cylinder, 1))) <= 1e-6


def test_christoffel_exponential_metric(degenerate_bundle):
    # f = 1/sqrt|mu| gives G111 = 2 (ln f)_u = -(ln|mu|)_u
    m = immersion_of(degenerate_bundle)
    t = degenerate_bundle.triple
    expected = -diff_values(ln_abs(t.mu).values, t.grid.hu, 0)
    su, sv = m.grid.interior(2)
    assert np.max(np.abs(2 * _ln_f_derivative(m, 0) - expected)[su, sv]) <= 5e-3


def test_immersion_transpose_roundtrip(cylinder):
    back = cylinder.transpose().transpose()
    assert np.array_equal(back.points, cylinder.points)


def test_immersion_resample_onto_named_grid(cylinder):
    g = cylinder.grid
    half = GridSpec(g.u0, g.u1, g.v0, g.v1, (g.Nu + 1) // 2, (g.Nv + 1) // 2)
    out = cylinder.resample(half, g.u_nodes[::2], g.v_nodes[::2])
    assert out.grid == half
    assert np.max(np.abs(out.points - cylinder.points[::2, ::2])) <= 1e-13
    with pytest.raises(ValidationError, match="sample coordinates"):
        cylinder.resample(half, g.u_nodes, g.v_nodes[::2])


def test_round_trip_negative_mu():
    # the oriented n2 convention must recover mu with its sign
    from minksurf.fields import GridSpec
    from minksurf.frames import reconstruct
    from minksurf.natural import solve_goursat_degenerate

    g = GridSpec(0, 1, 0, 1, 65, 65)
    t = solve_goursat_degenerate(
        lambda u: 1 + u, lambda u: 2.0 + 0 * u, lambda v: 2.0 + 0 * v,
        lambda u: 0 * u, -1, g,
    )
    bundle = reconstruct(t)
    rep = invariants(Immersion(bundle.grid, bundle.points))
    su, sv = g.interior(2)
    assert np.all(rep.functions.mu1.values[su, sv] < 0)
    assert np.max(np.abs(rep.functions.mu1.values - t.mu.values)[su, sv]) <= 1e-4


def test_round_trip_degenerate_jet():
    from minksurf.fixtures import jet_triple
    from minksurf.frames import reconstruct

    t = jet_triple(Case.DEGENERATE, order=6, radius=0.1, nodes=65)
    bundle = reconstruct(t)
    rep = invariants(Immersion(bundle.grid, bundle.points))
    funcs = rep.functions
    su, sv = bundle.grid.interior(2)
    err = max(
        np.max(np.abs(funcs.lambda1.values - t.lam.values)[su, sv]),
        np.max(np.abs(funcs.mu1.values - t.mu.values)[su, sv]),
        np.max(np.abs(funcs.nu.values - t.nu.values)[su, sv]),
    )
    assert err <= 5e-4
    # degenerate: the second-direction coefficients vanish
    assert funcs.mu2.interior_max_abs() <= 1e-6
    assert funcs.lambda2.interior_max_abs() <= 1e-6
