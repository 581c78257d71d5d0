import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import immersion_of
from minksurf.analysis import Immersion, frame_functions, geometric_frame
from minksurf.canonical import _monotone_inverse, _separability_fields, canonicalize, classify_functions
from minksurf.errors import BothMuZero, NotSeparable
from minksurf.fields import GridSpec, ScalarField, bicubic
from minksurf.fixtures import goursat_degenerate_triple, goursat_hyperbolic_triple, jet_triple
from minksurf.frames import reconstruct
from minksurf.minkowski import METRIC_DIAG
from minksurf.natural import CanonicalTriple, Case


G = GridSpec(0, 1, 0, 1, 33, 33)


def F(fn):
    return ScalarField.from_function(G, fn)


def separability_devs(phi, psi=None):
    """The interior max deviation of each law, as `canonicalize` reduces `_separability_fields`, and the scale."""
    fields, scale = _separability_fields(phi, psi)
    return {k: float(np.max(d)) for k, d in fields.items()}, scale


def check_separability_pair(f, mu1, mu2):
    fsq = f.values * f.values
    devs, _ = separability_devs(ScalarField(G, fsq * np.abs(mu1.values)), ScalarField(G, fsq * np.abs(mu2.values)))
    assert list(devs) == ["separability_dev_u", "separability_dev_v"]  # report order
    return devs["separability_dev_u"], devs["separability_dev_v"]


def test_separability_canonical_input():
    # f = 1/sqrt|mu| with mu1 = mu, mu2 = -eps mu: f^2|mu_i| = 1
    mu = F(lambda U, V: np.exp(np.sin(U) * np.cos(V)))
    f = ScalarField(G, 1.0 / np.sqrt(np.abs(mu.values)))
    dev_u, dev_v = check_separability_pair(f, mu, ScalarField(G, -mu.values))
    assert dev_u <= 1e-10 and dev_v <= 1e-10


def test_separability_separated_exponentials():
    f = F(lambda U, V: np.ones_like(U))
    mu1 = F(lambda U, V: np.exp(U))
    mu2 = F(lambda U, V: np.exp(V))
    dev_u, dev_v = check_separability_pair(f, mu1, mu2)
    assert dev_u <= 1e-10 and dev_v <= 1e-10


def test_separability_mixed_rejected():
    f = F(lambda U, V: np.ones_like(U))
    mu1 = F(lambda U, V: np.exp(U * V))
    mu2 = F(lambda U, V: np.exp(V))
    dev_u, dev_v = check_separability_pair(f, mu1, mu2)
    # d/dv ln f^2|mu1| = u, so dev_v ~ interior max of u
    interior_u_max = G.u_nodes[G.Nu - 3]
    assert abs(dev_v - interior_u_max) < 1e-10
    assert dev_u <= 1e-10


def test_classify_functions_cases(jet_bundle, degenerate_bundle):
    funcs = frame_functions(geometric_frame(immersion_of(jet_bundle)))
    case, km, swapped = classify_functions(funcs)
    assert case is Case.POSITIVE_KH and km > 0 and not swapped
    funcs = frame_functions(geometric_frame(immersion_of(degenerate_bundle)))
    case, _, _ = classify_functions(funcs)
    assert case is Case.DEGENERATE


def test_classify_functions_both_mu_zero(cylinder):
    funcs = frame_functions(geometric_frame(cylinder))
    with pytest.raises(BothMuZero):
        classify_functions(funcs)


def test_canonicalize_identity_on_canonical_surface(constant_bundle):
    m = immersion_of(constant_bundle)
    res = canonicalize(m)
    g2 = res.triple.grid
    su, sv = g2.interior(2)
    # phi = psi = 1 up to FD noise: the map is a translation to the origin
    assert abs(g2.u1 - 1.0) < 1e-5 and abs(g2.v1 - 1.0) < 1e-5
    assert np.max(np.abs(res.triple.lam.values[su, sv])) <= 1e-3
    assert np.max(np.abs(res.triple.mu.values - 1.0)[su, sv]) <= 1e-3
    assert np.max(np.abs(res.triple.nu.values - 1.0)[su, sv]) <= 1e-3
    assert res.triple.case is Case.NEGATIVE_KH
    assert res.diagnostics["metric_law_max_dev"] <= 1e-3
    assert res.diagnostics["sigma_relation_max_dev"] <= 1e-3


@pytest.mark.parametrize("bundle_name, case, rederived_bound", [
    ("jet_bundle", Case.POSITIVE_KH, 2e-9),
    ("negative_jet_bundle", Case.NEGATIVE_KH, 2e-9),
    ("hyperbolic_bundle", Case.NEGATIVE_KH, 4e-8),
    ("degenerate_bundle", Case.DEGENERATE, 4e-8),
], ids=["positive", "negative", "goursat-hyperbolic", "goursat-degenerate"])
def test_canonicalize_jet_recovers_triple(request, bundle_name, case, rederived_bound):
    bundle = request.getfixturevalue(bundle_name)
    t = bundle.triple
    res = canonicalize(immersion_of(bundle))
    g2 = res.triple.grid
    su, sv = g2.interior(2)
    # canonical input: ubar = u - u0, so node-wise comparison is direct
    assert np.max(np.abs(res.triple.lam.values - t.lam.values)[su, sv]) <= 1e-3
    assert np.max(np.abs(res.triple.mu.values - t.mu.values)[su, sv]) <= 1e-3
    assert np.max(np.abs(res.triple.nu.values - t.nu.values)[su, sv]) <= 1e-3
    assert res.triple.case is case
    # ratio law lambda/mu = lambda1/mu1
    funcs = frame_functions(geometric_frame(res.immersion))
    ratio_new = res.triple.lam.values[su, sv] / res.triple.mu.values[su, sv]
    ratio_orig = funcs.lambda1.values[su, sv] / funcs.mu1.values[su, sv]
    assert np.max(np.abs(ratio_new - ratio_orig)) <= 1e-3
    # the triple re-derived from the canonical immersion's own frame functions:
    # (lambda1, mu1, nu projected onto u) when degenerate, else
    # (lambda1 sqrt|mu1 mu2| / |mu1|, eps1 sqrt|mu1 mu2|, nu).  Measured at 65
    # nodes, n/8 layers in: 4.1e-10 (jets), 8.1e-9 (goursat-hyperbolic),
    # 1.2e-8 (goursat-degenerate)
    mu1 = funcs.mu1.values
    if case is Case.DEGENERATE:
        nu = np.repeat(np.mean(funcs.nu.values[:, sv], axis=1)[:, None], g2.Nv, axis=1)
        rederived = CanonicalTriple(funcs.lambda1, funcs.mu1, ScalarField(g2, nu), case)
    else:
        eps1 = 1.0 if np.median(mu1[su, sv]) > 0 else -1.0
        root = np.sqrt(np.abs(mu1) * np.abs(funcs.mu2.values))
        rederived = CanonicalTriple(ScalarField(g2, funcs.lambda1.values * root / np.abs(mu1)),
                                    ScalarField(g2, eps1 * root), funcs.nu, case)
    assert _triple_gap(res.triple, rederived, g2.Nu // 8) <= rederived_bound


def test_canonicalize_case_preserved(jet_bundle):
    res = canonicalize(immersion_of(jet_bundle))
    funcs2 = frame_functions(geometric_frame(res.immersion))
    case2, _, _ = classify_functions(funcs2)
    assert case2 is res.triple.case


def test_canonicalize_degenerate(degenerate_bundle):
    m = immersion_of(degenerate_bundle)
    res = canonicalize(m)
    assert res.triple.case is Case.DEGENERATE
    assert res.diagnostics["metric_law_max_dev"] <= 1e-3
    assert res.repar.psi is None
    # vbar = v untouched
    assert np.array_equal(res.repar.vbar_map, m.grid.v_nodes)
    # nu projected to a function of u only
    assert np.max(np.abs(np.diff(res.triple.nu.values, axis=1))) == 0.0
    assert res.diagnostics["nu_projection_dev"] <= 1e-4


@pytest.mark.parametrize("bundle_name", ["jet_bundle", "degenerate_bundle"])
def test_canonicalize_immersion_lives_on_the_canonical_grid(request, bundle_name):
    m = immersion_of(request.getfixturevalue(bundle_name))
    res = canonicalize(m)
    ubar, vbar = res.repar.ubar_map, res.repar.vbar_map
    grid = GridSpec(0, ubar[-1], vbar[0], vbar[-1], m.grid.Nu, m.grid.Nv)
    assert res.immersion.grid == grid
    assert res.triple.grid == grid


def test_canonicalize_reparametrization_invariance(constant_bundle):
    # sampling the same surface with u' = u/2 (so z'(u', v) = z(2u', v))
    # must canonicalize to the same triple on the shared domain
    m = immersion_of(constant_bundle)
    res0 = canonicalize(m)
    up = np.linspace(0.0, 0.5, 65)
    stretched = m.resample(GridSpec(0.0, 0.5, 0.0, 1.0, 65, 65), 2 * up, m.grid.v_nodes)
    res2 = canonicalize(stretched)
    g2 = res2.triple.grid
    assert abs(g2.u1 - res0.triple.grid.u1) < 1e-4
    su, sv = g2.interior(2)
    for a, b in (
        (res2.triple.lam, res0.triple.lam),
        (res2.triple.mu, res0.triple.mu),
        (res2.triple.nu, res0.triple.nu),
    ):
        assert np.max(np.abs(a.values - b.values)[su, sv]) <= 1e-3


def test_separability_degenerate_measures_phi_only():
    # without psi = f^2|mu2| only phi = f^2|mu1| is checked; the scale is its largest |ln|
    devs, scale = separability_devs(F(lambda U, V: np.exp(U)))
    assert list(devs) == ["separability_dev_v"]
    assert devs["separability_dev_v"] <= 1e-10
    assert abs(scale - 1.0) <= 1e-12


def test_canonicalize_goursat_hyperbolic_round_trip():
    # the eps = -1 fixture passes the build gate and comes back as itself;
    # its metric is already canonical, so the canonical grid is the original
    t = goursat_hyperbolic_triple(65)
    res = canonicalize(immersion_of(reconstruct(t)))
    assert res.triple.case is Case.NEGATIVE_KH
    assert res.diagnostics["case"] == "negative"
    su, sv = t.grid.interior(4)
    for a, b in ((res.triple.lam, t.lam), (res.triple.mu, t.mu), (res.triple.nu, t.nu)):
        assert np.max(np.abs(a.values - b.values)[su, sv]) < 2e-5


def test_canonicalize_rejects_non_pnmc_surface():
    # the order-4 jet on a radius-0.2 patch leaves a large truncation
    # residual: forced through reconstruction it gives an isotropic surface
    # whose f^2 |mu1| varies along v
    bundle = reconstruct(jet_triple(Case.POSITIVE_KH, order=4, radius=0.2, nodes=33), tol_build=math.inf)
    assert bundle.diagnostics["residual_max"] > 1e-3
    with pytest.raises(NotSeparable, match="separability_dev_v"):
        canonicalize(immersion_of(bundle))


def test_monotone_inverse_rejects_a_decreasing_map():
    nodes = np.linspace(0.0, 1.0, 9)
    with pytest.raises(NotSeparable, match="not strictly increasing$") as info:
        _monotone_inverse(nodes[::-1].copy(), nodes, nodes)
    # a one-dimensional map of averages: no node
    assert (info.value.node, info.value.uv) == (None, None)


def test_monotone_inverse_is_fourth_order():
    # ubar = (e^{a u} - 1) / a on uniform u nodes inverts to u = ln(1 + a ubar) / a
    a = 1.2
    errs = []
    for n in (65, 129, 257):
        nodes = np.linspace(0.0, 1.0, n)
        svals = np.expm1(a * nodes) / a
        targets = np.linspace(0.0, svals[-1], 301)
        out = _monotone_inverse(svals, nodes, targets)
        errs.append(np.max(np.abs(out - np.log1p(a * targets) / a)))
        # the end targets are node values and land on the end nodes
        assert (out[0], out[-1]) == (0.0, 1.0)
        # a target at a node value lands on that node exactly
        assert np.array_equal(_monotone_inverse(svals, nodes, svals), nodes)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.5), (errs, orders)


def test_canonicalize_role_swap_on_transposed_surface(degenerate_bundle):
    # transposing swaps the null directions, so mu1 ~ 0 and mu2 carries the
    # data; canonicalize must swap back internally and agree with the direct
    # result exactly (double transpose is bit-identical)
    m = immersion_of(degenerate_bundle)
    funcs_t = frame_functions(geometric_frame(m.transpose()))
    case, _, swapped = classify_functions(funcs_t)
    assert case is Case.DEGENERATE and swapped
    res_t = canonicalize(m.transpose())
    res_d = canonicalize(m)
    assert res_t.triple.case is Case.DEGENERATE
    assert np.array_equal(res_t.triple.nu.values, res_d.triple.nu.values)
    assert np.array_equal(res_t.triple.mu.values, res_d.triple.mu.values)


def test_canonicalize_nonlinear_reparametrization(constant_bundle):
    # an exponential u-substitution is still isotropic; the canonical triple
    # must come back the same, not just under linear stretches
    from scipy.interpolate import RectBivariateSpline

    m = immersion_of(constant_bundle)
    res0 = canonicalize(m)
    a = 1.2
    up = np.linspace(0.0, np.log(1 + a) / a, 65)    # u = (e^{a u'} - 1)/a
    src_u = np.clip((np.exp(a * up) - 1.0) / a, 0.0, 1.0)
    pts = np.empty((65, 65, 4))
    for k in range(4):
        pts[..., k] = RectBivariateSpline(
            m.grid.u_nodes, m.grid.v_nodes, m.points[..., k], kx=3, ky=3, s=0
        )(src_u, m.grid.v_nodes)
    warped = Immersion(GridSpec(0.0, up[-1], 0.0, 1.0, 65, 65), pts)
    res2 = canonicalize(warped)
    g2 = res2.triple.grid
    assert abs(g2.u1 - res0.triple.grid.u1) < 1e-4
    su, sv = g2.interior(2)
    for a_f, b_f in (
        (res2.triple.lam, res0.triple.lam),
        (res2.triple.mu, res0.triple.mu),
        (res2.triple.nu, res0.triple.nu),
    ):
        assert np.max(np.abs(a_f.values - b_f.values)[su, sv]) <= 1e-3


def _triple_gap(a, b, layers):
    su, sv = a.grid.interior(layers)
    return max(float(np.max(np.abs(x.values - y.values)[su, sv])) for x, y in ((a.lam, b.lam), (a.mu, b.mu), (a.nu, b.nu)))


def _u_warp(g):
    """u = u0 + L (e^{1.2 s} - 1) / (e^{1.2} - 1) at the scaled grid nodes s, and its derivative du/dubar."""
    s = (g.u_nodes - g.u0) / (g.u1 - g.u0)
    return g.u0 + (g.u1 - g.u0) * np.expm1(1.2 * s) / np.expm1(1.2), 1.2 * np.exp(1.2 * s) / np.expm1(1.2)


@pytest.mark.parametrize("make, triple_bound, law_bound", [
    (lambda: jet_triple(Case.POSITIVE_KH, 6, 0.1, 65), 1.5e-5, 1.5e-4),
    (lambda: jet_triple(Case.NEGATIVE_KH, 6, 0.1, 65), 1.5e-5, 1.5e-4),
    (lambda: goursat_hyperbolic_triple(65), 1.5e-5, 1.5e-4),
    (lambda: goursat_degenerate_triple(65), 3e-4, 5e-4),
], ids=["jet-positive", "jet-negative", "goursat-hyperbolic", "goursat-degenerate"])
def test_canonicalize_undoes_a_u_warp(make, triple_bound, law_bound):
    # the surface resampled at the u-warp is still isotropic and must
    # canonicalize to the triple of the unwarped surface, n/8 layers in.
    # Measured at 65 nodes: triple 1.1e-6 (jets), 6.9e-6 (goursat-hyperbolic),
    # 1.3e-4 (goursat-degenerate); metric law 2.6e-6 or less, and 1.1e-5
    # (goursat-degenerate).  A map integrating phi instead of sqrt(phi)
    # reads 0.25 and 0.30 on goursat-degenerate.
    m = immersion_of(reconstruct(make()))
    g = m.grid
    warped = m.resample(g, _u_warp(g)[0], g.v_nodes)
    res, ref = canonicalize(warped), canonicalize(m)
    assert _triple_gap(res.triple, ref.triple, g.Nu // 8) <= triple_bound
    assert res.diagnostics["metric_law_max_dev"] <= law_bound


@pytest.mark.parametrize("make, bound, lambda1_bound", [
    (lambda: jet_triple(Case.POSITIVE_KH, 6, 0.1, 65), 4e-6, 4e-6),
    (lambda: jet_triple(Case.NEGATIVE_KH, 6, 0.1, 65), 4e-6, 4e-6),
    (lambda: goursat_hyperbolic_triple(65), 2.5e-5, 2.5e-5),
    (lambda: goursat_degenerate_triple(65), 6e-5, 4.5e-4),
], ids=["jet-positive", "jet-negative", "goursat-hyperbolic", "goursat-degenerate"])
def test_frame_functions_follow_the_reparametrization_law(make, bound, lambda1_bound):
    # the law canonicalize builds its triple by: under u = U(ubar), v = V(vbar)
    # with a = U' and b = V', lambda1 and mu1 gain a/b, lambda2 and mu2 gain
    # b/a, beta1 gains sqrt(a/b), beta2 sqrt(b/a), f sqrt(ab), and nu nothing.
    # U is the u-warp, V(t) = t + 0.1 sin(pi t) scaled to the grid.  Measured
    # at 65 nodes, n/8 layers in: 1.4e-6 (jets), 8.3e-6 (goursat-hyperbolic),
    # and on goursat-degenerate 1.5e-4 for lambda1, 2e-5 for the rest; the
    # bounds are 3x these
    m = immersion_of(reconstruct(make()))
    g = m.grid
    U, a = _u_warp(g)
    t = (g.v_nodes - g.v0) / (g.v1 - g.v0)
    V, b = g.v0 + (g.v1 - g.v0) * (t + 0.1 * np.sin(np.pi * t)), 1 + 0.1 * np.pi * np.cos(np.pi * t)
    r = a[:, None] / b[None, :]
    factors = {"lambda1": r, "mu1": r, "lambda2": 1 / r, "mu2": 1 / r, "nu": 1.0,
               "beta1": np.sqrt(r), "beta2": np.sqrt(1 / r), "f": np.sqrt(a[:, None] * b[None, :])}
    warped, ref = (frame_functions(geometric_frame(x)) for x in (m.resample(g, U, V), m))
    su, sv = g.interior(g.Nu // 8)
    for name, factor in factors.items():
        expected = bicubic(getattr(ref, name).values, g, U, V) * factor
        gap = float(np.max(np.abs(getattr(warped, name).values - expected)[su, sv]))
        assert gap <= (lambda1_bound if name == "lambda1" else bound), (name, gap)


ETA = np.diag(METRIC_DIAG)
S = np.random.default_rng(3).standard_normal((4, 4))
LORENTZ = expm(0.3 * ETA @ (S - S.T))  # eta times an antisymmetric matrix generates a Lorentz map, det +1
REFLECT_X3 = np.diag([1.0, 1.0, -1.0, 1.0])


@pytest.mark.parametrize("make", [
    lambda: jet_triple(Case.POSITIVE_KH, 6, 0.1, 65),
    lambda: jet_triple(Case.NEGATIVE_KH, 6, 0.1, 65),
    lambda: goursat_hyperbolic_triple(65),
    lambda: goursat_degenerate_triple(65),
], ids=["jet-positive", "jet-negative", "goursat-hyperbolic", "goursat-degenerate"])
@pytest.mark.parametrize("motion, mu_sign", [(LORENTZ, 1), (REFLECT_X3, -1), (REFLECT_X3 @ LORENTZ, -1)],
                         ids=["L", "P", "PL"])
def test_canonical_triple_is_unique_up_to_a_rigid_motion(make, motion, mu_sign):
    # the paper's uniqueness: a rigid motion x -> M x + p leaves the canonical
    # triple as it is when det M = +1, and negates mu when det M = -1 (n2
    # is oriented by det = +1).  Measured at 65 nodes on the whole grid:
    # at most 2.7e-9 (goursat-degenerate, L)
    m = immersion_of(reconstruct(make()))
    assert np.allclose(motion.T @ ETA @ motion, ETA) and np.isclose(np.linalg.det(motion), mu_sign)
    p = np.random.default_rng(4).standard_normal(4)
    ref = canonicalize(m).triple
    res = canonicalize(Immersion(m.grid, m.points @ motion.T + p)).triple
    expected = CanonicalTriple(ref.lam, ScalarField(ref.grid, mu_sign * ref.mu.values), ref.nu, ref.case)
    assert res.case is ref.case
    assert _triple_gap(res, expected, 0) <= 1e-8


@pytest.mark.parametrize("make", [goursat_hyperbolic_triple, goursat_degenerate_triple])
def test_canonicalize_recovers_the_triple_at_second_order(make):
    # triple -> surface -> canonical triple against the input, n/8 layers in.
    # Measured orders on 65/129/257: 2.00, 1.99 (hyperbolic) and 1.97, 1.99
    # (degenerate); goursat-degenerate fails its own build gate at 33 nodes
    errs = []
    for n in (65, 129, 257):
        t = make(n)
        errs.append(_triple_gap(canonicalize(immersion_of(reconstruct(t))).triple, t, n // 8))
    assert min(np.log2(np.array(errs[:-1]) / errs[1:])) >= 1.8, errs


def test_canonicalize_degenerate_v_gauge(degenerate_bundle):
    # the degenerate map keeps v, and the degenerate system is invariant under
    # v -> psi(v), (lambda, mu, nu) -> (lambda / psi', mu / psi', nu) (checked
    # symbolically in test_natural), so the triple is unique only up to that
    # gauge: the surface resampled at v = psi(s) = s + 0.15 sin(pi s)
    # canonicalizes to the transform of the unwarped triple (measured 1.9e-6 at
    # 65 nodes, n/8 layers in), not to the triple itself
    m = immersion_of(degenerate_bundle)
    g = m.grid
    s = g.v_nodes  # the fixture's v runs over [0, 1]
    psi, dpsi = s + 0.15 * np.sin(np.pi * s), 1 + 0.15 * np.pi * np.cos(np.pi * s)
    res, ref = canonicalize(m.resample(g, g.u_nodes, psi)), canonicalize(m)
    grid = res.triple.grid
    lam, mu, nu = (bicubic(f.values, ref.triple.grid, grid.u_nodes, psi)
                   for f in (ref.triple.lam, ref.triple.mu, ref.triple.nu))
    gauged = CanonicalTriple(lam=ScalarField(grid, lam / dpsi), mu=ScalarField(grid, mu / dpsi),
                             nu=ScalarField(grid, nu), case=Case.DEGENERATE)
    assert _triple_gap(res.triple, gauged, g.Nu // 8) <= 5e-6
    assert _triple_gap(res.triple, ref.triple, g.Nu // 8) >= 0.1
    assert res.diagnostics["metric_law_max_dev"] <= 2e-6
