import numpy as np
import pytest

from conftest import immersion_of
from minksurf.analysis import Immersion, frame_functions, geometric_frame
from minksurf.canonical import _monotone_inverse, canonicalize, check_separability, classify_functions
from minksurf.errors import BothMuZero, NotSeparable
from minksurf.fields import GridSpec, ScalarField
from minksurf.fixtures import goursat_hyperbolic_triple, jet_triple
from minksurf.frames import reconstruct
from minksurf.natural import Case


G = GridSpec(0, 1, 0, 1, 33, 33)


def F(fn):
    return ScalarField.from_function(G, fn)


def check_separability_pair(f, mu1, mu2):
    fsq = f.values * f.values
    devs, _ = check_separability(ScalarField(G, fsq * np.abs(mu1.values)), ScalarField(G, fsq * np.abs(mu2.values)))
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


@pytest.mark.parametrize(
    "bundle_name, case",
    [("jet_bundle", Case.POSITIVE_KH), ("negative_jet_bundle", Case.NEGATIVE_KH)],
    ids=["positive", "negative"],
)
def test_canonicalize_jet_recovers_triple(request, bundle_name, case):
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
    res = canonicalize(immersion_of(request.getfixturevalue(bundle_name)))
    assert res.immersion.grid == res.repar.new_grid
    assert res.triple.grid == res.repar.new_grid


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
    devs, scale = check_separability(F(lambda U, V: np.exp(U)))
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
    bundle = reconstruct(jet_triple(Case.POSITIVE_KH, order=4, radius=0.2, nodes=33), force=True)
    assert bundle.diagnostics["residual_max"] > 1e-3
    with pytest.raises(NotSeparable, match="separability_dev_v"):
        canonicalize(immersion_of(bundle))


def test_monotone_inverse_rejects_a_decreasing_map():
    nodes = np.linspace(0.0, 1.0, 9)
    with pytest.raises(NotSeparable, match="not strictly increasing"):
        _monotone_inverse(nodes[::-1].copy(), nodes, nodes)


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
