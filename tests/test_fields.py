import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf.errors import GridTooSmall, NearZeroField, SignChange
from minksurf.fields import (
    GridSpec,
    ScalarField,
    bicubic,
    diff_values,
    ln_abs,
    require_away_from_zero,
    sqrt_abs,
)

G = GridSpec(0.0, 1.0, 0.0, 1.0, 33, 33)


def field_of(fn, grid=G):
    return ScalarField.from_function(grid, fn)


def test_grid_validation():
    with pytest.raises(GridTooSmall):
        GridSpec(0, 1, 0, 1, 4, 33)
    with pytest.raises(ValueError):
        GridSpec(1, 0, 0, 1, 33, 33)


def test_grid_node_of_flat_index():
    # C order on a non-square grid: the flat index runs along v fastest
    g = GridSpec(0.0, 1.0, 0.0, 2.0, 5, 7)
    samples = np.arange(35.0).reshape(5, 7)
    for k in (0, 6, 7, 34, np.int64(20)):
        i, j = g.node(k)
        assert (type(i), type(j)) == (int, int)
        assert samples[i, j] == k


def test_linear_derivative_exact():
    s = field_of(lambda U, V: U)
    assert np.max(np.abs(diff_values(s.values, G.hu, 0) - 1.0)) == 0.0


def test_bilinear_mixed_exact():
    s = field_of(lambda U, V: U * V)
    s_uv = diff_values(diff_values(s.values, G.hu, 0), G.hv, 1)
    assert np.max(np.abs(s_uv - 1.0)) < 1e-12


def test_quartic_exact_order4():
    s = field_of(lambda U, V: U**4)
    exact = 4 * G.mesh()[0] ** 3
    assert np.max(np.abs(diff_values(s.values, G.hu, 0, order=4) - exact)) < 1e-11


def test_convergence_order_fd():
    errs = {2: [], 4: []}
    for n in (33, 65, 129):
        g = GridSpec(0, 1, 0, 1, n, n)
        s = ScalarField.from_function(g, lambda U, V: np.sin(U) * np.cos(V))
        U, V = g.mesh()
        exact = np.cos(U) * np.cos(V)
        su, sv = g.interior(2)
        for order in (2, 4):
            err = np.max(np.abs(diff_values(s.values, g.hu, 0, order=order) - exact)[su, sv])
            errs[order].append(err)
    for order, seq in errs.items():
        slopes = [np.log2(seq[i] / seq[i + 1]) for i in range(len(seq) - 1)]
        assert min(slopes) >= order - 0.1, (order, seq, slopes)


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=25)
def test_differentiation_linear(a, b):
    s = field_of(lambda U, V: np.sin(U + 2 * V))
    t = field_of(lambda U, V: U**2 - V)
    lhs = diff_values(a * s.values + b * t.values, G.hu, 0)
    rhs = a * diff_values(s.values, G.hu, 0) + b * diff_values(t.values, G.hu, 0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(lhs)))


def test_mixed_partials_commute():
    s = field_of(lambda U, V: np.sin(2 * U) * np.exp(V / 3))
    a = diff_values(diff_values(s.values, G.hv, 1), G.hu, 0)
    b = diff_values(diff_values(s.values, G.hu, 0), G.hv, 1)
    su, sv = G.interior(2)
    assert np.max(np.abs(a - b)[su, sv]) < 5e-2 * G.hu**2 / G.hu**2  # O(h^2) interior
    # tighter: compare against analytic mixed partial
    U, V = G.mesh()
    exact = 2 * np.cos(2 * U) * np.exp(V / 3) / 3
    assert np.max(np.abs(a - exact)[su, sv]) < 50 * G.hu**2


def test_ln_abs_examples():
    assert np.max(np.abs(ln_abs(ScalarField.constant(G, np.e)).values - 1.0)) < 1e-15
    assert np.max(np.abs(ln_abs(ScalarField.constant(G, -1.0)).values)) == 0.0
    bad = ScalarField.constant(G, 1.0).values.copy()
    bad[3, 3] = 0.0
    bad[5, 7] = 0.0
    with pytest.raises(NearZeroField) as info:
        ln_abs(ScalarField(G, bad))
    # the first node of min |field|, in row-major order
    assert info.value.node == (3, 3)
    assert info.value.uv == (G.u_nodes[3], G.v_nodes[3])
    assert "node (3, 3)" in str(info.value)


def test_ln_abs_sign_constancy_flag():
    vals = np.ones((G.Nu, G.Nv))
    vals[4:, 2:] = -1.0
    with pytest.raises(SignChange) as info:
        require_away_from_zero(ScalarField(G, vals), constant_sign=True)
    # the first node whose sign differs from node (0, 0)
    assert info.value.node == (4, 2)
    assert info.value.uv == (G.u_nodes[4], G.v_nodes[2])
    with pytest.raises(NearZeroField) as info:
        sqrt_abs(ScalarField(G, -1e-9 * vals))
    assert info.value.node == (0, 0)
    # without the sign check, |value| >= MU_MIN passes
    ln_abs(ScalarField(G, vals))


def test_ln_abs_analytic_propagation():
    s = field_of(lambda U, V: np.exp(U * V))
    ln_s = ln_abs(s)
    U, V = G.mesh()
    assert np.max(np.abs(ln_s.values - U * V)) < 1e-13


def test_resample_identity_and_quadratic():
    s = field_of(lambda U, V: U**2 + V**2)
    same = bicubic(s.values, G, G.u_nodes, G.v_nodes)
    assert np.max(np.abs(same - s.values)) < 1e-13
    new_u = np.linspace(0.1, 0.9, 21)
    new_v = np.linspace(0.2, 0.8, 17)
    out = bicubic(s.values, G, new_u, new_v)
    U, V = np.meshgrid(new_u, new_v, indexing="ij")
    assert np.max(np.abs(out - (U**2 + V**2))) < 1e-12


def test_resample_order4():
    errs = []
    half = np.linspace(0.25, 0.75, 41)
    U, V = np.meshgrid(half, half, indexing="ij")
    for n in (33, 65):
        g = GridSpec(0, 1, 0, 1, n, n)
        s = ScalarField.from_function(g, lambda U, V: np.sin(U + V))
        out = bicubic(s.values, g, half, half)
        errs.append(np.max(np.abs(out - np.sin(U + V))))
    assert np.log2(errs[0] / errs[1]) >= 3.5, errs


RNG_TARGETS = np.random.default_rng(11)
OFF_NODE_U = np.sort(RNG_TARGETS.uniform(0.0, 1.0, 17))
OFF_NODE_V = np.sort(RNG_TARGETS.uniform(0.0, 1.0, 13))


@pytest.mark.parametrize("trailing", [(), (4,), (4, 4)])
@pytest.mark.parametrize(
    "new_u, new_v",
    [
        (OFF_NODE_U, OFF_NODE_V),
        (G.u_nodes, OFF_NODE_V),        # every u node line
        (OFF_NODE_U, G.v_nodes[::3]),   # a subset of v node lines
    ],
    ids=["off-node", "u-node-lines", "v-node-lines"],
)
def test_bicubic_matches_fitpack_tensor_spline(trailing, new_u, new_v):
    from scipy.interpolate import RectBivariateSpline

    vals = np.random.default_rng(3).standard_normal((G.Nu, G.Nv) + trailing)
    out = bicubic(vals, G, new_u, new_v)
    assert out.shape == (len(new_u), len(new_v)) + trailing
    for idx in np.ndindex(*trailing):
        ref = RectBivariateSpline(G.u_nodes, G.v_nodes, vals[(...,) + idx], kx=3, ky=3, s=0)(new_u, new_v)
        assert np.max(np.abs(out[(...,) + idx] - ref)) <= 1e-13


def test_bicubic_clips_targets_into_domain():
    vals = np.random.default_rng(5).standard_normal((G.Nu, G.Nv, 4))
    outside = bicubic(vals, G, np.array([-0.1, 1.1]), np.array([-0.2, 1.3]))
    corners = bicubic(vals, G, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert np.array_equal(outside, corners)


def test_diff_values_extra_axes():
    arr = np.stack([G.mesh()[0], 2 * G.mesh()[0]], axis=-1)
    out = diff_values(arr, G.hu, axis=0)
    assert np.allclose(out[..., 0], 1.0)
    assert np.allclose(out[..., 1], 2.0)


def test_evaluator_matches_samples():
    s = field_of(lambda U, V: np.cos(U) + V)
    U, V = G.mesh()
    assert np.max(np.abs(s.values - (np.cos(U) + V))) < 1e-14


cubic_coef = st.floats(min_value=-3, max_value=3, allow_nan=False)


@given(cubic_coef, cubic_coef, cubic_coef, cubic_coef)
@settings(max_examples=20, deadline=None)
def test_resample_reproduces_random_cubics(a, b, c, d):
    # interpolating bicubic splines reproduce polynomials up to degree 3
    s = field_of(lambda U, V: a + b * U * V + c * U**3 + d * V**2 * U)
    new_u = np.linspace(0.05, 0.95, 19)
    new_v = np.linspace(0.1, 0.9, 23)
    out = bicubic(s.values, G, new_u, new_v)
    U, V = np.meshgrid(new_u, new_v, indexing="ij")
    exact = a + b * U * V + c * U**3 + d * V**2 * U
    scale = 1.0 + np.max(np.abs(exact))
    assert np.max(np.abs(out - exact)) <= 1e-11 * scale
    # matrix-valued samples: each entry is the scalar interpolant
    stacked = bicubic(np.stack([s.values, -s.values], axis=-1)[..., None], G, new_u, new_v)
    assert stacked.shape == out.shape + (2, 1)
    assert np.max(np.abs(stacked[..., 0, 0] - out)) <= 1e-14 * scale
    assert np.max(np.abs(stacked[..., 1, 0] + out)) <= 1e-14 * scale
