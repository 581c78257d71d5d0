import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minksurf.minkowski import (
    METRIC_DIAG,
    TARGET_GRAM,
    gram_matrix,
    gram_residual,
    lorentz_inner,
    minkowski_cross,
    standard_frame,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vec4 = st.tuples(finite, finite, finite, finite).map(lambda t: np.array(t))


def test_basis_signature():
    e1 = np.array([1.0, 0, 0, 0])
    e4 = np.array([0, 0, 0, 1.0])
    assert lorentz_inner(e1, e1) == 1.0
    assert lorentz_inner(e4, e4) == -1.0


def test_lightlike_pair():
    s = 1 / np.sqrt(2)
    x0 = np.array([s, 0, 0, s])
    y0 = np.array([-s, 0, 0, s])
    assert abs(lorentz_inner(x0, y0) + 1.0) < 1e-15
    assert abs(lorentz_inner(x0, x0)) < 1e-15


@pytest.mark.parametrize("shape", [(4,), (3, 4), (129, 4), (17, 33, 4), (5, 1, 4)])
def test_inner_matches_metric_weighted_sum(shape):
    # the four-term sum has the bits of the weighted np.sum, signed zeros included
    rng = np.random.default_rng(3)
    old_form = lambda a, b: np.sum(a * b * np.array([1.0, 1.0, 1.0, -1.0]), axis=-1)  # noqa: E731
    cases = [(rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape),
              rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)) for _ in range(20)]
    cases += [(rng.choice([-0.0, 0.0, 1.0, -2.0], shape), rng.choice([-0.0, 0.0, 3.0, -1.0], shape))
              for _ in range(20)]
    for a, b in cases:
        new, old = np.asarray(lorentz_inner(a, b)), old_form(a, b)
        assert np.array_equal(new, old) and np.array_equal(np.signbit(new), np.signbit(old))
    assert isinstance(lorentz_inner(*cases[0]), float) == (shape == (4,))


@given(vec4, vec4)
def test_inner_symmetric(a, b):
    assert abs(lorentz_inner(a, b) - lorentz_inner(b, a)) <= 1e-12 * (1 + abs(lorentz_inner(a, b)))


@given(vec4, vec4, vec4, finite, finite)
@example(np.zeros(4), np.array([0.0, 430.0, 0.0, 432.0]), np.array([0.0, 436.0, 0.0, 434.0]), 0.0, 0.35)
def test_inner_bilinear(a, b, c, s, t):
    lhs = lorentz_inner(s * a + t * b, c)
    rhs = s * lorentz_inner(a, c) + t * lorentz_inner(b, c)
    # rounding bound of a dot product: cancellation can leave |lhs| and |rhs|
    # far below the size of the terms that were summed
    scale = 1.0 + np.sum((np.abs(s * a) + np.abs(t * b)) * np.abs(c))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_standard_frame_exact():
    # 1/sqrt2 squares to 0.5 only within one ulp, so "zero" means <= 1e-15
    F = standard_frame()
    assert F.shape == (4, 4)
    assert gram_residual(F) <= 1e-15
    assert abs(np.linalg.det(F) - 1.0) < 1e-14


def test_gram_residual_examples():
    bad = standard_frame()
    bad[2] = 2 * bad[2]  # n1 -> 2 e2
    assert abs(gram_residual(bad) - 3.0) < 1e-14
    bad[0, 0] = np.nan
    assert np.isnan(gram_residual(bad))


@given(st.lists(finite, min_size=16, max_size=16))
@settings(max_examples=50)
def test_gram_residual_matches_bruteforce(flat):
    mat = np.array(flat).reshape(4, 4)
    targets = TARGET_GRAM
    worst = 0.0
    for i in range(4):
        for j in range(i, 4):
            worst = max(worst, abs(lorentz_inner(mat[i], mat[j]) - targets[i, j]))
    got = gram_residual(mat)
    assert abs(got - worst) <= 1e-9 * (1.0 + worst)


def test_gram_matrix_is_the_strided_product_bit_for_bit():
    # multiplying by a contiguous copy of F^T changes how matmul walks memory, not
    # the bits, on 1e5 frames with entries from 1e-8 to 1e8 in magnitude
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((10 ** 5, 4, 4)) * 10.0 ** rng.uniform(-8, 8, (10 ** 5, 4, 4))
    assert np.array_equal(gram_matrix(frames), (frames * METRIC_DIAG) @ np.swapaxes(frames, -1, -2))


@pytest.mark.parametrize("phi", [-1.3, 0.4, 2.0])
def test_gram_residual_boost_invariant(phi):
    rng = np.random.default_rng(3)
    mat = standard_frame() + 0.1 * rng.standard_normal((4, 4))
    # boost of rapidity phi in the (1,4)-plane
    L = np.eye(4)
    L[0, 0] = L[3, 3] = np.cosh(phi)
    L[0, 3] = L[3, 0] = np.sinh(phi)
    boosted = mat @ L.T
    assert abs(gram_residual(boosted) - gram_residual(mat)) < 1e-10


def test_minkowski_cross_orthogonal():
    rng = np.random.default_rng(5)
    a, b, c = rng.standard_normal((3, 4))
    w = minkowski_cross(a, b, c)
    for v in (a, b, c):
        assert abs(lorentz_inner(w, v)) < 1e-12


def test_minkowski_cross_completes_standard_frame():
    x, y, n1, n2 = standard_frame()
    w = minkowski_cross(x, y, n1)
    w = w / np.sqrt(abs(lorentz_inner(w, w)))
    if np.linalg.det(np.stack([x, y, n1, w])) < 0:
        w = -w
    assert np.allclose(w, n2, atol=1e-14)


def _cross_by_levi_civita(a, b, c):
    """Reference: w^m = eta^{mn} eps_{nijk} a^i b^j c^k with the 4-index symbol."""
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
    return np.einsum("nijk,...i,...j,...k->...n", eps, a, b, c) * np.array([1.0, 1.0, 1.0, -1.0])


@pytest.mark.parametrize("shape", [(), (7,), (9, 11)])
def test_minkowski_cross_matches_levi_civita(shape):
    rng = np.random.default_rng(17)
    a, b, c = rng.standard_normal((3,) + shape + (4,))
    ref = _cross_by_levi_civita(a, b, c)
    w = minkowski_cross(a, b, c)
    assert w.shape == shape + (4,)
    assert np.max(np.abs(w - ref)) <= 1e-14 * np.max(np.abs(ref))
