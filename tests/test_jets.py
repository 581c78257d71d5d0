from collections import Counter

import numpy as np
import pytest

from minksurf import jets
from minksurf.errors import ValidationError
from minksurf.fields import GridSpec
from minksurf.fixtures import jet_seed, jet_triple
from minksurf.jets import (
    JetSeed,
    _exps,
    _residual_coeffs,
    jet_coefficients,
    jet_manufacture,
    p_diff_u,
    p_eval,
    p_exp,
    p_mul,
    p_zero,
)
from minksurf.natural import Case, residual


def test_poly_mul_and_eval():
    n = 5
    a = p_zero(n)
    a[1, 0] = 1.0  # U
    b = p_zero(n)
    b[0, 2] = 3.0  # 3 V^2
    c = p_mul(a, b, n)
    assert c[1, 2] == 3.0
    X = np.linspace(-1, 1, 7)[:, None]
    Y = np.linspace(-1, 1, 5)[None, :]
    assert np.allclose(p_eval(c, X, Y), 3 * X * Y**2)


def test_poly_exp_matches_series():
    n = 6
    g = p_zero(n)
    g[0, 0] = 0.3
    g[1, 0] = 0.5
    g[0, 1] = -0.25
    e = p_exp(g, n)
    X = np.full((1, 1), 0.05)
    Y = np.full((1, 1), -0.04)
    exact = np.exp(0.3 + 0.5 * 0.05 - 0.25 * -0.04)
    assert abs(p_eval(e, X, Y)[0, 0] - exact) < 1e-12


def test_poly_diff():
    n = 4
    a = p_zero(n)
    a[3, 1] = 2.0
    d = p_diff_u(a)
    assert d[2, 1] == 6.0


def polynomial_residual(case, order, seed, radius, nodes):
    """Max over the patch mesh of the jet's exact residual polynomials.

    The coefficients are padded to total degree 4*order, so the products are
    exact and the exponentials are cut only far beyond the truncation.
    """
    n = 4 * order
    lam, nu, g = (np.pad(c, (0, n - order)) for c in jet_coefficients(case, order, seed))
    U, V = GridSpec(-radius, radius, -radius, radius, nodes, nodes).mesh()
    return max(np.max(np.abs(p_eval(r, U, V))) for r in _residual_coeffs(lam, nu, g, case, n, _exps(g, case, n)))


def test_constants_seed_reproduces_exact_solution():
    seed = JetSeed.constants(2, 0.0, 1.0, 1.0)
    assert polynomial_residual(Case.NEGATIVE_KH, 2, seed, 0.3, 65) == 0.0
    t = jet_manufacture(Case.NEGATIVE_KH, 2, seed, radius=0.3)
    assert residual(t).max_abs <= 1e-13  # the stencils see the exact solution to round-off
    assert np.max(np.abs(t.lam.values)) == 0.0
    assert np.max(np.abs(t.mu.values - 1.0)) == 0.0
    assert np.max(np.abs(t.nu.values - 1.0)) == 0.0


def test_positive_case_residual_and_radius_scaling():
    r1 = polynomial_residual(Case.POSITIVE_KH, 6, jet_seed(6), 0.1, 65)
    assert r1 <= 1e-4
    r2 = polynomial_residual(Case.POSITIVE_KH, 6, jet_seed(6), 0.05, 65)
    # truncation scales like r^(order-1) = r^5; allow some slack
    assert r1 / r2 >= 2 ** 4.5, (r1, r2)
    # the sampled triple passes through the stencil residual at the same level
    assert residual(jet_triple(Case.POSITIVE_KH, order=6, radius=0.1, nodes=65)).interior_max_abs <= 1e-4


@pytest.mark.parametrize("case", list(Case))
@pytest.mark.parametrize("order", range(2, 9))
def test_residual_vanishes_through_stated_degree(case, order):
    # the module docstring's claim: r1, r2 vanish through total degree N-1, r3 through N-2
    s = jet_seed(order, seed=order)
    if case is Case.DEGENERATE:
        s.nu_u[2:] = 0.0
    lam, nu, g = jet_coefficients(case, order, s)
    degree = np.add.outer(np.arange(order + 1), np.arange(order + 1))
    r1, r2, r3 = _residual_coeffs(lam, nu, g, case, order, _exps(g, case, order))
    for r, top in ((r1, order - 1), (r2, order - 1), (r3, order - 2)):
        assert np.max(np.abs(r[degree <= top])) <= 1e-13, (top, r)


def test_degenerate_case_nu_independent_of_v():
    t = jet_triple(Case.DEGENERATE, order=6, radius=0.1, nodes=33)
    assert np.max(np.abs(np.diff(t.nu.values, axis=1))) == 0.0
    assert residual(t).interior_max_abs <= 1e-3


def test_negative_case_manufacture():
    t = jet_triple(Case.NEGATIVE_KH, order=6, radius=0.1, nodes=33)
    assert residual(t).interior_max_abs <= 1e-3


def test_seed_length_validation():
    seed = JetSeed(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError):
        jet_manufacture(Case.POSITIVE_KH, 6, seed)
    with pytest.raises(ValidationError):
        jet_manufacture(Case.POSITIVE_KH, 1, jet_seed(1))
    with pytest.raises(ValidationError):  # the product index would hold 26^4 entries
        jet_manufacture(Case.POSITIVE_KH, 25, jet_seed(25))


def test_negative_sign_mu():
    rng = np.random.default_rng(3)
    s = JetSeed.random(6, rng, amplitude=0.4)
    s.sign_mu = -1
    t = jet_manufacture(Case.POSITIVE_KH, 6, s, radius=0.1, nodes=33)
    assert np.all(t.mu.values < 0)
    assert residual(t).interior_max_abs <= 1e-3


def _loop_mul(a, b, n):
    """The truncated product as a Python loop over the nonzero entries of a."""
    out = np.zeros((n + 1, n + 1))
    for i, j in np.argwhere(a != 0.0):
        if i + j > n:
            continue
        bi = min(b.shape[0], n + 1 - i)
        bj = min(b.shape[1], n + 1 - j)
        out[i : i + bi, j : j + bj] += a[i, j] * b[:bi, :bj]
    out[np.add.outer(np.arange(n + 1), np.arange(n + 1)) > n] = 0.0
    return out


@pytest.mark.parametrize("shape_a, shape_b", [((6, 6), (6, 6)), ((3, 7), (6, 2)), ((9, 4), (2, 9)), ((1, 1), (6, 6))])
def test_p_mul_matches_loop_and_cuts_at_degree(shape_a, shape_b):
    # integer values keep every sum exact, so the two orders of summation agree bit for bit
    n = 5
    rng = np.random.default_rng(5)
    a, b = (np.where(rng.random(s) < 0.7, rng.integers(-9, 10, s), 0).astype(float) for s in (shape_a, shape_b))
    c = p_mul(a, b, n)
    assert c.shape == (n + 1, n + 1)
    assert np.array_equal(c, _loop_mul(a, b, n))
    assert np.all(c[np.add.outer(np.arange(n + 1), np.arange(n + 1)) > n] == 0.0)


def _reference_jet(case, order, seed):
    """Each degree by a finite-difference Jacobian of its rows and a dense solve."""
    n = order
    lam, nu, g = p_zero(n), p_zero(n), p_zero(n)
    lam[0, 0], nu[0, 0], g[0, 0] = seed.lam_u[0], seed.nu_u[0], seed.g_u[0]
    arrays = {"lam": lam, "nu": nu, "g": g}
    for d in range(1, n + 1):
        lam[d, 0], nu[d, 0], g[d, 0], g[0, d] = seed.lam_u[d], seed.nu_u[d], seed.g_u[d], seed.g_v[d]
        slots = [("lam", d - b, b) for b in range(1, d + 1)]
        if case is not Case.DEGENERATE:
            slots += [("nu", d - b, b) for b in range(1, d + 1)]
        slots += [("g", a, d - a) for a in range(1, d)]

        def rows():  # r1, r2 at degree d-1 and r3 at degree d-2
            r1, r2, r3 = _residual_coeffs(lam, nu, g, case, n, _exps(g, case, n))
            out = [r1[a, d - 1 - a] for a in range(d)]
            if case is not Case.DEGENERATE:
                out += [r2[a, d - 1 - a] for a in range(d)]
            return np.array(out + [r3[a, d - 2 - a] for a in range(d - 1)])

        base = rows()
        M = np.empty((len(base), len(slots)))
        for k, (name, a, b) in enumerate(slots):
            arrays[name][a, b] = 1.0
            M[:, k] = rows() - base
            arrays[name][a, b] = 0.0
        for (name, a, b), val in zip(slots, np.linalg.solve(M, -base)):
            arrays[name][a, b] = val
    return lam, nu, g


@pytest.mark.parametrize("case", list(Case))
def test_triangular_pass_matches_dense_solve(case):
    for order in range(2, 9):
        for seed in range(5):
            s = jet_seed(order, seed=seed)
            if case is Case.DEGENERATE:
                s.nu_u[2:] = 0.0
            for new, ref in zip(jet_coefficients(case, order, s), _reference_jet(case, order, s)):
                assert np.max(np.abs(new - ref)) <= 1e-14, (order, seed)


def test_two_residual_evaluations_per_degree(monkeypatch):
    degrees = []
    real = jets._residual_coeffs

    def counted(lam, nu, g, case, n, exps):
        degrees.append(n)
        return real(lam, nu, g, case, n, exps)

    monkeypatch.setattr(jets, "_residual_coeffs", counted)
    for case in Case:
        degrees.clear()
        jet_coefficients(case, 8, jet_seed(8))
        assert set(degrees) <= set(range(1, 9))
        assert max(Counter(degrees).values()) <= 2, Counter(degrees)
