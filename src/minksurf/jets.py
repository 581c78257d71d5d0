"""Polynomial (jet) solutions of the natural systems around a point.

The elliptic-type case (eps = +1) cannot be marched, so fixtures for it are
manufactured as truncated Taylor solutions: coefficients of lambda, nu and
g = ln|mu| are solved degree by degree so the residuals of the first two
equations vanish through total degree N-1 and of the third through N-2.
On a patch of radius r around the center the residual then scales like
r^{N-1}.

`jet_coefficients` returns the coefficient arrays; `jet_manufacture` samples
them on a grid and keeps each polynomial as the field's `evaluator`.  Like
any other field, the samples are differentiated with the order-2 or order-4
stencils; the exact truncation is read from the coefficients through
`_residual_coeffs`.

Free data per total degree d (the seed): the pure powers g_{d,0}, g_{0,d}
of g, and the edge-jet coefficients lam_{d,0}, nu_{d,0} of lambda and nu
along the v = const line through the center.  Everything else follows in a
triangular order.  Each unknown is divided by a nonzero integer, times
e^{g00} for g, so no degree can be singular:

  1. Row a of r3 at degree d-2 is e^{g00} (a+1)(d-1-a) g_{a+1,d-1-a} plus
     terms of lower degree, which gives every interior degree-d coefficient
     of g.
  2. With g set, row a of r1 at degree d-1 is (d-a) lam_{a,d-a} plus
     (a+1) nu_{a+1,d-1-a}, and row a of r2 is -eps (d-a) nu_{a,d-a} plus
     (a+1) lam_{a+1,d-1-a}, each plus known terms.  Going from a = d-1 down
     to 0, the seed's lam_{d,0}, nu_{d,0} start a zig-zag that gives the
     rest of degree d.  The degenerate case has nu = nu(u), so only r1 is
     read.

Each step reads one `_residual_coeffs` evaluation with the step's unknowns
at zero, so a degree costs two.  A product or exponential's coefficient of
degree k depends only on its factors' coefficients of degree <= k, so the
degree-d evaluations work on arrays cut to [:d+1, :d+1] with every product
cut at degree d.  exp(g) and exp(2g) enter only through degree d-2, out of
reach of the degree-d coefficients, so each degree builds them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import GridSpec, ScalarField
from .natural import CanonicalTriple, Case

# `p_mul`'s cached index at total degree n holds (n+1)^4 entries, 3 MB at
# n = 24; the bound keeps the indices one jet builds in memory small
MAX_JET_ORDER = 24


# -- dense truncated polynomials in two variables ---------------------------
# coefficient arrays c[a, b] for the monomial U^a V^b, total degree <= N


def p_zero(n: int) -> np.ndarray:
    return np.zeros((n + 1, n + 1))


@functools.lru_cache(maxsize=16)
def _cauchy_index(n: int) -> np.ndarray:
    """Gather index of the truncated Cauchy product on flattened (n+1)^2 arrays.

    Entry [(i, j), (p, q)] is the flat position of b[i-p, j-q], or (n+1)^2
    where p > i, q > j or i + j > n; `_flat` puts a zero there.  So
    `_flat(b, n)[index] @ _flat(a, n)[:-1]` is the product, already cut at
    total degree n.  A jet reads n = 1 .. order; 16 entries hold every order
    up to 16 at once.  Shared between callers, so it is read-only.
    """
    k = np.arange(n + 1)
    i, j, p, q = (x.ravel() for x in np.meshgrid(k, k, k, k, indexing="ij"))
    ok = (p <= i) & (q <= j) & (i + j <= n)
    index = np.where(ok, (i - p) * (n + 1) + (j - q), (n + 1) ** 2).reshape((n + 1) ** 2, (n + 1) ** 2)
    index.setflags(write=False)
    return index


def _flat(c: np.ndarray, n: int) -> np.ndarray:
    """c cut or zero-padded to (n+1, n+1), flattened, then one zero appended."""
    k = n + 1
    out = np.zeros(k * k + 1)
    out[:-1].reshape(k, k)[: c.shape[0], : c.shape[1]] = c[:k, :k]
    return out


def p_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """a * b with every entry above total degree n zero, for any input shapes."""
    return (_flat(b, n)[_cauchy_index(n)] @ _flat(a, n)[:-1]).reshape(n + 1, n + 1)


def p_diff_u(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    n = c.shape[0] - 1
    out[: n, :] = c[1:, :] * np.arange(1, n + 1)[:, None]
    return out


def p_diff_v(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    n = c.shape[1] - 1
    out[:, : n] = c[:, 1:] * np.arange(1, n + 1)[None, :]
    return out


def p_exp(c: np.ndarray, n: int, factor: float = 1.0) -> np.ndarray:
    """exp(factor * c), exact through total degree n (c may have a constant term)."""
    c0 = factor * c[0, 0]
    rest = factor * c.copy()
    rest[0, 0] = 0.0
    out = p_zero(n)
    out[0, 0] = 1.0
    term = p_zero(n)
    term[0, 0] = 1.0
    for k in range(1, n + 1):
        term = p_mul(term, rest, n) / k
        out = out + term
    return float(np.exp(c0)) * out


def p_eval(c: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Evaluate sum c[a,b] X^a Y^b by nested Horner."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = c.shape[0] - 1
    val = np.zeros(np.broadcast(X, Y).shape)
    for a in range(n, -1, -1):
        row = np.zeros_like(val)
        for b in range(n, -1, -1):
            row = row * Y + c[a, b]
        val = val * X + row
    return val


# ---------------------------------------------------------------------------


@dataclass
class JetSeed:
    """Free Taylor data: pure powers of g in u and v, edge jets of lambda, nu.

    Index d of each array is the coefficient at total degree d; g_v[0] is
    ignored (the constant of g lives in g_u[0]).
    """

    g_u: np.ndarray
    g_v: np.ndarray
    lam_u: np.ndarray
    nu_u: np.ndarray
    sign_mu: int = 1

    def __post_init__(self):
        self.g_u = np.asarray(self.g_u, dtype=float)
        self.g_v = np.asarray(self.g_v, dtype=float)
        self.lam_u = np.asarray(self.lam_u, dtype=float)
        self.nu_u = np.asarray(self.nu_u, dtype=float)
        if self.sign_mu not in (1, -1):
            raise ValidationError("sign_mu must be +1 or -1")

    @classmethod
    def constants(cls, order: int, lam0: float, mu0: float, nu0: float) -> "JetSeed":
        z = np.zeros(order + 1)
        g_u = z.copy()
        g_u[0] = np.log(abs(mu0))
        lam_u = z.copy()
        lam_u[0] = lam0
        nu_u = z.copy()
        nu_u[0] = nu0
        return cls(g_u, z.copy(), lam_u, nu_u, sign_mu=1 if mu0 > 0 else -1)

    @classmethod
    def random(cls, order: int, rng: np.random.Generator, amplitude: float = 0.4) -> "JetSeed":
        decay = amplitude / np.array([max(1.0, float(math.factorial(d))) for d in range(order + 1)])
        g_u = rng.standard_normal(order + 1) * decay
        g_v = rng.standard_normal(order + 1) * decay
        lam_u = rng.standard_normal(order + 1) * decay
        nu_u = rng.standard_normal(order + 1) * decay
        g_u[0] = 0.0
        lam_u[0] = 0.2 + 0.1 * rng.standard_normal()
        nu_u[0] = 1.0
        nu_u[1] = 0.5 + 0.2 * abs(rng.standard_normal())  # keep nu visibly non-constant
        return cls(g_u, g_v, lam_u, nu_u)


def _exps(g, case: Case, n: int):
    """exp(g) and exp(2g) through total degree n; exp(2g) is None when degenerate."""
    if case is Case.DEGENERATE:
        return p_exp(g, n), None
    return p_exp(g, n), p_exp(g, n, factor=2.0)


def _residual_coeffs(lam, nu, g, case: Case, n: int, exps):
    """Taylor coefficient arrays of the three residual polynomials; `exps` is `_exps(g, case, n)`."""
    exp_g, exp_2g = exps
    g_u, g_v = p_diff_u(g), p_diff_v(g)
    g_uv = p_diff_v(g_u)
    r1 = p_diff_u(nu) + p_diff_v(lam) - p_mul(lam, g_v, n)
    if case is Case.DEGENERATE:
        r2 = p_diff_v(nu)
        r3 = p_mul(exp_g, g_uv, n) + p_mul(nu, nu, n)
    else:
        eps = case.epsilon
        r2 = p_diff_u(lam) - eps * p_diff_v(nu) - p_mul(lam, g_u, n)
        r3 = (
            p_mul(exp_g, g_uv, n)
            + p_mul(nu, nu, n)
            + eps * (p_mul(lam, lam, n) + exp_2g)
        )
    return r1, r2, r3


def jet_coefficients(case: Case, order: int, seed: JetSeed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taylor coefficients (lam, nu, g = ln|mu|) through total degree `order`.

    Found degree by degree from the seed by the triangular pass of the module
    docstring.  Entry [a, b] multiplies (u - cu)^a (v - cv)^b about the patch
    center.
    """
    if not 2 <= order <= MAX_JET_ORDER:
        raise ValidationError(f"jet order must be between 2 and {MAX_JET_ORDER}")
    for arr, name in ((seed.g_u, "g_u"), (seed.g_v, "g_v"), (seed.lam_u, "lam_u"), (seed.nu_u, "nu_u")):
        if len(arr) < order + 1:
            raise ValidationError(f"seed.{name} must supply order+1 coefficients")

    n = order
    lam, nu, g = p_zero(n), p_zero(n), p_zero(n)
    lam[0, 0] = seed.lam_u[0]
    nu[0, 0] = seed.nu_u[0]
    g[0, 0] = seed.g_u[0]
    e0 = float(np.exp(g[0, 0]))

    for d in range(1, n + 1):
        lam[d, 0] = seed.lam_u[d]
        nu[d, 0] = seed.nu_u[d]
        g[d, 0] = seed.g_u[d]
        g[0, d] = seed.g_v[d]
        k = d + 1
        # views: the coefficients written below land in lam, nu and g
        lk, nk, gk = lam[:k, :k], nu[:k, :k], g[:k, :k]
        exps = _exps(gk, case, d)
        # step 1 of the module docstring: interior g from r3 at degree d-2
        _, _, r3 = _residual_coeffs(lk, nk, gk, case, d, exps)
        for a in range(d - 1):
            g[a + 1, d - 1 - a] = -r3[a, d - 2 - a] / (e0 * (a + 1) * (d - 1 - a))
        # step 2: the zig-zag; the rows were evaluated with the unknown degree-d
        # lam and nu at zero, so each one found adds its derivative term to row a-1
        r1, r2, _ = _residual_coeffs(lk, nk, gk, case, d, exps)
        for a in range(d - 1, -1, -1):
            b = d - a
            lam[a, b] = -r1[a, b - 1] / b
            if case is Case.DEGENERATE:
                continue
            nu[a, b] = r2[a, b - 1] / (case.epsilon * b)
            if a:
                r1[a - 1, b] += a * nu[a, b]
                r2[a - 1, b] += a * lam[a, b]
    return lam, nu, g


def jet_manufacture(
    case: Case,
    order: int,
    seed: JetSeed,
    center: tuple[float, float] = (0.0, 0.0),
    radius: float = 0.1,
    nodes: int = 65,
) -> CanonicalTriple:
    """Truncated Taylor solution of the natural system on a square patch.

    Samples the polynomials of `jet_coefficients` (mu = sign_mu * exp(g)) on a
    nodes x nodes grid over [cu - r, cu + r] x [cv - r, cv + r].  Each field
    keeps its polynomial as `evaluator`, for edge data off the grid; the
    pipeline differentiates the samples with stencils like any other field.
    """
    lam, nu, g = jet_coefficients(case, order, seed)
    cu, cv = center
    grid = GridSpec(cu - radius, cu + radius, cv - radius, cv + radius, nodes, nodes)
    poly = lambda c: (lambda U, V: p_eval(c, np.asarray(U) - cu, np.asarray(V) - cv))
    g_e, sign = poly(g), seed.sign_mu
    return CanonicalTriple(
        lam=ScalarField.from_function(grid, poly(lam)),
        mu=ScalarField.from_function(grid, lambda U, V: sign * np.exp(g_e(U, V))),
        nu=ScalarField.from_function(grid, poly(nu)),
        case=case,
    )
