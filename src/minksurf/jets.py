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
along the v = const line through the center.  Everything else is pinned by
one small linear system per degree; the interior coefficients of g come from
the curvature equation, the zig-zag of lambda/nu coefficients from the two
transport equations.

The degree-d system reads r1 and r2 through total degree d-1 and r3 through
d-2, and a product or exponential's coefficient of degree k depends only on
its factors' coefficients of degree <= k.  So degree d reads only
coefficients of degree <= d: it is solved on arrays truncated to
[:d+1, :d+1], and every product and exponential is truncated at degree d.
The same terms are summed in the same order as at full order, so the
coefficients are bit-identical.  exp(g) and exp(2g) enter only through
degree d-2, out of reach of the degree-d unknowns, so each degree builds
them once for all of its unknown columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularDegreeSystem, ValidationError
from .fields import GridSpec, ScalarField
from .natural import CanonicalTriple, Case


# -- dense truncated polynomials in two variables ---------------------------
# coefficient arrays c[a, b] for the monomial U^a V^b, total degree <= N


def p_zero(n: int) -> np.ndarray:
    return np.zeros((n + 1, n + 1))


def p_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n + 1, n + 1))
    for i, j in np.argwhere(a != 0.0):
        if i + j > n:
            continue
        bi = min(b.shape[0], n + 1 - i)
        bj = min(b.shape[1], n + 1 - j)
        out[i : i + bi, j : j + bj] += a[i, j] * b[:bi, :bj]
    # keep only total degree <= n
    mask = np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n
    out[~mask] = 0.0
    return out


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


def _residual_coeffs(lam, nu, g, case: Case, n: int, exps=None):
    """Taylor coefficient arrays of the three residual polynomials.

    `exps` is `_exps(g, case, n)`, built here when not given.
    """
    exp_g, exp_2g = _exps(g, case, n) if exps is None else exps
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


def _equation_vector(lam, nu, g, case: Case, d: int, exps=None) -> np.ndarray:
    """Stacked residual coefficients that must vanish when solving degree d.

    Works on the coefficients of degree <= d only (see the module docstring);
    `exps` is `_exps` of g truncated to degree d.
    """
    k = d + 1
    r1, r2, r3 = _residual_coeffs(lam[:k, :k], nu[:k, :k], g[:k, :k], case, d, exps)
    rows = []
    for a in range(d):          # degree d-1 coefficients of r1 (and r2)
        rows.append(r1[a, d - 1 - a])
    if case is not Case.DEGENERATE:
        for a in range(d):
            rows.append(r2[a, d - 1 - a])
    for a in range(d - 1):      # degree d-2 coefficients of r3
        rows.append(r3[a, d - 2 - a])
    return np.array(rows)


def _unknown_slots(case: Case, d: int):
    """(array_name, a, b) positions of the unpinned degree-d coefficients."""
    slots = []
    for b in range(1, d + 1):
        slots.append(("lam", d - b, b))
    if case is not Case.DEGENERATE:
        for b in range(1, d + 1):
            slots.append(("nu", d - b, b))
    for a in range(1, d):
        slots.append(("g", a, d - a))
    return slots


def jet_coefficients(case: Case, order: int, seed: JetSeed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Taylor coefficients (lam, nu, g = ln|mu|) through total degree `order`.

    Solved degree by degree from the seed, as the module docstring states.
    Entry [a, b] multiplies (u - cu)^a (v - cv)^b about the patch center.
    """
    if order < 2:
        raise ValidationError("jet order must be at least 2")
    for arr, name in ((seed.g_u, "g_u"), (seed.g_v, "g_v"), (seed.lam_u, "lam_u"), (seed.nu_u, "nu_u")):
        if len(arr) < order + 1:
            raise ValidationError(f"seed.{name} must supply order+1 coefficients")

    n = order
    lam, nu, g = p_zero(n), p_zero(n), p_zero(n)
    lam[0, 0] = seed.lam_u[0]
    nu[0, 0] = seed.nu_u[0]
    g[0, 0] = seed.g_u[0]

    for d in range(1, n + 1):
        lam[d, 0] = seed.lam_u[d]
        nu[d, 0] = seed.nu_u[d]
        g[d, 0] = seed.g_u[d]
        g[0, d] = seed.g_v[d]

        slots = _unknown_slots(case, d)
        arrays = {"lam": lam, "nu": nu, "g": g}
        exps = _exps(g[: d + 1, : d + 1], case, d)
        base = _equation_vector(lam, nu, g, case, d, exps)
        m = len(slots)
        if m == 0:
            continue
        M = np.empty((len(base), m))
        for k, (name, a, b) in enumerate(slots):
            arrays[name][a, b] = 1.0
            M[:, k] = _equation_vector(lam, nu, g, case, d, exps) - base
            arrays[name][a, b] = 0.0
        if M.shape[0] != m:
            raise SingularDegreeSystem(d, f"degree {d}: {M.shape[0]} equations for {m} unknowns")
        try:
            x = np.linalg.solve(M, -base)
        except np.linalg.LinAlgError as exc:
            raise SingularDegreeSystem(d, f"degree {d}: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise SingularDegreeSystem(d)
        for (name, a, b), val in zip(slots, x):
            arrays[name][a, b] = val
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
