"""Builtin fixtures with pinned seeds.

Every fixture is deterministic so the acceptance checks are one-command
reproducible:

  constant             (lambda, mu, nu) = (0, 1, 1), eps = -1; exact solution
                       with commuting constant transport matrices (the frame
                       reduces to a matrix exponential).  nu is constant, so
                       the surface has parallel H rather than PNMC.
  jet                  truncated Taylor solution (by default JET_CASE, of
                       order JET_ORDER on a patch of radius JET_RADIUS); the
                       only route into the elliptic-type case.
  goursat-degenerate   nu(u) = 1 + u on [0,1]^2 marched from raised edge data
                       g = 2 chosen so the solution exists on the whole square
                       (the zero-data problem blows up inside it: the exact
                       solution g = c + 2 ln(1 - (v/2) e^{-c} W(u)) with
                       W = int nu^2 turns singular at v W = 2 e^c).
  goursat-hyperbolic   eps = -1 solve on [0,0.5]^2 with edge data restricted
                       from an order-8 jet, making the data corner-compatible
                       to high order (arbitrary edge data kinks along the
                       corner characteristics and the residual stalls).  The
                       sweep is second order, so the fixture passes the 1e-3
                       build gate from 33 nodes up.
  cylinder             exact isotropic immersion of a Lorentzian cylinder;
                       parallel-H oracle with nu = 1/2 and inflection points
                       everywhere.
"""

from __future__ import annotations

import numpy as np

from .analysis import Immersion
from .errors import ConfigError
from .fields import GridSpec, ScalarField
from .jets import JetSeed, jet_manufacture
from .natural import CanonicalTriple, Case, solve_goursat_degenerate, solve_goursat_hyperbolic

DEGENERATE_EDGE_LEVEL = 2.0
# the default jet: its case, order, patch radius and seed
JET_CASE = Case.POSITIVE_KH
JET_ORDER = 6
JET_RADIUS = 0.1
JET_RNG_SEED = 7
HYPERBOLIC_JET_ORDER = 8

TRIPLE_FIXTURES = ("constant", "jet", "goursat-degenerate", "goursat-hyperbolic")


def default_grid(nodes: int = 65) -> GridSpec:
    return GridSpec(0.0, 1.0, 0.0, 1.0, nodes, nodes)


def constant_triple(nodes: int = 65) -> CanonicalTriple:
    """(0, 1, 1) with eps = -1 solves the system exactly; every derivative is 0."""
    g = default_grid(nodes)
    return CanonicalTriple(
        lam=ScalarField.constant(g, 0.0),
        mu=ScalarField.constant(g, 1.0),
        nu=ScalarField.constant(g, 1.0),
        case=Case.NEGATIVE_KH,
    )


def jet_seed(order: int, seed: int = JET_RNG_SEED) -> JetSeed:
    return JetSeed.random(order, np.random.default_rng(seed))


def jet_triple(
    case: Case = JET_CASE,
    order: int = JET_ORDER,
    radius: float = JET_RADIUS,
    nodes: int = 65,
    seed: int = JET_RNG_SEED,
) -> CanonicalTriple:
    s = jet_seed(order, seed)
    if case is Case.DEGENERATE:
        # nu depends on u only; keep it visibly linear
        s.nu_u[2:] = 0.0
    return jet_manufacture(case, order, s, center=(0.0, 0.0), radius=radius, nodes=nodes)


def goursat_degenerate_triple(nodes: int = 65) -> CanonicalTriple:
    g = default_grid(nodes)
    c = DEGENERATE_EDGE_LEVEL
    return solve_goursat_degenerate(
        nu_of_u=lambda u: 1.0 + u,
        g_bottom=lambda u: c + 0.0 * u,
        g_left=lambda v: c + 0.0 * v,
        lambda_bottom=lambda u: 0.0 * u,
        grid=g,
    )


def degenerate_g_exact(u, v):
    """Closed form of ln|mu| for the degenerate fixture (oracle for the march)."""
    c = DEGENERATE_EDGE_LEVEL
    W = ((1.0 + u) ** 3 - 1.0) / 3.0
    return c + 2.0 * np.log(1.0 - 0.5 * v * np.exp(-c) * W)


def _hyperbolic_edge_functions():
    s = JetSeed.random(HYPERBOLIC_JET_ORDER, np.random.default_rng(JET_RNG_SEED), amplitude=0.35)
    jt = jet_manufacture(Case.NEGATIVE_KH, HYPERBOLIC_JET_ORDER, s, center=(0.25, 0.25), radius=0.26, nodes=9)
    lam_e, nu_e = jt.lam.evaluator, jt.nu.evaluator
    mu_e = jt.mu.evaluator
    g_e = lambda U, V: np.log(np.abs(mu_e(U, V)))
    P = lambda U, V: lam_e(U, V) + nu_e(U, V)
    Q = lambda U, V: lam_e(U, V) - nu_e(U, V)
    return P, Q, g_e


def goursat_hyperbolic_triple(nodes: int = 65) -> CanonicalTriple:
    g = GridSpec(0.0, 0.5, 0.0, 0.5, nodes, nodes)
    P, Q, g_e = _hyperbolic_edge_functions()
    return solve_goursat_hyperbolic(
        p_bottom=lambda u: P(u, 0.0),
        p_left=lambda v: P(0.0, v),
        q_left=lambda v: Q(0.0, v),
        q_top=lambda u: Q(u, 0.5),
        g_bottom=lambda u: g_e(u, 0.0),
        g_left=lambda v: g_e(0.0, v),
        grid=g,
    )


def cylinder_immersion(nodes: int = 65) -> Immersion:
    """z = (cos th, sin th, 0, t), th = (u - v)/sqrt2, t = (u + v)/sqrt2.

    Isotropic (E = G = 0, F = -1), parallel mean curvature direction with
    nu = 1/2, flat (K = 0), and inflection points everywhere: it lives in a
    3-dimensional Minkowski subspace.
    """
    g = default_grid(nodes)
    U, V = g.mesh()
    s = 1.0 / np.sqrt(2.0)
    th = (U - V) * s
    t = (U + V) * s
    pts = np.stack([np.cos(th), np.sin(th), np.zeros_like(th), t], axis=-1)
    return Immersion(g, pts)


def gaussian_bump(grid: GridSpec) -> ScalarField:
    """exp(-r^2 / (2 * 0.15^2)), r the distance from (0.5, 0.5)."""
    U, V = grid.mesh()
    return ScalarField(grid, np.exp(-(((U - 0.5) ** 2 + (V - 0.5) ** 2) / (2.0 * 0.15**2))))


def perturbed_constant_triple(nodes: int = 65) -> CanonicalTriple:
    """Constant fixture with mu multiplied by (1 + 0.01 * Gaussian bump).

    Not a solution: detection of the perturbation by the compatibility and
    path-discrepancy diagnostics is part of the acceptance suite.
    """
    base = constant_triple(nodes)
    g = base.grid
    bump = gaussian_bump(g)
    mu = ScalarField(g, base.mu.values * (1.0 + 0.01 * bump.values))
    return CanonicalTriple(lam=base.lam, mu=mu, nu=base.nu, case=Case.NEGATIVE_KH)


def nonsolution_triple(nodes: int = 65) -> CanonicalTriple:
    """(lambda, mu, nu) = (1, e, u) with eps = +1: r1 = 1 everywhere."""
    g = default_grid(nodes)
    U, _ = g.mesh()
    return CanonicalTriple(
        lam=ScalarField.constant(g, 1.0),
        mu=ScalarField.constant(g, float(np.e)),
        nu=ScalarField(g, U.copy()),
        case=Case.POSITIVE_KH,
    )


def make_triple_fixture(name: str, nodes: int = 65, **jet) -> CanonicalTriple:
    """The triple fixture `name`; only the jet reads `jet`, the keywords of `jet_triple`."""
    if name == "constant":
        return constant_triple(nodes)
    if name == "jet":
        return jet_triple(nodes=nodes, **jet)
    if name == "goursat-degenerate":
        return goursat_degenerate_triple(nodes)
    if name == "goursat-hyperbolic":
        return goursat_hyperbolic_triple(nodes)
    raise ConfigError(f"unknown triple fixture {name!r}; choose from {TRIPLE_FIXTURES}")
