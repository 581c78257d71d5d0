"""Natural PDE systems for the geometric function triple (lambda, mu, nu).

Three cases, tagged by the sign of K - H^2:

  positive (eps = +1):  nu_u + lam_v = lam (ln|mu|)_v
                        lam_u - nu_v = lam (ln|mu|)_u
                        |mu| (ln|mu|)_uv = -nu^2 - (lam^2 + mu^2)

  negative (eps = -1):  same first equation,
                        lam_u + nu_v = lam (ln|mu|)_u
                        |mu| (ln|mu|)_uv = -nu^2 + (lam^2 + mu^2)

  degenerate:           nu = nu(u),
                        nu_u + lam_v = lam (ln|mu|)_v
                        |mu| (ln|mu|)_uv = -nu^2

`system_residuals` states r1, r2 and r3 (left minus right) once, for
samples and for Taylor coefficients alike.  With g = ln|mu| and eps = 0 in the
degenerate case, the third equation divided by |mu| = e^{g} is the curvature
equation of every case,

    g_uv = coef e^{-g} - eps e^{g},   coef = -(nu^2 + eps lam^2).

This module evaluates residuals of sampled triples, classifies the case from
frame functions, and manufactures solution fixtures: a causal Goursat march
for the degenerate case and a characteristic Picard sweep for eps = -1.  With
p = lam + nu, q = lam - nu the eps = -1 system is the curvature equation with
coef = p q and the two transports

    p_u + p_v = lam (g_u + g_v)
    q_u - q_v = lam (g_u - g_v)

(p transports along (1,1), q along (1,-1); the equivalence is checked
symbolically in the test suite).  Along its characteristic each transport is
dp = lam dg (dq = lam dg): the trapezoid rule from node to node, O(h^2), on
grids with hu == hv, added up along every diagonal by one cumulative sum.

Both solvers return mu = e^{g} > 0.  The system reads mu only through |mu|
and mu^2, so (lam, -mu, nu) solves it too; from the initial frame with n2
reversed it builds the same surface.

Both cases discretize the curvature equation by the trapezoidal corner rule,
g(i,j) - g(i-1,j) - g(i,j-1) + g(i-1,j-1) = (hu hv / 4) times the sum of the
right-hand side at the cell's four corners.  The degenerate march solves it
one anti-diagonal at a time, implicit in the new corner, by Newton steps from
a predictor read off the stored corner values, stopping once the front's
largest correction is at or below NEWTON_TOL.  The eps = -1 sweep evaluates
the right-hand side at the previous sweep's g and adds up the cells of the
whole grid by two cumulative sums; at the sweep's fixed point that is the
same corner rule.
In the degenerate case lam_v = lam g_v - nu_u is integrated exactly as
(lam e^{-g})_v = -nu_u e^{-g}, by Simpson's rule.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import BlowUp, BothMuZero, NoConvergence, ValidationError
from .fields import MU_MIN, GridSpec, ScalarField, diff_values, ln_abs, require_away_from_zero

G_LIMIT = 50.0          # |ln mu| trust region during marching
CLASSIFY_TOL = 1e-10    # relative zero threshold for K - H^2
PICARD_TOL = 1e-10      # sweep-to-sweep change at which the eps = -1 sweep stops
MAX_SWEEPS = 25         # Picard sweeps before the eps = -1 sweep raises NoConvergence
NEWTON_TOL = 1e-8       # Newton correction at which a march front stops (see _goursat_march)


class Case(enum.Enum):
    POSITIVE_KH = "positive"    # K - H^2 > 0, eps = +1
    NEGATIVE_KH = "negative"    # K - H^2 < 0, eps = -1
    DEGENERATE = "degenerate"   # K - H^2 = 0

    @property
    def epsilon(self) -> int:
        if self is Case.POSITIVE_KH:
            return 1
        if self is Case.NEGATIVE_KH:
            return -1
        raise ValidationError("degenerate case has no epsilon")


def nu_constancy_tol(nu_max: float) -> float:
    return 1e-8 * (1.0 + nu_max)


@dataclass
class CanonicalTriple:
    """Geometric functions (lambda, mu, nu) with the case tag.

    mu must stay away from zero with constant sign.  In the degenerate case
    nu depends on u only; its samples must be v-constant to tight tolerance.
    """

    lam: ScalarField
    mu: ScalarField
    nu: ScalarField
    case: Case

    def __post_init__(self):
        if not (self.lam.grid == self.mu.grid == self.nu.grid):
            raise ValidationError("triple fields must share one grid")
        require_away_from_zero(self.mu, MU_MIN, "mu", constant_sign=True)
        if self.case is Case.DEGENERATE:
            dv = np.max(np.abs(np.diff(self.nu.values, axis=1)))
            if dv > nu_constancy_tol(self.nu.max_abs()):
                raise ValidationError("degenerate case requires nu = nu(u); samples vary along v")

    @property
    def grid(self) -> GridSpec:
        return self.lam.grid


@dataclass
class ResidualReport:
    r1: ScalarField
    r2: ScalarField
    r3: ScalarField
    max_abs: float
    interior_max_abs: float


def system_residuals(case: Case, lam, nu, g, abs_mu, mu_sq, d_u, d_v, mul):
    """r1, r2 and r3 of the module docstring's system, for any algebra.

    The arguments are lam, nu, g = ln|mu|, |mu| and mu^2 in that algebra,
    its derivatives d_u and d_v and its product mul: sample arrays with
    stencils and np.multiply in `residual`, Taylor coefficients with the
    truncated product in `jets`.  One d_u or d_v call per derivative (g_uv
    differentiates g_u along v; the degenerate case takes no lam_u), and mu_sq
    is read only when eps is nonzero.
    """
    g_u, g_v = d_u(g), d_v(g)
    g_uv = d_v(g_u)
    nu_v = d_v(nu)
    r1 = d_u(nu) + d_v(lam) - mul(lam, g_v)
    if case is Case.DEGENERATE:
        return r1, nu_v, mul(abs_mu, g_uv) + mul(nu, nu)
    eps = case.epsilon
    r2 = d_u(lam) - eps * nu_v - mul(lam, g_u)
    r3 = mul(abs_mu, g_uv) + mul(nu, nu) + eps * (mul(lam, lam) + mu_sq)
    return r1, r2, r3


def residual(t: CanonicalTriple) -> ResidualReport:
    """Left-minus-right sides of the natural system for the triple's case.

    `system_residuals` on the sample arrays, with one order-2 `diff_values`
    pass per derivative.  Only r1, r2 and r3 are wrapped as fields, so a
    residual that overflows raises ValidationError.
    """
    grid, mu = t.grid, t.mu.values
    r1, r2, r3 = system_residuals(
        t.case, t.lam.values, t.nu.values, ln_abs(t.mu).values, np.abs(mu),
        None if t.case is Case.DEGENERATE else mu * mu,
        lambda a: diff_values(a, grid.hu, 0), lambda a: diff_values(a, grid.hv, 1), np.multiply,
    )
    r1, r2, r3 = (ScalarField(grid, r) for r in (r1, r2, r3))
    full = max(r.max_abs() for r in (r1, r2, r3))
    inner = max(r.interior_max_abs() for r in (r1, r2, r3))
    return ResidualReport(r1, r2, r3, full, inner)


def k_minus_h2(lambda1, mu1, mu2):
    """K - H^2 = -(mu2/mu1)(lambda1^2 + mu1^2), on scalars or on arrays of frame functions."""
    return -(mu2 / mu1) * (lambda1 * lambda1 + mu1 * mu1)


def classify_from_frame(lambda1: float, mu1: float, lambda2: float, mu2: float) -> tuple[Case, float]:
    """Case and K - H^2 (`k_minus_h2`) from frame functions.

    If mu1 vanishes but mu2 does not, the roles of the two directions are
    swapped first.  Raises BothMuZero when both vanish (inflection
    configuration: the surface lies in a 3-dimensional Minkowski subspace).
    """
    scale = 1.0 + lambda1 * lambda1 + mu1 * mu1 + lambda2 * lambda2 + mu2 * mu2
    tol = CLASSIFY_TOL * scale
    if abs(mu1) <= tol and abs(mu2) <= tol:
        raise BothMuZero("mu1 = mu2 = 0 on the whole patch: inflection configuration, so no node is named")
    if abs(mu1) <= tol < abs(mu2):
        lambda1, mu1, lambda2, mu2 = lambda2, mu2, lambda1, mu1
    km = k_minus_h2(lambda1, mu1, mu2)
    if km > tol:
        return Case.POSITIVE_KH, km
    if km < -tol:
        return Case.NEGATIVE_KH, km
    return Case.DEGENERATE, km


# ---------------------------------------------------------------------------
# Goursat marching helpers


def _samples_1d(data, nodes: np.ndarray, name: str) -> np.ndarray:
    """Accept a callable or an array sampled on the nodes; every sample must be finite."""
    if callable(data):
        arr = np.asarray(data(nodes), dtype=float) * np.ones_like(nodes)
    else:
        arr = np.asarray(data, dtype=float)
        if arr.shape != nodes.shape:
            raise ValidationError(f"{name}: expected {nodes.shape[0]} samples, got {arr.shape}")
    bad = ~np.isfinite(arr)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(f"{name}: sample {k} is {arr[k]}, not finite")
    return arr


@functools.lru_cache(maxsize=4)
def _wavefronts(Nu: int, Nv: int) -> tuple:
    """Anti-diagonals of the interior nodes, each causally independent.

    Entry (node, du, dv, duv) holds slices of the C-order flattened Nu x Nv
    grid: the anti-diagonal's nodes (i, j) in increasing i, and their
    neighbours (i-1, j), (i, j-1) and (i-1, j-1).  An anti-diagonal is a run
    of stride Nv-1 in the flat array, so each slice is a view, not a gather.
    Built once per grid shape and shared by every march.
    """
    fronts = []
    for s in range(2, Nu + Nv - 1):
        i0 = max(1, s - (Nv - 1))
        i1 = min(Nu - 1, s - 1)
        if i0 > i1:
            continue
        first, last = i0 * Nv + s - i0, i1 * Nv + s - i1
        fronts.append(tuple(slice(first - k, last - k + 1, Nv - 1) for k in (0, Nv, 1, Nv + 1)))
    return tuple(fronts)


def _characteristic_sums(steps: np.ndarray, slope: int) -> np.ndarray:
    """Cumulative sums of `steps` along the grid's characteristic diagonals, in increasing i.

    slope -1 sums along j - i = const, slope +1 along i + j = const.  Each
    diagonal starts at its first node in i, whose entry is the start value;
    every later entry is the step onto its node.  The diagonals are the
    columns of a sheared (Nu, Nu + Nv - 1) buffer, padded with -0.0, the
    exact additive identity, so one cumsum along axis 0 adds in the order
    of a node-by-node loop and gives its bits, signed zeros included.
    """
    Nu, Nv = steps.shape
    width = Nu + Nv - 1
    flat = np.full(Nu * (width + 1), -0.0)
    lanes = flat[: Nu * width].reshape(Nu, width)
    # node (i, j) sits in row i of lane j - i + Nu - 1 (slope -1) or i + j (slope +1)
    start = Nu - 1 if slope < 0 else 0
    nodes = flat[start : start + Nu * (width + slope)].reshape(Nu, width + slope)[:, :Nv]
    nodes[...] = steps
    np.cumsum(lanes, axis=0, out=lanes)
    return nodes.copy()


def _goursat_march(
    grid: GridSpec, g_bottom: np.ndarray, g_left: np.ndarray, coef: np.ndarray, eps: int
) -> np.ndarray:
    """March g_uv = coef e^{-g} - eps e^{g} over the grid from two characteristic edges.

    The degenerate solver's march; the eps = -1 sweep updates g without it.
    coef is the pointwise coefficient on the grid; the right-hand side and its
    g-derivative come from `_curvature_rhs`, which acts elementwise, so a
    node's value does not depend on the batch it is evaluated in.

    Cell update is the trapezoidal corner rule, implicit in the new corner;
    second order overall.  The part of it fixed by the three known corners is
    formed once per anti-diagonal.  The predictor extrapolates the new
    corner's right-hand side from the stored ones, r(i-1, j) + r(i, j-1) -
    r(i-1, j-1), and Newton steps follow until the front's largest
    correction |dx| is at or below NEWTON_TOL, or after 3 steps.  Newton
    converges quadratically: a correction e leaves a next one of about
    cell |d^2 rhs / dg^2| e^2 / 2, below round-off for e <= NEWTON_TOL.
    Measured on the built-in fixtures' data, the first correction is at most
    1.5e-8 / 9.3e-10 / 3.6e-12 on goursat-hyperbolic's first sweep (33 / 65 /
    257 nodes) and 2.4e-7 / 1.5e-8 / 6.1e-11 on goursat-degenerate, and the second is
    1.1e-16 or less.  So from 129 nodes up a front costs two rhs calls: one
    Newton step, and the final value, which the three cells that have the
    node as a known corner reuse.  Raises BlowUp, with the node and (u, v)
    of the first node whose |g| exceeds G_LIMIT, when the march leaves the
    trust region.
    """
    Nu, Nv = grid.Nu, grid.Nv
    hu, hv = grid.hu, grid.hv
    if not abs(g_bottom[0] - g_left[0]) <= 1e-10 * (1.0 + abs(g_bottom[0])):  # NaN fails too
        raise ValidationError("incompatible corner data: g_bottom(u0) != g_left(v0)")
    coef = np.ascontiguousarray(coef, dtype=float)
    g = np.empty((Nu, Nv))
    g[:, 0] = g_bottom
    g[0, :] = g_left
    r = np.empty((Nu, Nv))
    r[:, 0] = _curvature_rhs(coef[:, 0], g[:, 0], eps)[0]
    r[0, :] = _curvature_rhs(coef[0, :], g[0, :], eps)[0]
    gf, rf, cf = g.reshape(-1), r.reshape(-1), coef.reshape(-1)
    cell = hu * hv / 4.0
    for node, du, dv, duv in _wavefronts(Nu, Nv):
        c = cf[node]
        base = gf[du] + gf[dv] - gf[duv]
        fixed = base + cell * (rf[duv] + rf[du] + rf[dv])
        x = fixed + cell * (rf[du] + rf[dv] - rf[duv])  # predictor: rhs extrapolated from the corners
        for _ in range(3):
            val, dval = _curvature_rhs(c, x, eps)
            dx = (x - fixed - cell * val) / (1.0 - cell * dval)
            x = x - dx
            if np.abs(dx).max() <= NEWTON_TOL:
                break
        gf[node] = x
        # NaN-safe: max propagates NaN, and NaN fails the comparison
        if not np.abs(x).max() <= G_LIMIT:
            first = node.start + int(np.argmax(~(np.abs(x) <= G_LIMIT))) * node.step
            raise BlowUp(f"|ln mu| exceeded {G_LIMIT} during marching", grid, grid.node(first))
        rf[node] = _curvature_rhs(c, x, eps)[0]
    return g


def _curvature_rhs(coef, g, eps: int):
    """g_uv = coef e^{-g} - eps e^{g}, the curvature equation, and its g-derivative.

    eps is 0 (the degenerate march, coef = -nu^2) or -1 (the eps = -1 sweep,
    coef = p q); the eps = +1 form is not written, as no solver uses it yet.
    """
    # clip to +-700, overflow-safe (the guard trips first); two ufuncs cost less than np.clip
    gc = np.minimum(np.maximum(g, -700.0), 700.0)
    a = coef * np.exp(-gc)
    if not eps:
        return a, -a
    b = np.exp(gc)  # eps = -1
    return a + b, b - a


def solve_goursat_degenerate(
    nu_of_u,
    g_bottom,
    g_left,
    lambda_bottom,
    grid: GridSpec,
) -> CanonicalTriple:
    """Degenerate-case fixture generator.

    g = ln|mu| solves the curvature equation with coef = -nu(u)^2 and eps = 0,
    marched causally from data on the bottom (v = v0) and left (u = u0)
    edges.  lambda then solves lam_v = lam g_v - nu_u along each u = const
    line through the integrating factor e^{-g}:
    lam = e^{g} (lam_b e^{-g_b} - nu_u int_{v0}^{v} e^{-g} dv), the integral
    by cumulative Simpson on the nodes.

    Edge data may be callables of the coordinate or arrays on the nodes.  nu
    must be non-constant (constant nu is the parallel-H case the degenerate
    system is not meant for).
    """
    u, v = grid.u_nodes, grid.v_nodes
    nu = _samples_1d(nu_of_u, u, "nu_of_u")
    if np.max(nu) - np.min(nu) <= nu_constancy_tol(np.max(np.abs(nu))):
        raise ValidationError("nu must be non-constant over the u-range")
    gb = _samples_1d(g_bottom, u, "g_bottom")
    gl = _samples_1d(g_left, v, "g_left")
    lb = _samples_1d(lambda_bottom, u, "lambda_bottom")

    g = _goursat_march(grid, gb, gl, np.broadcast_to(-(nu * nu)[:, None], (grid.Nu, grid.Nv)), 0)

    nu_u = diff_values(nu, grid.hu, 0)
    e_minus = np.exp(-g)
    integral = cumulative_simpson(e_minus, dx=grid.hv, axis=1, initial=0.0)
    lam = np.exp(g) * ((lb * e_minus[:, 0])[:, None] - nu_u[:, None] * integral)
    return CanonicalTriple(
        lam=ScalarField(grid, lam),
        mu=ScalarField(grid, np.exp(g)),
        nu=ScalarField(grid, np.repeat(nu[:, None], grid.Nv, axis=1)),
        case=Case.DEGENERATE,
    )


def solve_goursat_hyperbolic(
    p_bottom,
    p_left,
    q_left,
    q_top,
    g_bottom,
    g_left,
    grid: GridSpec,
) -> CanonicalTriple:
    """eps = -1 fixture generator via the characteristic reformulation.

    p = lam + nu rides the (1,1) characteristics (data on bottom + left),
    q = lam - nu rides (1,-1) (data on left + top), g = ln|mu| solves the
    curvature equation with coef = p q from bottom + left data.  Each Picard
    sweep takes the previous sweep's p, q and g and
      - updates g on the whole grid: the corner rule's right-hand side at the
        old p q and g, summed over the cells by cumulative sums along u and
        v, added to the additive extension of the edge data;
      - transports p and q by dp = lam dg and dq = lam dg, the trapezoid rule
        on each diagonal step, summed along the diagonals
        (`_characteristic_sums`);
    until the max sweep-to-sweep change is at or below PICARD_TOL;
    NoConvergence after MAX_SWEEPS sweeps.  At the fixed point g satisfies
    the implicit corner rule the degenerate march solves; the corner rule's
    Picard map is of Volterra type and contracts about as fast as the
    transports (7 to 10 sweeps on order-8 jet edge data).  Residual is
    O(h^2).  Raises BlowUp, with the node and (u, v) of the first interior
    node in C order whose |g| exceeds G_LIMIT or is not finite, when a sweep
    leaves the trust region.  The diagonal steps land on nodes only when
    hu == hv, so any other grid raises ValidationError.
    """
    if not np.isclose(grid.hu, grid.hv, rtol=1e-12, atol=0.0):
        raise ValidationError(f"characteristic sweep needs hu == hv, got hu {grid.hu!r}, hv {grid.hv!r}")
    Nu, Nv = grid.Nu, grid.Nv
    u, v = grid.u_nodes, grid.v_nodes

    pb = _samples_1d(p_bottom, u, "p_bottom")
    pl = _samples_1d(p_left, v, "p_left")
    ql = _samples_1d(q_left, v, "q_left")
    qt = _samples_1d(q_top, u, "q_top")
    gb = _samples_1d(g_bottom, u, "g_bottom")
    gl = _samples_1d(g_left, v, "g_left")
    corners = (
        (pb[0], pl[0], "incompatible corner data for p"),
        (ql[-1], qt[0], "incompatible corner data for q"),
        (gb[0], gl[0], "incompatible corner data: g_bottom(u0) != g_left(v0)"),
    )
    for a, b, message in corners:
        if not abs(a - b) <= 1e-10 * (1.0 + abs(a)):  # NaN fails too
            raise ValidationError(message)

    # additive initial extensions of the edge data; g0 also carries g's edges through every sweep
    p = pb[:, None] + pl[None, :] - pb[0]
    q = ql[None, :] + qt[:, None] - ql[-1]
    g0 = gb[:, None] + gl[None, :] - gb[0]
    g0[:, 0] = gb
    g0[0, :] = gl
    g = g0
    cell = grid.hu * grid.hv / 4.0

    deltas = []
    for _ in range(MAX_SWEEPS):
        p_old, q_old, g_old = p, q, g
        lam = 0.5 * (p_old + q_old)

        # the trapezoidal corner rule of every cell, explicit in the previous sweep's g
        r = _curvature_rhs(p_old * q_old, g_old, -1)[0]
        g = g0.copy()
        g[1:, 1:] += np.cumsum(np.cumsum(cell * (r[:-1, :-1] + r[:-1, 1:] + r[1:, :-1] + r[1:, 1:]), 0), 1)
        inner = np.abs(g[1:, 1:])
        # NaN-safe: max propagates NaN, and NaN fails the comparison
        if not inner.max() <= G_LIMIT:
            i, j = divmod(int(np.argmax(~(inner <= G_LIMIT))), Nv - 1)
            raise BlowUp(f"|ln mu| exceeded {G_LIMIT} in Picard sweep {len(deltas) + 1}", grid, (i + 1, j + 1))

        # p from (i-1, j-1) along (1,1), q from (i-1, j+1) along (1,-1)
        p = np.empty((Nu, Nv))
        p[:, 0] = pb
        p[0, :] = pl
        p[1:, 1:] = 0.5 * (lam[1:, 1:] + lam[:-1, :-1]) * (g[1:, 1:] - g[:-1, :-1])
        p = _characteristic_sums(p, -1)
        q = np.empty((Nu, Nv))
        q[0, :] = ql
        q[:, -1] = qt
        q[1:, :-1] = 0.5 * (lam[1:, :-1] + lam[:-1, 1:]) * (g[1:, :-1] - g[:-1, 1:])
        q = _characteristic_sums(q, 1)

        delta = max(np.max(np.abs(p - p_old)), np.max(np.abs(q - q_old)), np.max(np.abs(g - g_old)))
        deltas.append(delta)
        if delta <= PICARD_TOL:
            break
    else:
        last = ", ".join(f"{d:.3e}" for d in deltas[-3:])
        raise NoConvergence(
            f"Picard sweeps did not converge in {MAX_SWEEPS} sweeps (tol {PICARD_TOL:.1e}); last changes {last}",
            deltas,
        )

    lam = 0.5 * (p + q)
    nu = 0.5 * (p - q)
    return CanonicalTriple(
        lam=ScalarField(grid, lam),
        mu=ScalarField(grid, np.exp(g)),
        nu=ScalarField(grid, nu),
        case=Case.NEGATIVE_KH,
    )
