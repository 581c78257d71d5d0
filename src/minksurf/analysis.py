"""Inverse direction: invariants of a sampled isotropic immersion.

From z(u, v) in Minkowski 4-space the pipeline recovers the metric function f
(F = -f^2 in isotropic parameters, where E = G = 0), the geometric frame
{x, y, n1, n2} (x = z_u/f, y = z_v/f, n1 = H/|H|, n2 oriented by construction
so that det[x; y; n1; n2] = +1), the frame functions (lambda1, mu1, lambda2,
mu2, nu, beta1, beta2), curvature invariants through two independent
formulas, the inflection determinants, and one class for the surface
(parallel-H, PNMC or generic).  A totally geodesic patch has H = 0, so
`geometric_frame` rejects it before any class is given.

The stages run in one chain: `geometric_frame(m)`, then
`frame_functions(frame)`, which reads only that frame.  An `Immersion` is
immutable and keeps that chain's results as two attributes computed on first
access, `m.frame` and `m.functions`, so `invariants(m)` and
`canonical.canonicalize(m)` on one immersion share one analysis.  Derivatives
here use order-4 stencils: the beta tolerances sit below what order-2
differencing of an oscillatory immersion can deliver on production grids.
Each derivative of z is taken once per immersion: `geometric_frame` keeps
z_u, z_v and z_uv, and `invariants` reuses them.  The frame keeps x, y, n1
and n2 as separate contiguous (Nu, Nv, 4) arrays, not as rows of a stacked
(Nu, Nv, 4, 4) array, so the stencils and inner products that read them run
on contiguous rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMetric,
    MinimalOrTotallyGeodesic,
    NotIsotropic,
    ValidationError,
)
from .fields import GridSpec, ScalarField, bicubic, diff_values
from .minkowski import lorentz_inner, minkowski_cross
from .natural import k_minus_h2

FD_ORDER = 4
ISO_GATE_TOL = 1e-3      # isotropy gate: max(|E|,|G|) <= tol * max|F|
NU_FLOOR = 1e-8          # |H| below this (relative) raises MinimalOrTotallyGeodesic
C_ZERO_TOL = 1e-8        # relative zero for mu1 in the K - H^2 formula
TOL_BETA_REL = 1e-4      # parallel-normal threshold, scaled by |sigma|
NU_VAR_REL = 1e-4        # nu-variation threshold separating parallel-H from PNMC


class SurfaceClass(enum.Enum):
    PARALLEL_H = "parallel-H"
    PNMC = "pnmc"
    GENERIC = "generic"


@dataclass(frozen=True)
class Immersion:
    """Sampled surface z: grid -> R^4_1; points indexed [i, j, component].

    Immutable: `points` is a read-only float copy of the samples given (the
    caller's array stays as it was), so the analysis kept in `frame` and
    `functions` cannot go stale.  An analysis that raises is not kept: the
    next access runs it again and raises again.
    """

    grid: GridSpec
    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")
        if pts.shape != (self.grid.Nu, self.grid.Nv, 4):
            raise ValidationError(f"points shape {pts.shape} != (Nu, Nv, 4)")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("immersion samples must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @cached_property
    def frame(self) -> "GeometricFrame":
        """`geometric_frame` of this immersion, computed on first access."""
        return geometric_frame(self)

    @cached_property
    def functions(self) -> "FrameFunctions":
        """`frame_functions` of `frame`, computed on first access."""
        return frame_functions(self.frame)

    def resample(self, grid: GridSpec, at_u: np.ndarray, at_v: np.ndarray) -> "Immersion":
        """The immersion on `grid`, node (i, j) sampled at (at_u[i], at_v[j]).

        Samples by `fields.bicubic`.  The caller names the new grid, so the
        sample coordinates need not be its nodes: canonicalization samples at
        the inverse of its quadrature map and labels the nodes (ubar, vbar).
        """
        if (len(at_u), len(at_v)) != (grid.Nu, grid.Nv):
            raise ValidationError(f"{len(at_u)} x {len(at_v)} sample coordinates for a "
                                  f"{grid.Nu} x {grid.Nv} grid")
        return Immersion(grid, bicubic(self.points, self.grid, at_u, at_v))

    def transpose(self) -> "Immersion":
        """Swap the roles of u and v (used by the canonicalization role-swap)."""
        g = self.grid
        return Immersion(
            GridSpec(g.v0, g.v1, g.u0, g.u1, g.Nv, g.Nu),
            np.swapaxes(self.points, 0, 1),
        )


@dataclass
class GeometricFrame:
    x: np.ndarray            # (Nu, Nv, 4) each, contiguous: the frame vectors x, y, n1, n2
    y: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    f: ScalarField           # metric function, F = -f^2
    nu: ScalarField          # |H|
    zu: np.ndarray           # (Nu, Nv, 4) order-4 derivatives of z the frame is built from
    zv: np.ndarray
    zuv: np.ndarray


def geometric_frame(m: Immersion) -> GeometricFrame:
    """Frame {x, y, n1, n2} with x = z_u/f, y = z_v/f, n1 along H.

    n2 is the unit normal orthogonal to n1 with det[x; y; n1; n2] = +1.  For
    w = minkowski_cross(x, y, n1), det[x; y; n1; w] = -<w, w> (an odd index
    cycle), and w is spacelike, normal to the timelike tangent plane; so
    n2 = -w / |w| is oriented by construction.

    Gates, in order: DegenerateMetric where EG - F^2 is numerically zero,
    located at the first node of min |EG - F^2|, with the number of nodes
    that fail as `failing`;
    ValidationError, naming them, where finite samples overflow E, F or G;
    NotIsotropic unless max(|E|, |G|) <= ISO_GATE_TOL max|F|, located at the
    first node of the largest max(|E|, |G|), and unless F < 0 at every node,
    located at the first node of F >= 0;
    MinimalOrTotallyGeodesic where |H| falls below its floor, located at the
    first node of min H^2, with the number of nodes that fail as `failing`.
    """
    g = m.grid
    zu = diff_values(m.points, g.hu, axis=0, order=FD_ORDER)
    zv = diff_values(m.points, g.hv, axis=1, order=FD_ORDER)
    with np.errstate(over="ignore", invalid="ignore"):
        E = lorentz_inner(zu, zu)
        F = lorentz_inner(zu, zv)
        G = lorentz_inner(zv, zv)
        E_max, F_max, G_max = (np.max(np.abs(a)) for a in (E, F, G))
        det = np.abs(E * G - F * F)
        det_floor = 1e-14 * max(E_max, F_max, G_max) ** 2
        k = int(np.argmin(det))
        if det.flat[k] < det_floor:
            failing = int(np.count_nonzero(det < det_floor))
            raise DegenerateMetric(f"EG - F^2 is numerically zero at {failing} of {det.size} nodes, least", g,
                                   g.node(k), failing)
        overflow = [name for name, a in (("E", E), ("F", F), ("G", G)) if not np.all(np.isfinite(a))]
        if overflow:
            raise ValidationError(f"metric overflow: {', '.join(overflow)} not finite (the samples are finite)")
    worst = max(E_max, G_max)
    limit = ISO_GATE_TOL * F_max
    if worst > limit:
        raise NotIsotropic("analysis needs isotropic (null) parameters - construct them before calling: "
                           f"max(|E|,|G|) = {worst:.3e} exceeds {limit:.3e}, worst", g,
                           g.node(np.argmax(np.maximum(np.abs(E), np.abs(G)))))
    fails = F >= 0
    if fails.any():
        raise NotIsotropic("requires <z_u, z_v> < 0 at every node; first fails", g, g.node(np.argmax(fails)))

    f = np.sqrt(-F)
    x = zu / f[..., None]
    y = zv / f[..., None]

    zuv = diff_values(zu, g.hv, axis=1, order=FD_ORDER)
    # tangential part of w is -<w,y>x - <w,x>y for the pseudo-orthonormal pair
    wy = lorentz_inner(zuv, y)
    wx = lorentz_inner(zuv, x)
    normal_part = zuv + wy[..., None] * x + wx[..., None] * y
    H = -normal_part / (f * f)[..., None]

    H2 = lorentz_inner(H, H)
    scale = 1.0 + float(np.max(np.sqrt(np.abs(H2))))
    H2_floor = (NU_FLOOR * scale) ** 2
    k = int(np.argmin(H2))
    if H2.flat[k] <= H2_floor:
        failing = int(np.count_nonzero(H2 <= H2_floor))
        raise MinimalOrTotallyGeodesic(f"|H| falls below {NU_FLOOR * scale:.3e} at {failing} of {H2.size} nodes: "
                                       "minimal or totally geodesic patch, least", g, g.node(k), failing)
    nu = np.sqrt(H2)
    n1 = H / nu[..., None]

    n2 = -minkowski_cross(x, y, n1)
    n2 = n2 / np.sqrt(np.abs(lorentz_inner(n2, n2)))[..., None]

    return GeometricFrame(
        x=x, y=y, n1=n1, n2=n2,
        f=ScalarField(g, f),
        nu=ScalarField(g, nu),
        zu=zu, zv=zv, zuv=zuv,
    )


@dataclass
class FrameFunctions:
    lambda1: ScalarField
    mu1: ScalarField
    lambda2: ScalarField
    mu2: ScalarField
    nu: ScalarField
    beta1: ScalarField
    beta2: ScalarField
    f: ScalarField

    def sigma_scale(self) -> float:
        return max(
            self.lambda1.max_abs(), self.mu1.max_abs(),
            self.lambda2.max_abs(), self.mu2.max_abs(), self.nu.max_abs(),
        )


def frame_functions(frame: GeometricFrame) -> FrameFunctions:
    """Second fundamental form and normal connection of the geometric frame.

    With the frame normalized as x = z_u/f, y = z_v/f the directional
    derivatives are (1/f) d/du and (1/f) d/dv applied to the frame fields.
    """
    g = frame.f.grid
    f = frame.f.values
    n1, n2 = frame.n1, frame.n2

    x_u = diff_values(frame.x, g.hu, axis=0, order=FD_ORDER)
    y_v = diff_values(frame.y, g.hv, axis=1, order=FD_ORDER)
    n1_u = diff_values(n1, g.hu, axis=0, order=FD_ORDER)
    n1_v = diff_values(n1, g.hv, axis=1, order=FD_ORDER)

    lam1 = lorentz_inner(x_u, n1) / f
    mu1 = lorentz_inner(x_u, n2) / f
    lam2 = lorentz_inner(y_v, n1) / f
    mu2 = lorentz_inner(y_v, n2) / f
    beta1 = lorentz_inner(n1_u, n2) / f
    beta2 = lorentz_inner(n1_v, n2) / f

    F = lambda a: ScalarField(g, a)
    return FrameFunctions(
        lambda1=F(lam1), mu1=F(mu1), lambda2=F(lam2), mu2=F(mu2),
        nu=frame.nu, beta1=F(beta1), beta2=F(beta2), f=frame.f,
    )


@dataclass
class InvariantReport:
    K_metric: ScalarField
    K_frame: ScalarField         # H^2 is functions.nu squared, so K - H^2 is K_frame - nu^2
    KmH2_formula: ScalarField    # zeroed where |mu1| is below threshold
    formula_valid: np.ndarray    # mask: where KmH2_formula is meaningful
    Delta1: ScalarField
    Delta2: ScalarField
    Delta3: ScalarField
    classification: SurfaceClass
    functions: FrameFunctions


def invariants(m: Immersion) -> InvariantReport:
    """Curvature invariants, inflection determinants and the surface's class.

    Reads m's own analysis, `m.frame` and `m.functions`, so a later
    `canonical.canonicalize(m)` does not analyse m again.  The class is PNMC
    or PARALLEL_H when both betas are small (PNMC when nu varies), else
    GENERIC.
    """
    frame = m.frame
    funcs = m.functions
    g = m.grid
    f = frame.f.values

    ln_f_u = diff_values(np.log(f), g.hu, axis=0, order=FD_ORDER)
    K_metric = 2.0 / (f * f) * diff_values(ln_f_u, g.hv, axis=1, order=FD_ORDER)

    nu = funcs.nu.values
    K_frame = nu * nu - funcs.lambda1.values * funcs.lambda2.values - funcs.mu1.values * funcs.mu2.values

    mu1 = funcs.mu1.values
    sigma_scale = funcs.sigma_scale()
    formula_valid = np.abs(mu1) > C_ZERO_TOL * (1.0 + sigma_scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        formula = k_minus_h2(funcs.lambda1.values, mu1, funcs.mu2.values)
    formula = np.where(formula_valid, formula, 0.0)

    # inflection determinants from c_ij^k = <z_ij, n_k>
    zuu = diff_values(frame.zu, g.hu, axis=0, order=FD_ORDER)
    zuv = frame.zuv
    zvv = diff_values(frame.zv, g.hv, axis=1, order=FD_ORDER)
    n1, n2 = frame.n1, frame.n2
    c = {
        (1, 1, 1): lorentz_inner(zuu, n1), (1, 1, 2): lorentz_inner(zuu, n2),
        (1, 2, 1): lorentz_inner(zuv, n1), (1, 2, 2): lorentz_inner(zuv, n2),
        (2, 2, 1): lorentz_inner(zvv, n1), (2, 2, 2): lorentz_inner(zvv, n2),
    }
    D1 = c[(1, 1, 1)] * c[(1, 2, 2)] - c[(1, 1, 2)] * c[(1, 2, 1)]
    D2 = c[(1, 1, 1)] * c[(2, 2, 2)] - c[(1, 1, 2)] * c[(2, 2, 1)]
    D3 = c[(1, 2, 1)] * c[(2, 2, 2)] - c[(1, 2, 2)] * c[(2, 2, 1)]

    beta_max = max(funcs.beta1.max_abs(), funcs.beta2.max_abs())
    betas_small = beta_max <= TOL_BETA_REL * (1.0 + sigma_scale)
    nu_varies = (float(np.max(nu)) - float(np.min(nu))) > NU_VAR_REL * (1.0 + float(np.max(nu)))

    if betas_small:
        cls = SurfaceClass.PNMC if nu_varies else SurfaceClass.PARALLEL_H
    else:
        cls = SurfaceClass.GENERIC

    F = lambda a: ScalarField(g, a)
    return InvariantReport(
        K_metric=F(K_metric), K_frame=F(K_frame), KmH2_formula=F(formula), formula_valid=formula_valid,
        Delta1=F(D1), Delta2=F(D2), Delta3=F(D3),
        classification=cls, functions=funcs,
    )

