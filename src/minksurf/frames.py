"""Moving-frame reconstruction from a geometric-function triple.

The frame F (rows x, y, n1, n2) solves the linear transport system

    F_u = A F,   F_v = B F,

with coefficient matrices assembled from (lambda, mu, nu) and
gamma1 = -(sqrt|mu|)_u, gamma2 = -(sqrt|mu|)_v; the position then integrates
z_u = x / sqrt|mu|, z_v = y / sqrt|mu|.  `coefficient_matrices` is the only
stage that reads the triple's fields: `integrate_frame` and
`compatibility_residual` take its `CoefficientMatrices`, and `reconstruct`
builds them once for both.  Compatibility A_v - B_u + AB - BA
vanishes exactly when the triple solves its natural system, so its max-norm
field is the practical detector for bad input; path independence of the
integration holds only then, and the cross-path discrepancy is reported as a
diagnostic rather than silently averaged away.  The frame is never
re-orthonormalized: Gram drift is itself a diagnostic.

Transport runs RK4 along all grid lines of a sweep at once, as batched
`matmul` products.  On a grid line the not-a-knot tensor cubic interpolant of
the node matrices is the 1-D not-a-knot cubic spline along that line.  Each
sweep solves one tridiagonal system for that spline's second derivatives at
the nodes; an RK4 stage matrix inside a grid interval is then a fixed
four-weight combination of the node matrices and second derivatives at the
interval's ends, and a stage at a node is the node matrix itself.  Three
sweeps give both integration paths: the bottom edge, then the columns (path
1), then the rows from the columns sweep's first column, which is path 2's
left edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.linalg import solve_banded

from .errors import ResidualTooLarge, StepUnstable, ValidationError
from .fields import GridSpec, ScalarField, diff_values, sqrt_abs
from .minkowski import gram_residual, standard_frame
from .natural import CanonicalTriple, Case, residual

TOL_BUILD = 1e-3      # residual gate before reconstruction
STEP_LIMIT = 1e8      # frame entries beyond this abort the transport
F0_GRAM_TOL = 1e-8    # accepted impurity of the initial frame


@dataclass
class CoefficientMatrices:
    """Per-node transport matrices; indices [i, j, row, col] over the grid."""

    A: np.ndarray
    B: np.ndarray
    grid: GridSpec


def coefficient_matrices(t: CanonicalTriple) -> CoefficientMatrices:
    g = t.grid
    root = sqrt_abs(t.mu).values
    gamma1 = -diff_values(root, g.hu, 0)
    gamma2 = -diff_values(root, g.hv, 1)
    lam, mu, nu = t.lam.values, t.mu.values, t.nu.values
    inv_root = 1.0 / root

    A = np.zeros((g.Nu, g.Nv, 4, 4))
    A[..., 0, 0], A[..., 0, 2], A[..., 0, 3] = gamma1, lam, mu
    A[..., 1, 1], A[..., 1, 2] = -gamma1, -nu
    A[..., 2, 0], A[..., 2, 1] = -nu, lam
    A[..., 3, 1] = mu

    B = np.zeros((g.Nu, g.Nv, 4, 4))
    B[..., 0, 0], B[..., 0, 2] = -gamma2, -nu
    B[..., 1, 1] = gamma2
    B[..., 2, 1] = -nu
    if t.case is not Case.DEGENERATE:
        eps = t.case.epsilon
        B[..., 1, 2], B[..., 1, 3] = -eps * lam, -eps * mu
        B[..., 2, 0] = -eps * lam
        B[..., 3, 0] = -eps * mu

    A *= inv_root[..., None, None]
    B *= inv_root[..., None, None]
    return CoefficientMatrices(A=A, B=B, grid=g)


def compatibility_residual(cm: CoefficientMatrices) -> ScalarField:
    """Per-node max-norm of A_v - B_u + AB - BA."""
    g = cm.grid
    A_v = diff_values(cm.A, g.hv, axis=1)
    B_u = diff_values(cm.B, g.hu, axis=0)
    M = A_v - B_u + (cm.A @ cm.B - cm.B @ cm.A)
    return ScalarField(g, np.max(np.abs(M), axis=(-2, -1)))


RK4_SUBSTEPS = 2  # per grid interval; 1 leaves ~3e-9 vs the matrix-exponential oracle


def _stage_matrices(mats: np.ndarray):
    """Yield, per grid interval, the 2 * RK4_SUBSTEPS + 1 RK4 stage matrices of a sweep.

    mats: (n, batch, 4, 4) node matrices on n >= 5 uniform nodes along the
    lines.  The interpolant is the not-a-knot cubic spline S along each line;
    with y the node matrices and d = h^2 / 6 S'' at the nodes, its value at
    fraction tau of an interval is
    (1 - tau) y_k + ((1 - tau)^3 - (1 - tau)) d_k + tau y_k+1 + (tau^3 - tau) d_k+1.
    The stages sit at the interval's ends and at fractions
    1 / (2 RK4_SUBSTEPS), ..., 1 - 1 / (2 RK4_SUBSTEPS); the end stages are the
    node matrices themselves.
    """
    n, shape = mats.shape[0], mats.shape[1:]
    table = np.empty((n, 2) + shape)  # per node: y, then d; contiguous, unlike a strided `mats`
    table[:, 0] = mats
    flat = table.reshape(n, 2, -1)
    y, d = flat[:, 0], flat[:, 1]
    # d_k-1 + 4 d_k + d_k+1 = r_k = y_k-1 - 2 y_k + y_k+1 at the inner nodes; not-a-knot
    # sets d_0 = 2 d_1 - d_2 (and its mirror), which folds rows 1 and n-2 to 6 d = r
    bands = np.zeros((3, n - 2))
    bands[0, 2:] = bands[2, :-2] = 1.0
    bands[1] = 4.0
    bands[1, [0, -1]] = 6.0
    r = np.multiply(y[1:-1], -2.0)  # r summed in one buffer, bit for bit as y_k-1 - 2 y_k + y_k+1
    r += y[:-2]
    r += y[2:]
    d[1:-1] = solve_banded((1, 1), bands, r, check_finite=False)
    d[0] = 2 * d[1] - d[2]
    d[-1] = 2 * d[-2] - d[-3]
    tau = np.arange(1, 2 * RK4_SUBSTEPS) / (2 * RK4_SUBSTEPS)
    weights = np.column_stack([1 - tau, (1 - tau) ** 3 - (1 - tau), tau, tau ** 3 - tau])
    for k in range(n - 1):
        inner = (weights @ flat[k:k + 2].reshape(4, -1)).reshape((-1,) + shape)
        yield [table[k, 0], *inner, table[k + 1, 0]]


def _rk4_line(F0: np.ndarray, mats: np.ndarray, grid: GridSpec, axis: int, sweep: str) -> np.ndarray:
    """RK4 transport of stacked frames along the grid lines of one sweep.

    Lines run along grid axis `axis`; batch member b is line b of the other
    axis.  F0: (batch, 4, 4); mats: (nodes along axis, batch, 4, 4), the
    node matrices along the lines; returns (nodes along axis, batch, 4, 4).
    Each grid interval takes RK4_SUBSTEPS RK4 steps on the stage matrices of
    `_stage_matrices` (a step ends where the next starts).
    """
    coords = grid.u_nodes if axis == 0 else grid.v_nodes
    h = (coords[1] - coords[0]) / RK4_SUBSTEPS
    out = np.empty((len(coords),) + F0.shape)
    out[0] = F0
    F = F0
    for k, stages in enumerate(_stage_matrices(mats)):
        for m in range(RK4_SUBSTEPS):
            M0, M1, M2 = stages[2 * m], stages[2 * m + 1], stages[2 * m + 2]
            k1 = M0 @ F
            k2 = M1 @ (F + 0.5 * h * k1)
            k3 = M1 @ (F + 0.5 * h * k2)
            k4 = M2 @ (F + h * k3)
            F = F + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.max(np.abs(F)) > STEP_LIMIT:
                b = int(np.argmax(np.max(np.abs(F), axis=(-2, -1))))
                node = (k + 1, b) if axis == 0 else (b, k + 1)
                uv = grid.uv(node)
                raise StepUnstable(f"frame entries exceeded {STEP_LIMIT:.0e} in the {sweep} sweep before "
                                   f"node {node} at (u, v) = {uv}", sweep, float(coords[k] + m * h + h), node, uv)
        out[k + 1] = F
    return out


def _transport(cm: CoefficientMatrices, F0m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both integration paths from F0m at (u0, v0), each as (Nu, Nv, 4, 4) frames.

    Path 1 runs along the bottom edge v = v0, then up every column at once;
    path 2 up the left edge u = u0, then across every row at once.  Path 2's
    left edge is column u0 of path 1's columns sweep, so it is not integrated
    a second time.
    """
    g = cm.grid
    edge = _rk4_line(F0m[None], cm.A[:, :1], g, 0, "bottom edge")[:, 0]
    columns = np.moveaxis(_rk4_line(edge, np.swapaxes(cm.B, 0, 1), g, 1, "columns"), 0, 1)
    return columns, _rk4_line(columns[0], cm.A, g, 0, "rows")


def integrate_frame(cm: CoefficientMatrices, F0: np.ndarray | None = None):
    """Transport the frame over the grid; returns (frames, diagnostics).

    F0 is the (4, 4) initial frame at (u0, v0), `standard_frame()` when None,
    pseudo-orthonormal within F0_GRAM_TOL.  frames has shape (Nu, Nv, 4, 4).
    Diagnostics: gram_drift (max deviation of the transported Gram products
    over all nodes) and path_discrepancy (max entry difference against the
    alternate integration order).
    """
    F0m = standard_frame() if F0 is None else np.asarray(F0, dtype=float)
    if F0m.shape != (4, 4):
        raise ValidationError(f"initial frame must be 4x4, got shape {F0m.shape}")
    drift = gram_residual(F0m)
    if not drift <= F0_GRAM_TOL:  # NaN fails too
        raise ValidationError(f"initial frame impure: gram residual {drift:.3e} > {F0_GRAM_TOL:.0e}")
    frames, alt = _transport(cm, F0m)
    diagnostics = {
        "gram_drift": float(np.max(gram_residual(frames))),
        "path_discrepancy": float(np.max(np.abs(frames - alt))),
    }
    return frames, diagnostics


def integrate_position(frames: np.ndarray, mu: ScalarField, p0: np.ndarray):
    """Cumulative Simpson quadrature of z_u = x/sqrt|mu|, z_v = y/sqrt|mu|.

    Follows the bottom-edge-then-columns path; the alternate order gives the
    reported cross-path discrepancy.  z(u0, v0) = p0 exactly; p0 must be 4
    finite numbers.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (4,):
        raise ValidationError(f"p0 must be 4 numbers, got shape {p0.shape}")
    if not np.all(np.isfinite(p0)):
        raise ValidationError(f"p0 must be finite, got {p0.tolist()}")
    g = mu.grid
    w = 1.0 / np.sqrt(np.abs(mu.values))
    zu = w[..., None] * frames[..., 0, :]   # x rows
    zv = w[..., None] * frames[..., 1, :]   # y rows
    bottom = p0 + cumulative_simpson(zu[:, 0, :], dx=g.hu, axis=0, initial=0.0)
    z = bottom[:, None, :] + cumulative_simpson(zv, dx=g.hv, axis=1, initial=0.0)
    left = p0 + cumulative_simpson(zv[0, :, :], dx=g.hv, axis=0, initial=0.0)
    alt = left[None, :, :] + cumulative_simpson(zu, dx=g.hu, axis=0, initial=0.0)
    return z, float(np.max(np.abs(z - alt)))


@dataclass
class ReconstructionBundle:
    triple: CanonicalTriple
    frames: np.ndarray       # (Nu, Nv, 4, 4)
    points: np.ndarray       # (Nu, Nv, 4)
    diagnostics: dict

    @property
    def grid(self) -> GridSpec:
        return self.triple.grid


def reconstruct(
    t: CanonicalTriple,
    p0: np.ndarray | None = None,
    F0: np.ndarray | None = None,
    tol_build: float = TOL_BUILD,
    force: bool = False,
) -> ReconstructionBundle:
    """Full reconstruction: residual gate, frame transport (one coefficient-matrix
    build serves it and the compatibility check), position quadrature.

    p0 = z(u0, v0) is the origin when None.  The gate's ResidualTooLarge
    names the worst of r1, r2 and r3 and its worst interior node.
    """
    rep = residual(t)
    if rep.interior_max_abs > tol_build and not force:
        name, r = max(zip(("r1", "r2", "r3"), (rep.r1, rep.r2, rep.r3)), key=lambda p: p[1].interior_max_abs())
        worst = np.abs(r.values[t.grid.interior(2)])  # two layers in, as interior_max_abs
        node = tuple(int(k) + 2 for k in np.unravel_index(np.argmax(worst), worst.shape))
        uv = t.grid.uv(node)
        raise ResidualTooLarge(f"natural-system residual {name} = {rep.interior_max_abs:.3e} exceeds tol_build "
                               f"{tol_build:.3e} at node {node}, (u, v) = {uv}", rep.interior_max_abs, tol_build, node, uv)
    if p0 is None:
        p0 = np.zeros(4)
    cm = coefficient_matrices(t)
    frames, diag = integrate_frame(cm, F0)
    points, pos_disc = integrate_position(frames, t.mu, p0)
    compat = compatibility_residual(cm)
    diagnostics = {
        "residual_max": rep.interior_max_abs,
        "compat_max": compat.interior_max_abs(),
        "gram_drift": diag["gram_drift"],
        "path_discrepancy": diag["path_discrepancy"],
        "position_path_discrepancy": pos_disc,
    }
    return ReconstructionBundle(triple=t, frames=frames, points=points, diagnostics=diagnostics)
