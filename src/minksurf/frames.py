"""Moving-frame reconstruction from a geometric-function triple.

The frame F (rows x, y, n1, n2) solves the linear transport system

    F_u = A F,   F_v = B F,

with coefficient matrices assembled from (lambda, mu, nu) and
gamma1 = -(sqrt|mu|)_u, gamma2 = -(sqrt|mu|)_v; the position then integrates
z_u = x / sqrt|mu|, z_v = y / sqrt|mu|.  `coefficient_matrices` is the only
stage that reads the triple's fields for the transport; `integrate_frame`
takes its `CoefficientMatrices`.  Compatibility M = A_v - B_u + AB - BA is
exactly a reweighting of the natural system's residuals r1, r2, r3:

    M[0,0] = -M[1,1] = -r3 / |mu|,   M[0,2] = M[2,1] = r1 / sqrt|mu|,
    M[1,2] = M[2,0] = s r2 / sqrt|mu|,

with s = +1 for eps = +1 and s = -1 otherwise (degenerate included), every
other entry 0 (checked symbolically in the test suite).  So the frame system
is compatible exactly when the triple solves its natural system, and
`compatibility_residual` reads M's per-node max-norm off the residual gate's
report instead of differencing A and B again.  Path independence of the
integration holds only then, and the cross-path discrepancy is reported as a
diagnostic rather than silently averaged away.  The frame is never
re-orthonormalized: Gram drift is itself a diagnostic.

Transport runs RK4 along all grid lines of a sweep at once, as batched
`matmul` products.  On a grid line the not-a-knot tensor cubic interpolant of
the node matrices is the 1-D not-a-knot cubic spline along that line.  Each
sweep finds that spline's second derivatives at the nodes from its
tridiagonal system, solved in place by a Thomas sweep in LAPACK's operation
order (equal to LAPACK's banded solve, without its copies); an RK4 stage
matrix inside a grid interval is then a fixed four-weight combination of the
node matrices and second derivatives at the interval's ends, and a stage at
a node is the node matrix itself.  An RK4 step of the linear system
F' = M F is F <- F + D F, with D the step's increment matrix at F = I (three
matrix products of the stages).  A sweep forms D for a block of intervals at
once, about BLOCK_MATRICES matrices per stage, then steps the frames through
the block one D F product at a time; blocks bound the memory a sweep holds,
and the frames do not depend on their size.  Three sweeps give both
integration paths: the bottom edge, then the columns (path 1), then the rows
from the columns sweep's first column, which is path 2's left edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.integrate import cumulative_simpson

from .errors import ResidualTooLarge, StepUnstable, ValidationError
from .fields import GridSpec, ScalarField, diff_values, sqrt_abs
from .minkowski import gram_residual, standard_frame
from .natural import CanonicalTriple, Case, ResidualReport, residual

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


def compatibility_residual(rep: ResidualReport, mu: ScalarField) -> ScalarField:
    """Per-node max-norm of A_v - B_u + AB - BA, max(|r3| / |mu|, |r1| / sqrt|mu|, |r2| / sqrt|mu|).

    rep is `residual` of the triple whose mu is given (see the module docstring).
    """
    abs_mu = np.abs(mu.values)
    r12 = np.maximum(np.abs(rep.r1.values), np.abs(rep.r2.values)) / np.sqrt(abs_mu)
    return ScalarField(mu.grid, np.maximum(np.abs(rep.r3.values) / abs_mu, r12))


RK4_SUBSTEPS = 2  # per grid interval; 1 leaves ~3e-9 vs the matrix-exponential oracle
BLOCK_MATRICES = 2048  # stage matrices per stage and block: 16 intervals of 129 lines


def _solve_folded_spline(b: np.ndarray) -> None:
    """Solve the folded not-a-knot system in place for every column of b, (m, k) with m >= 3.

    The matrix is tridiagonal: diagonal 6, 4, ..., 4, 6, sub- and superdiagonal
    1 except the first superdiagonal and the last subdiagonal entry, which are 0.
    A Thomas sweep in LAPACK dgtsv's operation order: the matrix is diagonally
    dominant, so dgtsv never swaps rows, and the solution equals its solution
    value for value (a NaN in a column fills that column only).  Only the sign
    of a zero can differ, where dgtsv's back sweep subtracts 0 * b[i + 2] and
    this one does not.
    """
    m = len(b)
    du = [0.0] + [1.0] * (m - 2)
    dl = [1.0] * (m - 2) + [0.0]
    piv = [6.0] + [4.0] * (m - 2) + [6.0]
    fact = []
    for i in range(m - 1):
        fact.append(dl[i] / piv[i])
        piv[i + 1] -= fact[i] * du[i]
    for i in range(m - 1):
        b[i + 1] -= fact[i] * b[i]
    b[-1] /= piv[-1]
    for i in range(m - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / piv[i]


def _stage_matrices(mats: np.ndarray, block: int):
    """Yield, per block of `block` grid intervals, the 2 * RK4_SUBSTEPS + 1 RK4 stage matrices of a sweep.

    mats: (n, batch, 4, 4) node matrices on n >= 5 uniform nodes along the
    lines.  The interpolant is the not-a-knot cubic spline S along each line;
    with y the node matrices and d = h^2 / 6 S'' at the nodes, its value at
    fraction tau of an interval is
    (1 - tau) y_k + ((1 - tau)^3 - (1 - tau)) d_k + tau y_k+1 + (tau^3 - tau) d_k+1.
    d is found in place in the sweep's node table: its right-hand sides are
    formed in d's rows, and `_solve_folded_spline` (a Thomas sweep in LAPACK's
    operation order) overwrites them with the solution.
    The stages sit at the interval's ends and at fractions
    1 / (2 RK4_SUBSTEPS), ..., 1 - 1 / (2 RK4_SUBSTEPS); the end stages are the
    node matrices themselves.  Each yield is (k0, stages): stage s of the
    block's intervals k0, k0 + 1, ... is stages[s], of shape (intervals, batch,
    4, 4).  The last block holds what is left when block does not divide n - 1.
    """
    n, shape = mats.shape[0], mats.shape[1:]
    table = np.empty((n, 2) + shape)  # per node: y, then d; contiguous, unlike a strided `mats`
    table[:, 0] = mats
    flat = table.reshape(n, 2, -1)
    y, d = flat[:, 0], flat[:, 1]
    # d_k-1 + 4 d_k + d_k+1 = r_k = y_k-1 - 2 y_k + y_k+1 at the inner nodes, with r summed
    # in d's own rows, bit for bit as that expression; not-a-knot sets d_0 = 2 d_1 - d_2
    # (and its mirror), which folds rows 1 and n-2 to 6 d = r
    np.multiply(y[1:-1], -2.0, out=d[1:-1])
    d[1:-1] += y[:-2]
    d[1:-1] += y[2:]
    _solve_folded_spline(d[1:-1])
    d[0] = 2 * d[1] - d[2]
    d[-1] = 2 * d[-2] - d[-3]
    tau = np.arange(1, 2 * RK4_SUBSTEPS) / (2 * RK4_SUBSTEPS)
    weights = np.column_stack([1 - tau, (1 - tau) ** 3 - (1 - tau), tau, tau ** 3 - tau])
    row, item = flat.strides[1:]
    for k0 in range(0, n - 1, block):
        nb = min(block, n - 1 - k0)
        # interval k's (y_k, d_k, y_k+1, d_k+1) are 4 consecutive rows of flat, starting at node k
        ends = as_strided(flat[k0], shape=(nb, 4, flat.shape[2]), strides=(2 * row, row, item), writeable=False)
        inner = weights @ ends
        yield k0, [table[k0:k0 + nb, 0], *(inner[:, s].reshape((nb,) + shape) for s in range(len(tau))),
                   table[k0 + 1:k0 + nb + 1, 0]]


def _rk4_increment(M0: np.ndarray, M1: np.ndarray, M2: np.ndarray, h: float) -> np.ndarray:
    """D with F + D F the RK4 step of F' = M F from any F, for stages M0, M1 (midpoint) and M2.

    The step is linear in F, so D is its increment at F = I:
    D = h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = M0, K2 = M1 (I + h/2 K1),
    K3 = M1 (I + h/2 K2), K4 = M2 (I + h K3).  Summed in place, bit for bit as
    the expression h / 6 * (M0 + 2 * K2 + 2 * K3 + K4).
    """
    K2 = M1 @ M0
    K2 *= 0.5 * h
    K2 += M1
    K3 = M1 @ K2
    K3 *= 0.5 * h
    K3 += M1
    K4 = M2 @ K3
    K4 *= h
    K4 += M2
    D = K2  # D = ((2 K2 + M0) + 2 K3) + K4, then times h / 6
    D *= 2.0
    D += M0
    K3 *= 2.0
    D += K3
    D += K4
    D *= h / 6.0
    return D


def _rk4_line(F0: np.ndarray, mats: np.ndarray, grid: GridSpec, axis: int, sweep: str) -> np.ndarray:
    """RK4 transport of stacked frames along the grid lines of one sweep.

    Lines run along grid axis `axis`; batch member b is line b of the other
    axis.  F0: (batch, 4, 4); mats: (nodes along axis, batch, 4, 4), the
    node matrices along the lines; returns (nodes along axis, batch, 4, 4).
    Each grid interval takes RK4_SUBSTEPS RK4 steps on the stage matrices of
    `_stage_matrices` (a step ends where the next starts).  The increment
    matrices of a block of intervals (BLOCK_MATRICES / batch of them, rounded
    up) are formed at once; the frames then step F <- F + D F.  After every
    step, StepUnstable is raised once an entry leaves STEP_LIMIT or is not
    finite; it names the first line with a non-finite entry, else the line
    with the largest entry.
    """
    coords = grid.u_nodes if axis == 0 else grid.v_nodes
    h = (coords[1] - coords[0]) / RK4_SUBSTEPS
    out = np.empty((len(coords),) + F0.shape)
    out[0] = F = F0
    for k0, stages in _stage_matrices(mats, -(-BLOCK_MATRICES // F0.shape[0])):
        steps = [_rk4_increment(*stages[2 * m:2 * m + 3], h) for m in range(RK4_SUBSTEPS)]
        for k in range(k0, k0 + len(steps[0])):
            for m, D in enumerate(steps):
                F = F + D[k - k0] @ F
                if not np.abs(F).max() <= STEP_LIMIT:  # NaN fails too
                    # argmax takes the first NaN, so a non-finite line is named before the largest finite one
                    b = int(np.argmax(np.max(np.abs(F), axis=(-2, -1))))
                    raise StepUnstable(f"frame entries exceeded {STEP_LIMIT:.0e} or went non-finite in the {sweep} "
                                       "sweep, on the interval ending", sweep, float(coords[k] + m * h + h),
                                       grid, (k + 1, b) if axis == 0 else (b, k + 1))
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
    """Full reconstruction: residual gate, frame transport, position quadrature,
    and the compatibility field read off the gate's residual report.

    p0 = z(u0, v0) is the origin when None; tol_build must be positive.  The
    gate's ResidualTooLarge names the worst of r1, r2 and r3 and its worst interior node.
    """
    if not tol_build > 0:  # NaN too
        raise ValidationError(f"tol_build must be positive, got {tol_build!r}")
    rep = residual(t)
    if rep.interior_max_abs > tol_build and not force:
        name, r = max(zip(("r1", "r2", "r3"), (rep.r1, rep.r2, rep.r3)), key=lambda p: p[1].interior_max_abs())
        worst = np.abs(r.values[t.grid.interior(2)])  # two layers in, as interior_max_abs
        node = tuple(int(k) + 2 for k in np.unravel_index(np.argmax(worst), worst.shape))
        raise ResidualTooLarge(f"natural-system residual {name} = {rep.interior_max_abs:.3e} exceeds tol_build "
                               f"{tol_build:.3e}", rep.interior_max_abs, tol_build, t.grid, node)
    if p0 is None:
        p0 = np.zeros(4)
    cm = coefficient_matrices(t)
    frames, diag = integrate_frame(cm, F0)
    points, pos_disc = integrate_position(frames, t.mu, p0)
    compat = compatibility_residual(rep, t.mu)
    diagnostics = {
        "residual_max": rep.interior_max_abs,
        "compat_max": compat.interior_max_abs(),
        "gram_drift": diag["gram_drift"],
        "path_discrepancy": diag["path_discrepancy"],
        "position_path_discrepancy": pos_disc,
    }
    return ReconstructionBundle(triple=t, frames=frames, points=points, diagnostics=diagnostics)
