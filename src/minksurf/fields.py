"""Scalar fields of (u, v) on uniform rectangular grids.

A ScalarField is a grid plus its Nu x Nv samples, checked for shape and
finiteness; it has no arithmetic.  Library code computes on the sample
arrays and wraps only the fields it returns.  `ScalarField.from_function`
samples a callable of (u, v) and records it as `evaluator`, so callers can
evaluate the same closed form off the grid; nothing in this module reads it.

`diff_values` is the one way to differentiate: it acts on a raw sample
array (any trailing axes) with the order-2 stencil (central, with 3-point
one-sided closures on the boundary rows and columns) or, on request, the
order-4 stencil used by the analysis pipeline.  The transforms `ln_abs` and
`sqrt_abs` work on the samples alone.

`spline_table` is the package's one spline routine: the not-a-knot cubic
spline on uniform nodes, held as its node values y and d = h^2/6 S'' at the
nodes, found by a Thomas sweep in LAPACK's operation order.  The frame
transport's stage matrices, the resampler `bicubic` and the canonical map's
inverse (`canonical._monotone_inverse`) all evaluate it.
`cumulative_simpson` is the one quadrature: the cumulative composite Simpson
sum on uniform nodes, in scipy's operation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridTooSmall, NearZeroField, SignChange, ValidationError

MU_MIN = 1e-8  # guards ln|mu| and 1/sqrt|mu| against blow-up


def is_integral(x) -> bool:
    """An integer or an integral float (33.0, not 33.7), as JSON gives them; not a boolean."""
    return type(x) is int or type(x) is float and x.is_integer()  # a bool's type is bool


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid on [u0, u1] x [v0, v1] with Nu x Nv nodes."""

    u0: float
    u1: float
    v0: float
    v1: float
    Nu: int
    Nv: int

    def __post_init__(self):
        if not (self.u1 > self.u0 and self.v1 > self.v0):
            raise ValidationError("domain bounds must satisfy u1 > u0 and v1 > v0")
        if self.Nu < 5 or self.Nv < 5:
            raise GridTooSmall("grids need at least 5 nodes per axis")

    @property
    def hu(self) -> float:
        return (self.u1 - self.u0) / (self.Nu - 1)

    @property
    def hv(self) -> float:
        return (self.v1 - self.v0) / (self.Nv - 1)

    @property
    def u_nodes(self) -> np.ndarray:
        return np.linspace(self.u0, self.u1, self.Nu)

    @property
    def v_nodes(self) -> np.ndarray:
        return np.linspace(self.v0, self.v1, self.Nv)

    def mesh(self):
        return np.meshgrid(self.u_nodes, self.v_nodes, indexing="ij")

    def uv(self, node) -> tuple[float, float]:
        """(u, v) coordinate of grid node (i, j)."""
        return float(self.u_nodes[node[0]]), float(self.v_nodes[node[1]])

    def node(self, k) -> tuple[int, int]:
        """Grid node (i, j) of index k into the C-order flattened samples."""
        return divmod(int(k), self.Nv)

    def interior(self, layers: int = 2):
        """Index slices excluding `layers` boundary rows/columns."""
        return slice(layers, self.Nu - layers), slice(layers, self.Nv - layers)


@dataclass
class ScalarField:
    grid: GridSpec
    values: np.ndarray
    evaluator: Optional[Callable] = None  # the callable from_function sampled

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.Nu, self.grid.Nv):
            raise ValidationError(f"values shape {vals.shape} != grid {(self.grid.Nu, self.grid.Nv)}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("field samples must be finite")
        self.values = vals

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable) -> "ScalarField":
        """Samples of fn(U, V) on the grid's mesh, with fn kept as `evaluator`."""
        U, V = grid.mesh()
        vals = np.broadcast_to(np.asarray(fn(U, V), dtype=float), U.shape).copy()
        return cls(grid, vals, evaluator=fn)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.Nu, grid.Nv), float(value)))

    # -- reductions --------------------------------------------------------

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def interior_max_abs(self) -> float:
        su, sv = self.grid.interior(2)
        return float(np.max(np.abs(self.values[su, sv])))


# ---------------------------------------------------------------------------
# differentiation


def _diff4(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Order-4 first derivative: 5-point central, one-sided at the edges."""
    f = np.moveaxis(np.asarray(vals, dtype=float), axis, 0)
    n = f.shape[0]
    if n < 5:
        raise GridTooSmall("order-4 stencils need at least 5 nodes")
    out = np.empty_like(f)
    # (f[:-4] - 8 f[1:-3] + 8 f[3:-1] - f[4:]) / 12, written in place in that order
    mid = out[2:-2]
    np.multiply(f[1:-3], 8, out=mid)
    np.subtract(f[:-4], mid, out=mid)
    mid += 8 * f[3:-1]
    mid -= f[4:]
    mid /= 12.0
    out[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / 12.0
    out[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / 12.0
    out[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / 12.0
    out[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / 12.0
    out /= h
    return np.moveaxis(out, 0, axis)


def diff_values(vals: np.ndarray, h: float, axis: int, order: int = 2) -> np.ndarray:
    """Derivative along `axis` of a raw sample array (any trailing axes).

    The package's one differentiation entry point.  Order 2 is central with
    3-point one-sided closures; order 4 is `_diff4`.  A mixed partial is two
    calls, d/du first and then d/dv.
    """
    if order == 2:
        return np.gradient(np.asarray(vals, dtype=float), h, axis=axis, edge_order=2)
    if order == 4:
        return _diff4(vals, h, axis)
    raise ValidationError("order must be 2 or 4")


# ---------------------------------------------------------------------------
# pointwise transforms of fields that must stay away from zero


def require_away_from_zero(
    s: ScalarField, mu_min: float = MU_MIN, name: str = "field", constant_sign: bool = False
) -> None:
    """Raise NearZeroField, located at a node, unless min |s| >= mu_min.

    The error's `node` is the first node of min |s|.  With constant_sign the
    samples must also be all positive or all negative (a sign flip between
    nodes implies a zero crossing of the underlying function); otherwise
    SignChange names the first node, in row-major order, whose sign differs
    from node (0, 0).
    """
    vals = s.values
    k = int(np.argmin(np.abs(vals)))
    if abs(vals.flat[k]) < mu_min:
        raise NearZeroField(f"min |{name}| = {abs(vals.flat[k]):.3e} < {mu_min:.3e}", s.grid, s.grid.node(k))
    if constant_sign and not (np.all(vals > 0) or np.all(vals < 0)):
        k = int(np.argmax((vals > 0) != (vals.flat[0] > 0)))
        raise SignChange(f"{name} changes sign on the grid", s.grid, s.grid.node(k))


def ln_abs(s: ScalarField, mu_min: float = MU_MIN) -> ScalarField:
    """Pointwise ln|s|; rejects fields that come within mu_min of zero."""
    require_away_from_zero(s, mu_min)
    return ScalarField(s.grid, np.log(np.abs(s.values)))


def sqrt_abs(s: ScalarField) -> ScalarField:
    """Pointwise sqrt|s|; rejects fields that come within MU_MIN of zero."""
    require_away_from_zero(s)
    return ScalarField(s.grid, np.sqrt(np.abs(s.values)))


# ---------------------------------------------------------------------------
# the uniform not-a-knot cubic spline, and cumulative Simpson


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


def spline_table(values: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline S through values (n, ...) on n >= 5 uniform nodes, as a contiguous (n, 2, ...) table.

    Per node the table holds y = values, then d = h^2 / 6 S''.  The spline's
    value at fraction tau of interval k is `spline_weights(tau)` applied to
    (y_k, d_k, y_k+1, d_k+1), four consecutive rows of the table flattened
    to (2 n, -1).  d is found in place in the table: its right-hand sides
    are formed in d's rows and `_solve_folded_spline` overwrites them with
    the solution.  The table is a fresh buffer because a strided view (a
    `moveaxis` of the samples, say) would reshape to a copy, and the
    in-place solve would write into that copy.
    """
    n = values.shape[0]
    if n < 5:
        raise GridTooSmall("the not-a-knot spline needs at least 5 nodes")
    table = np.empty((n, 2) + values.shape[1:])
    table[:, 0] = values
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
    return table


def spline_weights(tau: np.ndarray) -> np.ndarray:
    """(len(tau), 4) weights of (y_k, d_k, y_k+1, d_k+1) for the spline's value at fractions tau of an interval.

    The value is (1 - tau) y_k + ((1 - tau)^3 - (1 - tau)) d_k + tau y_k+1 + (tau^3 - tau) d_k+1.
    """
    return np.column_stack([1 - tau, (1 - tau) ** 3 - (1 - tau), tau, tau ** 3 - tau])


def locate(nodes: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval k (0..n-2) of each x in [nodes[0], nodes[-1]] and its fraction tau of that interval.

    A node x = nodes[k] gets tau = 0 exactly (tau = 1 in the last interval).
    """
    k = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    return k, (x - nodes[k]) / (nodes[k + 1] - nodes[k])


def _spline_pass(values: np.ndarray, nodes: np.ndarray, targets: np.ndarray, axis: int) -> np.ndarray:
    """The not-a-knot spline along `axis` of values, evaluated at the targets (inside the nodes)."""
    f = np.moveaxis(values, axis, 0)
    n = len(nodes)
    rows = spline_table(f).reshape(2 * n, -1)
    k, tau = locate(nodes, targets)
    ends = rows[2 * k[:, None] + np.arange(4)]  # (targets, 4, samples per node)
    out = (spline_weights(tau)[:, None, :] @ ends).reshape((len(targets),) + f.shape[1:])
    return np.moveaxis(out, 0, axis)


def cumulative_simpson(y: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Cumulative Simpson integral of samples on uniform nodes of spacing h along `axis`, 0 at the first node.

    Needs at least 3 nodes.  Interval k's integral is
    h/3 (5 y_k / 4 + 2 y_k+1 - y_k+2 / 4) from the parabola through it and
    the next node for even k, and h/3 (5 y_k+1 / 4 + 2 y_k - y_k-1 / 4) from
    the parabola through it and the previous node for odd k and for the last
    interval; one cumulative sum adds them up.  This is
    scipy.integrate.cumulative_simpson(y, dx=h, axis=axis, initial=0.0)
    operation for operation, so the sums equal its to the bit, the sign of
    a zero included (adding the initial 0.0 turns -0.0 into +0.0).  The
    result has its memory layout too, `axis` swapped with the last axis of a
    C-contiguous array, so reductions over it and over arrays computed from
    it sum in the same order.
    """
    f = np.swapaxes(np.asarray(y, dtype=float), axis, -1)
    n = f.shape[-1]
    if n < 3:
        raise GridTooSmall("cumulative Simpson needs at least 3 nodes")
    f1, f2, f3 = f[..., :-2], f[..., 1:-1], f[..., 2:]
    forward = h / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)   # interval k from nodes k, k+1, k+2
    backward = h / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)  # interval k+1 from the same nodes
    pieces = np.empty(f.shape[:-1] + (n - 1,))
    pieces[..., :-1:2] = forward[..., ::2]
    pieces[..., 1::2] = backward[..., ::2]
    pieces[..., -1] = backward[..., -1]
    out = np.empty(f.shape)
    out[..., 0] = 0.0
    np.cumsum(pieces, axis=-1, out=out[..., 1:])
    out[..., 1:] += 0.0
    return np.swapaxes(out, axis, -1)


# ---------------------------------------------------------------------------
# resampling


def bicubic(values: np.ndarray, grid: GridSpec, new_u: np.ndarray, new_v: np.ndarray) -> np.ndarray:
    """Not-a-knot tensor cubic interpolant of node samples on a target mesh.

    The package's one resampler; `Immersion.resample` calls it.
    values has shape (Nu, Nv, ...) with any trailing axes (components,
    matrices); the result has shape (len(new_u), len(new_v), ...).  Targets
    are clipped into the domain.  The tensor interpolant equals a 1-D
    not-a-knot pass (`spline_table`) along u followed by one along v, which
    is how it is evaluated.
    """
    cu = np.clip(new_u, grid.u0, grid.u1)
    cv = np.clip(new_v, grid.v0, grid.v1)
    along_u = _spline_pass(np.asarray(values, dtype=float), grid.u_nodes, cu, 0)
    return _spline_pass(along_u, grid.v_nodes, cv, 1)
