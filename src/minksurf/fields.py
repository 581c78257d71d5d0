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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import make_interp_spline

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
# resampling


def bicubic(values: np.ndarray, grid: GridSpec, new_u: np.ndarray, new_v: np.ndarray) -> np.ndarray:
    """Not-a-knot tensor cubic interpolant of node samples on a target mesh.

    The package's one resampler; `Immersion.resample` calls it.
    values has shape (Nu, Nv, ...) with any trailing axes (components,
    matrices); the result has shape (len(new_u), len(new_v), ...).  Targets
    are clipped into the domain.  The tensor interpolant equals a 1-D
    not-a-knot pass along u followed by one along v, which is how it is
    evaluated.
    """
    cu = np.clip(new_u, grid.u0, grid.u1)
    cv = np.clip(new_v, grid.v0, grid.v1)
    along_u = make_interp_spline(grid.u_nodes, values, k=3, axis=0)(cu)
    return make_interp_spline(grid.v_nodes, along_u, k=3, axis=1)(cv)
