"""Lorentzian linear algebra in signature (3,1).

Vectors are plain numpy arrays of shape (..., 4); the 4th component is the
timelike coordinate.  A pseudo-orthonormal moving frame {x, y, n1, n2} is
stored row-major as a 4x4 array in that row order, so frame transport systems
multiply from the left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# diag of the ambient metric: <a,b> = a1 b1 + a2 b2 + a3 b3 - a4 b4
METRIC_DIAG = np.array([1.0, 1.0, 1.0, -1.0])

# target Gram matrix of a pseudo-orthonormal frame in row order (x, y, n1, n2):
# <x,x>=<y,y>=0, <x,y>=-1, <n_i,n_j>=delta_ij, mixed tangent-normal products 0
TARGET_GRAM = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def mink_vec(c1: float, c2: float, c3: float, c4: float) -> np.ndarray:
    """Build a Minkowski 4-vector, checking finiteness."""
    vec = np.array([c1, c2, c3, c4], dtype=float)
    if not np.all(np.isfinite(vec)):
        raise ValidationError("Minkowski vector components must be finite")
    return vec


def lorentz_inner(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Indefinite inner product a1 b1 + a2 b2 + a3 b3 - a4 b4.

    Broadcasts over leading axes; the last axis must have length 4.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.sum(a * b * METRIC_DIAG, axis=-1)
    return float(out) if out.ndim == 0 else out


def gram_matrix(frames: np.ndarray) -> np.ndarray:
    """All pairwise inner products of the rows of (..., 4, 4) frame arrays."""
    frames = np.asarray(frames, dtype=float)
    return np.einsum("...ik,k,...jk->...ij", frames, METRIC_DIAG, frames)


def gram_residual(frame) -> float | np.ndarray:
    """Max absolute deviation of the 10 frame inner products from their targets.

    Accepts a FrameState, a single 4x4 array, or a batch (..., 4, 4); returns
    a scalar or the batch of per-frame residuals.
    """
    mat = frame.mat if isinstance(frame, FrameState) else np.asarray(frame, dtype=float)
    dev = np.abs(gram_matrix(mat) - TARGET_GRAM)
    out = dev.max(axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FrameState:
    """Pseudo-orthonormal frame snapshot; rows of mat are x, y, n1, n2."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.shape != (4, 4):
            raise ValidationError("frame matrix must be 4x4")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_vectors(cls, x, y, n1, n2) -> "FrameState":
        return cls(np.stack([x, y, n1, n2]))

    @property
    def x(self) -> np.ndarray:
        return self.mat[0]

    @property
    def y(self) -> np.ndarray:
        return self.mat[1]

    @property
    def n1(self) -> np.ndarray:
        return self.mat[2]

    @property
    def n2(self) -> np.ndarray:
        return self.mat[3]

    def gram_residual(self) -> float:
        return gram_residual(self.mat)


def standard_frame() -> FrameState:
    """Default initial frame: lightlike pair in the (1,4)-plane, normals e2, e3.

    x = (1,0,0,1)/sqrt2, y = (-1,0,0,1)/sqrt2, n1 = e2, n2 = e3; the component
    matrix has determinant +1.
    """
    s = 1.0 / np.sqrt(2.0)
    return FrameState.from_vectors(
        mink_vec(s, 0.0, 0.0, s),
        mink_vec(-s, 0.0, 0.0, s),
        mink_vec(0.0, 1.0, 0.0, 0.0),
        mink_vec(0.0, 0.0, 1.0, 0.0),
    )


def minkowski_cross(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector Lorentz-orthogonal to a, b, c (generalized cross product).

    w^m = eta^{mn} eps_{nijk} a^i b^j c^k; broadcasts over leading axes.  The
    contraction is expanded along c over the six 2x2 minors of (a, b).
    """
    a0, a1, a2, a3 = np.moveaxis(a, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(b, -1, 0)
    c0, c1, c2, c3 = np.moveaxis(c, -1, 0)
    p01, p02, p03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    p12, p13, p23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    w_low = np.stack([
        p23 * c1 - p13 * c2 + p12 * c3,
        -p23 * c0 + p03 * c2 - p02 * c3,
        p13 * c0 - p03 * c1 + p01 * c3,
        -p12 * c0 + p02 * c1 - p01 * c2,
    ], axis=-1)
    return w_low * METRIC_DIAG  # raise the index (eta is diagonal, own inverse)


def boost_1_4(phi: float) -> np.ndarray:
    """Lorentz boost of rapidity phi in the (1,4)-plane; L^T eta L = eta."""
    L = np.eye(4)
    L[0, 0] = L[3, 3] = np.cosh(phi)
    L[0, 3] = L[3, 0] = np.sinh(phi)
    return L
