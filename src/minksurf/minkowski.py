"""Lorentzian linear algebra in signature (3,1).

Vectors are plain numpy arrays of shape (..., 4); the 4th component is the
timelike coordinate.  A pseudo-orthonormal moving frame {x, y, n1, n2} is
stored row-major as a 4x4 array in that row order, so frame transport systems
multiply from the left.
"""

from __future__ import annotations

import numpy as np

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


def lorentz_inner(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Indefinite inner product a1 b1 + a2 b2 + a3 b3 - a4 b4.

    Broadcasts over leading axes; the last axis must have length 4.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # summed in order from 0.0, as np.sum(a * b * METRIC_DIAG, axis=-1) sums,
    # so the bits match that form's, signed zeros included
    out = 0.0 + a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3]
    return float(out) if out.ndim == 0 else out


def gram_matrix(frames: np.ndarray) -> np.ndarray:
    """All pairwise inner products of the rows of (..., 4, 4) frame arrays, as the product (F eta) F^T.

    F^T is copied to contiguous memory first: the product is then about twice
    as fast as on the strided transpose view, with the same bits.
    """
    frames = np.asarray(frames, dtype=float)
    return (frames * METRIC_DIAG) @ np.ascontiguousarray(np.swapaxes(frames, -1, -2))


def gram_residual(frame: np.ndarray) -> float | np.ndarray:
    """Max absolute deviation of the 10 frame inner products from their targets.

    Accepts a single 4x4 frame or a batch (..., 4, 4); returns a scalar or the
    batch of per-frame residuals.  A NaN entry gives NaN.
    """
    dev = np.abs(gram_matrix(frame) - TARGET_GRAM)
    out = dev.max(axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def standard_frame() -> np.ndarray:
    """Default initial frame: lightlike pair in the (1,4)-plane, normals e2, e3.

    Rows x = (1,0,0,1)/sqrt2, y = (-1,0,0,1)/sqrt2, n1 = e2, n2 = e3; the
    4x4 array has determinant +1.
    """
    s = 1.0 / np.sqrt(2.0)
    return np.array([
        [s, 0.0, 0.0, s],
        [-s, 0.0, 0.0, s],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ])


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
