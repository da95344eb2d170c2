"""Small-tensor operations, vectorized over leading axes.

Conventions
-----------
A *tensor of shape* ``s`` (in the Diderot sense — paper §3.1) is stored as a
NumPy array whose **trailing** ``len(s)`` axes are the tensor axes; any
leading axes are batch ("strand") axes and every operation broadcasts over
them.  A scalar is a 0-order tensor: an array with no trailing tensor axes.

These functions implement the shape-driven part of the operator set of
paper §3.2: cross product (``u × v``), tensor product (``u ⊗ v``), norm
(``|u|``), plus ``trace``, ``normalize``, transpose and determinant, which
the examples in §4 rely on.  The ops whose meaning depends on tensor order
rather than array shape — ``u • v``, ``lerp`` and ``identity[n]`` — are
defined once, in :mod:`repro.runtime.ops` (``dot_ord``, ``lerp``,
``identity``), next to the generated code that calls them.
"""

from __future__ import annotations

import numpy as np


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product ``u × v`` of 3-vectors (or the scalar 2-D analogue)."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape[-1] == 2:
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return np.cross(u, v)


def outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tensor (outer) product ``u ⊗ v``.

    The result's trailing shape is the concatenation of the operands'
    trailing vector shapes.  Only the vector ⊗ vector case is needed by the
    language (e.g. ``n ⊗ n`` in the curvature example, Figure 3).
    """
    u = np.asarray(u)
    v = np.asarray(v)
    return u[..., :, None] * v[..., None, :]


def norm(t: np.ndarray, order: int = 1) -> np.ndarray:
    """Norm ``|t|``: absolute value, Euclidean norm, or Frobenius norm.

    ``order`` is the tensor order of ``t`` (the number of trailing tensor
    axes); the same formula — sqrt of the sum of squared components — covers
    all three cases.
    """
    t = np.asarray(t)
    if order == 0:
        return np.abs(t)
    axes = tuple(range(-order, 0))
    return np.sqrt(np.sum(t * t, axis=axes))


def normalize(u: np.ndarray) -> np.ndarray:
    """Unit vector in the direction of ``u``.

    A zero vector normalizes to zero rather than NaN: strand code routinely
    normalizes gradients that may vanish at critical points, and the paper's
    examples guard against the consequences downstream, not at the callsite.
    """
    u = np.asarray(u)
    # pre-scale by the largest component so the sum of squares cannot
    # underflow to denormals (or overflow) before the sqrt: normalizing
    # [4.8e-161]*3 must still give a unit vector
    m = np.max(np.abs(u), axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = u / m
        n = np.sqrt(np.sum(s * s, axis=-1, keepdims=True))
        out = s / n
    return np.where(m > 0, out, 0.0)


def trace(m: np.ndarray) -> np.ndarray:
    """Trace of a square matrix (sum of the diagonal)."""
    m = np.asarray(m)
    return np.trace(m, axis1=-2, axis2=-1)


def transpose(m: np.ndarray) -> np.ndarray:
    """Matrix transpose, swapping the two trailing axes."""
    m = np.asarray(m)
    return np.swapaxes(m, -1, -2)


def determinant(m: np.ndarray) -> np.ndarray:
    """Determinant of a 2x2 or 3x3 matrix, in closed form.

    Closed form (rather than ``np.linalg.det``) keeps the operation exact for
    float32 inputs and cheap for the small matrices Diderot manipulates.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    if m.shape[-2] != n:
        raise ValueError(f"determinant requires a square matrix, got {m.shape[-2:]}")
    if n == 1:
        return m[..., 0, 0]
    if n == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if n == 3:
        return (
            m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
        )
    raise ValueError(f"determinant supports 1x1..3x3 matrices, got {n}x{n}")


#: memoized ``np.einsum_path`` results keyed by ``(spec, *operand_shapes)``.
#: Probe contractions evaluate the same few einsum specs on the same block
#: shapes every super-step, so the path search is pure overhead after the
#: first call.  Plain-dict writes are benign under the GIL (idempotent:
#: two racers compute the same path).
_EINSUM_PATHS: dict = {}


def einsum_cached(spec: str, *operands: np.ndarray, out=None) -> np.ndarray:
    """``np.einsum`` with the contraction path precomputed and memoized.

    Operands must already be ndarrays (the key uses their ``.shape``).
    Without an explicit path NumPy either re-runs the path optimizer per
    call or — the default — contracts naively in one nested loop, which
    for the (d+1)-operand probe contractions is asymptotically worse than
    the pairwise path.
    """
    key = (spec,) + tuple(op.shape for op in operands)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(spec, *operands, optimize="optimal")[0]
        _EINSUM_PATHS[key] = path
    if out is None:
        return np.einsum(spec, *operands, optimize=path)
    return np.einsum(spec, *operands, out=out, optimize=path)
