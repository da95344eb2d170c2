"""Vectorized separable-convolution probing (paper §5.3, Figure 11).

Probing a field ``F = V ⊛ h`` at world position ``x`` is

    ``F(x) = Σ_i V[n + i] · Π_a h(f_a - i_a)``     with ``n = ⌊M⁻¹x⌋``,
    ``f = M⁻¹x - n``

and derivatives replace per-axis kernel factors with kernel derivatives
(``∂F/∂y`` uses ``h(x)h'(y)h(z)``, §2).  The functions here are the runtime
counterpart of the compiler's probe synthesis: every compiled probe lowers to
one :func:`gather_neighborhood` plus per-axis weight evaluations and an
einsum contraction.  Everything is vectorized across an arbitrary batch of
positions — one lane per strand in a block.

Safety contract: positions may be garbage in predicated-off lanes (DESIGN.md
deviation 3), so index math sanitizes non-finite values and clamps gathers
into the valid sample range.  The ``inside`` test is what gives *live* lanes
their real domain guarantee: a lane it admits has its whole window inside
the image, and :func:`gather_neighborhood` copies such a window in one piece
from a zero-copy window view.  Only lanes whose window crosses the border
take the per-tap clamped gather.  The generated update code runs every arm
that gathers on its live lanes only when a block's lanes disagree (DESIGN.md
deviation 2), so there a gather sees live lanes only; the clamping still
covers ``seed``/``init`` (mask-predicated), sanitized indices and live
lanes' own unguarded edge reads.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.image import Image
from repro.kernels import Kernel
from repro.tensors.ops import einsum_cached

# Bound on sanitized floor indices; far beyond any realistic image size but
# safely inside int64.
_INDEX_BOUND = 1 << 40


def split_position(pos_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split index-space positions into integer part ``n`` and fraction ``f``.

    ``pos_index`` has shape ``(..., d)``.  Non-finite coordinates are mapped
    to 0 so that predicated-off lanes cannot poison the gather (their results
    are discarded by the caller's mask).
    """
    pos_index = np.asarray(pos_index)
    clean = np.where(np.isfinite(pos_index), pos_index, 0.0)
    clean = np.clip(clean, -_INDEX_BOUND, _INDEX_BOUND)
    n = np.floor(clean)
    f = clean - n
    return n.astype(np.int64), f.astype(pos_index.dtype, copy=False)


def _gather_taps(data: np.ndarray, n: np.ndarray, support: int, dim: int) -> np.ndarray:
    """The per-tap gather: one clamped index per tap and axis, broadcast
    into a single fancy index.  Reads the nearest valid sample for every
    out-of-range tap, so it serves any ``n`` (the lanes whose window
    crosses the border, and images smaller than one window)."""
    offsets = np.arange(1 - support, support + 1)
    index_lists = []
    for a in range(dim):
        idx = n[:, a, None] + offsets  # (N, 2s)
        idx = np.clip(idx, 0, data.shape[a] - 1)
        # Broadcast shape: (N, 1, ..., 2s, ..., 1) with 2s in slot a+1.
        shape = [idx.shape[0]] + [1] * dim
        shape[a + 1] = 2 * support
        index_lists.append(idx.reshape(shape))
    return data[tuple(index_lists)]


def gather_neighborhood(data: np.ndarray, n: np.ndarray, support: int, dim: int) -> np.ndarray:
    """Gather the ``(2s)^d`` sample neighborhood around floor indices ``n``.

    Parameters
    ----------
    data:
        Image sample array of shape ``sizes + tensor_shape``.
    n:
        Integer floor indices, shape ``(N, d)``.
    support:
        Kernel support radius ``s``; offsets ``1-s .. s`` are gathered.
    dim:
        Spatial dimension ``d`` (``data`` has ``d`` leading spatial axes).

    Returns an array of shape ``(N, 2s, ..., 2s, *tensor_shape)`` with one
    offset axis per spatial axis, in image-axis order.  Out-of-range indices
    are clamped to the nearest valid sample (see module docstring).

    A lane is *interior* when its window ``n+1-s .. n+s`` lies inside the
    image on every axis (every lane ``inside`` admits is).  Interior lanes
    copy their whole window out of a zero-copy window view of ``data``,
    indexed once per lane by the window's start; only the lanes whose
    window crosses the border take the per-tap clamped gather, and every
    lane takes it when the image is smaller than one window on some axis.
    The two paths read the same samples, so the result is element for
    element the per-tap gather's.  Support-1 windows take the window path
    too: a 2×2 scalar ``tent`` window alone is ~8 % slower as a window
    (2,304 interior lanes, 157 vs 146 µs), but lic2d, whose ``R`` is such a
    field, runs in the same time either way (69.5 ms at paper-numpy size,
    medians of 6 alternating rounds), and windows of tensors or of wider
    support are faster as windows (2×2 of 2-vectors, 158 vs 241 µs; 4×4×4,
    1,024 lanes, 321 vs 681 µs; one core of a 2-vCPU Xeon host).
    """
    width = 2 * support
    last = np.subtract(data.shape[:dim], width)  # largest interior start
    if (last < 0).any():
        return _gather_taps(data, n, support, dim)
    start = n + (1 - support)
    border = ((start < 0) | (start > last)).any(axis=-1)
    crossing = border.any()
    if crossing:
        start = np.clip(start, 0, last)
    windows = as_strided(
        data,
        shape=tuple(last + 1) + (width,) * dim + data.shape[dim:],
        strides=data.strides[:dim] * 2 + data.strides[dim:],
        writeable=False,
    )
    out = windows[tuple(start[:, a] for a in range(dim))]
    if crossing:
        out[border] = _gather_taps(data, n[border], support, dim)
    return out


def axis_weights(kernel: Kernel, f: np.ndarray, deriv: int) -> np.ndarray:
    """Per-axis convolution weights ``h⁽ᵈᵉʳⁱᵛ⁾(f - i)`` for all offsets.

    ``f`` has shape ``(N,)``; the result is ``(N, 2s)`` in offset order
    ``1-s .. s``, evaluated with Horner's rule from the kernel's weight
    polynomials.
    """
    return kernel.derivative(deriv).weights(f).astype(f.dtype, copy=False)


_AXIS_LETTERS = "ijk"


def _contract(vals: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Contract a gathered neighborhood with per-axis weight vectors.

    ``vals`` is ``(N, 2s, ..., 2s, *tensor_shape)``; each entry of
    ``weights`` is ``(N, 2s)``.  Returns ``(N, *tensor_shape)``.
    """
    d = len(weights)
    letters = _AXIS_LETTERS[:d]
    spec = "n" + letters + "...," + ",".join("n" + c for c in letters) + "->n..."
    return einsum_cached(spec, vals, *weights)


def probe_convolution(
    image: Image,
    kernel: Kernel,
    pos_world: np.ndarray,
    deriv: int = 0,
    dtype=None,
) -> np.ndarray:
    """Probe ``V ⊛ ∇ᵈᵉʳⁱᵛ h`` at a batch of world positions.

    Parameters
    ----------
    image, kernel:
        The convolution defining the field.
    pos_world:
        World positions, shape ``(N, d)`` (a single position ``(d,)`` is
        also accepted and returns an unbatched result).
    deriv:
        Differentiation level ``r``.  The result appends ``r`` axes of
        length ``d`` to the image's tensor shape and is transformed to world
        space with ``M⁻ᵀ`` per derivative axis (paper §5.3).
    dtype:
        Computation dtype; defaults to the position dtype.

    Returns an array of shape ``(N, *tensor_shape, d, ..., d)``.
    """
    pos_world = np.asarray(pos_world)
    single = pos_world.ndim == 1
    if single:
        pos_world = pos_world[None, :]
    d = image.dim
    if pos_world.shape[-1] != d:
        raise ValueError(
            f"positions have dimension {pos_world.shape[-1]}, image is {d}-D"
        )
    if dtype is None:
        dtype = pos_world.dtype if pos_world.dtype.kind == "f" else np.float64
    pos_world = pos_world.astype(dtype, copy=False)

    orient = image.orientation
    pos_index = orient.to_index(pos_world).astype(dtype, copy=False)
    n, f = split_position(pos_index)
    data = image.data
    if data.dtype != dtype:
        data = data.astype(dtype)
    vals = gather_neighborhood(data, n, kernel.support, d)
    # Move tensor axes in vals to the end is already the layout; contraction
    # keeps them via the einsum ellipsis.

    # Base (order 0..deriv) weight tables per axis, computed once per axis
    # and derivative order actually used.
    weight_cache: dict[tuple[int, int], np.ndarray] = {}

    def w(axis: int, order: int) -> np.ndarray:
        key = (axis, order)
        if key not in weight_cache:
            weight_cache[key] = axis_weights(kernel, f[:, axis], order)
        return weight_cache[key]

    if deriv == 0:
        out = _contract(vals, [w(a, 0) for a in range(d)])
        return out[0] if single else out

    # One contraction per derivative multi-index (a_1, ..., a_r); axis a's
    # kernel factor is differentiated once per occurrence of a.
    n_batch = pos_world.shape[0]
    tshape = image.tensor_shape
    out = np.zeros((n_batch,) + tshape + (d,) * deriv, dtype=dtype)
    for flat in range(d**deriv):
        combo = []
        rest = flat
        for _ in range(deriv):
            combo.append(rest % d)
            rest //= d
        combo.reverse()
        mult = [combo.count(a) for a in range(d)]
        weights = [w(a, mult[a]) for a in range(d)]
        idx = (slice(None),) + (slice(None),) * len(tshape) + tuple(combo)
        out[idx] = _contract(vals, weights)

    # World-space pushback: contract every derivative axis with M^{-T}.
    g = orient.gradient_transform_as(dtype)
    for pos in range(deriv):
        axis = 1 + len(tshape) + pos
        out = np.moveaxis(np.tensordot(out, g, axes=([axis], [1])), -1, axis)
    return out[0] if single else out


def index_inside(image: Image, pos_index: np.ndarray, support: int) -> np.ndarray:
    """The ``inside`` test on index-space positions ``(..., d)``: the floor
    of every coordinate ``x`` lies in :meth:`Image.index_bounds` ``[lo,
    hi]``, tested as ``lo <= x < hi + 1`` — the same for finite ``x``
    (the bounds are integers), while NaN and ±inf fail either compare.
    Non-finite positions are therefore outside by definition, which is
    what makes a strand that computes NaN (e.g. from a vanishing gradient
    in Newton iteration) take the paper's "wanders outside the field
    domain" exit (§4.3).  The native kernel emits the same two compares.
    """
    lo, hi = image.index_bounds(support)
    pos_index = np.asarray(pos_index)
    return np.all((pos_index >= lo) & (pos_index < hi + 1), axis=-1)


def probe_inside(image: Image, support: int, pos_world: np.ndarray) -> np.ndarray:
    """The ``inside(x, F)`` test for a convolution field (paper §3.2).

    True where the full kernel support around ``x`` lies within the sample
    grid, i.e. the probe needs no clamped samples.  Non-finite positions are
    outside by definition.
    """
    pos_world = np.asarray(pos_world)
    single = pos_world.ndim == 1
    if single:
        pos_world = pos_world[None, :]
    ok = index_inside(image, image.orientation.to_index(pos_world), support)
    return bool(ok[0]) if single else ok
