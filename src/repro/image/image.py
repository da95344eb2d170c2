"""The ``image(d)[s]`` value: a grid of tensor samples plus orientation.

The Diderot ``load`` builtin produces one of these from a NRRD file; field
construction (``img ⊛ h``) and probing consume it.  "We do not specify the
representation of the image values on disk ... the compiler generates code
that maps image values to reals" (paper §3.3.1): samples are converted to
floating point on construction.
"""

from __future__ import annotations

import numpy as np

from repro.image.grid import Orientation


class Image:
    """An oriented, tensor-valued sample grid.

    Parameters
    ----------
    data:
        Array of shape ``sizes + tensor_shape``: the first ``dim`` axes index
        the grid (axis ``i`` of the array is image axis ``i``), the trailing
        axes are the per-sample tensor.  Converted to ``dtype`` on ingest.
    dim:
        Spatial dimension ``d`` of the grid (1, 2, or 3).
    tensor_shape:
        The shape ``s`` of each sample: ``()`` for scalar images, ``(3,)``
        for 3-vector images, etc.
    orientation:
        Index→world map; defaults to the identity (unit spacing, origin 0).
    """

    def __init__(
        self,
        data: np.ndarray,
        dim: int | None = None,
        tensor_shape: tuple[int, ...] | None = None,
        orientation: Orientation | None = None,
        dtype=np.float64,
    ):
        data = np.asarray(data)
        if dim is None and tensor_shape is None:
            dim = data.ndim
            tensor_shape = ()
        elif dim is None:
            dim = data.ndim - len(tensor_shape)
        elif tensor_shape is None:
            tensor_shape = tuple(data.shape[dim:])
        tensor_shape = tuple(int(n) for n in tensor_shape)
        if dim not in (1, 2, 3):
            raise ValueError(f"image dimension must be 1, 2, or 3, got {dim}")
        if data.ndim != dim + len(tensor_shape):
            raise ValueError(
                f"data has {data.ndim} axes but dim={dim} and tensor shape "
                f"{tensor_shape} require {dim + len(tensor_shape)}"
            )
        if tuple(data.shape[dim:]) != tensor_shape:
            raise ValueError(
                f"trailing axes {data.shape[dim:]} do not match tensor shape {tensor_shape}"
            )
        if orientation is None:
            orientation = Orientation.axis_aligned(dim)
        if orientation.dim != dim:
            raise ValueError(
                f"orientation dimension {orientation.dim} does not match image dim {dim}"
            )
        self.data = np.ascontiguousarray(data, dtype=dtype)
        self.dim = dim
        self.tensor_shape = tensor_shape
        self.orientation = orientation
        self._bounds_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def sizes(self) -> tuple[int, ...]:
        """Samples along each image axis."""
        return tuple(self.data.shape[: self.dim])

    @property
    def tensor_order(self) -> int:
        return len(self.tensor_shape)

    def astype(self, dtype) -> "Image":
        """A copy of this image with samples stored at ``dtype``."""
        return Image(
            self.data, self.dim, self.tensor_shape, self.orientation, dtype=dtype
        )

    def patch(self, data, region=None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Overwrite samples in place; returns the changed index regions.

        Parameters
        ----------
        data:
            Either a full-size replacement array (``region is None`` diffs it
            against the current samples and patches the changed bounding box)
            or the sub-array for an explicit ``region``.
        region:
            ``None``, one region, or a list of regions.  A region is a
            sequence of ``dim`` inclusive ``(lo, hi)`` index pairs.  With a
            list of regions, ``data`` must be the full-size array the
            sub-blocks are sliced from.

        Returns the list of patched regions as ``(lo, hi)`` int arrays
        (inclusive on both ends), empty if nothing changed.
        """
        data = np.asarray(data)
        sizes = self.sizes
        if region is None:
            if data.shape != self.data.shape:
                raise ValueError(
                    f"patch without region needs full shape {self.data.shape}, "
                    f"got {data.shape}"
                )
            new = data.astype(self.data.dtype, copy=False)
            diff = new != self.data
            if self.tensor_order:
                diff = diff.any(axis=tuple(range(self.dim, diff.ndim)))
            if not diff.any():
                return []
            idx = np.nonzero(diff)
            lo = np.array([int(ax.min()) for ax in idx])
            hi = np.array([int(ax.max()) for ax in idx])
            sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
            self.data[sl] = new[sl]
            self._bounds_cache.clear()
            return [(lo, hi)]
        regions = region
        if regions and np.isscalar(regions[0][0]):
            regions = [regions]
        full = data.shape == self.data.shape
        out, blocks = [], []
        # every region is checked before any is written: a bad one leaves
        # the samples as they were
        for reg in regions:
            if len(reg) != self.dim:
                raise ValueError(
                    f"region needs {self.dim} (lo, hi) pairs, got {len(reg)}"
                )
            lo = np.array([int(p[0]) for p in reg])
            hi = np.array([int(p[1]) for p in reg])
            if (lo < 0).any() or (hi >= np.asarray(sizes)).any() or (hi < lo).any():
                raise ValueError(f"region {reg} outside image sizes {sizes}")
            sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
            block = data[sl] if full else data
            want = tuple(hi - lo + 1) + self.tensor_shape
            if block.shape != want:
                raise ValueError(
                    f"patch data shape {block.shape} does not match region "
                    f"shape {want}"
                )
            out.append((lo, hi))
            blocks.append((sl, block))
        for sl, block in blocks:
            self.data[sl] = block.astype(self.data.dtype, copy=False)
        if out:
            self._bounds_cache.clear()
        return out

    def index_bounds(self, support: int) -> tuple[np.ndarray, np.ndarray]:
        """Valid floor-index range ``[lo, hi]`` for a kernel of given support.

        A probe at index-space position with integer part ``n`` reads samples
        ``n + i`` for ``i = 1-s .. s``; ``n`` must satisfy
        ``s-1 <= n <= size-1-s`` on every axis.  Used to implement the
        ``inside(x, F)`` test.

        Memoized per support (``index_inside`` runs it once per block per
        super-step); the cached arrays are read-only.
        """
        got = self._bounds_cache.get(support)
        if got is None:
            sizes = np.asarray(self.sizes)
            lo = np.full(self.dim, support - 1)
            hi = sizes - 1 - support
            lo.setflags(write=False)
            hi.setflags(write=False)
            got = self._bounds_cache[support] = (lo, hi)
        return got

    def __repr__(self) -> str:
        return (
            f"Image(dim={self.dim}, sizes={self.sizes}, "
            f"tensor_shape={self.tensor_shape}, dtype={self.data.dtype})"
        )
