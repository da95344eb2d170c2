"""Incremental re-execution: footprints, snapshots, dirty-region queries.

The Diderot strand model recomputes every strand on every run even when
only a sliver of an input image changed.  Strands are independent (no
inter-strand communication), so a strand whose *input-image footprint* —
the set of sample indices its probes can read across all super-steps —
does not intersect a patched region must converge to bit-identical
state.  This module supplies the machinery ``Program.update_input`` /
``Program.run_update`` build on:

``FootprintRecorder``
    Per strand and per image, the axis-aligned bounding box of sample
    indices read.  Two writers fold gathers into the same arrays: the
    :mod:`repro.runtime.ops` ``gather`` hook (each thread's hook names the
    strand rows of its running lanes) and the native kernel, which
    :class:`~repro.runtime.native.NativeUpdate` hands the arrays themselves.

``Footprints``
    The queryable product: which strands' boxes, dilated by one extra
    sample per axis, hit a dirty region.  The dilation keeps the native
    backend's 1e-12 contract (and single precision's 1e-5) from flipping
    a floor-boundary read across the dirty test.

``Snapshot``
    A checkpoint of converged strand state: private copies of the state
    arrays and status vector, the run parameters an update must keep, the
    footprints and the pending dirty set.

``StepEvent``
    The payload handed to the per-super-step streaming callback.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FootprintRecorder",
    "Footprints",
    "Snapshot",
    "StepEvent",
]

# sentinel half-range for unrecorded boxes; also the clip bound applied to
# incoming gather indices (predicated-off lanes may carry garbage like
# trunc(inf) that would overflow the int64 min/max accumulation)
_BIG = np.int64(1) << 40


class FootprintRecorder:
    """Accumulates per-strand, per-image gather AABBs during a run.

    Blocks on several threads (NumPy or native) record concurrently: each
    owns disjoint rows, and box creation and the global-box fold hold
    one lock.
    """

    def __init__(self, image_names: dict[int, str], total: int = 0):
        # id(ctx image object) -> input name; gather only sees the Image
        self._names = image_names
        self.total = int(total)
        # name -> (lo, hi) int64 arrays of shape (total, dim)
        self.boxes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # name -> (lo, hi) global fallback box for gathers outside lane
        # tracking (constant-position probes, unmapped lanes)
        self.global_boxes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    # -- wiring ------------------------------------------------------------

    def watch(self, images: dict) -> None:
        """Name the image objects a run is about to gather from."""
        self._names.update({id(img): nm for nm, img in images.items()})

    def resize(self, total: int) -> None:
        """Late-size the per-strand tables (grid dims resolve mid-run)."""
        if total == self.total:
            return
        self.total = int(total)
        for name, (lo, _hi) in list(self.boxes.items()):
            del self.boxes[name]
            self.box_arrays(name, lo.shape[1])

    def box_arrays(self, name: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(lo, hi)`` arrays of image ``name``, created empty on
        first use; writers update them in place."""
        with self._lock:
            got = self.boxes.get(name)
            if got is None:
                lo = np.full((self.total, dim), _BIG, dtype=np.int64)
                hi = np.full((self.total, dim), -_BIG, dtype=np.int64)
                got = self.boxes[name] = (lo, hi)
        return got

    def reset_rows(self, ids: np.ndarray) -> None:
        """Forget the boxes for ``ids`` (about to be re-traced)."""
        for lo, hi in self.boxes.values():
            lo[ids] = _BIG
            hi[ids] = -_BIG

    # -- the ops.gather hook ----------------------------------------------

    def on_gather(self, image, n: np.ndarray, support: int,
                  lanes: np.ndarray | None) -> None:
        """Fold one gather into the rows ``lanes`` (the strand rows of the
        running lanes) or, when no strand owns it, the global box."""
        name = self._names.get(id(image))
        if name is None:
            return
        n = np.clip(np.asarray(n, dtype=np.int64), -_BIG, _BIG)
        # a gather at integer part n reads samples n+(1-s) .. n+s per
        # axis, with out-of-range indices clamped to the nearest valid
        # sample (fields.probe.gather_neighborhood) — the recorded box
        # must describe the samples actually read
        sizes = np.asarray(image.sizes, dtype=np.int64)
        lo = np.clip(n + (1 - support), 0, sizes - 1)
        hi = np.clip(n + support, 0, sizes - 1)
        if (
            lanes is not None
            and n.ndim == 2
            and n.shape[0] == lanes.shape[0]
            and self.total
        ):
            blo, bhi = self.box_arrays(name, n.shape[1])
            # rows are unique within a block, so fancy-index min/max is safe
            blo[lanes] = np.minimum(blo[lanes], lo)
            bhi[lanes] = np.maximum(bhi[lanes], hi)
            return
        if n.ndim == 1:
            lo = lo[None, :]
            hi = hi[None, :]
        glo = lo.min(axis=0)
        ghi = hi.max(axis=0)
        with self._lock:
            got = self.global_boxes.get(name)
            if got is not None:
                glo, ghi = np.minimum(got[0], glo), np.maximum(got[1], ghi)
            self.global_boxes[name] = (glo, ghi)


class Footprints:
    """Dirty-region queries over one recorder's live, dilated boxes.

    Every query scans the box columns (one axis at a time over the rows
    that survived the previous axis), so it always sees the recorder's
    current geometry — re-traced rows need no bookkeeping.  A spatial
    index was measured and dropped: the scan is faster on slab-sized
    regions at every strand count tried (0.3 vs 0.7 ms at 46 k strands,
    7.5 vs 14 ms at 1 M) and the index cost 0.04–3.7 s to build.
    """

    def __init__(self, recorder: FootprintRecorder, dilate: int = 1):
        self.recorder = recorder
        self.dilate = int(dilate)

    def dirty_strands(self, name: str, regions) -> np.ndarray | None:
        """Sorted strand rows whose footprint on ``name`` hits any region.

        Returns ``None`` when the hit can't be attributed to specific
        strands (an untracked global box — e.g. a constant-position
        probe — intersects a region): the caller must treat every
        strand as dirty.
        """
        d = self.dilate
        regions = [(np.asarray(rlo, dtype=np.int64) - d,
                    np.asarray(rhi, dtype=np.int64) + d)
                   for rlo, rhi in regions]
        glob = self.recorder.global_boxes.get(name)
        if glob is not None:
            for rlo, rhi in regions:
                if ((glob[0] <= rhi) & (glob[1] >= rlo)).all():
                    return None
        got = self.recorder.boxes.get(name)
        if got is None:
            return np.empty(0, dtype=np.int64)
        lo, hi = got
        hits = []
        for rlo, rhi in regions:
            # unrecorded rows hold the (+_BIG, -_BIG) sentinels: never hit
            rows = np.nonzero((lo[:, 0] <= rhi[0]) & (hi[:, 0] >= rlo[0]))[0]
            for k in range(1, lo.shape[1]):
                rows = rows[(lo[rows, k] <= rhi[k]) & (hi[rows, k] >= rlo[k])]
            hits.append(rows)
        if len(hits) == 1:
            return hits[0]
        mask = np.zeros(self.recorder.total, dtype=np.bool_)
        for rows in hits:
            mask[rows] = True
        return np.nonzero(mask)[0]


@dataclass
class Snapshot:
    """Converged strand state checkpointed for incremental restarts, and
    everything else the update machinery keeps between runs."""

    state: list[np.ndarray]
    status: np.ndarray
    total: int
    steps: int
    max_steps: int | None
    backend: str
    #: the checkpoint's footprints; ``None`` until a shadow run builds
    #: the ones the checkpointing run could not record
    recorder: FootprintRecorder | None = None
    #: strand ids whose state is invalidated by pending ``update_input``
    #: calls (consumed by the next ``run_update``)
    pending_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    #: a pending change couldn't be localized: next update is a full run
    pending_full: bool = False

    def copies(self) -> tuple[list[np.ndarray], np.ndarray]:
        return [s.copy() for s in self.state], self.status.copy()

    def store_rows(self, ids: np.ndarray, state, status: np.ndarray) -> None:
        """Overwrite rows ``ids`` with an update run's converged rows."""
        for mine, new in zip(self.state, state):
            mine[ids] = new[ids]
        self.status[ids] = status[ids]


@dataclass
class StepEvent:
    """One super-step's changes, handed to the streaming callback."""

    step: int
    #: global strand ids that ran this step
    active: np.ndarray
    #: their post-step status codes (aligned with ``active``)
    status: np.ndarray
    #: output name -> rows aligned with ``active`` (private copies)
    outputs: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def stabilized(self) -> np.ndarray:
        """Global ids of strands that stabilized during this step."""
        return self.active[self.status == 1]
