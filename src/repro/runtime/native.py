"""Runtime binder for the native C backend.

:class:`NativeUpdate` takes the library that
:mod:`repro.core.codegen.cbuild` loaded plus the emitter's buffer *plan*
(:mod:`repro.core.codegen.cgen`) and binds the live run arrays — strand
state, status, image voxel blocks, global values — into the fixed
``dd_run`` ABI.  The pointer tables (``np.uintp`` arrays of the bound
arrays' addresses) are built once; per call only a private copy of the
block's index list, its length and the tally arrays change.
``run_range`` is the one way in: it runs a block for ``max_steps``
super-steps — one, when the caller must see every step boundary; all that
remain, when nothing does — and the kernel keeps the work-list itself
(which lanes are still running, and whether the list is a contiguous run,
whose full batches then read and write state rows without a per-lane
index) and reports what each step did.

The ctypes call releases the GIL for its whole duration.  Disjoint lane
ranges touch disjoint state elements, so concurrent ``run_range`` calls
from the thread scheduler's workers are safe — this is what turns the
persistent thread pool into real multicore scaling.

Binding validates the contract the generated code assumes: state arrays
must be C-contiguous with the exact dtypes and must not alias one another
(the native kernel updates them in place).  Real-valued buffers follow the
plan's ``real_dtype`` — float64 for default-precision kernels, float32 for
``--single`` ones; the SC table stays float64 either way (the kernel casts
once at entry).  Violations raise :class:`~repro.errors.CodegenError`,
which ``Program`` treats as "fall back to NumPy".

The plan's ``fp_lo``/``fp_hi`` entries are the kernel's footprint
outputs: bound to a
:class:`~repro.runtime.incremental.FootprintRecorder`'s per-image box
arrays when the run records, NULL (address 0) otherwise (the kernel then
skips recording).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.errors import CodegenError, RuntimeErrorD
from repro.obs import current

__all__ = ["NativeUpdate", "warn_numpy_fallback"]

#: super-steps one ``dd_run`` call may take: the length of the tally
#: arrays it fills (a longer run re-enters the kernel)
TALLY_STEPS = 256

_K_CALLS, _K_LANES, _K_SECONDS = (
    f"op.native_update.{k}" for k in ("calls", "lanes", "seconds")
)


def warn_numpy_fallback(exc) -> None:
    """Say on stderr that a ``backend="c"`` request degrades to NumPy (the
    run plan records why and counts ``runtime.backend.fallback.<stage>``)."""
    print(f"warning: native backend unavailable, falling back to "
          f"NumPy: {exc}", file=sys.stderr)


def _check_state_array(arr: np.ndarray, want_dtype, what: str) -> np.ndarray:
    if not isinstance(arr, np.ndarray):
        raise CodegenError(f"native backend: {what} is not an ndarray")
    if arr.dtype != np.dtype(want_dtype):
        raise CodegenError(
            f"native backend: {what} has dtype {arr.dtype}, expected {np.dtype(want_dtype)}"
        )
    if not arr.flags["C_CONTIGUOUS"]:
        raise CodegenError(f"native backend: {what} is not C-contiguous")
    if not arr.flags["WRITEABLE"]:
        raise CodegenError(f"native backend: {what} is not writeable")
    return arr


class NativeUpdate:
    """One bound native update kernel over a fixed set of run arrays."""

    def __init__(self, lib, plan, images, global_values, state, status,
                 recorder=None):
        self._lib = lib
        self._plan = plan
        #: arrays the pointer tables point into: they must outlive them
        #: (bound run arrays, flattened global copies, contiguous casts)
        self._keep: list = []

        real_dtype = np.dtype(plan["real_dtype"])

        writable = []  # (name, array) pairs that the kernel mutates
        n_ret = plan["n_ret"]

        def state_slot(si, want_dtype):
            """State slot ``si`` as the kernel binds it."""
            if si < n_ret:  # written in place: the run's own array
                arr = _check_state_array(state[si], want_dtype,
                                         f"state slot {si}")
                writable.append((f"state{si}", arr))
                return arr
            # slots >= n_ret are immutable extras: read-only, never written
            # back, so a private contiguous copy is always a safe binding
            arr = np.asarray(state[si])
            if arr.dtype != np.dtype(want_dtype):
                raise CodegenError(
                    f"native backend: state slot {si} has dtype {arr.dtype}, "
                    f"expected {np.dtype(want_dtype)}"
                )
            arr = np.ascontiguousarray(arr)
            if any(np.may_share_memory(arr, state[j]) for j in range(n_ret)):
                arr = np.array(arr)  # aliasing a written slot: private copy
            return arr

        def image_array(name):
            img = images.get(name)
            if img is None:
                raise CodegenError(f"native backend: image {name!r} is not bound")
            data = np.asarray(img.data)
            if data.dtype != real_dtype:
                raise CodegenError(
                    f"native backend: image {name!r} has dtype {data.dtype}, "
                    f"expected {real_dtype}"
                )
            return np.ascontiguousarray(data)

        rp_bufs = []
        for entry in plan["real_ptrs"]:
            kind = entry[0]
            if kind == "image":
                arr = image_array(entry[1])
            elif kind == "global":
                arr = np.ascontiguousarray(
                    np.asarray(global_values[entry[1]], dtype=real_dtype)
                ).reshape(-1)
            else:  # ("state", si)
                arr = state_slot(entry[1], real_dtype)
            rp_bufs.append(self._addr(arr))

        def footprint_box(kind, name):
            # the kernel indexes these by strand id, like the state arrays
            dim = plan["image_meta"][name]["dim"]
            lo, hi = recorder.box_arrays(name, dim)
            arr = _check_state_array(
                hi if kind == "fp_hi" else lo, np.int64,
                f"footprint box of image {name!r}",
            )
            if arr.shape != (status.shape[0], dim):
                raise CodegenError(
                    f"native backend: footprint box of image {name!r} has "
                    f"shape {arr.shape} for {status.shape[0]} strands"
                )
            return self._addr(arr)

        ip_bufs = []
        for entry in plan["int_ptrs"]:
            if entry[0] in ("fp_lo", "fp_hi"):
                ip_bufs.append(0 if recorder is None
                               else footprint_box(*entry))
                continue
            if entry[0] == "status":
                arr = _check_state_array(status, np.int64, "status")
                writable.append(("status", arr))
            else:
                arr = state_slot(entry[1], np.int64)
            ip_bufs.append(self._addr(arr))

        bp_bufs = [self._addr(state_slot(entry[1], np.bool_))
                   for entry in plan["bool_ptrs"]]

        # The kernel writes every state array in place; aliased arrays would
        # double-apply updates, so refuse them (Program then uses NumPy).
        for i in range(len(writable)):
            for j in range(i + 1, len(writable)):
                if np.may_share_memory(writable[i][1], writable[j][1]):
                    raise CodegenError(
                        f"native backend: arrays {writable[i][0]} and "
                        f"{writable[j][0]} share memory"
                    )

        sc = np.zeros(max(len(plan["sc"]), 1), dtype=np.float64)
        entries = plan["sc"]
        i = 0
        while i < len(entries):
            entry = entries[i]
            if entry[0] == "global":
                sc[i] = float(global_values[entry[1]])
                i += 1
                continue
            kind, name = entry
            orient = images[name].orientation
            if kind == "origin":
                vals = np.asarray(orient.origin, dtype=np.float64).reshape(-1)
            elif kind == "minv":
                vals = np.asarray(orient.index_jacobian, dtype=np.float64).reshape(-1)
            elif kind == "gxf":
                vals = np.asarray(orient.gradient_transform, dtype=np.float64).reshape(-1)
            else:
                raise CodegenError(f"native backend: unknown sc entry {entry!r}")
            sc[i : i + vals.size] = vals
            i += vals.size

        ic = np.zeros(max(len(plan["ic"]), 1), dtype=np.int64)
        entries = plan["ic"]
        i = 0
        while i < len(entries):
            entry = entries[i]
            if entry[0] == "global":
                ic[i] = int(global_values[entry[1]])
                i += 1
                continue
            kind, name = entry
            if kind != "sizes":
                raise CodegenError(f"native backend: unknown ic entry {entry!r}")
            dim = plan["image_meta"][name]["dim"]
            sizes = np.asarray(images[name].data.shape[:dim], dtype=np.int64)
            ic[i : i + dim] = sizes
            i += dim

        self._rp, self._ip, self._bp = (
            np.array(bufs, dtype=np.uintp) for bufs in (rp_bufs, ip_bufs, bp_bufs))
        #: dd_run's first five arguments; an empty table is NULL
        self._tables = tuple(t.ctypes.data if t.size else None
                             for t in (self._rp, self._ip, self._bp))
        self._tables += (self._addr(sc), self._addr(ic))

    def _addr(self, arr: np.ndarray) -> int:
        """``arr``'s address, with ``arr`` kept alive as long as ``self``."""
        self._keep.append(arr)
        return arr.ctypes.data

    def run_range(self, idx: np.ndarray, start: int = 0, end: int | None = None,
                  max_steps: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Run lanes ``idx[start:end]`` for up to ``max_steps`` super-steps.

        ``idx`` holds strand indices into the flat state buffers and is
        not modified: the kernel works on (and compacts) a private copy,
        and stops early once every lane has stabilized or died.  Returns
        the kernel's tallies, one row per step taken: ``counts`` — int64
        ``(steps, 3)`` columns active / stabilized / died — and
        ``seconds`` — float64 ``(steps,)``, measured inside the kernel.
        Raises :class:`RuntimeErrorD` on an integer division by zero,
        mirroring the NumPy backend's live-lane contract.
        """
        work = np.array(idx[start:end], dtype=np.int64)
        n_io = np.array([work.shape[0]], dtype=np.int64)
        chunks = []
        left = int(max_steps)
        while left > 0 and n_io[0] > 0:
            cap = min(left, TALLY_STEPS)
            counts = np.empty((cap, 3), dtype=np.int64)
            seconds = np.empty(cap, dtype=np.float64)
            taken = self._lib.dd_run(
                *self._tables, work.ctypes.data, n_io.ctypes.data, cap,
                counts.ctypes.data, seconds.ctypes.data,
            )
            if taken == -1:
                raise RuntimeErrorD("integer division by zero")
            if taken < 0:
                raise RuntimeErrorD(f"native update failed with code {-taken}")
            chunks.append((counts[:taken], seconds[:taken]))
            left -= taken
        if not chunks:  # no lanes, or no steps allowed
            return np.empty((0, 3), dtype=np.int64), np.empty(0)
        if len(chunks) == 1:
            counts, seconds = chunks[0]
        else:
            counts = np.concatenate([c for c, _ in chunks])
            seconds = np.concatenate([s for _, s in chunks])
        # one kernel pass over one block per step, as when each step was
        # its own call
        current().inc_many({
            _K_CALLS: counts.shape[0],
            _K_LANES: int(counts[:, 0].sum()),
            _K_SECONDS: float(seconds.sum()),
        })
        return counts, seconds
