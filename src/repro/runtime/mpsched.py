"""True multicore execution: a process pool over shared-memory strand state.

CPython's GIL serializes the bytecode between NumPy calls, so the
thread-pool scheduler (:mod:`repro.runtime.scheduler`) cannot reach the
paper's near-linear scaling on real hardware.  This module reproduces the
paper's parallel runtime (§5.5) with *processes* instead:

* **Shared-memory layout** — every strand-state array, the status array,
  the active-strand index list, and every image payload live in
  :mod:`multiprocessing.shared_memory` blocks.  The master's arrays *are*
  views over those blocks, so worker writes are immediately visible
  without any result pickling.
* **Persistent pool** — workers are forked once per pool (not per
  super-step, and — for pooled schedulers held by the serving layer —
  not even per run: ``setup()`` on a live pool re-arms the existing
  workers with the new run's shared state).  Each worker receives a
  setup message carrying the generated module source, the image
  metadata + shared-memory names, the resolved global values, and the
  state/status/active array specs; it ``exec``\\ s the source and
  rebuilds its context locally.
* **Work-list + barrier** — each super-step the master writes the active
  strand indices into the shared index buffer and enqueues
  ``(block_start, block_end)`` ranges on a shared task queue; workers
  pull ranges until the list is empty, running each through the block
  kernel the in-process schedulers use (:mod:`repro.runtime.kernel`) over
  their shared-memory views.  The master collecting one ack per block is
  the paper's end-of-super-step barrier.

Strand blocks index disjoint strand sets, so concurrent in-place writes
never overlap and the results are bit-identical to the sequential
schedule (asserted by ``tests/test_schedulers.py``).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as _queue
import traceback

import numpy as np
from multiprocessing import shared_memory

from repro.errors import RuntimeErrorD
from repro.obs import Obs, clock, current
from repro.runtime.kernel import Ctx, NumpyKernel
from repro.runtime.scheduler import block_span

#: seconds between liveness checks while waiting on worker messages
_POLL_INTERVAL = 5.0


def _context():
    """Prefer fork (cheap, inherits sys.path); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _SharedArray:
    """A NumPy array whose storage is a named SharedMemory block."""

    def __init__(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr)
        self.shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        self.view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self.shm.buf)
        self.view[...] = arr

    def spec(self) -> tuple:
        return (self.shm.name, self.view.shape, str(self.view.dtype))

    def destroy(self) -> None:
        self.view = None
        try:
            self.shm.close()
            self.shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def _attach(spec):
    """Open a named block in a worker; returns ``(shm, ndarray_view)``.

    The master owns the block's lifetime (it unlinks on close), so the
    worker's attach must not register with its resource tracker — that
    would produce spurious leak warnings / double unlinks at exit.
    """
    name, shape, dtype = spec
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # before 3.13 there is no ``track`` kwarg — but attaching does not
        # register with the resource tracker there either, so plain attach
        # is already untracked
        shm = shared_memory.SharedMemory(name=name)
    return shm, np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


class _WorkerEnv:
    """One run's worker-side state: shared views + compiled functions."""

    __slots__ = ("shms", "active", "run_block")

    def close(self) -> None:
        for shm in self.shms:
            try:
                shm.close()
            except Exception:
                pass


def _apply_setup(wid: int, setup_bytes: bytes) -> _WorkerEnv:
    """Attach one setup message's shared blocks and build the run env.

    Used both for the initial (fork-time) setup and for *re-arming* a
    live pool with a new run's state (see :meth:`ProcessScheduler.setup`).
    """
    from repro.image import Image

    env = _WorkerEnv()
    env.shms = shms = []
    setup = pickle.loads(setup_bytes)
    state = []
    for spec in setup["state"]:
        shm, view = _attach(spec)
        shms.append(shm)
        state.append(view)
    shm, status = _attach(setup["status"])
    shms.append(shm)
    shm, env.active = _attach(setup["active"])
    shms.append(shm)
    images = {}
    for name, (spec, dim, tshape, orient) in setup["images"].items():
        shm, data = _attach(spec)
        shms.append(shm)
        # same dtype + contiguous ⇒ Image keeps the shared view, no copy
        images[name] = Image(data, dim=dim, tensor_shape=tshape,
                             orientation=orient, dtype=data.dtype)
    ns: dict = {}
    exec(compile(setup["source"], "<diderot-generated>", "exec"), ns)
    g = setup["globals"]
    # the block kernel, bound to the shared views: the NumPy one unless
    # the run is native — then rebuilt from the artifact cache (warmed by
    # the master's build); a failure degrades this worker to NumPy
    env.run_block = NumpyKernel(ns["update"], Ctx(images, setup["dtype"]),
                                g, state, status).run_block
    if setup.get("native") is not None:
        from repro.errors import CodegenError
        from repro.runtime.native import NativeUpdate, warn_numpy_fallback

        try:
            from repro.core.codegen import cbuild

            lib, ffi = cbuild.build(setup["native"]["c_source"],
                                    flags=setup["native"].get("flags"))
            env.run_block = NativeUpdate(lib, ffi, setup["native"]["plan"],
                                         images, g, state, status).run_range
        except CodegenError as exc:
            warn_numpy_fallback(exc, who=f"process worker {wid}: ")
    return env


def _worker_main(wid: int, setup_bytes: bytes, task_q, result_q,
                 barrier=None) -> None:
    """Worker process: one-time setup, then the per-step task loop.

    Besides block-range tasks and the ``None`` shutdown sentinel, the
    task queue can carry ``("setup", setup_bytes)`` messages that re-arm
    the worker with a new run's shared state.  The queue is shared, so
    ``barrier`` (parties = workers + master) guarantees every worker
    consumed exactly one setup message before the master enqueues
    anything else.

    The worker records into an ``Obs`` of its own (the forked copy of the
    master's would double-count): op metrics accumulate there and each
    block's ``done`` ack ships the drained delta back for the master to
    merge at the super-step barrier.
    """
    with Obs(f"worker-{wid}", parent=None) as obs:
        try:
            env = _apply_setup(wid, setup_bytes)
            result_q.put(("ready", wid))
        except BaseException:
            result_q.put(("fatal", wid, traceback.format_exc()))
            return
        while True:
            idle0 = clock()
            task = task_q.get()
            if task is None:
                break
            if task[0] == "setup":
                old, env = env, None
                try:
                    env = _apply_setup(wid, task[1])
                    result_q.put(("ready", wid))
                except BaseException:
                    result_q.put(("fatal", wid, traceback.format_exc()))
                finally:
                    # reach the barrier even on failure, or the master (and
                    # the sibling workers) would hang in wait()
                    if barrier is not None:
                        try:
                            barrier.wait(timeout=60)
                        except Exception:
                            pass
                old.close()
                if env is None:
                    return
                continue
            step, bindex, start, end = task
            t0 = clock()
            wait = t0 - idle0
            try:
                # state/status writes land in place through the shared views
                counts, _ = env.run_block(env.active[start:end], max_steps=1)
            except BaseException:
                result_q.put(("error", wid, bindex, traceback.format_exc()))
                continue
            result_q.put(("done", wid, bindex, t0, clock() - t0,
                          counts[0].tolist(), wait, obs.drain()))
        env.close()


class ProcessScheduler:
    """Persistent process pool with shared-memory strand state.

    Unlike the in-process schedulers (which are handed opaque per-block
    closures), this scheduler owns the strand state: ``setup()`` moves
    the state/status arrays and image payloads into shared memory, forks
    the pool, and returns shared views that **replace** the master's
    arrays; each ``run_step()`` then only ships ``(start, end)`` block
    ranges — workers write results in place through their own views.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.last_block_workers: list[int] = []
        self._arrays: list[_SharedArray] = []
        #: image payload blocks persist across re-arms: a pooled scheduler
        #: serving many runs of one program re-uses the blocks (refreshing
        #: the samples in place) instead of re-allocating shared memory
        self._image_arrays: dict[str, _SharedArray] = {}
        self._procs: list = []
        self._task_q = None
        self._result_q = None
        self._barrier = None
        self._active = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def setup(self, source: str, images: dict, dtype, global_values,
              state: list[np.ndarray], status: np.ndarray, native=None):
        """Move state into shared memory and fork the pool.

        ``native`` — optional ``{"c_source": ..., "plan": ..., "flags": ...}``
        dict from the master's :mod:`~repro.core.codegen.cgen` build; workers
        rebuild the kernel from the warm artifact cache (same flag set, so
        the same cache key) and run blocks natively, falling back per-worker
        to NumPy if their build fails.

        Returns ``(state_views, status_view)`` — the shared arrays the
        master must use for the rest of the run (stabilize scatters and
        output extraction read worker writes through them).

        Calling ``setup()`` again on a live pool **re-arms** it: the new
        run's state moves into fresh shared blocks and the existing
        worker processes swap over to them (a ``("setup", ...)`` message
        per worker, with a barrier so each consumes exactly one), so a
        pooled scheduler serves many runs without re-forking.
        """
        if self._closed:
            raise RuntimeErrorD("process pool is closed")
        ctx = _context()
        old_arrays = self._arrays
        state_sa = [_SharedArray(s) for s in state]
        status_sa = _SharedArray(status)
        active_sa = _SharedArray(np.arange(status.shape[0], dtype=np.int64))
        arrays = [*state_sa, status_sa, active_sa]

        image_specs = {}
        stale_images: list[_SharedArray] = []
        for name, img in images.items():
            sa = self._image_arrays.get(name)
            if (sa is not None and sa.view.shape == img.data.shape
                    and sa.view.dtype == img.data.dtype):
                # reuse the existing block, refreshing the payload in
                # place (dirty-region patches mutate the master's data)
                np.copyto(sa.view, img.data)
                current().inc("sched.shm.image_reuse")
            else:
                if sa is not None:
                    stale_images.append(sa)
                sa = self._image_arrays[name] = _SharedArray(img.data)
            image_specs[name] = (sa.spec(), img.dim, img.tensor_shape,
                                 img.orientation)
        for name in list(self._image_arrays):
            if name not in images:
                stale_images.append(self._image_arrays.pop(name))

        setup_bytes = pickle.dumps(
            {
                "source": source,
                "images": image_specs,
                "dtype": dtype,
                "globals": list(global_values),
                "state": [sa.spec() for sa in state_sa],
                "status": status_sa.spec(),
                "active": active_sa.spec(),
                "native": native,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._arrays = arrays
        self._active = active_sa.view
        if self._procs:
            self._rearm(setup_bytes, old_arrays + stale_images)
            return [sa.view for sa in state_sa], status_sa.view
        for sa in stale_images:  # pragma: no cover - no pool yet
            sa.destroy()
        self._task_q = ctx.SimpleQueue()
        self._result_q = ctx.Queue()
        self._barrier = ctx.Barrier(self.workers + 1)
        self._procs = [
            ctx.Process(target=_worker_main,
                        args=(i, setup_bytes, self._task_q, self._result_q,
                              self._barrier),
                        name=f"diderot-worker-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for p in self._procs:
            p.start()
        # setup barrier: every worker reports ready (or a setup failure)
        for _ in self._procs:
            msg = self._get_result()
            if msg[0] == "fatal":
                raise RuntimeErrorD(
                    f"process worker {msg[1]} failed during setup:\n{msg[2]}"
                )
        return [sa.view for sa in state_sa], status_sa.view

    def _rearm(self, setup_bytes: bytes, old_arrays) -> None:
        """Swap a live pool's workers over to a new run's shared state.

        One setup message per worker; the barrier (workers + master)
        guarantees each worker consumed exactly one before this returns,
        so subsequent task messages can never be mistaken for a setup.
        Old shared blocks are destroyed only after every worker has
        detached from them.
        """
        for _ in self._procs:
            self._task_q.put(("setup", setup_bytes))
        fatal = None
        for _ in self._procs:
            msg = self._get_result()
            if msg[0] == "fatal":
                fatal = msg
        try:
            self._barrier.wait(timeout=60)
        except Exception as exc:  # BrokenBarrierError
            if fatal is None:
                raise RuntimeErrorD(
                    f"process pool re-arm barrier failed: {exc!r}"
                ) from exc
        for sa in old_arrays:
            sa.destroy()
        if fatal is not None:
            raise RuntimeErrorD(
                f"process worker {fatal[1]} failed during re-arm:\n{fatal[2]}"
            )

    def close(self) -> None:
        """Retire the pool and release every shared block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._task_q is not None:
            for _ in self._procs:
                try:
                    self._task_q.put(None)
                except (OSError, ValueError):
                    break
        for p in self._procs:
            p.join(timeout=2.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for q in (self._task_q, self._result_q):
            if q is not None:
                try:
                    q.close()
                except Exception:
                    pass
        for sa in self._arrays:
            sa.destroy()
        for sa in self._image_arrays.values():
            sa.destroy()
        self._arrays = []
        self._image_arrays = {}
        self._procs = []

    # -- execution ---------------------------------------------------------

    def _get_result(self):
        while True:
            try:
                return self._result_q.get(timeout=_POLL_INTERVAL)
            except _queue.Empty:
                dead = [p.name for p in self._procs if not p.is_alive()]
                if dead:
                    raise RuntimeErrorD(
                        f"process workers died unexpectedly: {dead}"
                    ) from None

    def run_step(self, active_idx: np.ndarray, block_size: int,
                 obs=None, step: int = 0):
        """Execute one super-step over ``active_idx``.

        Returns ``(per_block_tallies, per_block_times)`` — a tally is
        the worker kernel's one-step ``(counts, seconds)`` pair, as the
        in-process schedulers return from their ``run_block`` — and
        state/status mutations happen in place in the shared arrays.
        ``obs`` (default: the current one) receives the worker-drained
        metric deltas (merged here, at the barrier) plus per-block
        queue-wait observations.
        """
        obs = obs or current()
        n_active = int(active_idx.size)
        self._active[:n_active] = active_idx
        ranges = [
            (start, min(start + block_size, n_active))
            for start in range(0, n_active, block_size)
        ]
        for i, (start, end) in enumerate(ranges):
            self._task_q.put((step, i, start, end))
        tallies = [None] * len(ranges)
        block_workers = [-1] * len(ranges)
        errors = []
        for _ in ranges:  # the barrier: one ack per block
            msg = self._get_result()
            kind = msg[0]
            if kind == "done":
                _, wid, bindex, t0, dt, counts, wait, delta = msg
                tallies[bindex] = (np.array([counts], dtype=np.int64),
                                   np.array([dt]))
                block_workers[bindex] = wid
                obs.merge(delta)
                obs.observe("sched.queue_wait_seconds", wait)
                block_span(obs, step, bindex, t0, dt, wid, counts[0])
            elif kind == "error":
                errors.append((msg[2], msg[3]))
            else:  # pragma: no cover - fatal after setup barrier
                raise RuntimeErrorD(
                    f"process worker {msg[1]} failed:\n{msg[2]}"
                )
        self.last_block_workers = block_workers
        if errors:
            bindex, tb = errors[0]
            raise RuntimeErrorD(
                f"strand update failed in block {bindex} "
                f"(process scheduler):\n{tb}"
            )
        return tallies, [float(sec[0]) for _, sec in tallies]
