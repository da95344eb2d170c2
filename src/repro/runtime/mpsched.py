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
* **One fork per run** — ``setup()`` forks the workers once per run, not
  per super-step (paper §5.5 forks at start-up); a pool that already ran
  retires that run's workers and shared blocks first, so no worker
  outlives the run it was forked for.  Each worker receives a setup
  message carrying the generated module source, the image metadata +
  shared-memory names, the resolved global values, and the
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


def _apply_setup(setup_bytes: bytes) -> _WorkerEnv:
    """Attach the setup message's shared blocks and build the run env."""
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
    # the block kernel, bound to the shared views
    env.run_block = NumpyKernel(ns["update"], Ctx(images, setup["dtype"]),
                                setup["globals"], state, status).run_block
    return env


def _worker_main(wid: int, setup_bytes: bytes, task_q, result_q) -> None:
    """Worker process: one-time setup, then the per-step task loop until
    the ``None`` shutdown sentinel.

    The worker records into an ``Obs`` of its own (the forked copy of the
    master's would double-count): op metrics accumulate there and each
    block's ``done`` ack ships the drained delta back for the master to
    merge at the super-step barrier.
    """
    with Obs(f"worker-{wid}", parent=None) as obs:
        try:
            env = _apply_setup(setup_bytes)
            result_q.put(("ready", wid))
        except BaseException:
            result_q.put(("fatal", wid, traceback.format_exc()))
            return
        while True:
            idle0 = clock()
            task = task_q.get()
            if task is None:
                break
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
    """Process pool with shared-memory strand state, forked once per run.

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
        self._procs: list = []
        self._task_q = None
        self._result_q = None
        self._active = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def setup(self, source: str, images: dict, dtype, global_values,
              state: list[np.ndarray], status: np.ndarray):
        """Move state into shared memory and fork the pool.

        Workers run the generated NumPy module: the pool is the NumPy
        backend's multi-core path (DESIGN.md "Configuration matrix").

        Returns ``(state_views, status_view)`` — the shared arrays the
        master must use for the rest of the run (stabilize scatters and
        output extraction read worker writes through them).

        Calling ``setup()`` again on a pool that already ran first
        retires that run's workers and shared blocks, then forks fresh
        workers: a borrowed pool serves many runs, one fork each.
        """
        if self._closed:
            raise RuntimeErrorD("process pool is closed")
        self._retire()
        ctx = _context()

        def share(arr) -> _SharedArray:
            # registered as soon as it exists, so close() releases it
            # even if a later block or the fork fails
            self._arrays.append(_SharedArray(arr))
            return self._arrays[-1]

        state_sa = [share(s) for s in state]
        status_sa = share(status)
        active_sa = share(np.arange(status.shape[0], dtype=np.int64))
        image_specs = {
            name: (share(img.data).spec(), img.dim, img.tensor_shape,
                   img.orientation)
            for name, img in images.items()
        }
        setup_bytes = pickle.dumps(
            {
                "source": source,
                "images": image_specs,
                "dtype": dtype,
                "globals": list(global_values),
                "state": [sa.spec() for sa in state_sa],
                "status": status_sa.spec(),
                "active": active_sa.spec(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._active = active_sa.view
        self._task_q = ctx.SimpleQueue()
        self._result_q = ctx.Queue()
        self._procs = [
            ctx.Process(target=_worker_main,
                        args=(i, setup_bytes, self._task_q, self._result_q),
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

    def _retire(self) -> None:
        """Stop the workers and release the last run's shared blocks."""
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
        self._arrays = []
        self._procs = []
        self._task_q = self._result_q = self._active = None

    def close(self) -> None:
        """Retire the pool and release every shared block (idempotent)."""
        if not self._closed:
            self._closed = True
            self._retire()

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
