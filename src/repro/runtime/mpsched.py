"""True multicore execution: a forked process pool over shared strand state.

CPython's GIL serializes the bytecode between NumPy calls, so the
thread-pool scheduler (:mod:`repro.runtime.scheduler`) cannot reach the
paper's near-linear scaling on real hardware.  This module reproduces the
paper's parallel runtime (§5.5) with *processes* instead:

* **The fork carries the run** — ``setup()`` copies the strand state, the
  status array and an active-strand index buffer into anonymous shared
  mappings (``mmap.mmap(-1, n)``, ``MAP_SHARED``), binds one block kernel
  (:class:`repro.runtime.kernel.NumpyKernel`) to them over the run's own
  context, globals and generated ``update``, and forks the workers with
  that kernel as their argument.  A worker inherits everything it needs;
  images are shared copy-on-write, and worker writes land in the master's
  arrays without any result pickling.
* **One fork per run** — the workers live until the next ``setup()`` or
  ``close()`` kills them (paper §5.5 forks at start-up, not per step), so
  a borrowed pool serves many runs, one fork each, and no worker outlives
  the run it was forked for.
* **Work-list + barrier** — each super-step the master writes the active
  strand indices into the shared index buffer and enqueues
  ``(block, start, end)`` ranges on one task queue; workers pull ranges
  until the list is empty and answer each on a pipe of their own.  The
  master collecting one answer per block is the paper's end-of-super-step
  barrier; it waits on the pipes and the workers' sentinels together, so
  a worker that dies fails the run at once.

Strand blocks index disjoint strand sets, so concurrent in-place writes
never overlap and the results are bit-identical to the sequential
schedule (asserted by ``tests/test_schedulers.py``).
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import traceback
from itertools import islice
from multiprocessing.connection import wait

import numpy as np

from repro.errors import RuntimeErrorD
from repro.obs import Obs, clock, current
from repro.runtime.kernel import NumpyKernel


def _shared(arr) -> np.ndarray:
    """A copy of ``arr`` in an anonymous shared mapping, which workers
    forked afterwards write through; the mapping lives as long as any
    array viewing it."""
    arr = np.asarray(arr)
    view = np.ndarray(arr.shape, arr.dtype,
                      buffer=mmap.mmap(-1, max(1, arr.nbytes)))
    view[...] = arr
    return view


def _worker_main(wid: int, kernel: NumpyKernel, active: np.ndarray, tasks,
                 answers) -> None:
    """Worker process: run the blocks it pulls off ``tasks`` until killed.

    The worker records into an ``Obs`` of its own (the forked copy of the
    master's would double-count): op metrics accumulate there and each
    block's ``done`` answer ships the drained delta back for the master
    to merge at the super-step barrier.
    """
    with Obs(f"worker-{wid}", parent=None) as obs:
        while True:
            idle0 = clock()
            bindex, start, end = tasks.get()
            t0 = clock()
            try:
                # state/status writes land in place through the shared views
                counts, seconds = kernel.run_block(active[start:end])
            except BaseException:
                # whatever the generated update raised: the master
                # re-raises it with this traceback
                answers.send(("error", bindex, traceback.format_exc()))
                continue
            answers.send(("done", bindex, t0, counts.tolist(),
                          seconds.tolist(), t0 - idle0, obs.drain()))


class ProcessScheduler:
    """Process pool over shared strand state, forked once per run.

    Unlike the in-process schedulers (which are handed opaque per-block
    closures), this scheduler owns the strand state: ``setup()`` copies
    the state/status arrays into shared mappings, forks the pool, and
    returns the shared arrays that **replace** the master's; each
    ``run_step()`` then only ships ``(start, end)`` block ranges —
    workers write results in place.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self._procs: list = []
        self._answers: list = []
        self._tasks = None
        self._active = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def setup(self, update, ctx, global_values, state: list[np.ndarray],
              status: np.ndarray):
        """Share the run's state and fork the pool.

        Workers run the generated NumPy module's ``update``: the pool is
        the NumPy backend's multi-core path (DESIGN.md "Configuration
        matrix").

        Returns ``(state, status)`` — the shared arrays the master must
        use for the rest of the run (stabilize scatters and output
        extraction read worker writes through them).

        Calling ``setup()`` again on a pool that already ran first
        retires that run's workers, then forks fresh ones: a borrowed pool
        serves many runs, one fork each.
        """
        if self._closed:
            raise RuntimeErrorD("process pool is closed")
        self._retire()
        state = [_shared(s) for s in state]
        status = _shared(status)
        self._active = _shared(np.arange(status.shape[0], dtype=np.int64))
        kernel = NumpyKernel(update, ctx, global_values, state, status)
        fork = mp.get_context("fork")
        self._tasks = fork.SimpleQueue()
        for wid in range(self.workers):
            answers, reply = fork.Pipe(duplex=False)
            self._answers.append(answers)
            proc = fork.Process(
                target=_worker_main, name=f"diderot-worker-{wid}",
                args=(wid, kernel, self._active, self._tasks, reply),
                daemon=True)
            with reply:  # the worker's end: a dead worker reads as EOF
                try:
                    proc.start()
                except OSError as exc:
                    raise RuntimeErrorD(
                        f"cannot fork process worker {wid}: {exc}") from exc
            self._procs.append(proc)
        return state, status

    def _retire(self) -> None:
        """Kill the last run's workers and reap them."""
        for p in self._procs:
            p.kill()
        for p in self._procs:
            p.join()
            p.close()
        for conn in self._answers:
            conn.close()
        if self._tasks is not None:
            self._tasks.close()
        self._procs, self._answers = [], []
        self._tasks = self._active = None

    def close(self) -> None:
        """Retire the pool (idempotent)."""
        if not self._closed:
            self._closed = True
            self._retire()

    # -- execution ---------------------------------------------------------

    def _collect(self, n: int):
        """Yield the next ``n`` answers as ``(worker, message)``; a worker
        that has died raises at once."""
        died = RuntimeErrorD("process workers died unexpectedly")
        wid_of = {conn: wid for wid, conn in enumerate(self._answers)}
        watched = [*self._answers, *(p.sentinel for p in self._procs)]
        while n:
            for ready in wait(watched):
                if ready not in wid_of:  # a worker's sentinel: it exited
                    raise died
                try:
                    msg = ready.recv()
                except EOFError:  # its pipe closed: the worker is gone
                    raise died from None
                n -= 1
                yield wid_of[ready], msg

    def run_step(self, active_idx: np.ndarray, block_size: int, obs=None):
        """Execute one super-step over ``active_idx``.

        Returns, per block, ``(worker, start, tally)`` — a tally is the
        worker kernel's one-step ``(counts, seconds)`` pair, as the
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
        tasks = ((i, start, end) for i, (start, end) in enumerate(ranges))
        # two blocks per worker in flight, one more per answer: the task
        # pipe never fills, so the master never blocks in put() on workers
        # that are dead and always reaches the wait that notices them
        for task in islice(tasks, 2 * self.workers):
            self._tasks.put(task)
        results = [None] * len(ranges)
        errors = []
        for wid, msg in self._collect(len(ranges)):  # the barrier
            for task in islice(tasks, 1):
                self._tasks.put(task)
            if msg[0] == "error":
                errors.append(msg[1:])
                continue
            _, bindex, t0, counts, seconds, wait_s, delta = msg
            results[bindex] = (wid, t0, (np.array(counts, dtype=np.int64),
                                         np.array(seconds)))
            obs.merge(delta)
            obs.observe("sched.queue_wait_seconds", wait_s)
        if errors:
            bindex, tb = errors[0]
            raise RuntimeErrorD(
                f"strand update failed in block {bindex} "
                f"(process scheduler):\n{tb}"
            )
        return results
