"""Bulk-synchronous strand scheduling (paper §5.5).

"Execution is divided into super steps; during a super-step each strand's
update method is evaluated once ... For the sequential target, the runtime
implements this model as a loop nest ... The parallel version creates a
collection of worker threads and manages a work-list of strands.  To keep
synchronization overhead low, the strands in the work-list are organized
into blocks of strands (currently 4096 strands per block).  During a
super-step, each worker grabs and updates strands until the work-list is
empty.  Barrier synchronization is used to coordinate the threads at the
end of a super step."

The in-process schedulers here execute one ``run_step`` when called: they
are handed the list of strand blocks and a function that runs one block,
and they return the per-block results plus per-block wall-clock times;
returning is the barrier.  The process-pool scheduler — true multicore
execution over shared-memory strand state — lives in
:mod:`repro.runtime.mpsched`; see DESIGN.md "Parallel backends" for when
each backend wins.

How much a block does per ``run_step`` is the run plan's decision
(:func:`repro.runtime.plan.resolve`, the ``driving`` field).  The block
kernel they are handed (:mod:`repro.runtime.kernel`) runs its block for
one super-step — the quoted model, a barrier after every step — whenever
something must see step boundaries: the NumPy backend, a process pool, a
``stabilize`` method, an ``on_step`` callback, an ``Obs(detail=True)``.
Otherwise, on the native backend, it runs the block until its last strand
has stabilized or died (:meth:`~repro.runtime.native.NativeUpdate.run_range`
with every remaining step), and the only barrier left is the one that
ends the run.  That is unobservable: strands neither communicate nor take
part in global reductions, so no strand's trajectory depends on which step
another has reached, and the kernel's per-step tallies let the run book
the same metrics either way (:func:`repro.runtime.loop.book_steps`).

``run_step(..., obs=)`` names the :class:`repro.obs.Obs` the step records
into (default: the current one).  With ``detail`` each block is
additionally recorded as a ``cat="block"`` span attributed to the worker
that ran it (the raw material for the simulated-multicore analysis in
:mod:`repro.runtime.simsched` and the per-worker utilization table);
``last_block_workers`` records which worker ran each block.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.errors import InputError
from repro.obs import clock, current

#: the paper's strand-block size ("currently 4096 strands per block", §5.5)
DEFAULT_BLOCK_SIZE = 4096

#: every value accepted by ``Program.run(scheduler=...)`` / ``--scheduler``
#: (the run plan resolves ``"auto"`` to one of the other three)
SCHEDULER_CHOICES = ("seq", "thread", "process", "auto")


def resolve_workers(workers) -> int:
    """Resolve a worker-count setting to a positive integer.

    ``"auto"`` resolves to the machine's CPU count; anything else must be
    an integer ≥ 1.  Zero and negative counts are rejected with a clean
    :class:`~repro.errors.InputError` rather than silently falling back
    to sequential execution.
    """
    if isinstance(workers, str):
        text = workers.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(text)
        except ValueError:
            raise InputError(
                f"--workers expects a positive integer or 'auto', got {workers!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise InputError(f"--workers must be >= 1, got {workers}")
    return workers


def make_blocks(active_idx: np.ndarray, block_size: int) -> list[np.ndarray]:
    """Split the active strand indices into work-list blocks."""
    if block_size <= 0:
        raise ValueError("block size must be positive")
    return [
        active_idx[i : i + block_size]
        for i in range(0, active_idx.size, block_size)
    ]


def block_span(obs, step: int, block: int, start: float, dur: float,
               worker: int, strands: int) -> None:
    """The per-block span every scheduler records — under ``detail`` only:
    there is one per block per super-step."""
    if obs.detail:
        obs.complete("block", "block", start, dur, tid=f"worker-{worker}",
                     step=step, block=block, strands=strands)


class SequentialScheduler:
    """The sequential loop nest: one block after another."""

    def __init__(self):
        self.last_block_workers: list[int] = []

    def run_step(self, blocks, run_block, obs=None, step=0):
        obs = obs or current()
        results = []
        times = []
        for i, block in enumerate(blocks):
            t0 = clock()
            results.append(run_block(block))
            dt = clock() - t0
            times.append(dt)
            block_span(obs, step, i, t0, dt, 0, int(len(block)))
        self.last_block_workers = [0] * len(blocks)
        return results, times

    def close(self) -> None:
        """Nothing to shut down; present for scheduler-interface symmetry."""


class ThreadScheduler:
    """Persistent worker threads pulling blocks from a shared work-list.

    This is a direct port of the paper's runtime structure: the workers
    are created **once** (the paper forks its thread pool at startup, not
    per super-step) and reused across super-steps.  Each ``run_step``
    publishes the step's block list under a condition variable and wakes
    the pool; workers grab blocks by advancing a shared cursor — an O(1)
    grab, keeping the critical section as cheap as the paper assumes
    (§5.5/§6.4) — and the caller waits on the same condition until the
    last block completes: the paper's end-of-super-step barrier.

    Call :meth:`close` (or rely on the daemon flag) to retire the pool.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.last_block_workers: list[int] = []
        self._cv = threading.Condition()
        # per-step work-list state, all guarded by the condition variable
        self._blocks: list = []
        self._run_block = None
        self._obs = None
        self._step = 0
        self._next = 0        # the work-list cursor (§6.4's lock)
        self._pending = 0     # blocks not yet completed this step
        self._results: list = []
        self._times: list = []
        self._block_workers: list = []
        self._errors: list = []
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker, args=(i,),
                             name=f"diderot-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    def _worker(self, wid: int) -> None:
        while True:
            idle0 = clock()
            with self._cv:
                while not self._closed and self._next >= len(self._blocks):
                    self._cv.wait()
                if self._closed:
                    return
                i = self._next
                self._next += 1
                blocks = self._blocks
                run_block = self._run_block
                obs = self._obs
                step = self._step
            # queue wait: how long this worker sat idle before it could
            # grab a block (scheduler-health telemetry)
            obs.observe("sched.queue_wait_seconds", clock() - idle0)
            try:
                # a pool thread's context is not the caller's: the run's
                # Obs arrives with the block
                with obs.activate():
                    t0 = clock()
                    out = run_block(blocks[i])
                    dt = clock() - t0
            except BaseException as exc:  # propagate after the barrier
                with self._cv:
                    self._errors.append(exc)
                    # cancel this step's unclaimed blocks so the barrier
                    # opens and run_step can raise
                    skipped = len(self._blocks) - self._next
                    self._next = len(self._blocks)
                    self._pending -= skipped + 1
                    if self._pending <= 0:
                        self._cv.notify_all()
                continue
            block_span(obs, step, i, t0, dt, wid, int(len(blocks[i])))
            with self._cv:
                self._results[i] = out
                self._times[i] = dt
                self._block_workers[i] = wid
                self._pending -= 1
                if self._pending <= 0:
                    self._cv.notify_all()

    def run_step(self, blocks, run_block, obs=None, step=0):
        n = len(blocks)
        with self._cv:
            if self._closed:
                raise RuntimeError("ThreadScheduler is closed")
            self._blocks = blocks
            self._run_block = run_block
            self._obs = obs or current()
            self._step = step
            self._results = [None] * n
            self._times = [0.0] * n
            self._block_workers = [-1] * n
            self._errors = []
            self._pending = n
            self._next = 0
            self._cv.notify_all()
            while self._pending > 0:  # barrier at the end of the super-step
                self._cv.wait()
            # quiesce the work-list so woken workers go back to waiting
            self._blocks = []
            self._next = 0
            self._run_block = None
            results = self._results
            times = self._times
            self.last_block_workers = list(self._block_workers)
            errors = list(self._errors)
        if errors:
            raise errors[0]
        return results, times

    def close(self) -> None:
        """Retire the worker pool (idempotent)."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout=2.0)
