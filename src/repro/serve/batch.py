"""Request coalescing: many concurrent probe requests → one strand batch.

Diderot's runtime amortizes per-run overhead over strand *blocks*; the
front door amortizes it over *requests* the same way.  Each registered
program gets one :class:`ProbeBatcher`: concurrent ``submit()`` calls
park their points on a bounded queue, and a single drain task takes the
first request and every request already queued behind it (up to
``max_batch`` rows), concatenates the points into one strand population,
runs it once on the entry's pooled scheduler, and splits the output rows
back to the waiting futures.

Nothing waits on a timer: like the paper's runtime handing a free worker
its next block (§5.5), a batch runs the moment the batcher is free.
Requests that arrive while a batch runs queue up and form the next
batch, so coalescing grows with offered load and an idle server answers
a lone request at once.

Because strand updates are independent (each strand reads only its own
probe position), the coalesced run's per-row results are bit-identical
to running each request alone — the batcher changes latency and
throughput, never values.

Backpressure: the queue is bounded (``max_queue`` waiting requests);
when it is full, ``submit`` raises :class:`Overloaded` immediately (the
HTTP layer maps this to 429) instead of buffering without limit.

Metrics: ``serve.batch.requests`` / ``serve.batch.batches`` /
``serve.batch.coalesced`` (requests that shared a run with others),
``serve.batch.size`` histogram, ``serve.shed`` for rejected requests.
"""

from __future__ import annotations

import asyncio
import contextvars

import numpy as np

from repro.obs import Obs, current
from repro.obs.metrics import SIZE_BUCKETS

__all__ = ["Overloaded", "ProbeBatcher"]


class Overloaded(Exception):
    """The batch queue is full; shed this request (HTTP 429)."""


class ProbeBatcher:
    """Coalesces concurrent probe submissions for one registry entry."""

    def __init__(self, entry, *, max_batch: int = 65536, max_queue: int = 64):
        self.entry = entry
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_queue)
        self._task: asyncio.Task | None = None
        self._closed = False

    # -- client side -------------------------------------------------------

    async def submit(self, points: np.ndarray) -> dict:
        """Queue one request's points; resolves to ``{output: rows}``."""
        if self._closed:
            raise Overloaded(f"batcher for {self.entry.name!r} is closed")
        if self._task is None or self._task.done():
            # created in an empty context (a task copies the one it is
            # created in): the drain task outlives the request that happens
            # to start it, and must not record into that request's Obs
            self._task = contextvars.Context().run(
                asyncio.get_running_loop().create_task, self._drain())
        fut = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((points, fut))
        except asyncio.QueueFull:
            current().inc("serve.shed")
            raise Overloaded(
                f"{self.entry.name!r}: {self.max_queue} requests already "
                "queued"
            ) from None
        current().inc("serve.batch.requests")
        return await fut

    async def close(self) -> None:
        """Stop the drain task; pending requests fail with Overloaded."""
        self._closed = True
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        while not self._queue.empty():
            _, fut = self._queue.get_nowait()
            if not fut.done():
                fut.set_exception(Overloaded("server shutting down"))

    # -- drain loop --------------------------------------------------------

    async def _drain(self) -> None:
        while not self._closed:
            batch = [await self._queue.get()]
            rows = batch[0][0].shape[0]
            # whatever queued while the previous batch ran joins this one
            while rows < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
                rows += batch[-1][0].shape[0]
            await self._run_batch(batch)

    async def _run_batch(self, batch: list) -> None:
        # one Obs per coalesced batch; to_thread carries it to the run
        with Obs("batch") as obs, \
                obs.span("batch", "serve", requests=len(batch)):
            obs.inc("serve.batch.batches")
            obs.observe("serve.batch.size", len(batch), bounds=SIZE_BUCKETS)
            if len(batch) > 1:
                obs.inc("serve.batch.coalesced", len(batch))
            try:
                # inside the try: a batch that cannot even be assembled
                # still answers every request in it
                points = np.concatenate([p for p, _ in batch], axis=0)
                outputs = await asyncio.to_thread(self.entry.run_batch,
                                                  points)
            except BaseException as exc:
                for _, fut in batch:
                    if not fut.done():
                        fut.set_exception(exc)
                return
        off = 0
        for p, fut in batch:
            n = p.shape[0]
            if not fut.done():
                fut.set_result({k: v[off:off + n] for k, v in outputs.items()})
            off += n
