"""Simulated multicore scheduling (the DESIGN.md hardware substitution).

The paper's parallel results (Table 2's 1P/2P/8P columns, Figure 12) were
measured on an 8-core Xeon; this reproduction runs in a 1-core container.
We therefore *measure* the real cost of every strand block in a sequential
run (``Program.run(..., obs=Obs(detail=True))`` — the run books one
``cat="block"`` span per block per step, timed by the block kernel) and
replay the per-super-step block trace through a discrete simulation of
the paper's scheduler: N workers pulling
blocks from a central work-list whose lock costs ``lock_overhead`` seconds
per acquisition, with a barrier at the end of each super-step.

Every entry point accepts either a :class:`repro.obs.Obs` (the block
spans are extracted via ``Obs.block_step_times()``) or a raw
``list[list[float]]`` of per-step block durations.

The simulation can only redistribute measured work, never shrink it, so
speedups are bounded by the real block-level parallelism — which is
exactly the quantity Figure 12 plots (e.g. vr-lite tails off at 8 threads
because it has too few blocks; small blocks hurt because of lock traffic —
both §6.4 observations).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

#: Default cost of one work-list lock acquisition (seconds).  Measured
#: uncontended pthread mutex costs are tens of nanoseconds; we default to
#: a conservative 2 µs which also stands in for cache traffic on the list.
DEFAULT_LOCK_OVERHEAD = 2e-6


@dataclass
class SimResult:
    """Simulated execution times for one block trace."""

    total_time: float
    per_step: list[float]
    workers: int


def as_block_trace(trace) -> list[list[float]]:
    """Normalize a trace argument: an Obs, or per-step duration lists."""
    method = getattr(trace, "block_step_times", None)
    return method() if callable(method) else trace


def simulate_step(block_times: list[float], workers: int, lock_overhead: float) -> float:
    """Makespan of one super-step under greedy work-list scheduling.

    Workers repeatedly grab the next block off the shared list (paying the
    lock each grab, serialized through the lock) and execute it; the step
    ends when the slowest worker finishes (the barrier).
    """
    if not block_times:
        return 0.0
    heap = [0.0] * max(1, workers)  # worker available-times
    heapq.heapify(heap)
    lock_free_at = 0.0  # the work-list lock is itself serial
    for bt in block_times:
        worker_free = heapq.heappop(heap)
        grab_start = max(worker_free, lock_free_at)
        lock_free_at = grab_start + lock_overhead
        heapq.heappush(heap, lock_free_at + bt)
    return max(heap)


def simulate_run(
    block_trace,
    workers: int,
    lock_overhead: float = DEFAULT_LOCK_OVERHEAD,
) -> SimResult:
    """Simulate a whole run (a barrier separates the super-steps)."""
    trace = as_block_trace(block_trace)
    per_step = [simulate_step(step, workers, lock_overhead) for step in trace]
    return SimResult(sum(per_step), per_step, workers)


def speedup_curve(
    block_trace,
    worker_counts: list[int],
    lock_overhead: float = DEFAULT_LOCK_OVERHEAD,
) -> dict[int, float]:
    """Speedup vs the 1-worker simulation, for Figure 12.

    The baseline is the 1-worker *simulated* time (identical to the summed
    block costs plus lock overhead), matching the paper's use of the
    sequential time as the reference.
    """
    trace = as_block_trace(block_trace)
    base = simulate_run(trace, 1, lock_overhead).total_time
    return {
        w: base / simulate_run(trace, w, lock_overhead).total_time
        for w in worker_counts
    }
