"""The run plan: every decision a run makes, with its reason.

:func:`resolve` is the only place a run decides *how* it executes; the rest
of the runtime reads the frozen :class:`RunPlan`, and :meth:`RunPlan.emit`
is the only place those decisions reach :mod:`repro.obs` (DESIGN.md
"Parallel backends" lists every value a field can take).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import InputError
from repro.runtime.choices import (
    BACKEND_NAMES,
    SCHEDULER_CHOICES,
    default_scheduler,
)
from repro.runtime.scheduler import SequentialScheduler, resolve_workers

#: the process pool forks its workers (``runtime.mpsched``)
CAN_FORK = hasattr(os, "fork")


@dataclass(frozen=True)
class RunPlan:
    #: ``seq`` | ``thread`` | ``process``, and how it came about: ``default``
    #: (from the worker count) | ``requested`` | ``instance`` | ``auto``
    scheduler: str
    scheduler_why: str
    #: the caller's scheduler instance — used, never closed — or ``None``:
    #: the run creates its own and closes it
    borrowed: object
    workers: int
    block_size: int
    max_steps: int | None
    #: what runs the strand updates, and ``(stage, reason)`` when ``"c"``
    #: degraded to NumPy: ``build`` (no artifact) or ``bind`` (bad arrays)
    backend: str
    fallback: tuple[str, str] | None
    #: ``kernel`` — blocks run to completion inside ``dd_run`` — or
    #: ``per_step.<who must see every step boundary>``
    driving: str
    #: ``inline.<backend>`` — the strand updates record their own
    #: footprints — or ``shadow.<why they cannot>``: a sequential shadow run
    #: will; ``None`` when the run keeps no footprints
    footprint: str | None
    #: dirty strands over a restored checkpoint, not a cold run
    update: bool

    @property
    def records(self) -> bool:
        """True when this run's own strand updates record footprints."""
        return (self.footprint or "").startswith("inline")

    def emit(self, obs) -> None:
        """Report the decisions as counters and events."""
        counts = {f"runtime.loop.{self.driving}": 1}
        if self.fallback is not None:
            counts[f"runtime.backend.fallback.{self.fallback[0]}"] = 1
        if self.footprint is not None:
            counts[f"runtime.footprint.{self.footprint}"] = 1
            obs.event("footprint-recording", "incremental",
                      how=self.footprint)
        obs.inc_many(counts)
        obs.gauge("run.workers", self.workers)
        obs.gauge("run.block_size", self.block_size)
        obs.event("superstep-loop", "run", how=self.driving,
                  scheduler=f"{self.scheduler_why}→{self.scheduler}")


def resolve(program, *, scheduler, workers, backend, block_size, max_steps,
            total, on_step, detail, recording, update,
            bind_error=None) -> RunPlan:
    """Decide how ``program`` runs ``total`` strands.  ``scheduler`` is a
    name from ``SCHEDULER_CHOICES``, ``None`` or a scheduler instance;
    ``detail`` says the run's ``Obs`` records per-step spans, ``recording``
    that the run wants footprints; ``bind_error`` is why the native kernel
    refused this run's arrays (the caller resolves again when binding
    fails).  A bad scheduler, worker count or backend, or the process
    pool with the C backend or without ``fork``, raises
    :class:`~repro.errors.InputError`."""
    borrowed, why = None, "requested"
    if scheduler is not None and not isinstance(scheduler, str):
        if not hasattr(scheduler, "run_step"):
            raise InputError(
                f"scheduler must be a name from {SCHEDULER_CHOICES} or an "
                f"object with run_step(); got {type(scheduler).__name__}"
            )
        # the serving layer pools warm schedulers and owns their lifecycle
        borrowed, why = scheduler, "instance"
        if hasattr(borrowed, "setup"):  # a (reusable) process pool
            scheduler = "process"
        elif isinstance(borrowed, SequentialScheduler):
            scheduler = "seq"
        else:
            scheduler = "thread"
        workers = getattr(borrowed, "workers", workers)
    workers = resolve_workers(workers)
    if scheduler is None:
        scheduler, why = default_scheduler(workers), "default"
    if scheduler not in SCHEDULER_CHOICES:
        raise InputError(
            f"unknown scheduler {scheduler!r}; choose from {SCHEDULER_CHOICES}"
        )
    backend = backend or "numpy"
    if backend not in BACKEND_NAMES:
        raise InputError(
            f"unknown backend {backend!r}; choose from {BACKEND_NAMES}"
        )
    if scheduler == "process" and not CAN_FORK:
        # the pool's workers inherit the run by fork; there is no other way
        raise InputError(
            "scheduler 'process' needs fork(), which this platform lacks; "
            "run scheduler 'seq' or 'thread'"
        )
    if scheduler == "process" and backend == "c":
        # decided on the request, before any build: the answer must not
        # depend on whether a compiler is installed (DESIGN.md
        # "Configuration matrix": it lost to seq and to threads)
        raise InputError(
            "scheduler 'process' runs the NumPy backend only; run backend "
            "'c' on scheduler 'seq' or 'thread'"
        )
    fallback = None
    if backend == "c":
        if program._native_artifacts() is None:  # warned there, once
            fallback = ("build", program._native_error)
        elif bind_error is not None:
            fallback = ("bind", bind_error)
        if fallback is not None:
            backend = "numpy"
    if scheduler == "auto":
        # sequential when parallel overhead buys nothing: one worker, one
        # CPU, or a program that fits in one strand block.  Otherwise
        # threads for the C backend (the ctypes call releases the GIL, so
        # threads scale and share state for free) and processes for NumPy
        # (which is GIL-bound on threads) where the pool can fork.
        why = "auto"
        if workers == 1 or (os.cpu_count() or 1) == 1 or total <= block_size:
            scheduler = "seq"
        else:
            scheduler = ("thread" if backend == "c" or not CAN_FORK
                         else "process")

    if backend != "c":
        driving = "per_step.numpy"
    elif program.namespace.get("stabilize") is not None:
        driving = "per_step.stabilize"
    elif on_step is not None:
        driving = "per_step.on_step"
    elif detail:  # an Obs(detail=True) wants a span per super-step
        driving = "per_step.tracer"
    else:  # nothing has to see a super-step boundary
        driving = "kernel"

    footprint = None
    if recording and scheduler == "process":  # updates run out of process
        footprint = "shadow.process"
    elif recording:
        footprint = f"inline.{backend}"
    return RunPlan(scheduler, why, borrowed, workers, block_size, max_steps,
                   backend, fallback, driving, footprint, update)
