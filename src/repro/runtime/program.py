"""The compiled-program object: inputs, images, execution, outputs.

Implements the execution model of paper §3.3/§5.5: strands are created by
the ``initially`` comprehension, then updated in bulk-synchronous
super-steps until every strand has stabilized or died.  Grid programs
(``initially [...]``) preserve the comprehension's grid structure in the
output; collection programs (``initially {...}``) output the stable
strands as a one-dimensional array.

The compiler "synthesizes glue code that allows command-line setting of
input variables" (§3.3.1) — see :meth:`Program.cli`.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.xform.to_high import HighProgram
from repro.errors import CodegenError, InputError, RuntimeErrorD
from repro.image import Image
from repro.nrrd import read_nrrd
from repro.obs import NULL_TRACER, tracer_from_env, write_chrome_trace
from repro.obs import metrics as _mx
from repro.runtime import incremental as _increc
from repro.runtime import ops as _ops
from repro.runtime.native import BACKEND_NAMES, NativeUpdate
from repro.runtime.scheduler import (
    SCHEDULER_CHOICES,
    SequentialScheduler,
    ThreadScheduler,
    make_blocks,
    resolve_auto,
    resolve_workers,
)

#: status codes returned by compiled update functions
RUNNING, STABILIZE, DIE = 0, 1, 2

#: the paper's strand-block size ("currently 4096 strands per block", §5.5)
DEFAULT_BLOCK_SIZE = 4096

#: ``max_steps=None`` as the native kernel's step budget
_UNBOUNDED_STEPS = 1 << 62


@dataclass
class RunResult:
    """Outputs and execution statistics for one program run."""

    outputs: dict[str, np.ndarray]
    steps: int
    num_strands: int
    num_stable: int
    num_died: int
    wall_time: float
    #: True when the program used a grid comprehension (outputs keep the
    #: grid's shape); False for collections
    grid: bool = True
    #: number of grid axes (comprehension iterators); 1 for collections
    grid_dims: int = 1
    #: the run's :class:`repro.obs.metrics.MetricsRegistry` (op counters,
    #: scheduler health, per-step series); a ``NullRegistry`` when the
    #: run was executed with ``metrics=False``
    metrics: object = None
    #: True when this result came from an incremental update run
    #: (:meth:`Program.run_update`) rather than a cold run
    incremental: bool = False
    #: strands re-executed by an update run (== num_strands on cold runs)
    dirty_strands: int = 0
    #: dirty_strands / num_strands for update runs, 1.0 for cold runs
    dirty_fraction: float = 1.0
    #: global strand indices re-executed by an update run, or None
    updated_indices: object = None

    def save(self, prefix: str) -> list[str]:
        """Write every output to ``<prefix>-<name>.nrrd`` (paper §5.5).

        Grid outputs keep their grid axes as spatial axes (up to NRRD's
        3-D spatial limit); collection outputs are 1-D lists of tensors.
        Returns the written paths.
        """
        from repro.image import Image as _Image
        from repro.nrrd import write_nrrd as _write

        dim = min(self.grid_dims, 3) if self.grid else 1
        paths = []
        for name, arr in self.outputs.items():
            img = _Image(arr, dim=dim, tensor_shape=tuple(arr.shape[dim:]))
            path = f"{prefix}-{name}.nrrd"
            _write(path, img, content=f"diderot output {name!r}")
            paths.append(path)
        return paths


class _Ctx:
    """The context object generated functions receive."""

    def __init__(self, images: dict[str, Image], dtype):
        self.images = images
        self.dtype = dtype


def _adopt_results(out: tuple, state: list, status: np.ndarray):
    """Adopt a full-block update's results as the new state/status arrays.

    The in-place fast path hands the state arrays to ``update`` directly
    and the returned arrays *become* the state — no gather/scatter
    copies.  Results may be unbatched (constant-folded: one value for all
    strands), non-writeable (broadcasts), or may alias each other or an
    input array (two results sharing one SSA value, or a pass-through
    state variable); each such array is materialized so every state
    variable keeps private writeable storage — later scatters (stabilize,
    partial blocks) write into these arrays in place.
    """
    *new_state, block_status = out
    # update returns one result per declared state variable, in state
    # order; hidden immutable extras (method-referenced strand params)
    # ride at the tail of ``state`` and keep their arrays
    kept = state[len(new_state):]
    adopted: list[np.ndarray] = list(kept)

    def materialize(arr, like):
        # match the scatter path exactly: ``like[idx] = arr`` would cast
        # to the state array's dtype and broadcast unbatched values
        arr = np.asarray(arr)
        if arr.dtype != like.dtype:
            arr = arr.astype(like.dtype)
        if arr.ndim == like.ndim - 1:  # unbatched: one value, every strand
            arr = np.broadcast_to(arr, like.shape)
        if not arr.flags.writeable or any(
            np.may_share_memory(arr, prev) for prev in adopted
        ):
            arr = np.array(arr)
        adopted.append(arr)
        return arr

    new_arrs = [materialize(new, s_old) for s_old, new in zip(state, new_state)]
    return new_arrs + kept, materialize(block_status, status)


# worker id → (".busy_seconds" key, ".blocks" key), interned once so the
# per-step hot path never builds label strings
_WORKER_KEYS: dict = {}


def _worker_keys(w) -> tuple[str, str]:
    keys = _WORKER_KEYS.get(w)
    if keys is None:
        label = w if isinstance(w, str) else f"worker-{w}"
        keys = (f"sched.worker.{label}.busy_seconds",
                f"sched.worker.{label}.blocks")
        _WORKER_KEYS[w] = keys
    return keys


def _record_step_metrics(reg, step, n_blocks, active, stable, died,
                         step_dt, times, block_workers, workers):
    """Record one super-step's scheduler-health telemetry.

    Per-worker busy seconds and block counts come from the scheduler's
    block attribution; the load-imbalance index is ``max(busy) /
    mean(busy over the configured worker count)`` — 1.0 when every
    worker did equal work, ``workers`` when one worker did everything.
    """
    deltas = {
        "sched.supersteps": 1,
        "strands.updated": active,
        "strands.stabilized": stable,
        "strands.died": died,
    }
    reg.observe("sched.step_seconds", step_dt)
    busy: dict = {}
    for w, dt in zip(block_workers, times):
        keys = _worker_keys(w)
        entry = busy.get(keys)
        if entry is None:
            busy[keys] = [dt, 1]
        else:
            entry[0] += dt
            entry[1] += 1
        reg.observe("sched.block_seconds", dt)
    for (busy_key, blocks_key), (b, nb) in busy.items():
        deltas[busy_key] = b
        deltas[blocks_key] = nb
    reg.inc_many(deltas)
    if workers > 1:
        total = sum(e[0] for e in busy.values())
        if total > 0:
            imbalance = max(e[0] for e in busy.values()) * workers / total
            reg.observe("sched.imbalance", imbalance,
                        bounds=_mx.IMBALANCE_BUCKETS)
    reg.row("steps", step=step, blocks=n_blocks, active=active,
            stable=stable, died=died, seconds=step_dt)


def _record_kernel_steps(reg, first_step, n_steps, tallies, block_workers,
                         workers):
    """Book a kernel-driven run: what :func:`_record_step_metrics` would
    have recorded had every super-step come back to Python.

    ``tallies`` holds one ``(counts, seconds)`` pair per block as
    returned by :meth:`NativeUpdate.run_range` — a row per step the
    block took part in, ``n_steps`` for the longest-lived.  Blocks all
    start at ``first_step``, so row ``i`` of every block belongs to step
    ``first_step + i``: counts add up across blocks, a step's ``blocks``
    is the number of blocks that still had a live strand, and its
    seconds are the kernel seconds its blocks spent (their sum: the wall
    time under the sequential scheduler, the busy time under threads).
    """
    counts = np.zeros((n_steps, 3), dtype=np.int64)
    n_blocks = np.zeros(n_steps, dtype=np.int64)
    # worker -> [per-step busy seconds, blocks run]
    busy: dict = {}
    for (c, sec), w in zip(tallies, block_workers):
        k = c.shape[0]
        counts[:k] += c
        n_blocks[:k] += 1
        entry = busy.get(w)
        if entry is None:
            entry = busy[w] = [np.zeros(n_steps), 0]
        entry[0][:k] += sec
        entry[1] += k
    per_worker = np.stack([b for b, _ in busy.values()])
    step_seconds = per_worker.sum(axis=0)
    active, stable, died = (int(x) for x in counts.sum(axis=0))
    deltas = {
        "sched.supersteps": n_steps,
        "strands.updated": active,
        "strands.stabilized": stable,
        "strands.died": died,
    }
    for w, (b, nb) in busy.items():
        busy_key, blocks_key = _worker_keys(w)
        deltas[busy_key] = float(b.sum())
        deltas[blocks_key] = nb
    reg.inc_many(deltas)
    reg.observe_many("sched.step_seconds", step_seconds)
    reg.observe_many("sched.block_seconds",
                     np.concatenate([sec for _, sec in tallies]))
    if workers > 1:
        worked = step_seconds > 0
        reg.observe_many(
            "sched.imbalance",
            per_worker.max(axis=0)[worked] * workers / step_seconds[worked],
            bounds=_mx.IMBALANCE_BUCKETS,
        )
    reg.rows("steps", [
        dict(step=first_step + i, blocks=nb, active=a, stable=st, died=d,
             seconds=dt)
        for i, (nb, (a, st, d), dt) in enumerate(
            zip(n_blocks.tolist(), counts.tolist(), step_seconds.tolist()))
    ])


class _IncState:
    """Everything the incremental-update machinery keeps between runs."""

    def __init__(self):
        self.snapshot: _increc.Snapshot | None = None
        self.recorder: _increc.FootprintRecorder | None = None
        #: strand ids whose checkpointed state is invalidated by pending
        #: ``update_input`` calls (consumed by the next ``run_update``)
        self.pending_ids = np.empty(0, dtype=np.int64)
        #: a pending change couldn't be localized: next update is a full run
        self.pending_full = False


class Program:
    """A compiled Diderot program, ready to accept inputs and run."""

    def __init__(self, high: HighProgram, namespace: dict, generated_source: str,
                 dtype, search_path: str, stats):
        self.high = high
        self.namespace = namespace
        self.generated_source = generated_source
        self.dtype = dtype
        self.search_path = search_path
        self.stats = stats
        self._inputs: dict[str, object] = {}
        self._bound_images: dict[str, Image] = {}
        self._ctx: _Ctx | None = None
        #: cached native-backend artifacts: None = not tried yet,
        #: "failed" = tried and unavailable, else (c_source, plan, lib, ffi)
        self._native_art = None
        self._native_error: str | None = None
        #: checkpoint + footprints for incremental re-execution, or None
        self._inc: _IncState | None = None

    # -- configuration ---------------------------------------------------------

    @property
    def input_names(self) -> list[str]:
        return list(self.high.input_names)

    @property
    def output_names(self) -> list[str]:
        return list(self.high.outputs)

    def set_input(self, name: str, value, _invalidate: bool = True) -> None:
        """Set an ``input`` global (overriding any default)."""
        if name not in self.high.input_names:
            raise InputError(
                f"{name!r} is not an input of this program; inputs are "
                f"{self.high.input_names}"
            )
        info = self.high.typed.globals[name]
        from repro.core.ty.types import BOOL, INT, TensorTy

        ty = info.ty
        if ty == INT:
            value = int(value)
        elif ty == BOOL:
            value = bool(value)
        elif isinstance(ty, TensorTy):
            value = np.asarray(value, dtype=self.dtype)
            if value.shape != ty.shape:
                raise InputError(
                    f"input {name!r} expects shape {ty.shape}, got {value.shape}"
                )
            if ty.shape == ():
                value = self.dtype(value)
        # inputs are re-resolved on every run; the context caches only
        # image data, so it survives input changes (the serving layer
        # re-points inputs per batch and must not re-read images)
        if _invalidate and self._inc is not None and name in self._inputs:
            if not np.array_equal(self._inputs[name], value):
                self._inc = None
        elif _invalidate and self._inc is not None:
            self._inc = None
        self._inputs[name] = value

    def bind_image(self, name: str, image: Image) -> None:
        """Bind an image global directly, bypassing its load(...) path."""
        if name not in self.high.images:
            raise InputError(
                f"{name!r} is not an image global; images are "
                f"{sorted(self.high.images)}"
            )
        slot = self.high.images[name]
        if image.dim != slot.dim or image.tensor_shape != tuple(slot.shape):
            raise InputError(
                f"image {name!r} expects image({slot.dim}){list(slot.shape)}, "
                f"got a {image.dim}-D image with tensor shape {image.tensor_shape}"
            )
        if self._inc is not None and self._bound_images.get(name) is not image:
            self._inc = None  # a rebind invalidates the checkpoint
        self._bound_images[name] = image
        if self._ctx is not None:
            # swap the one image in place instead of dropping the whole
            # context — other images keep their loaded/converted arrays
            self._ctx.images[name] = image.astype(self.dtype)

    # -- setup ------------------------------------------------------------------

    def _context(self) -> _Ctx:
        if self._ctx is not None:
            return self._ctx
        images: dict[str, Image] = {}
        for name, slot in self.high.images.items():
            if name in self._bound_images:
                img = self._bound_images[name]
            else:
                path = os.path.join(self.search_path, slot.path)
                if not os.path.exists(path):
                    raise InputError(
                        f"image global {name!r} loads {slot.path!r}, which "
                        f"does not exist under {self.search_path!r}; call "
                        "bind_image() or fix search_path"
                    )
                img = read_nrrd(path)
                if img.dim != slot.dim or img.tensor_shape != tuple(slot.shape):
                    raise InputError(
                        f"{slot.path!r} is a {img.dim}-D image with tensor "
                        f"shape {img.tensor_shape}; {name!r} is declared "
                        f"image({slot.dim}){list(slot.shape)}"
                    )
            images[name] = img.astype(self.dtype)
        self._ctx = _Ctx(images, self.dtype)
        return self._ctx

    def _resolve_inputs(self, ctx: _Ctx) -> dict[str, object]:
        values = dict(self._inputs)
        missing = [n for n in self.high.input_names if n not in values]
        if missing:
            defaults = self.namespace["defaults"](ctx)
            by_name = dict(zip(self.high.defaulted_inputs, defaults))
            still_missing = []
            for name in missing:
                if name in by_name:
                    values[name] = by_name[name]
                else:
                    still_missing.append(name)
            if still_missing:
                raise InputError(
                    f"inputs {still_missing} have no default and were not set"
                )
        return values

    def _globals_tuple(self, ctx: _Ctx) -> list:
        inputs = self._resolve_inputs(ctx)
        derived = self.namespace["globals"](
            ctx, *[inputs[n] for n in self.high.input_names]
        )
        derived_names = self.high.globals_func.result_names
        env = dict(inputs)
        env.update(zip(derived_names, derived))
        return [env[n] for n in self.high.concrete_globals]

    def _state_tensor_order(self, name: str) -> int:
        from repro.core.ty.types import TensorTy

        table = self.high.typed.state if name in self.high.typed.state else self.high.typed.params
        ty = table[name].ty
        return len(ty.shape) if isinstance(ty, TensorTy) else 0

    # -- native backend ----------------------------------------------------------

    def _native_artifacts(self):
        """``(c_source, plan, lib, ffi)`` for this program, or ``None``.

        The LowIR→C emission and the compile both happen once per
        Program (memoized, including failures); an unavailable native
        backend warns on stderr exactly once and the caller falls back
        to NumPy.  The failure reason is kept in ``self._native_error``.
        """
        art = self._native_art
        if art is not None:
            return None if art == "failed" else art
        try:
            if np.dtype(self.dtype) == np.float64:
                single = False
            elif np.dtype(self.dtype) == np.float32:
                single = True
            else:
                raise CodegenError(
                    f"native backend: unsupported program dtype {np.dtype(self.dtype)}"
                )
            from repro.core.codegen import cbuild
            from repro.core.codegen.cgen import generate_c_module

            # REPRO_CGEN_BATCH overrides the lane-batch width (1 = the
            # scalar baseline kernel; used by bench_native's ablation leg)
            batch_env = os.environ.get("REPRO_CGEN_BATCH")
            batch = int(batch_env) if batch_env else None
            flags = cbuild.flags_for(single)
            c_source, plan = generate_c_module(self.high, single=single, batch=batch)
            lib, ffi = cbuild.build(c_source, flags=flags)
        except CodegenError as exc:
            self._native_art = "failed"
            self._native_error = str(exc)
            print(
                f"warning: native backend unavailable, falling back to "
                f"NumPy: {exc}",
                file=sys.stderr,
            )
            return None
        self._native_art = (c_source, plan, lib, ffi)
        return self._native_art

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        workers: int | str = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_steps: int | None = None,
        tracer=None,
        scheduler: str | None = None,
        metrics=None,
        backend: str | None = None,
        checkpoint: bool = False,
        on_step=None,
    ) -> RunResult:
        """Execute the program to completion.

        ``scheduler`` selects the parallel backend (DESIGN.md "Parallel
        backends"): ``"seq"`` is the sequential loop nest, ``"thread"``
        the persistent thread pool with a shared lock-protected work-list
        of strand blocks (paper §5.5), and ``"process"`` the
        shared-memory process pool (:mod:`repro.runtime.mpsched`) — true
        multicore execution on CPython.  When omitted, ``workers == 1``
        runs sequentially and ``workers > 1`` uses threads.  ``workers``
        accepts ``"auto"`` for the machine's CPU count; counts below 1
        raise :class:`~repro.errors.InputError`.

        ``scheduler`` may also be a scheduler *instance* — a
        :class:`~repro.runtime.scheduler.SequentialScheduler`,
        :class:`~repro.runtime.scheduler.ThreadScheduler`, or
        :class:`~repro.runtime.mpsched.ProcessScheduler` object.  The run
        uses it but does not close it, so callers (the serving layer's
        program registry) can keep warm worker pools across runs; a
        reused process pool re-arms its live workers with the new run's
        shared state instead of forking.

        ``tracer`` is an optional :class:`repro.obs.Tracer`: each
        super-step becomes a span carrying active/stable/died strand
        counts, with per-block child spans attributed to the worker
        (thread or process) that ran them; its ``on_superstep`` callback
        fires as each step completes.  When no tracer is passed and the
        ``REPRO_TRACE`` environment variable names a path, a tracer is
        created and a Chrome trace-event file is written there after the
        run.  With tracing off the hot path allocates no span objects.

        ``metrics`` controls the always-on metrics registry (DESIGN.md
        "Metrics & profiling"):

        * ``None`` (default) — record into a fresh per-run registry,
          returned as ``result.metrics``; its counters also fold into the
          process-wide session registry (``repro.obs.metrics.GLOBAL``)
          and any ambient ``metrics.collect()`` scope.
        * ``False`` — disable metrics entirely (the zero-overhead
          :class:`~repro.obs.metrics.NullRegistry` path).
        * ``True`` — same as ``None`` (explicit opt-in).
        * a :class:`~repro.obs.metrics.MetricsRegistry` — record into the
          caller's registry directly (no fold).

        ``backend`` selects the strand-update implementation:
        ``"numpy"`` (default) runs the generated NumPy module;
        ``"c"`` compiles the LowIR to native code via
        :mod:`repro.core.codegen.cgen` (results agree to 1e-12 — the
        NumPy backend stays the differential oracle).  When no C
        compiler or cffi is available, or the program uses a construct
        the emitter does not support, ``"c"`` degrades to NumPy with a
        stderr warning, never a crash.

        ``checkpoint=True`` snapshots the converged strand state (and,
        when the strand updates execute in this process, records
        per-strand input-image footprints as it goes) so later
        :meth:`update_input`/:meth:`run_update` calls can re-execute
        only the strands a dirty image region invalidates — see
        DESIGN.md "Incremental execution".

        ``on_step`` is an optional callable fired after every
        super-step with a :class:`repro.runtime.incremental.StepEvent`
        carrying the strand ids that ran, their status codes, and
        private copies of their output rows — the streaming hook the
        serving layer's chunked ``/run`` responses are built on.
        """
        return self._metered(metrics, workers, block_size, max_steps,
                             tracer, scheduler, backend,
                             checkpoint=checkpoint, on_step=on_step)

    def _metered(self, metrics, workers, block_size, max_steps, tracer,
                 scheduler, backend, **kwargs) -> RunResult:
        """Run ``_run`` under a resolved metrics registry (fold on exit)."""
        reg, fold = _mx.resolve(metrics)
        prev = _mx.set_active(reg)
        try:
            result = self._run(workers, block_size, max_steps, tracer,
                               scheduler, reg, backend, **kwargs)
        finally:
            _mx.set_active(prev)
            if reg.enabled and fold:
                snap = reg.snapshot()
                for target in fold:
                    # the session-wide registry keeps cumulative counters
                    # only; per-step series stay per-run to bound memory
                    target.merge(snap,
                                 include_series=target is not _mx.GLOBAL)
        return result

    def _run(self, workers, block_size, max_steps, tracer, scheduler,
             reg, backend=None, checkpoint=False, on_step=None,
             _restore=None, _record=None) -> RunResult:
        env_trace_path = None
        if tracer is None:
            tracer, env_trace_path = tracer_from_env()
        tr = tracer if tracer is not None else NULL_TRACER

        # a scheduler *instance* (anything with run_step) is used as-is
        # and never closed — the serving layer pools warm schedulers
        # across requests and owns their lifecycle
        ext_sched = None
        if scheduler is not None and not isinstance(scheduler, str):
            if not hasattr(scheduler, "run_step"):
                raise InputError(
                    f"scheduler must be a name from {SCHEDULER_CHOICES} or an "
                    f"object with run_step(); got {type(scheduler).__name__}"
                )
            ext_sched = scheduler
            if hasattr(ext_sched, "setup"):  # a (reusable) process pool
                scheduler = "process"
            elif isinstance(ext_sched, SequentialScheduler):
                scheduler = "seq"
            else:
                scheduler = "thread"
            workers = getattr(ext_sched, "workers", workers)

        workers = resolve_workers(workers)
        if scheduler is None:
            scheduler = "seq" if workers == 1 else "thread"
        if scheduler not in SCHEDULER_CHOICES:
            raise InputError(
                f"unknown scheduler {scheduler!r}; choose from {SCHEDULER_CHOICES}"
            )
        if backend is None:
            backend = "numpy"
        if backend not in BACKEND_NAMES:
            raise InputError(
                f"unknown backend {backend!r}; choose from {BACKEND_NAMES}"
            )

        native_art = None
        if backend == "c":
            native_art = self._native_artifacts()
            if native_art is None:
                backend = "numpy"  # warned in _native_artifacts

        # a checkpointing run records footprints as it goes; whether
        # its strand updates *can* record is settled once the scheduler
        # and the native binding are (see below)
        rec = _record
        if rec is None and checkpoint:
            rec = (_increc.FootprintRecorder({}) if _restore is None
                   else self._inc.recorder)

        ctx = self._context()
        if rec is not None:
            rec._names.update({id(img): nm for nm, img in ctx.images.items()})
            rec.lane_map = None  # global gathers until strands exist
            _ops.set_footprint_recorder(rec)
        g = self._globals_tuple(ctx)
        ns = self.namespace

        t0 = time.perf_counter()
        # comprehension grid
        bounds = ns["bounds"](ctx, *g)
        sizes = []
        los = []
        for i in range(len(self.high.iter_names)):
            lo, hi = int(bounds[2 * i]), int(bounds[2 * i + 1])
            if hi < lo:
                raise RuntimeErrorD(
                    f"empty comprehension range {lo}..{hi} for iterator "
                    f"{self.high.iter_names[i]!r}"
                )
            los.append(lo)
            sizes.append(hi - lo + 1)
        total = 1
        for s in sizes:
            total *= s
        if scheduler == "auto":
            scheduler = resolve_auto(workers, total, block_size, backend)
        if rec is not None:
            rec.resize(total)
        state_names = self.high.init_func.result_names
        restore_dirty = None
        if _restore is None:
            idx = np.arange(total, dtype=np.int64)
            iter_vals = []
            rem = idx
            for k in range(len(sizes) - 1, -1, -1):
                iter_vals.insert(0, rem % sizes[k] + los[k])
                rem = rem // sizes[k]

            if rec is not None:
                rec.lane_map = idx
            params = ns["seed"](ctx, *g, *iter_vals)
            state = list(ns["init"](ctx, *g, *params))
            if rec is not None:
                rec.lane_map = None
            # Initializers that fold to constants come back unbatched; give
            # every state variable its (strands, *tensor_shape) storage.  Two
            # state variables initialized from the same SSA value come back as
            # the same array object — each needs its own storage, since state
            # is updated in place per block.
            seen: set[int] = set()
            for i, (name, arr) in enumerate(zip(state_names, state)):
                arr = np.asarray(arr)
                order = self._state_tensor_order(name)
                if arr.ndim == order:
                    arr = np.broadcast_to(arr, (total,) + arr.shape)
                arr = np.ascontiguousarray(arr)
                if not arr.flags.writeable or id(arr) in seen:
                    arr = arr.copy()
                seen.add(id(arr))
                state[i] = arr

            status = np.zeros(total, dtype=np.int64)  # RUNNING
        else:
            # incremental restore: clean strands come back from the
            # checkpoint; dirty strands are re-seeded and re-initialized
            # exactly as a cold run would (init may probe the image, so
            # restoring a stale init is not an option)
            snap = self._inc.snapshot
            if snap.total != total:
                raise RuntimeErrorD(
                    f"checkpoint has {snap.total} strands but the current "
                    f"globals produce {total}; run a fresh checkpoint"
                )
            restore_t0 = time.perf_counter()
            state, status = snap.copies()
            restore_dirty = np.asarray(_restore, dtype=np.int64)
            if rec is not None:
                rec.reset_rows(restore_dirty)
            if restore_dirty.size:
                iter_vals = []
                rem = restore_dirty
                for k in range(len(sizes) - 1, -1, -1):
                    iter_vals.insert(0, rem % sizes[k] + los[k])
                    rem = rem // sizes[k]
                if rec is not None:
                    rec.lane_map = restore_dirty
                params = ns["seed"](ctx, *g, *iter_vals)
                new_state = ns["init"](ctx, *g, *params)
                if rec is not None:
                    rec.lane_map = None
                for s_arr, new in zip(state, new_state):
                    new = np.asarray(new)
                    if new.dtype != s_arr.dtype:
                        new = new.astype(s_arr.dtype)
                    # unbatched (constant-folded) results broadcast over
                    # the dirty rows, matching the cold materialization
                    s_arr[restore_dirty] = new
                status[restore_dirty] = RUNNING
            restore_dt = time.perf_counter() - restore_t0
            if tr.enabled:
                tr.complete("snapshot-restore", "incremental", restore_t0,
                            restore_dt, dirty=int(restore_dirty.size),
                            total=total)
            if reg.enabled:
                reg.observe("runtime.restore_seconds", restore_dt)
        update = ns["update"]
        stabilize_fn = ns.get("stabilize")

        native = None
        if scheduler != "process" and backend == "c":
            _, plan, lib, ffi = native_art
            try:
                # binds the *materialized* state arrays: the native
                # kernel updates them in place, so the per-step result
                # adoption/scatter below is skipped entirely
                native = NativeUpdate(lib, ffi, plan, ctx.images, g,
                                      state, status, recorder=rec)
            except CodegenError as exc:
                print(
                    f"warning: native backend unavailable, falling "
                    f"back to NumPy: {exc}",
                    file=sys.stderr,
                )
        shadow_reason = None
        if rec is not None and native is None and scheduler != "seq":
            # strand updates run out of process, or through the gather
            # hook on several threads at once (it is not thread-safe):
            # footprints come from a sequential shadow run instead
            shadow_reason = ("process" if scheduler == "process"
                             else "thread_numpy")
            _ops.set_footprint_recorder(None)
            rec = None

        pool = None
        sched = None
        if scheduler == "process":
            if ext_sched is not None:
                pool = ext_sched
            else:
                from repro.runtime.mpsched import ProcessScheduler

                pool = ProcessScheduler(workers)
            # the master's state arrays become views over the pool's
            # shared-memory blocks: worker writes land in place.  With the
            # C backend, workers rebuild the native kernel from the cached
            # artifact (the master's build above warmed the cache) and run
            # it directly over their shared views.
            native_setup = None
            if backend == "c":
                from repro.core.codegen import cbuild

                native_setup = {
                    "c_source": native_art[0],
                    "plan": native_art[1],
                    "flags": cbuild.flags_for(
                        native_art[1].get("real_dtype") == "float32"
                    ),
                }
            state, status = pool.setup(
                self.generated_source, ctx.images, self.dtype, g, state,
                status, metrics=reg.enabled, native=native_setup
            )
        elif ext_sched is not None:
            sched = ext_sched
        elif scheduler == "thread":
            sched = ThreadScheduler(workers)
        else:
            sched = SequentialScheduler()

        setup_dt = time.perf_counter() - t0
        if tr.enabled:
            tr.complete("setup", "run", t0, setup_dt,
                        strands=total, scheduler=scheduler)
        if reg.enabled:
            reg.inc("run.setup_seconds", setup_dt)
            reg.gauge("run.workers", workers)
            reg.gauge("run.block_size", block_size)

        # The decision, for `repro.obs` readers: blocks run to completion
        # inside the native kernel unless something must see every
        # super-step boundary (DESIGN.md "Parallel backends")
        if pool is not None and backend == "c":
            per_step = "process"
        elif native is None:
            per_step = "numpy"  # chosen, or fallen back to at bind time
        elif stabilize_fn is not None:
            per_step = "stabilize"
        elif on_step is not None:
            per_step = "on_step"
        elif tr.enabled:
            per_step = "tracer"
        else:
            per_step = None
        driving = "kernel" if per_step is None else f"per_step.{per_step}"
        if reg.enabled:
            reg.inc(f"runtime.loop.{driving}")
        if tr.enabled:
            tr.instant("superstep-loop", "run", how=driving)

        steps = 0
        if restore_dirty is not None:
            active_idx = restore_dirty
        else:
            active_idx = np.arange(total, dtype=np.int64)
        obs_on = tr.enabled or reg.enabled
        try:
            while active_idx.size:
                if max_steps is not None and steps >= max_steps:
                    break
                step_t0 = time.perf_counter() if obs_on else 0.0
                active_before = int(active_idx.size)
                if pool is not None:
                    n_blocks, _times = pool.run_step(
                        active_idx, block_size, tracer=tr, step=steps,
                        metrics=reg
                    )
                elif native is not None:
                    blocks = make_blocks(active_idx, block_size)
                    n_blocks = len(blocks)
                    # super-steps each block runs before coming back
                    if per_step is not None:
                        span = 1
                    elif max_steps is None:
                        span = _UNBOUNDED_STEPS
                    else:
                        span = max_steps - steps

                    def run_native_block(block_idx: np.ndarray):
                        # the native kernel reads and writes the bound
                        # state/status arrays in place (disjoint lanes per
                        # block, so concurrent thread workers are safe) and
                        # releases the GIL for the whole call
                        return native.run_range(block_idx, max_steps=span)

                    tallies, _times = sched.run_step(
                        blocks, run_native_block, tracer=tr, step=steps
                    )
                else:
                    blocks = make_blocks(active_idx, block_size)
                    n_blocks = len(blocks)
                    # in-place block update: when one block covers every
                    # strand (active == identity), hand the state arrays
                    # to update directly instead of fancy-index gathering
                    # a copy of each one
                    full_block = n_blocks == 1 and blocks[0].size == total

                    def run_block(block_idx: np.ndarray) -> tuple[np.ndarray, tuple]:
                        if rec is not None:
                            rec.lane_map = block_idx
                        if full_block:
                            block_state = state
                        else:
                            block_state = [s[block_idx] for s in state]
                        out = update(ctx, *g, *block_state)
                        return block_idx, out

                    results, _times = sched.run_step(
                        blocks, run_block, tracer=tr, step=steps
                    )
                    if full_block:
                        state, status = _adopt_results(
                            results[0][1], state, status
                        )
                    else:
                        for block_idx, out in results:
                            *new_state, block_status = out
                            for s_arr, new in zip(state, new_state):
                                s_arr[block_idx] = new
                            status[block_idx] = block_status
                # one status gather serves the stabilize scatter, the
                # observability tallies, AND the active-strand filter
                # (stabilize_fn mutates state only, never status)
                active_status = status[active_idx]
                if per_step is None:
                    # every block ran until it emptied (or max_steps):
                    # there is no step boundary left to observe, only the
                    # kernel's per-step tallies to book
                    taken = max(c.shape[0] for c, _ in tallies)
                    if reg.enabled:
                        _record_kernel_steps(
                            reg, steps, taken, tallies,
                            sched.last_block_workers, workers,
                        )
                    steps += taken
                    active_idx = active_idx[active_status == RUNNING]
                    if reg.enabled:
                        reg.gauge("strands.active", int(active_idx.size))
                    continue
                if stabilize_fn is not None:
                    stable_mask = active_status == STABILIZE
                    if np.any(stable_mask):
                        stable_idx = active_idx[stable_mask]
                        if rec is not None:
                            rec.lane_map = stable_idx
                        block_state = [s[stable_idx] for s in state]
                        new_state = stabilize_fn(ctx, *g, *block_state)
                        if rec is not None:
                            rec.lane_map = None
                        for s_arr, new in zip(state, new_state):
                            s_arr[stable_idx] = new
                running_mask = active_status == RUNNING
                next_active = active_idx[running_mask]
                if on_step is not None:
                    nm = dict(zip(state_names, state))
                    on_step(_increc.StepEvent(
                        step=steps,
                        active=active_idx.copy(),
                        status=active_status.copy(),
                        # fancy indexing already yields private copies
                        outputs={o: nm[o][active_idx]
                                 for o in self.high.outputs},
                    ))
                if obs_on:
                    step_dt = time.perf_counter() - step_t0
                    # classify only the strands that left this step — on
                    # quiet steps (nobody stabilized or died, the common
                    # case mid-convergence) the tallies cost nothing
                    departed = active_before - int(next_active.size)
                    if departed:
                        leavers = active_status[~running_mask]
                        step_stable = int(np.sum(leavers == STABILIZE))
                        step_died = departed - step_stable
                    else:
                        step_stable = step_died = 0
                    if tr.enabled:
                        tr.complete(
                            "superstep", "superstep", step_t0, step_dt,
                            step=steps, blocks=n_blocks,
                            active=active_before,
                            stable=step_stable, died=step_died,
                        )
                    if reg.enabled:
                        sched_obj = pool if pool is not None else sched
                        _record_step_metrics(
                            reg, steps, n_blocks, active_before,
                            step_stable, step_died, step_dt, _times,
                            sched_obj.last_block_workers, workers,
                        )
                active_idx = next_active
                if tr.enabled:
                    tr.gauge("active-strands", int(active_idx.size))
                if reg.enabled:
                    reg.gauge("strands.active", int(active_idx.size))
                steps += 1
            if pool is not None:
                # outputs must outlive the shared blocks: detach before
                # the pool (and its shared memory) is torn down
                state = [np.array(s) for s in state]
                status = np.array(status)
        finally:
            if rec is not None:
                _ops.set_footprint_recorder(None)
                rec.lane_map = None
            if ext_sched is None:
                if pool is not None:
                    pool.close()
                elif sched is not None:
                    sched.close()

        wall = time.perf_counter() - t0
        n_stable = int(np.sum(status == STABILIZE))
        n_died = int(np.sum(status == DIE))

        if checkpoint:
            if restore_dirty is not None:
                inc = self._inc
                snap = inc.snapshot
                snap.store_rows(restore_dirty, state, status)
                snap.steps, snap.max_steps = steps, max_steps
            else:
                inc = self._inc = _IncState()
                inc.recorder = rec
                inc.snapshot = _increc.Snapshot(
                    state=[np.array(s) for s in state],
                    status=status.copy(),
                    sizes=np.asarray(sizes, dtype=np.int64),
                    los=np.asarray(los, dtype=np.int64),
                    total=total,
                    steps=steps,
                    max_steps=max_steps,
                    backend=backend,
                    grid=self.high.grid,
                    grid_dims=len(self.high.iter_names),
                )
            # the decision, for `repro.obs` readers: how this checkpoint's
            # footprints are obtained, and why
            how = (f"inline.{backend}" if rec is not None
                   else f"shadow.{shadow_reason}")
            if reg.enabled:
                reg.inc_many({"runtime.incremental.checkpoints": 1,
                              f"runtime.footprint.{how}": 1})
            if tr.enabled:
                tr.instant("footprint-recording", "incremental", how=how)
            if rec is None and restore_dirty is not None:
                # re-ran without recording: re-trace those rows now, on
                # the inputs their new trajectories were computed from
                self.build_footprints(restore_dirty,
                                      tracer=tr if tr.enabled else None)

        if restore_dirty is not None and reg.enabled:
            frac = restore_dirty.size / max(total, 1)
            reg.observe("runtime.dirty_fraction", frac)
            reg.inc_many({
                "runtime.incremental.updates": 1,
                "runtime.incremental.rerun_strands": int(restore_dirty.size),
            })

        outputs: dict[str, np.ndarray] = {}
        name_to_arr = dict(zip(state_names, state))
        if self.high.grid:
            for out in self.high.outputs:
                arr = name_to_arr[out]
                outputs[out] = arr.reshape(tuple(sizes) + arr.shape[1:])
        else:
            keep = status == STABILIZE
            for out in self.high.outputs:
                outputs[out] = name_to_arr[out][keep]
        if tr.enabled:
            tr.complete("run", "run", t0, wall, workers=workers,
                        block_size=block_size, steps=steps, strands=total,
                        stable=n_stable, died=n_died)
        if reg.enabled:
            reg.inc_many({
                "run.count": 1,
                "run.steps": steps,
                "run.strands": total,
                "run.wall_seconds": wall,
            })
        if env_trace_path is not None:
            try:
                write_chrome_trace(tr, env_trace_path)
            except OSError as exc:
                # a bad REPRO_TRACE path must not destroy a finished run
                print(f"warning: cannot write trace {env_trace_path}: {exc}",
                      file=sys.stderr)
        return RunResult(
            outputs=outputs,
            steps=steps,
            num_strands=total,
            num_stable=n_stable,
            num_died=n_died,
            wall_time=wall,
            grid=self.high.grid,
            grid_dims=len(self.high.iter_names),
            metrics=reg,
            incremental=restore_dirty is not None,
            dirty_strands=(int(restore_dirty.size)
                           if restore_dirty is not None else total),
            dirty_fraction=(restore_dirty.size / max(total, 1)
                            if restore_dirty is not None else 1.0),
            updated_indices=restore_dirty,
        )

    # -- incremental re-execution (DESIGN.md "Incremental execution") --------------

    @property
    def has_checkpoint(self) -> bool:
        """True when a converged snapshot is available for updates."""
        return self._inc is not None and self._inc.snapshot is not None

    def invalidate_checkpoint(self) -> None:
        """Drop the snapshot and footprints (next run starts cold)."""
        self._inc = None

    def build_footprints(self, ids=None, tracer=None) -> None:
        """Build (or refresh, when ``ids`` is given) strand footprints.

        Runs a sequential *shadow* re-execution on the checkpoint's
        backend with the recorder bound: bit-identical to the
        checkpointed run, so the recorded per-strand image AABBs
        describe exactly the trajectories the snapshot holds.  Only
        checkpoints whose strand updates could not record as they ran
        (process pools, NumPy blocks on threads) need it; it is called
        lazily by :meth:`update_input` and after each such update run —
        callers never need to invoke it directly.
        """
        inc = self._inc
        if inc is None or inc.snapshot is None:
            raise InputError(
                "no checkpoint: run(checkpoint=True) before building "
                "footprints"
            )
        snap = inc.snapshot
        t0 = time.perf_counter()
        full = inc.recorder is None or ids is None
        if full:
            rec, ids = _increc.FootprintRecorder({}), None
        else:
            rec, ids = inc.recorder, np.unique(np.asarray(ids, dtype=np.int64))
            if ids.size == 0:
                return
        self._metered(False, 1, DEFAULT_BLOCK_SIZE, snap.max_steps, tracer,
                      "seq", snap.backend, _record=rec, _restore=ids)
        inc.recorder = rec
        dt = time.perf_counter() - t0
        _mx.GLOBAL.inc("runtime.footprint.builds" if full
                       else "runtime.footprint.refreshes")
        _mx.GLOBAL.inc("runtime.footprint.build_seconds", dt)
        if tracer is not None and getattr(tracer, "enabled", False):
            tracer.complete("footprint-build", "incremental", t0, dt,
                            full=full)

    def update_input(self, name: str, data, region=None,
                     tracer=None) -> dict:
        """Patch an input in place and queue the invalidated strands.

        For image globals, ``data``/``region`` go to
        :meth:`repro.image.Image.patch` on the program's working image;
        the changed regions are intersected against the per-strand
        footprints and only the hit strands are queued for the next
        :meth:`run_update`.  ``region`` is ``None`` (diff the full
        replacement array), one region (``dim`` inclusive ``(lo, hi)``
        index pairs), or a list of regions.

        For non-image inputs the change cannot be localized, so the
        next update degenerates to a full (re-checkpointing) run.

        Returns ``{"input", "regions", "dirty_strands",
        "total_strands", "full"}``.
        """
        inc = self._inc
        if inc is None or inc.snapshot is None:
            raise InputError(
                "no checkpoint to update: call run(checkpoint=True) first"
            )
        total = inc.snapshot.total
        if name not in self.high.images:
            if name not in self.high.input_names:
                raise InputError(
                    f"{name!r} is neither an image global nor an input; "
                    f"images are {sorted(self.high.images)}, inputs are "
                    f"{self.high.input_names}"
                )
            self.set_input(name, data, _invalidate=False)
            inc.pending_full = True
            _mx.GLOBAL.inc("runtime.incremental.nonlocal_updates")
            return {"input": name, "regions": [], "dirty_strands": total,
                    "total_strands": total, "full": True}
        ctx = self._context()
        img = ctx.images[name]
        # footprints must describe the *pre-patch* trajectories: a
        # checkpoint that could not record builds them before the
        # samples change
        if inc.recorder is None:
            self.build_footprints(tracer=tracer)
        regions = img.patch(data, region=region)
        if not regions:
            return {"input": name, "regions": [], "dirty_strands": 0,
                    "total_strands": total, "full": False}
        t0 = time.perf_counter()
        dirty = _increc.Footprints(inc.recorder).dirty_strands(name, regions)
        dt = time.perf_counter() - t0
        _mx.GLOBAL.inc("runtime.footprint.intersect_seconds", dt)
        if tracer is not None and getattr(tracer, "enabled", False):
            tracer.complete("dirty-intersect", "incremental", t0, dt,
                            regions=len(regions))
        if dirty is None:
            # an untracked (global-box) read overlaps the patch
            inc.pending_full = True
            n_dirty = total
        else:
            inc.pending_ids = np.union1d(inc.pending_ids, dirty)
            n_dirty = int(dirty.size)
        return {
            "input": name,
            "regions": [[lo.tolist(), hi.tolist()] for lo, hi in regions],
            "dirty_strands": n_dirty,
            "total_strands": total,
            "full": dirty is None,
        }

    def run_update(
        self,
        workers: int | str = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_steps: int | None = None,
        tracer=None,
        scheduler=None,
        metrics=None,
        backend: str | None = None,
        on_step=None,
    ) -> RunResult:
        """Re-execute only the strands invalidated since the checkpoint.

        Consumes the dirty set queued by :meth:`update_input`: clean
        strands are restored from the snapshot, dirty strands are
        re-seeded, re-initialized, and run to convergence, and the
        snapshot is replaced with the new converged state.  The result
        is bit-identical to a cold :meth:`run` over the patched inputs
        (golden-gated across all schedulers and both backends).

        ``backend`` defaults to the checkpoint's backend; passing a
        different one raises (mixed backends would break the
        bit-identity contract).  ``max_steps`` likewise defaults to the
        checkpointed run's value.  When a pending change could not be
        localized (non-image input, untracked read) or every strand is
        dirty, this degenerates to a full checkpointing re-run
        (``result.incremental`` is False in that case).
        """
        inc = self._inc
        if inc is None or inc.snapshot is None:
            raise InputError(
                "no checkpoint: call run(checkpoint=True) first"
            )
        snap = inc.snapshot
        if backend is None:
            backend = snap.backend
        elif backend != snap.backend:
            raise InputError(
                f"checkpoint was taken with backend {snap.backend!r}; "
                f"updating with backend {backend!r} would break the "
                "bit-identity contract — take a fresh checkpoint instead"
            )
        if max_steps is None:
            max_steps = snap.max_steps
        dirty = inc.pending_ids
        full = inc.pending_full or int(dirty.size) >= snap.total
        inc.pending_ids = np.empty(0, dtype=np.int64)
        inc.pending_full = False
        if full:
            _mx.GLOBAL.inc("runtime.incremental.full_reruns")
            return self.run(workers=workers, block_size=block_size,
                            max_steps=max_steps, tracer=tracer,
                            scheduler=scheduler, metrics=metrics,
                            backend=backend, checkpoint=True,
                            on_step=on_step)
        if dirty.size == 0:
            # nothing changed: serve the checkpoint without running
            state = [s.copy() for s in snap.state]
            nm = dict(zip(self.high.init_func.result_names, state))
            outputs: dict[str, np.ndarray] = {}
            if snap.grid:
                for out in self.high.outputs:
                    arr = nm[out]
                    outputs[out] = arr.reshape(
                        tuple(snap.sizes) + arr.shape[1:]
                    )
            else:
                keep = snap.status == STABILIZE
                for out in self.high.outputs:
                    outputs[out] = nm[out][keep]
            return RunResult(
                outputs=outputs, steps=0, num_strands=snap.total,
                num_stable=int(np.sum(snap.status == STABILIZE)),
                num_died=int(np.sum(snap.status == DIE)),
                wall_time=0.0, grid=snap.grid, grid_dims=snap.grid_dims,
                metrics=_mx.resolve(metrics)[0], incremental=True,
                dirty_strands=0, dirty_fraction=0.0,
                updated_indices=np.empty(0, dtype=np.int64),
            )
        return self._metered(metrics, workers, block_size, max_steps,
                             tracer, scheduler, backend,
                             checkpoint=True, on_step=on_step,
                             _restore=dirty)

    # -- synthesized CLI glue (paper §3.3.1) ---------------------------------------

    def cli(self, argv: list[str] | None = None) -> RunResult:
        """Parse ``--name value`` arguments for each input, then run.

        This is the "glue code that allows command-line setting of input
        variables" the compiler synthesizes in the paper.  Values use the
        shared textual forms of :func:`repro.inputs.parse_value`;
        ``--trace FILE`` and ``--profile`` expose the runtime's tracing,
        ``--metrics-out FILE`` / ``--no-metrics`` the metrics registry.
        """
        import argparse

        from repro.inputs import parse_value
        from repro.obs import Tracer, format_summary

        parser = argparse.ArgumentParser(description="Diderot program")
        for name in self.high.input_names:
            parser.add_argument(f"--{name}", type=str, default=None)
        parser.add_argument("--workers", type=str, default=None,
                            help="worker count, or 'auto' for the CPU count "
                                 "(default: 1, or 'auto' with --scheduler "
                                 "auto)")
        parser.add_argument("--scheduler", choices=SCHEDULER_CHOICES,
                            default=None,
                            help="seq, thread, process, or auto (default: "
                                 "seq for 1 worker, thread otherwise). "
                                 "'auto' picks seq when only one worker or "
                                 "CPU is available or the program fits in "
                                 "one strand block, else thread for the C "
                                 "backend and process for NumPy")
        parser.add_argument("--backend", choices=BACKEND_NAMES,
                            default="numpy",
                            help="strand-update implementation: 'numpy' "
                                 "(generated NumPy module) or 'c' (native "
                                 "code compiled via cffi; needs a C "
                                 "compiler, falls back to numpy with a "
                                 "warning if unavailable)")
        parser.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
        parser.add_argument("--trace", metavar="FILE",
                            default=os.environ.get("REPRO_TRACE") or None,
                            help="write a Chrome trace-event JSON file")
        parser.add_argument("--profile", action="store_true",
                            help="print a super-step/worker profile summary")
        parser.add_argument("--check", action="store_true",
                            help="validate the compiled (lowered) IR before "
                                 "running")
        parser.add_argument("--metrics", action=argparse.BooleanOptionalAction,
                            default=True,
                            help="collect runtime metrics (on by default)")
        parser.add_argument("--metrics-out", metavar="FILE", default=None,
                            help="write the run's metrics JSON document")
        args = parser.parse_args(argv)
        if args.check:
            from repro.core.verify import verify_func
            from repro.core.xform.to_high import HighBuilder

            for fn in HighBuilder.all_funcs(self.high):
                verify_func(fn, "low", images=self.high.images)
        for name in self.high.input_names:
            raw = getattr(args, name)
            if raw is not None:
                self.set_input(name, parse_value(raw))
        tracer = Tracer() if (args.trace or args.profile) else None
        workers = args.workers
        if workers is None:
            workers = "auto" if args.scheduler == "auto" else "1"
        result = self.run(workers=workers, block_size=args.block_size,
                          tracer=tracer, scheduler=args.scheduler,
                          metrics=None if args.metrics else False,
                          backend=args.backend)
        if args.trace:
            write_chrome_trace(tracer, args.trace)
        if args.profile:
            print(format_summary(tracer, metrics=result.metrics
                                 if args.metrics else None))
        if args.metrics_out and args.metrics:
            _mx.write_metrics_json(
                result.metrics, args.metrics_out,
                meta={"workers": workers,
                      "block_size": args.block_size,
                      "wall_seconds": result.wall_time},
            )
        return result
