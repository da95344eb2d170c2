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
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.core.xform.to_high import HighProgram
from repro.errors import CodegenError, InputError
from repro.image import Image
from repro.nrrd import read_nrrd
from repro.obs import Obs, current, scope
from repro.runtime import incremental as _increc
from repro.runtime import loop as _loop
from repro.runtime import ops as _ops
from repro.runtime.kernel import DIE, STABILIZE, Ctx
from repro.runtime.native import NativeUpdate, warn_numpy_fallback
from repro.runtime.plan import resolve
from repro.runtime.scheduler import DEFAULT_BLOCK_SIZE


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
    #: the :class:`repro.obs.Obs` the run recorded into (op counters,
    #: scheduler health, per-step series, the run's spans)
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
        from repro.nrrd import write_nrrd as _write

        dim = min(self.grid_dims, 3) if self.grid else 1
        paths = []
        for name, arr in self.outputs.items():
            img = Image(arr, dim=dim, tensor_shape=tuple(arr.shape[dim:]))
            path = f"{prefix}-{name}.nrrd"
            _write(path, img, content=f"diderot output {name!r}")
            paths.append(path)
        return paths


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
        self._ctx: Ctx | None = None
        #: cached native-backend artifacts: None = not tried yet,
        #: "failed" = tried and unavailable, else (c_source, plan, lib, ffi)
        self._native_art = None
        self._native_error: str | None = None
        #: checkpoint + footprints for incremental re-execution, or None
        self._inc: _increc.Snapshot | None = None

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

    def _context(self) -> Ctx:
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
        self._ctx = Ctx(images, self.dtype)
        return self._ctx

    def _resolve_inputs(self, ctx: Ctx) -> dict[str, object]:
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

    def _globals_tuple(self, ctx: Ctx) -> list:
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

            flags = cbuild.flags_for(single)
            c_source, plan = generate_c_module(self.high, single=single)
            lib, ffi = cbuild.build(c_source, flags=flags)
        except CodegenError as exc:
            self._native_art = "failed"
            self._native_error = str(exc)
            warn_numpy_fallback(exc)
            return None
        self._native_art = (c_source, plan, lib, ffi)
        return self._native_art

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        workers: int | str = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_steps: int | None = None,
        scheduler: str | None = None,
        backend: str | None = None,
        checkpoint: bool = False,
        on_step=None,
        obs=None,
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

        ``obs`` is the :class:`repro.obs.Obs` the run records into and
        returns as ``result.metrics`` (DESIGN.md "Observability"); when
        omitted, a fresh child of the current one, whose aggregates fold
        into that parent when the run ends.  The run's phases (``setup``,
        ``bind``, ``steps``, ``kernel``, ``result``) are always spans;
        with ``Obs(detail=True)`` each super-step is a span too, carrying
        active/stable/died strand counts, with per-block child spans
        attributed to the worker (thread or process) that ran them.

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
        rec = _increc.FootprintRecorder({}) if checkpoint else None
        result, plan, state, status = self._execute(
            obs, workers=workers, block_size=block_size,
            max_steps=max_steps, scheduler=scheduler, backend=backend,
            on_step=on_step, rec=rec)
        if checkpoint:
            # a run that could not record leaves the footprints to a lazy
            # shadow run (build_footprints)
            self._inc = _increc.Snapshot(
                state=[np.array(s) for s in state], status=status.copy(),
                total=result.num_strands, steps=result.steps,
                max_steps=max_steps, backend=plan.backend,
                recorder=rec if plan.records else None)
        return result

    def _execute(self, obs, *, workers, block_size, max_steps, scheduler,
                 backend, on_step=None, rec=None, dirty=None):
        """One run, composed of the four pieces (DESIGN.md "Parallel
        backends"): plan → strand set → block kernel → super-step loop;
        returns ``(result, plan, state, status)``.  ``dirty`` is ``None``
        for a cold run — every strand is created — or the strand ids to
        re-create over the checkpoint's restored state; ``rec`` receives
        the footprints when the plan lets the strand updates record.
        Everything the run acquires — its ``Obs`` scope, the gather hook,
        a scheduler or pool of its own — is given back by the one ``with``,
        set-up included."""
        tallies: list = []
        with scope(obs, "run") as obs, \
                obs.span("run", "run", counter="run.wall_seconds") as whole, \
                ExitStack() as held:
            with obs.span("setup", "run", counter="run.setup_seconds") as sp:
                ctx = self._context()
                if rec is not None:
                    rec.watch(ctx.images)  # global gathers until strands exist
                    held.enter_context(_ops.recording(rec))
                g = self._globals_tuple(ctx)
                grid = _loop.comprehension_grid(self, ctx, g)
                want = dict(scheduler=scheduler, workers=workers,
                            backend=backend, block_size=block_size,
                            max_steps=max_steps, total=grid.total,
                            on_step=on_step, detail=obs.detail,
                            recording=rec is not None,
                            update=dirty is not None)
                plan = resolve(self, **want)
                if rec is not None:
                    rec.resize(grid.total)

                if dirty is None:
                    active = np.arange(grid.total, dtype=np.int64)
                    state = _loop.make_strands(self, ctx, g, grid, active, rec)
                    status = np.zeros(grid.total, dtype=np.int64)  # RUNNING
                else:
                    active = dirty
                    state, status = _loop.restore_strands(
                        self, self._inc, ctx, g, grid, dirty, rec, obs)

                native = None
                if plan.backend == "c" and plan.scheduler != "process":
                    _, nplan, lib, ffi = self._native_artifacts()
                    try:
                        # binds the *materialized* state arrays: the native
                        # kernel updates them in place
                        with obs.span("bind", "run"):
                            native = NativeUpdate(lib, ffi, nplan, ctx.images,
                                                  g, state, status,
                                                  recorder=rec)
                    except CodegenError as exc:
                        warn_numpy_fallback(exc)
                        plan = resolve(self, **want, bind_error=str(exc))
                if rec is not None and not plan.records:
                    # footprints come from a sequential shadow run instead
                    held.enter_context(_ops.recording(None))
                    rec = None
                state, status, dispatch = _loop.open_dispatch(
                    plan, self, ctx, g, state, status, native, rec, obs, held)
                sp.args.update(strands=grid.total, scheduler=plan.scheduler)
                plan.emit(obs)

            with obs.span("steps", "run"):
                hooks = _loop.step_hooks(self, ctx, g, state, rec, on_step,
                                         obs, tallies)
                try:
                    steps, active = _loop.run_steps(active, status, dispatch,
                                                    max_steps, hooks)
                finally:
                    if tallies:  # a failing run keeps what it did
                        _loop.book_steps(obs, tallies, plan.workers)
                if plan.scheduler == "process":
                    # outputs must outlive the pool's shared blocks
                    state = [np.array(s) for s in state]
                    status = np.array(status)
                held.close()

            with obs.span("result", "run"):
                counts = {"run.count": 1, "run.steps": steps,
                          "run.strands": grid.total}
                if plan.footprint is not None:
                    counts["runtime.incremental.checkpoints"] = 1
                if plan.update:
                    counts["runtime.incremental.updates"] = 1
                    counts["runtime.incremental.rerun_strands"] = int(dirty.size)
                    obs.observe("runtime.dirty_fraction",
                                dirty.size / max(grid.total, 1))
                obs.inc_many(counts)
                obs.gauge("strands.active", int(active.size))
                result = self._result(grid, state, status, steps, obs, dirty)
            whole.args.update(
                workers=plan.workers, block_size=block_size, steps=steps,
                strands=grid.total, stable=result.num_stable,
                died=result.num_died)
        result.wall_time = whole.dur
        return result, plan, state, status

    def _result(self, grid, state, status, steps, obs, dirty) -> RunResult:
        """Assemble outputs and statistics; ``dirty`` marks an update run.
        The caller fills in ``wall_time`` once the run's span has closed."""
        name_to_arr = dict(zip(self.high.init_func.result_names, state))
        outputs: dict[str, np.ndarray] = {}
        if self.high.grid:
            for name in self.high.outputs:
                arr = name_to_arr[name]
                outputs[name] = arr.reshape(grid.sizes + arr.shape[1:])
        else:
            keep = status == STABILIZE
            for name in self.high.outputs:
                outputs[name] = name_to_arr[name][keep]
        n_dirty = grid.total if dirty is None else int(dirty.size)
        return RunResult(
            outputs=outputs,
            steps=steps,
            num_strands=grid.total,
            num_stable=int(np.sum(status == STABILIZE)),
            num_died=int(np.sum(status == DIE)),
            wall_time=0.0,
            grid=self.high.grid,
            grid_dims=len(self.high.iter_names),
            metrics=obs,
            incremental=dirty is not None,
            dirty_strands=n_dirty,
            dirty_fraction=n_dirty / max(grid.total, 1),
            updated_indices=dirty,
        )

    # -- incremental re-execution (DESIGN.md "Incremental execution") --------------

    @property
    def has_checkpoint(self) -> bool:
        """True when a converged snapshot is available for updates."""
        return self._inc is not None

    def invalidate_checkpoint(self) -> None:
        """Drop the snapshot and footprints (next run starts cold)."""
        self._inc = None

    def _checkpoint(self, what: str) -> _increc.Snapshot:
        if self._inc is None:
            raise InputError(
                f"no checkpoint to {what}: call run(checkpoint=True) first")
        return self._inc

    def build_footprints(self, ids=None, obs=None) -> None:
        """Build (or refresh, when ``ids`` is given) strand footprints.

        Runs a sequential *shadow* re-execution on the checkpoint's
        backend with the recorder bound: bit-identical to the
        checkpointed run, so the recorded per-strand image AABBs
        describe exactly the trajectories the snapshot holds.  Only
        checkpoints whose strand updates could not record as they ran
        (process pools) need it; it is called
        lazily by :meth:`update_input` and after each such update run —
        callers never need to invoke it directly.  ``obs`` (default: the
        current one) gets the ``footprint-build`` span and counters; the
        shadow run's own metrics describe no run anyone asked for and are
        recorded into a throw-away ``Obs``.
        """
        snap = self._checkpoint("build footprints for")
        obs = obs or current()
        if ids is not None:
            ids = np.unique(np.asarray(ids, dtype=np.int64))
            if ids.size == 0:
                return
        full = snap.recorder is None or ids is None
        rec = _increc.FootprintRecorder({}) if full else snap.recorder
        with obs.span("footprint-build", "incremental",
                      counter="runtime.footprint.build_seconds", full=full):
            self._execute(Obs("shadow", parent=None), workers=1,
                          block_size=DEFAULT_BLOCK_SIZE,
                          max_steps=snap.max_steps, scheduler="seq",
                          backend=snap.backend, rec=rec,
                          dirty=None if full else ids)
            snap.recorder = rec
        obs.inc("runtime.footprint.builds" if full
                else "runtime.footprint.refreshes")

    def update_input(self, name: str, data, region=None, obs=None) -> dict:
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
        snap = self._checkpoint("update")
        obs = obs or current()

        def info(regions, dirty_strands: int, full: bool) -> dict:
            return {"input": name, "regions": regions,
                    "dirty_strands": dirty_strands,
                    "total_strands": snap.total, "full": full}

        if name not in self.high.images:
            if name not in self.high.input_names:
                raise InputError(
                    f"{name!r} is neither an image global nor an input; "
                    f"images are {sorted(self.high.images)}, inputs are "
                    f"{self.high.input_names}"
                )
            self.set_input(name, data, _invalidate=False)
            snap.pending_full = True
            obs.inc("runtime.incremental.nonlocal_updates")
            return info([], snap.total, True)
        img = self._context().images[name]
        # footprints must describe the *pre-patch* trajectories: a
        # checkpoint that could not record builds them before the
        # samples change
        if snap.recorder is None:
            self.build_footprints(obs=obs)
        regions = img.patch(data, region=region)
        if not regions:
            return info([], 0, False)
        with obs.span("dirty-intersect", "incremental",
                      counter="runtime.footprint.intersect_seconds",
                      regions=len(regions)):
            dirty = _increc.Footprints(snap.recorder).dirty_strands(
                name, regions)
        if dirty is None:
            # an untracked (global-box) read overlaps the patch
            snap.pending_full = True
        else:
            snap.pending_ids = np.union1d(snap.pending_ids, dirty)
        return info([[lo.tolist(), hi.tolist()] for lo, hi in regions],
                    snap.total if dirty is None else int(dirty.size),
                    dirty is None)

    def run_update(
        self,
        workers: int | str = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_steps: int | None = None,
        scheduler=None,
        backend: str | None = None,
        on_step=None,
        obs=None,
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
        (``result.incremental`` is False in that case); with nothing
        dirty it is a run like any other that takes no step.
        """
        snap = self._checkpoint("update")
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
        dirty = snap.pending_ids
        if snap.pending_full or int(dirty.size) >= snap.total:
            # the fresh checkpoint replaces the pending set with the rest
            (obs or current()).inc("runtime.incremental.full_reruns")
            return self.run(workers=workers, block_size=block_size,
                            max_steps=max_steps, scheduler=scheduler,
                            backend=backend, checkpoint=True,
                            on_step=on_step, obs=obs)
        result, plan, state, status = self._execute(
            obs, workers=workers, block_size=block_size,
            max_steps=max_steps, scheduler=scheduler, backend=backend,
            on_step=on_step, rec=snap.recorder, dirty=dirty)
        snap.pending_ids = np.empty(0, dtype=np.int64)
        snap.store_rows(dirty, state, status)
        snap.steps, snap.max_steps = result.steps, max_steps
        if not plan.records:
            # re-ran without recording: re-trace those rows now, on the
            # inputs their new trajectories were computed from
            self.build_footprints(dirty, obs=obs)
        return result

    # -- synthesized CLI glue (paper §3.3.1) ---------------------------------------

    def cli(self, argv: list[str] | None = None) -> RunResult:
        """Parse ``--name value`` arguments for each input, then run.

        This is the "glue code that allows command-line setting of input
        variables" the compiler synthesizes in the paper.  Values use the
        shared textual forms of :func:`repro.inputs.parse_value`;
        ``--trace FILE`` and ``--profile`` expose the run's spans,
        ``--metrics-out FILE`` its aggregates.
        """
        import argparse

        from repro.inputs import add_run_arguments, parse_value
        from repro.obs import (
            format_summary,
            write_chrome_trace,
            write_metrics_json,
        )

        parser = argparse.ArgumentParser(description="Diderot program")
        for name in self.high.input_names:
            parser.add_argument(f"--{name}", type=str, default=None)
        add_run_arguments(parser)
        parser.add_argument("--check", action="store_true",
                            help="validate the compiled (lowered) IR before "
                                 "running")
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
        workers = args.workers
        if workers is None:
            workers = "auto" if args.scheduler == "auto" else "1"
        with Obs("cli", detail=bool(args.trace or args.profile)) as obs:
            result = self.run(workers=workers, block_size=args.block_size,
                              scheduler=args.scheduler, backend=args.backend,
                              obs=obs)
        if args.trace:
            write_chrome_trace(obs, args.trace)
        if args.profile:
            print(format_summary(obs))
        if args.metrics_out:
            write_metrics_json(
                obs, args.metrics_out,
                meta={"workers": workers,
                      "block_size": args.block_size,
                      "wall_seconds": result.wall_time},
            )
        return result
