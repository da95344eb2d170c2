"""Strand set, block dispatch and the one super-step loop (paper §5.5).

What a run is composed of after its plan (:mod:`repro.runtime.plan`):
:func:`make_strands`, the one strand-set constructor; :func:`open_dispatch`,
a block kernel (:mod:`repro.runtime.kernel`) and a scheduler behind one
call; :func:`run_steps`, the loop, with everything else that happens at a
step boundary as a hook.  Cold, checkpointing, shadow and update runs use
them identically; ``Program`` only chooses which strands start and what
becomes of the result.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from repro.errors import RuntimeErrorD
from repro.obs.metrics import IMBALANCE_BUCKETS
from repro.runtime.incremental import StepEvent
from repro.runtime.kernel import RUNNING, STABILIZE, NumpyKernel
from repro.runtime.ops import recording
from repro.runtime.scheduler import (
    SequentialScheduler,
    ThreadScheduler,
    make_blocks,
)

#: ``max_steps=None`` as the native kernel's step budget
_UNBOUNDED_STEPS = 1 << 62


class Grid(NamedTuple):
    """The ``initially`` comprehension's iteration space."""

    sizes: tuple
    los: tuple
    total: int


def comprehension_grid(program, ctx, g) -> Grid:
    bounds = program.namespace["bounds"](ctx, *g)
    sizes, los, total = [], [], 1
    for i, name in enumerate(program.high.iter_names):
        lo, hi = int(bounds[2 * i]), int(bounds[2 * i + 1])
        if hi < lo:
            raise RuntimeErrorD(
                f"empty comprehension range {lo}..{hi} for iterator {name!r}"
            )
        los.append(lo)
        sizes.append(hi - lo + 1)
        total *= hi - lo + 1
    return Grid(tuple(sizes), tuple(los), total)


def make_strands(program, ctx, g, grid: Grid, ids: np.ndarray,
                 rec=None) -> list[np.ndarray]:
    """Create strands ``ids`` — iterator decomposition → ``seed`` →
    ``init`` → materialise: one ``(len(ids), *shape)`` array per state
    variable, each with private, contiguous, writeable storage."""
    iter_vals, rem = [], ids
    for size, lo in zip(reversed(grid.sizes), reversed(grid.los)):
        iter_vals.insert(0, rem % size + lo)
        rem = rem // size
    with recording(rec, ids):
        params = program.namespace["seed"](ctx, *g, *iter_vals)
        state = list(program.namespace["init"](ctx, *g, *params))
    # Initializers that fold to constants come back unbatched, and two
    # state variables initialized from the same SSA value come back as
    # the same array object — each needs its own storage, since state is
    # updated in place per block.
    seen: set[int] = set()
    names = program.high.init_func.result_names
    for i, (name, arr) in enumerate(zip(names, state)):
        arr = np.asarray(arr)
        if arr.ndim == program.high.tensor_orders[name]:
            arr = np.repeat(arr[np.newaxis], ids.size, axis=0)
        arr = np.ascontiguousarray(arr)
        if not arr.flags.writeable or id(arr) in seen:
            arr = arr.copy()
        seen.add(id(arr))
        state[i] = arr
    return state


def restore_strands(program, snap, ctx, g, grid, dirty, rec, obs):
    """The strand set of an update run: the checkpoint ``snap``'s own
    arrays, with the ``dirty`` rows re-seeded and re-initialized exactly
    as a cold run would (init may probe the image, so restoring a stale
    init is not an option)."""
    if snap.total != grid.total:
        raise RuntimeErrorD(
            f"checkpoint has {snap.total} strands but the current "
            f"globals produce {grid.total}; run a fresh checkpoint"
        )
    with obs.span("snapshot-restore", "incremental",
                  hist="runtime.restore_seconds", dirty=int(dirty.size),
                  total=grid.total):
        if rec is not None:
            rec.reset_rows(dirty)
        if dirty.size:
            fresh = make_strands(program, ctx, g, grid, dirty, rec)
            for s_arr, new in zip(snap.state, fresh):
                s_arr[dirty] = new
            snap.status[dirty] = RUNNING
    return snap.state, snap.status


def open_dispatch(plan, program, ctx, g, state, status, native, rec, obs,
                  held):
    """Bind kernel and scheduler for ``plan``: ``(state, status, dispatch)``
    — the arrays the run must use from here on (a process pool copies them
    into shared mappings its workers inherit) and ``dispatch(active)``,
    which runs one round of blocks over the active strands and returns,
    per block, the worker that ran it, its start and its ``(counts,
    seconds)`` tally.  A scheduler the run creates is closed by ``held``;
    a borrowed one is left open."""
    sched = plan.borrowed
    if plan.scheduler == "process":
        if sched is None:
            from repro.runtime.mpsched import ProcessScheduler

            sched = ProcessScheduler(plan.workers)
            held.callback(sched.close)
        state, status = sched.setup(program.namespace["update"], ctx, g,
                                    state, status)
        run = partial(sched.run_step, block_size=plan.block_size, obs=obs)
    else:
        if sched is None:
            sched = (ThreadScheduler(plan.workers)
                     if plan.scheduler == "thread" else SequentialScheduler())
            held.callback(sched.close)
        if native is None:  # namespace["update"] is looked up per run
            run_block = NumpyKernel(program.namespace["update"], ctx, g, state,
                                    status, recorder=rec).run_block
        elif plan.driving != "kernel":
            run_block = native.run_range
        else:  # every super-step the run has left
            run_block = partial(native.run_range, max_steps=(
                _UNBOUNDED_STEPS if plan.max_steps is None else plan.max_steps))

        def run(active):
            return sched.run_step(make_blocks(active, plan.block_size),
                                  run_block, obs=obs)

    if plan.driving != "kernel":
        return state, status, run

    def dispatch(active):
        with obs.span("kernel", "run"):
            return run(active)

    return state, status, dispatch


def run_steps(active: np.ndarray, status: np.ndarray, dispatch, max_steps,
              hooks) -> tuple[int, np.ndarray]:
    """Super-steps until no strand is running (or ``max_steps``): the
    steps taken and the strands still running.  One dispatch runs every
    block from the current step on — for one step or, kernel-driven, until
    the block empties; its tallies say how many steps went by.  After each,
    every hook is called as ``hook(step, active, active_status, blocks)``
    with ``blocks`` what the dispatch returned."""
    steps = 0
    while active.size and (max_steps is None or steps < max_steps):
        blocks = dispatch(active)
        # one status gather serves every hook AND the active-strand filter
        active_status = status[active]
        for hook in hooks:
            hook(steps, active, active_status, blocks)
        steps += max(c.shape[0] for _, _, (c, _) in blocks)
        active = active[active_status == RUNNING]
    return steps, active


def step_hooks(program, ctx, g, state, rec, on_step, tallies) -> list:
    """The hooks of one run, in the order they fire: the ``stabilize``
    method, the caller's ``on_step``, and the tally — ``(first step,
    blocks)`` per dispatch appended to ``tallies`` for :func:`book_steps`."""
    hooks = []
    stabilize = program.namespace.get("stabilize")
    if stabilize is not None:
        def run_stabilize(step, active, active_status, _):
            # mutates state only, never status
            ids = active[active_status == STABILIZE]
            if ids.size:
                with recording(rec, ids):
                    new_state = stabilize(ctx, *g, *[s[ids] for s in state])
                for s_arr, new in zip(state, new_state):
                    s_arr[ids] = new

        hooks.append(run_stabilize)
    if on_step is not None:
        names = program.high.init_func.result_names
        outputs = [(o, state[names.index(o)]) for o in program.high.outputs]
        hooks.append(lambda step, active, active_status, _: on_step(StepEvent(
            step=step, active=active.copy(), status=active_status.copy(),
            # fancy indexing already yields private copies
            outputs={o: arr[active] for o, arr in outputs})))
    hooks.append(lambda step, a, st, blocks: tallies.append((step, blocks)))
    return hooks


def book_steps(obs, tallies: list, workers: int) -> None:
    """Book a run's tallies — collected per dispatch, so a 241-step
    per-step run pays nothing per step for its telemetry — once, whichever
    way the loop was driven: a block's row ``i`` belongs to step ``first +
    i``, counts add up across blocks, a step's ``blocks`` is the number of
    blocks that still had a live strand, and its seconds are the seconds
    its blocks spent (their sum: wall time under the sequential scheduler,
    busy time under threads or processes).  A block's step seconds are
    measured per step when the loop is driven per step; a kernel-driven
    native call takes its steps with no boundary between them, so it
    reports its one wall time split over them by active strands.  The
    load-imbalance index is
    ``max(busy) / mean(busy over the configured worker count)`` — 1.0 when
    every worker did equal work, ``workers`` when one did everything.

    Under ``obs.detail`` the same rows become the timeline: a ``block``
    span per block per step it ran, laid end to end from the block's start
    with the kernel-measured step seconds and attributed to its worker; a
    ``superstep`` span per step, from its first block span's start to its
    last one's end, whose args are the step's ``steps`` row; and the
    ``strands.active`` sample at each step's end."""
    firsts, index, who, starts, counts, seconds = zip(*(
        (first, i, w, t0, c, sec) for first, blocks in tallies
        for i, (w, t0, (c, sec)) in enumerate(blocks)))
    # one row per (block, step it took part in)
    lens = np.array([c.shape[0] for c in counts])
    counts, seconds = np.concatenate(counts), np.concatenate(seconds)
    heads = np.cumsum(lens) - lens
    step = (np.repeat(np.array(firsts) - firsts[0] - heads, lens)
            + np.arange(lens.sum()))
    worker = np.repeat(np.array(who), lens)
    n_steps = int(step.max()) + 1
    per_step = np.bincount(
        (3 * step[:, None] + np.arange(3)).ravel(), weights=counts.ravel(),
        minlength=3 * n_steps).astype(np.int64).reshape(n_steps, 3)
    busy = np.bincount(
        worker * n_steps + step, weights=seconds,
        minlength=(int(worker.max()) + 1) * n_steps).reshape(-1, n_steps)
    step_seconds = busy.sum(axis=0)
    active, stable, died = per_step.sum(axis=0).tolist()
    deltas = {"sched.supersteps": n_steps, "strands.updated": active,
              "strands.stabilized": stable, "strands.died": died}
    for w, (b, nb) in enumerate(zip(busy.sum(axis=1).tolist(),
                                    np.bincount(worker).tolist())):
        if nb:  # a worker that ran no block has no row
            deltas[f"sched.worker.worker-{w}.busy_seconds"] = b
            deltas[f"sched.worker.worker-{w}.blocks"] = nb
    obs.inc_many(deltas)
    obs.observe_many("sched.step_seconds", step_seconds)
    obs.observe_many("sched.block_seconds", seconds)
    if workers > 1:
        worked = step_seconds > 0
        obs.observe_many(
            "sched.imbalance", busy.max(axis=0)[worked] * workers
            / step_seconds[worked], bounds=IMBALANCE_BUCKETS)
    blocks = np.bincount(step, minlength=n_steps).tolist()
    rows = [dict(step=firsts[0] + i, blocks=nb, active=a, stable=st, died=d,
                 seconds=dt)
            for i, (nb, (a, st, d), dt) in enumerate(
                zip(blocks, per_step.tolist(), step_seconds.tolist()))]
    obs.rows("steps", rows)
    if not obs.detail:
        return
    # a block's row i starts when its rows before i are done
    done = np.cumsum(seconds) - seconds
    begin = np.repeat(np.array(starts) - done[heads], lens) + done
    first_begin = np.full(n_steps, np.inf)
    np.minimum.at(first_begin, step, begin)
    last_end = np.full(n_steps, -np.inf)
    np.maximum.at(last_end, step, begin + seconds)
    obs.extend([
        *(("block", "block", "X", t0, dt, f"worker-{w}",
           dict(step=firsts[0] + s, block=b, strands=n))
          for s, b, w, t0, dt, n in zip(
              step.tolist(), np.repeat(np.array(index), lens).tolist(),
              worker.tolist(), begin.tolist(), seconds.tolist(),
              counts[:, 0].tolist())),
        *(("superstep", "superstep", "X", t0, t1 - t0, None,
           {k: v for k, v in row.items() if k != "seconds"})
          for row, t0, t1 in zip(rows, first_begin.tolist(),
                                 last_end.tolist())),
        *(("strands.active", "gauge", "C", t1, 0.0, None,
           {"value": row["active"] - row["stable"] - row["died"]})
          for row, t1 in zip(rows, last_end.tolist())),
    ])
