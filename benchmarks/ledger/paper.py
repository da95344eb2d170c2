"""Workloads ``paper-native`` and ``paper-numpy``: warm ``Program.run`` wall
of the four paper programs under one backend, one row per program, plus
the checkpointed probe program's re-run and 5 % update (``incremental``).

The traced run of ``paper-native`` also carries the parallel legs: the same
programs on the thread scheduler, and lic2d on the process scheduler.
"""

from __future__ import annotations

import os

import numpy as np

from ledger import incremental, inputs, trace
from ledger.harness import (Checks, CpuRotation, median, repeat_setup, rounds, timed,
                            timing)
from ledger.spec import PROGRAMS

#: workload -> backend, size table (always the sequential scheduler, one CPU
#: at a time)
CONFIGS = {"paper-native": ("c", "native"), "paper-numpy": ("numpy", "numpy")}

#: output compared with the hand-written baseline, and the tolerance
#: ``tests/test_differential.py`` uses for it
ORACLE = {"vr_lite": ("gray", 1e-12), "illust_vr": ("rgb", 1e-10),
          "lic2d": ("sum", 1e-12), "ridge3d": ("pos", 1e-10)}

INCREMENTAL_ROWS = ("rerun", "update_5pct")


def _sources() -> dict[str, str]:
    from repro.programs import illust_vr, lic2d, ridge3d, vr_lite

    return {"vr_lite": vr_lite.SOURCE, "illust_vr": illust_vr.SOURCE,
            "lic2d": lic2d.SOURCE, "ridge3d": ridge3d.SOURCE}


def _baseline(program: str, images: dict, values: dict) -> np.ndarray:
    """The hand-written gage implementation on the same inputs."""
    from repro import baselines

    if program in ("vr_lite", "illust_vr"):
        cam = dict(res_u=values["imgResU"], res_v=values["imgResV"],
                   orig=values["orig"], c_vec=values["cVec"], r_vec=values["rVec"])
        if program == "vr_lite":
            return baselines.vr_lite.run(images["img"], **cam)
        return baselines.illust_vr.run(images["img"], images["xfer"], **cam)
    if program == "lic2d":
        return baselines.lic2d.run(images["vectors"], images["rand"],
                                   res_u=values["imgResU"], res_v=values["imgResV"],
                                   extent=values["extent"])
    return baselines.ridge3d.run(images["img"], grid_res=values["gridRes"],
                                 grid_ext=values["gridExt"])


def _shm_segments() -> int:
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0


class _State:
    """What one set-up leaves behind: compiled, bound and warm programs."""

    def __init__(self, seed: int, images: dict, grid: dict, cfg: dict, run_kw: dict,
                 checks: Checks, laps):
        from repro.core.driver import compile_program

        self.progs, self.first, self.counts = {}, {}, {}
        for p, source in _sources().items():
            prog = self.progs[p] = compile_program(source)
            for name, img in images[p].items():
                prog.bind_image(name, img)
            inputs.apply(prog, inputs.paper_inputs(seed, p, grid[p][0]))
            laps.lap(f"compile.{p}")
            # warm-up at full size; its outputs are what every timed repeat
            # must equal
            res = prog.run(**run_kw)
            laps.lap(f"first_run.{p}")
            self.first[p] = res.outputs
            checks.check(all(np.all(np.isfinite(a)) for a in res.outputs.values()),
                         f"{p}: non-finite output")
            counters = res.metrics.snapshot()["counters"]
            self.counts[p] = {"strands": res.num_strands, "steps": res.steps,
                              "strand_updates": int(counters.get("strands.updated", 0))}
            laps.lap("check")
        self.bench = incremental.set_up(seed, cfg, run_kw["backend"], checks, laps)


def run(workload: str, seed: int, seconds: float, traced: bool, sizes: dict) -> dict:
    backend, size_key = CONFIGS[workload]
    rotation = CpuRotation()
    grid = sizes[size_key]
    run_kw = dict(backend=backend, scheduler="seq", workers=1)
    checks = Checks()
    images = inputs.paper_images(seed, {p: vol for p, (_, vol) in grid.items()})

    state, setup_parts = repeat_setup(lambda laps: _State(
        seed, images, grid, sizes["incremental"][size_key], run_kw, checks, laps), rotation)
    progs, bench = state.progs, state.bench

    # oracle: same compiled artifact and backend as the timed runs, tiny
    # grid, against the hand-written baseline
    for p in PROGRAMS:
        values = inputs.paper_inputs(seed, p, sizes["oracle"][p], oracle=True)
        inputs.apply(progs[p], values)
        out, atol = ORACLE[p]
        got = progs[p].run(**run_kw).outputs[out]
        checks.close_to(got, _baseline(p, images[p], values), atol,
                        f"{p} vs repro.baselines")
        inputs.apply(progs[p], inputs.paper_inputs(seed, p, grid[p][0]))

    def one(p: str, **kw) -> float:
        res, dt = timed(lambda: progs[p].run(**{**run_kw, **kw}))
        checks.identical(res.outputs, state.first[p], f"{p} repeat")
        return dt

    samples: dict[str, list[float]] = {k: [] for k in PROGRAMS + INCREMENTAL_ROWS}

    def untraced_round(_i: int) -> None:
        rotation.tick()
        for p in PROGRAMS:
            samples[p].append(one(p))
        bench.timed_pair(samples)

    if not traced:
        rounds(seconds, untraced_round)
    else:
        rounds(seconds * 0.3, untraced_round, min_rounds=2)
    doc = {
        "end_to_end": {f"{k}_ms": timing(v) for k, v in samples.items()},
        "setup_parts": setup_parts,
        "counts": state.counts,
        "flags": {"cpus": rotation.cpus, "backend": backend, "scheduler": "seq",
                  "incremental_strands": sizes["incremental"][size_key]["grid"] ** 3},
        "checks": checks,
    }
    if traced:
        doc["layers"], doc["layer_sum_ratio"] = _traced(
            workload, state, one, samples, seconds * 0.6, sizes, seed, checks,
            doc["flags"], rotation)
    return doc


def _traced(workload, state, one, untraced, seconds, sizes, seed, checks, flags,
            rotation) -> tuple[dict, float]:
    from repro.runtime import native, ops, program, scheduler

    backend, _ = CONFIGS[workload]
    progs, counts = state.progs, state.counts
    ledger = trace.OpLedger(trace.Recorder())
    targets = [
        (program.Program, "run", "runtime.program.run"),
        (scheduler.SequentialScheduler, "run_step", "runtime.scheduler.seq.run_step"),
        (native.NativeUpdate, "__init__", "runtime.native.bind"),
        (native.NativeUpdate, "run_range", "runtime.native.kernel"),
    ]
    op_names = ("gather", "probe_parts", "conv_contract", "contract_axis", "horner")
    if backend == "numpy":
        targets += [(ops, op, f"runtime.ops.{op}") for op in op_names]
        targets += [(progs[p].namespace, "update", "runtime.ops.other") for p in PROGRAMS]

    by_prog: dict[str, dict[str, float]] = {p: {} for p in PROGRAMS}
    walls: dict[str, list[float]] = {p: [] for p in PROGRAMS}

    def traced_round(_i: int) -> None:
        for p in PROGRAMS:
            walls[p].append(ledger.op(lambda p=p: one(p), by_prog[p])[1])

    with trace.wrapped(ledger.rec, targets):
        n = rounds(seconds * 0.4, traced_round, min_rounds=2)

    def per_run(p: str, *names: str) -> float:
        return sum(by_prog[p].get(nm, 0.0) for nm in names) / n

    layers: dict[str, float] = {}
    for p in PROGRAMS:
        layers[f"runtime.native.kernel_s.{p}"] = per_run(p, "runtime.native.kernel")
        layers[f"runtime.native.bind_s.{p}"] = per_run(p, "runtime.native.bind")
        layers[f"runtime.program.self_s.{p}"] = per_run(p, "runtime.program.run")
        layers[f"runtime.scheduler.step_s.{p}"] = per_run(p, "runtime.scheduler.seq.run_step")
        layers[f"runtime.program.steps.{p}"] = counts[p]["steps"]
        layers[f"runtime.program.strand_updates.{p}"] = counts[p]["strand_updates"]
        layers[f"runtime.program.strand_updates_per_s.{p}"] = \
            counts[p]["strand_updates"] / median(untraced[p])
    if backend == "numpy":
        for op in op_names + ("other",):
            layers[f"runtime.ops.{op}_s"] = sum(
                per_run(p, f"runtime.ops.{op}") for p in PROGRAMS)
    else:
        # one block per super-step: what is left when per-block dispatch is gone
        for p in PROGRAMS:
            layers[f"runtime.native.single_s.{p}"] = median(
                [one(p, block_size=counts[p]["strands"]) for _ in range(3)])
        # the parallel legs may use every CPU the process started with
        rotation.release()
        try:
            layers.update(_thread_leg(one, untraced, seconds * 0.2, flags))
            layers.update(_process_leg(sizes, seed, checks))
        finally:
            rotation.advance()

    inc, inc_ledger = incremental.layers(
        state.bench, seconds * 0.3, {k: median(untraced[k]) for k in INCREMENTAL_ROWS})
    layers.update(inc)
    layers["trace.overhead_ratio"] = \
        sum(median(walls[p]) for p in PROGRAMS) / sum(median(untraced[p]) for p in PROGRAMS)
    # both ledgers must add up; report the one further from 1
    ratio = max(ledger.ratio, inc_ledger.ratio, key=lambda r: abs(r - 1.0))
    return layers, ratio


def _thread_leg(one, untraced, seconds: float, flags: dict) -> dict:
    """Diagnostic: the same programs behind the thread scheduler's work-list,
    lock and barrier with two workers; sequential ÷ threaded wall."""
    from repro.runtime import scheduler

    workers = min(2, len(os.sched_getaffinity(0)))
    flags["cpu_limited"] = workers < 2
    flags["thread_workers"] = workers
    if workers < 2:
        return {}
    rec = trace.Recorder()
    walls: dict[str, list[float]] = {p: [] for p in PROGRAMS}

    def thread_round(_i: int) -> None:
        for p in PROGRAMS:
            walls[p].append(one(p, scheduler="thread", workers=workers))

    with trace.wrapped(rec, [(scheduler.ThreadScheduler, "run_step", "run_step")]):
        n = rounds(seconds, thread_round, min_rounds=2)
    layers = {"runtime.scheduler.thread.run_step_s": sum(s.dur for s in rec.drain()) / n}
    for p in PROGRAMS:
        layers[f"runtime.scheduler.speedup.{p}"] = median(untraced[p]) / median(walls[p])
    return layers


def _process_leg(sizes, seed, checks) -> dict:
    """Diagnostic: lic2d on the process scheduler (NumPy, 2 workers) — fork
    and shared-memory set-up, re-arm of live workers, stepping, teardown."""
    from repro.core.driver import compile_program
    from repro.runtime import mpsched

    res, vol = sizes["numpy"]["lic2d"]
    prog = compile_program(_sources()["lic2d"])
    for name, img in inputs.lic_images(seed, vol).items():
        prog.bind_image(name, img)
    inputs.apply(prog, inputs.paper_inputs(seed, "lic2d", res))
    want = prog.run(backend="numpy").outputs

    before = _shm_segments()
    rec = trace.Recorder()
    cls = mpsched.ProcessScheduler
    targets = [(cls, "setup", "setup"), (cls, "run_step", "run_step"),
               (cls, "close", "close")]
    with trace.wrapped(rec, targets):
        pool = cls(2)
        try:
            for _ in range(2):
                got = prog.run(scheduler=pool, backend="numpy").outputs
                checks.identical(got, want, "lic2d process vs seq")
        finally:
            pool.close()
    spans = rec.drain()
    setups = [s.dur for s in spans if s.name == "setup"]
    return {
        "runtime.mpsched.setup_s": setups[0],
        "runtime.mpsched.rearm_s": setups[1],
        "runtime.mpsched.run_s": sum(s.dur for s in spans if s.name == "run_step") / 2,
        "runtime.mpsched.close_s": sum(s.dur for s in spans if s.name == "close"),
        "runtime.mpsched.shm_leaked": _shm_segments() - before,
    }
