"""The checkpointed probe program of the ``paper-*`` workloads: dirty-region
updates against the full re-run they have to beat.

``bench_incremental``'s program (grid³ strands probing F and ∇F over a
seeded random volume) on the workload's backend, sequential.  Rows:
``update_5pct_ms`` — ``update_input`` + ``run_update`` for a 5 % slab of
seeded increments; ``rerun_ms`` — what a caller without checkpoints does for
the same change: bind the patched volume to a second program object and run
it cold.  That cold run is also the update's oracle: the two results must
be bit-identical.  The first update after a fresh checkpoint (which builds
every strand's footprint) and the whole-volume update are layer metrics.
"""

from __future__ import annotations

from repro.core.driver import compile_program
from repro.image import Image

from ledger import inputs, trace
from ledger.harness import Checks, median, rounds, timed


class Bench:
    """The program under test, a mirror of its volume, and the cold oracle."""

    def __init__(self, seed: int, cfg: dict, backend: str, checks: Checks):
        self.checks = checks
        self.vol = cfg["vol"]
        self.run_kw = dict(backend=backend, scheduler="seq", max_steps=cfg["steps"] + 1)
        source = inputs.incremental_source(cfg["vol"], cfg["grid"], cfg["steps"])
        self.mirror = inputs.incremental_volume(seed, self.vol)
        self.prog = compile_program(source)
        self.prog.bind_image("img", Image(self.mirror.copy(), dim=3))
        self.oracle = compile_program(source)
        self.slab = inputs.slab(self.vol)
        self.bumps = inputs.slab_bumps(seed)
        self.cursor = 0
        self.dirty: list[tuple[int, float]] = []

    def checkpoint(self):
        self.prog.invalidate_checkpoint()
        return self.prog.run(checkpoint=True, **self.run_kw)

    def rerun(self):
        """A cold run of the second program object over the patched volume."""
        self.oracle.bind_image("img", Image(self.mirror, dim=3))
        return self.oracle.run(**self.run_kw)

    def _apply(self, lo: int, hi: int):
        """Bump slab ``[lo, hi]`` of axis 0 in the mirror and push the same
        samples into the program; returns the update's RunResult."""
        self.mirror[lo:hi + 1] += self.bumps[self.cursor % len(self.bumps)]
        self.cursor += 1
        region = [[lo, hi], [0, self.vol - 1], [0, self.vol - 1]]
        self.prog.update_input("img", self.mirror[lo:hi + 1], region=region)
        return self.prog.run_update()

    def slab_update(self):
        return self._apply(*self.slab)

    def full_update(self):
        return self._apply(0, self.vol - 1)

    def verify(self, result, what: str) -> float:
        """Bit-identity with a cold run over the patched volume; returns the
        cold run's seconds."""
        want, dt = timed(self.rerun)
        self.checks.identical(result.outputs, want.outputs, what)
        return dt

    def timed_pair(self, samples: dict[str, list[float]]) -> None:
        """One slab update and the cold re-run that checks it, both timed."""
        res, dt = timed(self.slab_update)
        samples["update_5pct"].append(dt)
        self.checks.check(res.incremental and 0 < res.dirty_strands < res.num_strands,
                          f"5% update re-ran {res.dirty_strands}/{res.num_strands} strands")
        self.dirty.append((res.dirty_strands, res.dirty_fraction))
        samples["rerun"].append(self.verify(res, "5% slab update"))


def set_up(seed: int, cfg: dict, backend: str, checks: Checks, laps) -> Bench:
    """Compile, run to a checkpoint, and take the first update (which builds
    the footprints), each checked against a cold run."""
    bench = Bench(seed, cfg, backend, checks)
    laps.lap("compile.probe")
    res = bench.checkpoint()
    laps.lap("checkpoint_run")
    bench.verify(res, "cold checkpointed run")
    laps.lap("check")
    res = bench.slab_update()
    laps.lap("first_update")
    bench.verify(res, "first update after the checkpoint")
    laps.lap("check")
    return bench


def layers(bench: Bench, seconds: float, untraced: dict[str, float]) -> tuple[dict, trace.OpLedger]:
    """Traced pass: per round a fresh checkpoint, the first update after it,
    one more slab update and a whole-volume update."""
    from repro.runtime import incremental, native, program, scheduler

    ledger = trace.OpLedger(trace.Recorder())
    P = program.Program
    targets = [
        (P, "run", "runtime.program.run"),
        (P, "run_update", "runtime.program.run_update"),
        (P, "update_input", "runtime.incremental.update_input"),
        (P, "build_footprints", "runtime.incremental.build_footprints"),
        (incremental.Footprints, "dirty_strands", "runtime.incremental.dirty_query"),
        (scheduler.SequentialScheduler, "run_step", "runtime.scheduler.seq.run_step"),
        (native.NativeUpdate, "run_range", "runtime.native.kernel"),
    ]
    kinds = ("first", "slab", "full")
    per_op: dict[str, list[dict]] = {k: [] for k in kinds}
    walls: dict[str, list[float]] = {k: [] for k in kinds}
    checkpoint_s: list[float] = []

    def op(kind: str, update, what: str) -> None:
        selfs: dict[str, float] = {}
        res, dt, spans = ledger.op(update, selfs)
        durs: dict[str, float] = {}
        for s in spans:
            durs[s.name] = durs.get(s.name, 0.0) + s.dur
        per_op[kind].append({"self": selfs, "dur": durs})
        walls[kind].append(dt)
        bench.verify(res, what)

    def one_round(_i: int) -> None:
        checkpoint_s.append(timed(bench.checkpoint)[1])
        op("first", bench.slab_update, "traced first update")
        op("slab", bench.slab_update, "traced 5% update")
        op("full", bench.full_update, "traced whole-volume update")

    with trace.wrapped(ledger.rec, targets):
        rounds(seconds, one_round, min_rounds=2)

    def med(kind: str, table: str, name: str) -> float:
        return median([d[table].get(name, 0.0) for d in per_op[kind]]) * 1e3

    out = {
        # whole span: the shadow run that records the footprints is inside it
        "runtime.incremental.build_footprints_ms":
            med("first", "dur", "runtime.incremental.build_footprints"),
        "runtime.incremental.update_input_ms":
            med("slab", "self", "runtime.incremental.update_input"),
        "runtime.incremental.dirty_query_ms":
            med("slab", "dur", "runtime.incremental.dirty_query"),
        "runtime.incremental.checkpoint_run_ms": median(checkpoint_s) * 1e3,
        "runtime.incremental.first_update_ms": median(walls["first"]) * 1e3,
        "runtime.incremental.update_100pct_ms": median(walls["full"]) * 1e3,
        "runtime.incremental.dirty_strands": median([d[0] for d in bench.dirty]),
        "runtime.incremental.dirty_fraction": median([d[1] for d in bench.dirty]),
        "runtime.incremental.update_over_rerun":
            untraced["update_5pct"] / untraced["rerun"],
    }
    return out, ledger
