"""Scheduler equivalence and uniform-branch-guard tests.

The paper's execution model (§5.5) makes scheduling invisible to the
program: strand blocks index disjoint strand sets, so the sequential
loop nest, the persistent thread pool, and the shared-memory process
pool must all produce **bit-identical** results at a given block size.
The uniform-branch guards emitted by pygen (``if rt.any_lane(c):``) must
likewise be invisible: the HighIR reference interpreter — which always
executes both predicated arms — is the oracle.
"""

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.codegen import cbuild
from repro.core.codegen.interp import HighInterpreter, compile_high
from repro.core.driver import compile_program
from repro.core.verify.fuzz import step_tallies
from repro.errors import InputError
from repro.nrrd import write_nrrd
from repro.obs import Obs
from repro.runtime import ops as rt
from repro.runtime.scheduler import ThreadScheduler, resolve_workers

#: probe-free program with mixed branching, deaths, and staggered
#: stabilization — exercises partial blocks and active-set shrinkage
BRANCHY = """
input int res = 12;
strand S (int i, int j) {
    real x = real(i);
    real y = real(j);
    real acc = 0.0;
    int n = 0;
    output real v = 0.0;
    update {
        if (x * y > 40.0) {
            acc += sqrt(x + y) * 0.25;
        } else {
            acc += 0.125 * x + 0.01 * y;
        }
        n += 1;
        if (acc > 9.0) die;
        if (n >= 3 + i % 7) {
            v = acc + 0.001 * real(n);
            stabilize;
        }
    }
}
initially [ S(i, j) | i in 0 .. res-1, j in 0 .. res-1 ];
"""

#: image-probing program — under the process scheduler the payload
#: travels through a shared-memory block
PROBING = """
input real scale = 1.5;
image(2)[] img = load("data.nrrd");
field#1(2)[] F = img ⊛ ctmr;
strand S (int i, int j) {
    vec2 p = [real(i), real(j)];
    output real v = 0.0;
    update {
        if (inside(p, F)) v = scale * F(p) + 0.25 * (∇F(p) • [1.0, 0.5]);
        stabilize;
    }
}
initially [ S(i, j) | i in 0 .. 9, j in 0 .. 9 ];
"""


def _results_equal(a, b):
    assert a.steps == b.steps
    assert a.num_strands == b.num_strands
    assert a.num_stable == b.num_stable
    assert a.num_died == b.num_died
    assert set(a.outputs) == set(b.outputs)
    for key in a.outputs:
        assert a.outputs[key].dtype == b.outputs[key].dtype, key
        assert np.array_equal(a.outputs[key], b.outputs[key]), key


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("block_size", [1, 64, 4096])
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("scheduler", ["thread", "process"])
    def test_bit_identical_to_sequential(self, scheduler, workers, block_size):
        prog = compile_program(BRANCHY)
        base = prog.run(block_size=block_size)
        res = prog.run(workers=workers, block_size=block_size,
                       scheduler=scheduler)
        _results_equal(res, base)

    def test_process_scheduler_with_shared_image(self, noise32):
        prog = compile_program(PROBING)
        prog.bind_image("img", noise32)
        base = prog.run()
        res = prog.run(workers=2, scheduler="process", block_size=16)
        _results_equal(res, base)

    def test_explicit_seq_scheduler(self):
        prog = compile_program(BRANCHY)
        _results_equal(prog.run(scheduler="seq"), prog.run())

    def test_unknown_scheduler_rejected(self):
        prog = compile_program(BRANCHY)
        with pytest.raises(InputError, match="scheduler"):
            prog.run(scheduler="gpu")

    def test_process_workers_attributed(self):
        prog = compile_program(BRANCHY)
        tracer = Obs(detail=True)
        prog.run(workers=2, scheduler="process", block_size=16, obs=tracer)
        tids = {ev.tid for ev in tracer.spans("block")}
        assert tids <= {"worker-0", "worker-1"}
        per_step = tracer.block_workers()
        assert all(all(t.startswith("worker-") for t in step) for step in per_step)

    def test_process_error_propagates(self):
        from repro.errors import RuntimeErrorD

        prog = compile_program(BRANCHY)
        # corrupt the generated source so workers fail during setup
        broken = prog.generated_source + "\nraise ValueError('boom')\n"
        object.__setattr__(prog, "generated_source", broken)
        with pytest.raises(RuntimeErrorD, match="boom"):
            prog.run(workers=2, scheduler="process")


# -- one step loop, two ways to drive it ---------------------------------------

#: particles pushed along the image gradient: they leave the domain, die
#: on bright samples and stabilize at different steps, so the active list
#: is sparse and shrinks unevenly across blocks
DIE_HEAVY = """
image(2)[] img = load("p.nrrd");
field#2(2)[] F = img ⊛ bspln3;
strand P (int i, int j) {
    output vec2 pos = [real(i) * 1.7 + 1.0, real(j) * 1.7 + 1.0];
    int n = 0;
    update {
        if (!inside(pos, F)) die;
        if (F(pos) > 0.8) die;
        pos += 2.5 * ∇F(pos);
        n += 1;
        if (n >= 4 + (i + 2 * j) % 9) stabilize;
    }
}
initially [ P(i, j) | i in 0 .. 13, j in 0 .. 13 ];
"""

PAPER_KW = {
    "vr-lite": dict(scale=0.1, volume_size=24),
    "illust-vr": dict(scale=0.1, volume_size=24),
    "ridge3d": dict(scale=0.4, volume_size=24),
    "lic2d": dict(scale=0.08),
}

_DRIVEN: dict = {}


def _driven_program(name):
    """One compiled (and, on first run, ``cc``-built) program per name."""
    if name not in _DRIVEN:
        if name == "die-heavy":
            from repro.image import Image

            prog = compile_program(DIE_HEAVY)
            data = np.random.default_rng(11).random((26, 26))
            prog.bind_image("img", Image(data, dim=2))
        else:
            from repro.programs import ALL

            prog = ALL[name].make_program(**PAPER_KW[name])
        _DRIVEN[name] = prog
    return _DRIVEN[name]


def _int_counters(res, partition_free: bool) -> dict:
    """Counters two drivings of one run must share: no clock readings, no
    record of the driving itself or of who built the artifact, no
    per-thread attribution — and, when the two cut the work-list
    differently, nothing that counts blocks."""
    out = {}
    for name, v in res.metrics.snapshot()["counters"].items():
        if name.endswith("seconds") or name.startswith(("runtime.loop.",
                                                        "cgen.cache.")):
            continue
        if ".worker." in name and res.metrics.gauges["run.workers"] > 1:
            continue
        if partition_free and (name.endswith(".blocks")
                               or name == "op.native_update.calls"):
            continue
        out[name] = v
    return out


@pytest.mark.skipif(not cbuild.compiler_available(),
                    reason="needs cffi plus a C compiler on PATH")
class TestKernelLoopVsPerStep:
    """A C run with nothing watching its step boundaries keeps the loop
    in the kernel; the same run with a no-op ``on_step`` comes back to
    Python every step.  Nobody can tell them apart by their results."""

    @pytest.mark.parametrize("block_size", [1, 64, 4096])
    @pytest.mark.parametrize("scheduler,workers", [("seq", 1), ("thread", 2)])
    @pytest.mark.parametrize("name", [*PAPER_KW, "die-heavy"])
    def test_bit_identical(self, name, scheduler, workers, block_size):
        prog = _driven_program(name)
        kw = dict(backend="c", scheduler=scheduler, workers=workers,
                  block_size=block_size)
        kernel = prog.run(**kw)
        stepped = prog.run(on_step=lambda ev: None, **kw)
        assert kernel.metrics.counters["runtime.loop.kernel"] == 1
        assert stepped.metrics.counters["runtime.loop.per_step.on_step"] == 1
        _results_equal(kernel, stepped)

        # block size 64 is where the two cut differently: per step the
        # compacted list is re-cut, in the kernel a block stays a block
        # until its last strand leaves
        same_cut = block_size != 64
        rows_k = kernel.metrics.series["steps"]
        rows_s = stepped.metrics.series["steps"]
        assert len(rows_k) == len(rows_s) == kernel.steps
        assert step_tallies(kernel) == step_tallies(stepped)
        for a, b in zip(rows_k, rows_s):
            assert type(a["blocks"]) is int
            if same_cut:
                assert a["blocks"] == b["blocks"]
            else:
                assert a["blocks"] >= b["blocks"] >= 1
        assert _int_counters(kernel, not same_cut) == \
            _int_counters(stepped, not same_cut)
        hk, hs = (r.metrics.snapshot()["histograms"] for r in (kernel, stepped))
        assert hk["sched.step_seconds"]["count"] == \
            hs["sched.step_seconds"]["count"] == kernel.steps
        if same_cut:
            assert hk["sched.block_seconds"]["count"] == \
                hs["sched.block_seconds"]["count"]
        if workers > 1:
            assert hk["sched.imbalance"]["count"] == \
                hs["sched.imbalance"]["count"]

    def test_die_heavy_program_shrinks_unevenly(self):
        res = _driven_program("die-heavy").run(backend="c", block_size=64)
        active = [r["active"] for r in res.metrics.series["steps"]]
        assert res.num_died > 20 and res.num_stable > 20
        assert len(set(active)) > 5 and active == sorted(active, reverse=True)
        # some step ran more blocks than a re-cut list would have needed
        assert any(r["blocks"] > -(-r["active"] // 64)
                   for r in res.metrics.series["steps"])

    @pytest.mark.parametrize("reason,kw", [
        ("tracer", dict(backend="c", obs=Obs(detail=True))),
        ("numpy", dict(backend="numpy")),
        ("numpy", dict(backend="numpy", scheduler="process", workers=2)),
        ("process", dict(backend="c", scheduler="process", workers=2)),
    ])
    def test_decision_is_recorded_with_its_reason(self, reason, kw):
        res = _driven_program("die-heavy").run(block_size=64, **kw)
        loop = {k: v for k, v in res.metrics.counters.items()
                if k.startswith("runtime.loop.")}
        assert loop == {f"runtime.loop.per_step.{reason}": 1}
        tracer = kw.get("obs")
        if tracer is not None:
            how = [ev.args["how"] for ev in tracer.events
                   if ev.name == "superstep-loop"]
            assert how == [f"per_step.{reason}"]

    def test_stabilize_method_keeps_the_barrier(self):
        src = """
            strand S (int i) {
                output real x = 0.0;
                update { x += 1.0; if (x > real(i)) stabilize; }
                stabilize { x = -x; }
            }
            initially [ S(i) | i in 0 .. 9 ];
        """
        prog = compile_program(src)
        a, b = prog.run(backend="c"), prog.run(backend="numpy")
        assert a.metrics.counters["runtime.loop.per_step.stabilize"] == 1
        _results_equal(a, b)


class TestWorkersOption:
    def test_auto_resolves_to_cpu_count(self):
        import os

        assert resolve_workers("auto") == max(1, os.cpu_count() or 1)

    def test_plain_integers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("2") == 2

    @pytest.mark.parametrize("bad", [0, -1, "0", "-4"])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(InputError, match="workers"):
            resolve_workers(bad)

    def test_garbage_rejected(self):
        with pytest.raises(InputError, match="auto"):
            resolve_workers("many")

    def test_program_run_rejects_zero_workers(self):
        prog = compile_program(BRANCHY)
        with pytest.raises(InputError, match="workers"):
            prog.run(workers=0)

    def test_program_run_accepts_auto(self):
        prog = compile_program(BRANCHY)
        res = prog.run(workers="auto")
        assert res.num_strands == 144


class TestCliWorkers:
    @pytest.fixture
    def workspace(self, tmp_path):
        src = tmp_path / "prog.diderot"
        src.write_text(BRANCHY, encoding="utf-8")
        return tmp_path

    def test_workers_auto(self, workspace, capsys):
        code = main([str(workspace / "prog.diderot"), "--workers", "auto",
                     "--out", str(workspace / "o")])
        assert code == 0
        assert "144 strands" in capsys.readouterr().out

    def test_process_scheduler_flag(self, workspace, capsys):
        code = main([str(workspace / "prog.diderot"), "--scheduler", "process",
                     "--workers", "2", "--out", str(workspace / "o")])
        assert code == 0
        assert "144 strands" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["0", "-2", "lots"])
    def test_bad_workers_clean_error(self, workspace, bad, capsys):
        code = main([str(workspace / "prog.diderot"), "--workers", bad,
                     "--out", str(workspace / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "workers" in err
        assert "Traceback" not in err


class TestThreadPoolPersistence:
    def test_workers_reused_across_steps(self):
        sched = ThreadScheduler(3)
        try:
            idents_before = {t.ident for t in sched._threads}
            for step in range(5):
                blocks = [np.arange(i, i + 4) for i in range(0, 32, 4)]
                results, times = sched.run_step(blocks, lambda b: int(b.sum()),
                                                step=step)
                assert results == [int(b.sum()) for b in blocks]
                assert len(times) == len(blocks)
            assert {t.ident for t in sched._threads} == idents_before
            assert all(t.is_alive() for t in sched._threads)
        finally:
            sched.close()

    def test_last_block_workers_filled(self):
        sched = ThreadScheduler(2)
        try:
            blocks = [np.arange(3)] * 7
            sched.run_step(blocks, lambda b: None)
            assert len(sched.last_block_workers) == 7
            assert all(w in (0, 1) for w in sched.last_block_workers)
        finally:
            sched.close()

    def test_error_propagates_and_pool_survives(self):
        sched = ThreadScheduler(2)
        try:
            def boom(block):
                raise ValueError("bad block")

            with pytest.raises(ValueError, match="bad block"):
                sched.run_step([np.arange(2)] * 4, boom)
            # the pool is still usable after an error
            results, _ = sched.run_step([np.arange(2)], lambda b: 7)
            assert results == [7]
        finally:
            sched.close()

    def test_closed_pool_rejects_work(self):
        sched = ThreadScheduler(2)
        sched.close()
        sched.close()  # idempotent
        with pytest.raises(RuntimeError):
            sched.run_step([np.arange(2)], lambda b: None)
        assert not any(t.is_alive() for t in sched._threads)


GUARD_CASES = {
    # every lane takes the then arm → the else arm never runs
    "all-true": "if (x >= 0.0) { w = x * 2.0 + 1.0; } else { w = -x; }",
    # no lane takes the then arm → it never runs
    "all-false": "if (x < -1.0) { w = sqrt(x - 100.0); } else { w = x + 0.5; }",
    # a genuine per-lane mix → both arms run, φ selects
    "mixed": "if (x > 5.0) { w = x - 5.0; } else { w = 0.1 * x; }",
}


def _guard_source(branch: str) -> str:
    return f"""
    strand S (int i) {{
        real x = real(i);
        output real w = 0.0;
        update {{
            {branch}
            stabilize;
        }}
    }}
    initially [ S(i) | i in 0 .. 11 ];
    """


class TestUniformBranchGuards:
    @pytest.mark.parametrize("case", list(GUARD_CASES))
    def test_matches_high_interpreter(self, case):
        src = _guard_source(GUARD_CASES[case])
        hp = compile_high(src)
        interp = HighInterpreter(hp, {})
        g = list(interp.call(hp.globals_func, []))
        params = interp.call(hp.seed_func, g + [np.arange(12)])
        state = interp.call(hp.init_func, g + list(params))
        out = interp.call(hp.update_func, g + list(state))
        ref = out[hp.update_func.result_names.index("w")]

        prog = compile_program(src)
        res = prog.run()
        assert np.allclose(res.outputs["w"], ref, atol=1e-12), case

    def test_uniform_arms_are_skipped(self):
        rt.reset_guard_stats()
        prog = compile_program(_guard_source(GUARD_CASES["all-false"]))
        prog.run()
        stats = rt.guard_stats()
        assert stats["checked"] > 0
        assert stats["skipped"] > 0  # the dead then-arm never executed

    def test_mixed_arms_are_not_skipped(self):
        prog = compile_program(_guard_source(GUARD_CASES["mixed"]))
        rt.reset_guard_stats()
        prog.run()
        stats = rt.guard_stats()
        assert stats["checked"] > 0
        assert stats["skipped"] == 0

    def test_dead_lane_heavy_program_skips_work(self, hand32):
        """vr-lite's exit-the-volume branch: once every ray in a block has
        left the volume, the probe arm is skipped entirely."""
        from repro.programs import vr_lite

        prog = vr_lite.make_program(scale=0.12, volume_size=32)
        rt.reset_guard_stats()
        res = prog.run()
        stats = rt.guard_stats()
        assert res.steps > 1
        assert stats["skipped"] > 0
        assert stats["skipped"] / stats["checked"] > 0.1


class TestInPlaceFastPath:
    def test_single_block_matches_many_blocks(self):
        prog = compile_program(BRANCHY)
        # 4096 ≫ 144 strands → every step is one full block (fast path);
        # tiny blocks force the gather/scatter path
        fast = prog.run(block_size=4096)
        slow = prog.run(block_size=144)
        _results_equal(fast, slow)

    def test_outputs_writeable_and_private(self):
        prog = compile_program(BRANCHY)
        res = prog.run(block_size=4096)
        arrs = list(res.outputs.values())
        for arr in arrs:
            assert arr.flags.writeable
        for i, a in enumerate(arrs):
            for b in arrs[i + 1:]:
                assert not np.may_share_memory(a, b)


def test_write_nrrd_roundtrip_under_process(tmp_path, noise32):
    """End-to-end CLI: compile, run under the process scheduler, save."""
    src = tmp_path / "prog.diderot"
    src.write_text(PROBING, encoding="utf-8")
    write_nrrd(str(tmp_path / "data.nrrd"), noise32)
    out = str(tmp_path / "res")
    code = main([str(src), "--scheduler", "process", "--workers", "2",
                 "--out", out])
    assert code == 0
    from repro.nrrd import read_nrrd

    img = read_nrrd(f"{out}-v.nrrd")
    assert img.sizes == (10, 10)


# -- state aliasing: update results that are its inputs -------------------------

#: update results may alias each other or an input state array (the block
#: kernel's contract, ``repro.runtime.kernel.NumpyKernel``)
ALIASING = {
    # t = a; a = b; b = t — update returns the arrays it was handed, swapped
    "swap": """
        strand S (int i) {
            output real a = real(i);
            output real b = real(i) * 10.0 + 1.0;
            int n = 0;
            update {
                real t = a; a = b; b = t;
                n += 1;
                if (n >= 1 + i % 4) stabilize;
            }
        }
        initially [ S(i) | i in 0 .. 11 ];
    """,
    "rotate-vec2": """
        strand S (int i) {
            output vec2 p = [real(i), 1.0];
            output vec2 q = [2.0, real(i) * 0.5];
            output vec2 r = [real(i) * 3.0, -1.0];
            int n = 0;
            update {
                vec2 t = p; p = q; q = r; r = t;
                n += 1;
                if (n >= 2 + i % 3) stabilize;
            }
        }
        initially [ S(i) | i in 0 .. 11 ];
    """,
    # k is never assigned: it comes back as the array that went in
    "pass-through": """
        strand S (int i) {
            output real k = real(i) * 0.25 + 0.125;
            output real x = 0.0;
            update {
                x += k;
                if (x > 2.0) stabilize;
                if (x > 1.9) die;
            }
        }
        initially [ S(i) | i in 0 .. 11 ];
    """,
    # two variables assigned one SSA value: the same array, twice
    "same-expression": """
        strand S (int i) {
            output real a = 0.0;
            output real b = 1.0;
            int n = 0;
            update {
                real e = a + real(i) * 0.5 + 1.0;
                a = e; b = e;
                n += 1;
                if (n >= 3) stabilize;
            }
        }
        initially [ S(i) | i in 0 .. 11 ];
    """,
}

_ALIASING_BACKENDS = ["numpy"] + (["c"] if cbuild.compiler_available() else [])


class TestStateAliasing:
    """Bit-identical to seq under every scheduler × backend × block size;
    4096 means one block covers every strand — the in-place path, where a
    result that is another variable's state array must be read before that
    array is overwritten."""

    @pytest.mark.parametrize("block_size", [1, 3, 4096])
    @pytest.mark.parametrize("backend", _ALIASING_BACKENDS)
    @pytest.mark.parametrize("scheduler,workers",
                             [("seq", 1), ("thread", 2), ("process", 2)])
    @pytest.mark.parametrize("name", list(ALIASING))
    def test_bit_identical_to_sequential(self, name, scheduler, workers,
                                         backend, block_size):
        prog = compile_program(ALIASING[name])
        # the reference: one strand per block never takes the in-place path
        base = prog.run(block_size=1)
        res = prog.run(scheduler=scheduler, workers=workers, backend=backend,
                       block_size=block_size)
        _results_equal(res, base)

    def test_swap_really_swaps(self):
        res = compile_program(ALIASING["swap"]).run()
        i = np.arange(12.0)
        odd = (1 + np.arange(12) % 4) % 2 == 1  # stabilized after an odd count
        assert np.array_equal(res.outputs["a"], np.where(odd, i * 10 + 1, i))
        assert np.array_equal(res.outputs["b"], np.where(odd, i, i * 10 + 1))


# -- a run that fails before its first super-step gives everything back ----------

EMPTY_RANGE = """
input int n = 0;
strand S (int i) {
    output real x = real(i);
    update { stabilize; }
}
initially [ S(i) | i in 1 .. n ];
"""


def _gather_hook():
    return getattr(rt._FOOTPRINT, "recorder", None)


def _workers():
    """Every live ``diderot-worker-*`` thread and process, whoever owns it
    (other tests' pooled schedulers may still be around)."""
    import multiprocessing
    import threading

    return ({t.ident for t in threading.enumerate()
             if t.name.startswith("diderot-worker-")}
            | {p.pid for p in multiprocessing.active_children()
               if p.name.startswith("diderot-worker-")})


def _shm_segments():
    import os

    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestFailingSetupReleases:
    """Set-up is inside the run's one ``finally``: a run that raises
    before the step loop leaves no gather hook, no worker of its own and
    no shared memory behind, and leaves a borrowed scheduler alone."""

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(scheduler="thread", workers=2),
        dict(scheduler="process", workers=2),
    ])
    def test_empty_range_while_checkpointing(self, kw):
        from repro.errors import RuntimeErrorD

        shm, workers = _shm_segments(), _workers()
        prog = compile_program(EMPTY_RANGE)
        with pytest.raises(RuntimeErrorD, match="empty comprehension range"):
            prog.run(checkpoint=True, **kw)
        assert _gather_hook() is None
        assert _workers() <= workers
        assert _shm_segments() == shm
        # ... so a later plain run on this thread reports to nobody
        prog.set_input("n", 4)
        assert prog.run().num_strands == 4
        assert not prog.has_checkpoint

    def test_strand_count_mismatch_on_update(self):
        from repro.errors import RuntimeErrorD

        prog = compile_program(EMPTY_RANGE)
        prog.set_input("n", 6)
        prog.run(checkpoint=True)
        prog.set_input("n", 5, _invalidate=False)  # behind the checkpoint's back
        with pytest.raises(RuntimeErrorD, match="6 strands"):
            prog.run_update()
        assert _gather_hook() is None
        assert prog.has_checkpoint  # untouched: a matching update still works
        prog.set_input("n", 6, _invalidate=False)
        assert prog.run_update().num_strands == 6

    def test_process_worker_fatal_during_setup(self, monkeypatch):
        from repro.errors import RuntimeErrorD
        from repro.runtime import mpsched

        def broken(wid, setup_bytes):
            raise OSError("no shared memory today")

        shm, workers = _shm_segments(), _workers()
        prog = compile_program(BRANCHY)
        with monkeypatch.context() as patched:  # before the fork
            patched.setattr(mpsched, "_apply_setup", broken)
            with pytest.raises(RuntimeErrorD, match="no shared memory today"):
                prog.run(scheduler="process", workers=2, checkpoint=True)
        assert _gather_hook() is None
        assert _workers() <= workers
        assert _shm_segments() == shm
        assert not prog.has_checkpoint
        _results_equal(prog.run(scheduler="process", workers=2), prog.run())

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_borrowed_scheduler_is_left_open(self, pool):
        from repro.errors import RuntimeErrorD
        from repro.runtime.mpsched import ProcessScheduler

        workers = _workers()
        sched = ThreadScheduler(2) if pool == "thread" else ProcessScheduler(2)
        try:
            with pytest.raises(RuntimeErrorD, match="empty comprehension"):
                compile_program(EMPTY_RANGE).run(scheduler=sched,
                                                 checkpoint=True)
            assert _gather_hook() is None
            prog = compile_program(BRANCHY)
            for _ in range(2):  # it serves the next runs
                _results_equal(prog.run(scheduler=sched), prog.run())
        finally:
            sched.close()
        assert _workers() <= workers
