"""Tests for the bulk-synchronous runtime and schedulers (paper §5.5)."""

import numpy as np
import pytest

from repro.core.driver import compile_program
from repro.obs import Obs
from repro.runtime.loop import book_steps
from repro.runtime.scheduler import SequentialScheduler, ThreadScheduler, make_blocks
from repro.runtime.simsched import (
    DEFAULT_LOCK_OVERHEAD,
    simulate_run,
    simulate_step,
    speedup_curve,
)


class TestBlocks:
    def test_even_split(self):
        blocks = make_blocks(np.arange(12), 4)
        assert [len(b) for b in blocks] == [4, 4, 4]

    def test_remainder_block(self):
        blocks = make_blocks(np.arange(10), 4)
        assert [len(b) for b in blocks] == [4, 4, 2]

    def test_paper_default_size(self):
        from repro.runtime.program import DEFAULT_BLOCK_SIZE

        assert DEFAULT_BLOCK_SIZE == 4096  # paper §5.5

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            make_blocks(np.arange(4), 0)

    def test_negative_block_size(self):
        with pytest.raises(ValueError):
            make_blocks(np.arange(4), -3)

    def test_empty(self):
        assert make_blocks(np.arange(0), 4) == []

    def test_block_larger_than_input(self):
        blocks = make_blocks(np.arange(3), 100)
        assert len(blocks) == 1
        assert blocks[0].tolist() == [0, 1, 2]

    def test_single_element_blocks(self):
        blocks = make_blocks(np.arange(4), 1)
        assert [b.tolist() for b in blocks] == [[0], [1], [2], [3]]

    def test_blocks_preserve_order_and_content(self):
        idx = np.array([9, 2, 7, 4, 1])
        blocks = make_blocks(idx, 2)
        assert np.concatenate(blocks).tolist() == idx.tolist()


def _one_step_tally(block):
    """A block kernel's tally for one step over ``block``: every strand
    active, a millisecond spent."""
    return np.array([[block.size, 0, 0]]), np.array([1e-3])


class TestSchedulers:
    def _run(self, sched, blocks):
        """What each block returned, in work-list order."""
        return [out for _, _, out in sched.run_step(blocks, lambda b: b.sum())]

    def test_sequential_results_in_order(self):
        got = SequentialScheduler().run_step(make_blocks(np.arange(10), 3),
                                             lambda b: b.sum())
        assert [out for _, _, out in got] == [0 + 1 + 2, 3 + 4 + 5,
                                              6 + 7 + 8, 9]
        starts = [t0 for _, t0, _ in got]
        assert starts == sorted(starts)

    def test_thread_scheduler_matches_sequential(self):
        blocks = make_blocks(np.arange(100), 7)
        seq = self._run(SequentialScheduler(), blocks)
        par = self._run(ThreadScheduler(4), blocks)
        assert par == seq

    def test_thread_scheduler_propagates_errors(self):
        def boom(_):
            raise ValueError("kaput")

        with pytest.raises(ValueError, match="kaput"):
            ThreadScheduler(2).run_step(make_blocks(np.arange(4), 2), boom)

    def test_error_reaches_caller_after_barrier(self):
        """One poisoned block among many: the error surfaces in the
        caller, and the surviving workers still drain their blocks (the
        barrier completes before the raise)."""
        blocks = make_blocks(np.arange(64), 4)
        done = []

        def sometimes_boom(block):
            if block[0] == 24:
                raise RuntimeError("block 6 kaput")
            done.append(int(block[0]))
            return block.sum()

        sched = ThreadScheduler(3)
        with pytest.raises(RuntimeError, match="block 6 kaput"):
            sched.run_step(blocks, sometimes_boom)
        # every thread has joined, so the done-list is final and no
        # worker is still running
        assert len(done) <= len(blocks) - 1
        assert 24 not in done

    def test_thread_worker_count_validation(self):
        with pytest.raises(ValueError):
            ThreadScheduler(0)

    def test_worker_attribution_recorded(self):
        blocks = make_blocks(np.arange(40), 4)
        got = ThreadScheduler(2).run_step(blocks, lambda b: b.sum())
        assert len(got) == len(blocks)
        assert all(w in (0, 1) for w, _, _ in got)
        # a single worker must also be able to drain the whole list
        solo = ThreadScheduler(1).run_step(blocks, lambda b: b.sum())
        assert [w for w, _, _ in solo] == [0] * len(blocks)

    def test_tracer_attribution_matches_workers(self):
        """The block spans are booked from what ``run_step`` returned:
        each names the worker that ran its block."""
        tracer = Obs(detail=True)
        blocks = make_blocks(np.arange(24), 4)
        got = ThreadScheduler(2).run_step(blocks, _one_step_tally)
        book_steps(tracer, [(0, got)], workers=2)
        spans = tracer.spans("block")
        assert len(spans) == len(blocks)
        by_block = {ev.args["block"]: ev.tid for ev in spans}
        for i, (wid, t0, _) in enumerate(got):
            assert by_block[i] == f"worker-{wid}"
            assert spans[i].ts == pytest.approx(t0 - tracer.epoch)

    def test_sequential_scheduler_traces_blocks(self):
        tracer = Obs(detail=True)
        blocks = make_blocks(np.arange(10), 3)
        got = SequentialScheduler().run_step(blocks, _one_step_tally)
        book_steps(tracer, [(7, got)], workers=1)
        spans = tracer.spans("block")
        assert [ev.args["step"] for ev in spans] == [7] * 4
        assert {ev.tid for ev in spans} == {"worker-0"}
        assert [ev.args["strands"] for ev in spans] == [3, 3, 3, 1]
        assert [ev.dur for ev in spans] == [1e-3] * 4


class TestSimulatedScheduler:
    def test_single_worker_is_sum(self):
        times = [0.2, 0.3, 0.5]
        got = simulate_step(times, 1, lock_overhead=0.0)
        assert got == pytest.approx(1.0)

    def test_perfect_split(self):
        got = simulate_step([1.0, 1.0], 2, lock_overhead=0.0)
        assert got == pytest.approx(1.0)

    def test_bounded_by_longest_block(self):
        # one huge block dominates regardless of workers
        got = simulate_step([10.0, 0.1, 0.1], 8, lock_overhead=0.0)
        assert got == pytest.approx(10.0, rel=0.01)

    def test_more_workers_never_slower(self):
        rng = np.random.default_rng(0)
        times = list(rng.uniform(0.01, 0.1, 50))
        prev = None
        for w in (1, 2, 4, 8):
            t = simulate_step(times, w, DEFAULT_LOCK_OVERHEAD)
            if prev is not None:
                assert t <= prev + 1e-12
            prev = t

    def test_speedup_bounded_by_workers_and_blocks(self):
        times = [[0.01] * 6]
        curve = speedup_curve(times, [1, 2, 4, 8, 16])
        assert curve[1] == pytest.approx(1.0)
        for w, s in curve.items():
            assert s <= w + 1e-9
            assert s <= 6 + 1e-9  # block-count bound (vr-lite effect, §6.4)

    def test_lock_overhead_hurts_small_blocks(self):
        """The paper's §6.4 observation: smaller strand blocks reduce
        parallel scaling because of work-list lock traffic."""
        total = 1.0
        big_blocks = [[total / 8] * 8]
        small_blocks = [[total / 512] * 512]
        lock = 5e-4  # exaggerated for the test
        s_big = speedup_curve(big_blocks, [8], lock)[8]
        s_small = speedup_curve(small_blocks, [8], lock)[8]
        assert s_small < s_big

    def test_empty_step(self):
        assert simulate_step([], 4, 1e-6) == 0.0

    def test_simulate_run_sums_steps(self):
        res = simulate_run([[0.5], [0.25]], 1, lock_overhead=0.0)
        assert res.total_time == pytest.approx(0.75)
        assert len(res.per_step) == 2

    def test_barrier_between_steps(self):
        """Two steps of one block each cannot overlap across the barrier."""
        res = simulate_run([[1.0], [1.0]], 8, lock_overhead=0.0)
        assert res.total_time == pytest.approx(2.0)


class TestTraceCollection:
    def test_block_trace_shape(self):
        src = """
            strand S (int i) {
                output real x = 0.0;
                update { x += 1.0; if (x > 2.5) stabilize; }
            }
            initially [ S(i) | i in 0 .. 99 ];
        """
        prog = compile_program(src)
        tracer = Obs(detail=True)
        res = prog.run(block_size=16, obs=tracer)
        trace = tracer.block_step_times()
        assert res.steps == 3
        assert len(trace) == 3
        assert len(trace[0]) == 7  # ceil(100/16)
        assert all(t >= 0 for step in trace for t in step)

    def test_superstep_spans_carry_strand_counts(self):
        src = """
            strand S (int i) {
                output real x = 0.0;
                update { x += 1.0; if (x > 2.5) stabilize; }
            }
            initially [ S(i) | i in 0 .. 99 ];
        """
        tracer = Obs(detail=True)
        compile_program(src).run(block_size=16, obs=tracer)
        steps = tracer.spans("superstep")
        assert [ev.args["step"] for ev in steps] == [0, 1, 2]
        assert steps[0].args["active"] == 100
        assert steps[0].args["blocks"] == 7
        assert steps[-1].args["stable"] == 100

    def test_trace_off_by_default(self):
        src = """
            strand S (int i) {
                output real x = 0.0;
                update { stabilize; }
            }
            initially [ S(i) | i in 0 .. 9 ];
        """
        res = compile_program(src).run()
        assert res.num_stable == 10  # no tracer: runs normally, no trace


class TestActiveSetShrinks:
    def test_stable_strands_not_updated_again(self):
        """Once stabilized, a strand's update must not run again."""
        src = """
            strand S (int i) {
                output real x = 0.0;
                update {
                    x += 1.0;
                    if (i == 0) stabilize;
                }
            }
            initially [ S(i) | i in 0 .. 3 ];
        """
        prog = compile_program(src)
        res = prog.run(max_steps=5)
        out = res.outputs["x"]
        assert out[0] == 1.0  # stabilized after first step
        assert np.allclose(out[1:], 5.0)
