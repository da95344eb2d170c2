"""Tests for the metric instruments of ``repro.obs.Obs``.

Covers the histogram math, the merge/drain protocol, the scope plumbing
through ``Program.run`` (per-run ``Obs``, fold into the parent and the
process root), the cross-scheduler determinism contract (seq/thread/
process report bit-identical op counters at any block size), isolation
of runs that overlap in time, and the ``python -m repro.obs report`` CLI.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.driver import compile_program
from repro.obs import ROOT, Obs, current
from repro.obs import metrics as mx
from repro.obs.__main__ import main as obs_main
from repro.obs.export import format_metrics, format_report
from repro.obs.metrics import (
    Histogram,
    metrics_doc,
    read_metrics_json,
    write_metrics_json,
)
from repro.runtime import ops as rt

PROBING = """
image(2)[] img = load("data.nrrd");
field#1(2)[] F = img ⊛ ctmr;
strand S (int i, int j) {
    vec2 p = [real(i), real(j)];
    output real v = 0.0;
    int n = 0;
    update {
        if (inside(p, F)) v = v + F(p) + 0.25 * (∇F(p) • [1.0, 0.5]);
        n += 1;
        if (n >= 2 + (i + j) % 3) stabilize;
    }
}
initially [ S(i, j) | i in 0 .. 9, j in 0 .. 9 ];
"""


@pytest.fixture()
def probing_prog(noise32):
    prog = compile_program(PROBING)
    prog.bind_image("img", noise32)
    return prog


# -- histogram math -----------------------------------------------------------


class TestHistogram:
    def test_bucketing_and_exact_stats(self):
        h = Histogram(bounds=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 4.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]  # last = overflow
        assert h.count == 5
        assert h.sum == pytest.approx(107.7)
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(107.7 / 5)

    def test_percentiles_interpolate_and_clamp(self):
        h = Histogram(bounds=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 4.0):
            h.observe(v)
        assert h.percentile(0) == 0.5
        assert h.percentile(100) == 4.0
        # p50 lands in the (1, 2] bucket
        assert 1.0 <= h.percentile(50) <= 2.0
        # p95 lands in the (2, 5] bucket but clamps to the observed max
        assert h.percentile(95) <= 4.0

    def test_percentile_of_empty(self):
        assert Histogram(bounds=(1.0,)).percentile(50) == 0.0

    def test_uniform_percentile_accuracy(self):
        h = Histogram(bounds=tuple(float(b) for b in range(1, 101)))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(90) == pytest.approx(90.0, abs=1.0)

    def test_merge_accumulates(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.min == 0.5 and a.max == 9.0

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            Histogram(bounds=())

    def test_roundtrip_dict(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(1.5)
        h2 = Histogram.from_dict(h.to_dict())
        assert h2.to_dict() == h.to_dict()


# -- instrument protocol ------------------------------------------------------


class TestRegistry:
    def test_counters_gauges_series(self):
        reg = Obs(parent=None)
        reg.inc("a")
        reg.inc("a", 2)
        reg.inc_many({"a": 1, "b": 5})
        reg.gauge("g", 7)
        reg.gauge("g", 9)
        reg.rows("s", [{"step": 0}])
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 4, "b": 5}
        assert snap["gauges"] == {"g": 9}
        assert snap["series"] == {"s": [{"step": 0}]}

    def test_op_accumulates_three_counters(self):
        reg = Obs(parent=None)
        reg.op("gather", 64, 0.25)
        reg.op("gather", 36, 0.75)
        c = reg.counters
        assert c["op.gather.calls"] == 2
        assert c["op.gather.lanes"] == 100
        assert c["op.gather.seconds"] == pytest.approx(1.0)

    def test_drain_resets_and_merge_restores(self):
        reg = Obs(parent=None)
        reg.inc("x", 3)
        reg.observe("h", 0.5, bounds=(1.0,))
        delta = reg.drain()
        assert reg.snapshot()["counters"] == {}
        other = Obs(parent=None)
        other.inc("x", 1)
        other.merge(delta)
        assert other.counters["x"] == 4
        assert other.histograms["h"].count == 1

    def test_merge_can_exclude_series(self):
        src = Obs(parent=None)
        src.rows("steps", [{"step": 0}])
        src.inc("x")
        dst = Obs(parent=None)
        dst.merge(src.snapshot(), include_series=False)
        assert dst.counters == {"x": 1}
        assert dst.series == {}


# -- Program.run plumbing -----------------------------------------------------


def _root_counter(name: str) -> float:
    return ROOT.snapshot()["counters"].get(name, 0)


class TestRunPlumbing:
    def test_result_carries_registry(self, probing_prog):
        res = probing_prog.run()
        c = res.metrics.counters
        assert c["run.count"] == 1
        assert c["sched.supersteps"] == res.steps
        assert c["strands.stabilized"] == res.num_stable
        assert any(k.startswith("op.") and k.endswith(".calls") for k in c)
        assert res.metrics.series["steps"][0]["active"] == res.num_strands

    def test_run_folds_into_global_without_series(self, probing_prog):
        runs, steps = _root_counter("run.count"), _root_counter("sched.supersteps")
        res = probing_prog.run()
        assert _root_counter("run.count") == runs + 1
        assert ROOT.series == {}  # series stay per-run
        assert (_root_counter("sched.supersteps") - steps
                == res.metrics.counters["sched.supersteps"])

    def test_caller_registry_used_directly(self, probing_prog):
        runs = _root_counter("run.count")
        mine = Obs(parent=None)
        res = probing_prog.run(obs=mine)
        assert res.metrics is mine
        assert mine.counters["run.count"] == 1
        assert _root_counter("run.count") == runs  # the caller owns the fold

    def test_collect_scope_aggregates_runs(self, probing_prog):
        with Obs("session") as reg:
            probing_prog.run()
            probing_prog.run()
        assert reg.counters["run.count"] == 2
        assert reg.series == {}  # a run's series stay with the run
        shared = Obs(parent=None)
        probing_prog.run(obs=shared)
        probing_prog.run(obs=shared)
        # ... unless the runs record into one Obs directly
        assert len(shared.series["steps"]) == shared.counters["run.steps"]

    def test_active_restored_after_run(self, probing_prog):
        before = current()
        probing_prog.run()
        assert current() is before
        with pytest.raises(Exception):
            probing_prog.run(max_steps=0, scheduler="gpu")
        assert current() is before  # restored on the error path too

    def test_guard_stats_still_work_across_runs(self, probing_prog):
        rt.reset_guard_stats()
        probing_prog.run()
        stats = rt.guard_stats()
        assert stats["checked"] > 0
        probing_prog.run()
        assert rt.guard_stats()["checked"] == 2 * stats["checked"]
        rt.reset_guard_stats()
        assert rt.guard_stats() == {"checked": 0, "skipped": 0}


# -- cross-scheduler determinism ---------------------------------------------

#: counters that must be bit-identical across schedulers at a fixed block
#: size: op work counters and guard counts (NOT ``.seconds``, NOT the
#: per-thread scratch-pool tallies, NOT per-worker attribution)
def _deterministic_counters(reg) -> dict:
    out = {}
    for name, v in reg.snapshot()["counters"].items():
        if name.endswith(".seconds") or name.endswith("_seconds"):
            continue
        if name.startswith("mem.scratch.") or ".worker." in name:
            continue
        out[name] = v
    return out


class TestCrossSchedulerEquivalence:
    @pytest.mark.parametrize("block_size", [1, 64, 4096])
    def test_identical_op_counters(self, probing_prog, block_size):
        base = _deterministic_counters(
            probing_prog.run(block_size=block_size).metrics)
        assert any(k.startswith("op.") for k in base)
        for scheduler in ("thread", "process"):
            got = _deterministic_counters(
                probing_prog.run(workers=2, scheduler=scheduler,
                                 block_size=block_size).metrics)
            assert got == base, scheduler

    def test_worker_drain_reaches_master(self, probing_prog):
        """Process workers' op counts must be merged, not dropped."""
        res = probing_prog.run(workers=2, scheduler="process", block_size=16)
        c = res.metrics.counters
        assert sum(v for k, v in c.items()
                   if k.startswith("op.") and k.endswith(".calls")) > 0
        assert c["guard.checked"] > 0


# -- runs that overlap in time -------------------------------------------------

OTHER = PROBING.replace("i in 0 .. 9, j in 0 .. 9", "i in 0 .. 6, j in 0 .. 12") \
               .replace("[1.0, 0.5]", "[0.5, 1.0]) + F(p + [0.5, 0.5]")


def _work_counters(obs) -> dict:
    return {k: v for k, v in obs.snapshot()["counters"].items()
            if k == "strands.updated"
            or (k.startswith("op.") and k.endswith((".calls", ".lanes")))}


def _run_overlapping(a, b):
    """Run ``a`` and ``b`` on two threads, ``b`` starting after ``a``'s
    first super-step and ``a`` not finishing before ``b`` took one."""
    a_stepped, b_stepped = threading.Event(), threading.Event()
    results, errors = {}, []

    def go(name, prog, mine, other):
        def on_step(ev):
            mine.set()
            assert other.wait(timeout=30)
        try:
            if prog is b:
                assert a_stepped.wait(timeout=30)
            results[name] = prog.run(on_step=on_step)
        except BaseException as exc:
            errors.append(exc)
            mine.set()

    threads = [threading.Thread(target=go, args=("a", a, a_stepped, b_stepped)),
               threading.Thread(target=go, args=("b", b, b_stepped, a_stepped))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors and not any(t.is_alive() for t in threads), errors
    return results["a"], results["b"]


class TestOverlappingRuns:
    @pytest.fixture()
    def other_prog(self, noise32):
        prog = compile_program(OTHER)
        prog.bind_image("img", noise32)
        return prog

    def test_each_run_counts_only_its_own_work(self, probing_prog, other_prog):
        solo_a = _work_counters(probing_prog.run().metrics)
        solo_b = _work_counters(other_prog.run().metrics)
        assert solo_a != solo_b and solo_a["op.gather.calls"] > 0
        for trial in range(10):
            res_a, res_b = _run_overlapping(probing_prog, other_prog)
            assert _work_counters(res_a.metrics) == solo_a, trial
            assert _work_counters(res_b.metrics) == solo_b, trial

    def test_counter_outside_any_run_reaches_the_root(
            self, probing_prog, other_prog, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(tmp_path))
        compile_program(OTHER, cache=True)  # miss: stores the entry
        for trial in range(10):
            _run_overlapping(probing_prog, other_prog)
            assert current() is ROOT
            hits = _root_counter("compile_cache.hits")
            compile_program(OTHER, cache=True)
            assert _root_counter("compile_cache.hits") == hits + 1, trial

# -- JSON document + report CLI -----------------------------------------------


class TestMetricsJson:
    def test_roundtrip(self, tmp_path, probing_prog):
        res = probing_prog.run()
        path = str(tmp_path / "m.json")
        write_metrics_json(res.metrics, path, meta={"k": "v"})
        doc = read_metrics_json(path)
        assert doc["schema"] == mx.SCHEMA
        assert doc["meta"] == {"k": "v"}
        assert doc["counters"] == {
            k: pytest.approx(v) for k, v in res.metrics.counters.items()}

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope"}')
        with pytest.raises(ValueError, match="not a repro-metrics"):
            read_metrics_json(str(path))

    def test_adapts_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "cat": "pass", "name": "parse", "ts": 0,
             "dur": 2e6, "pid": 1, "tid": 1},
            {"ph": "M", "name": "thread_name"},
        ]}))
        doc = read_metrics_json(str(path))
        assert doc["counters"]["pass.parse.seconds"] == pytest.approx(2.0)
        assert doc["counters"]["pass.parse.calls"] == 1


class TestReportAndDiff:
    """``report`` only: the ``diff`` subcommand and its cases are gone (the
    class keeps its name so the surviving test ids do not move)."""

    @pytest.fixture()
    def saved(self, tmp_path, probing_prog):
        res = probing_prog.run(workers=2, scheduler="thread", block_size=16)
        path = str(tmp_path / "base.json")
        write_metrics_json(res.metrics, path, meta={"program": "probing"})
        return path

    def test_report_renders_tables(self, saved, capsys):
        assert obs_main(["report", saved]) == 0
        out = capsys.readouterr().out
        assert "hot ops:" in out
        assert "scheduler health:" in out
        assert "convergence:" in out
        assert "workers:" in out

    def test_format_metrics_smoke(self, probing_prog):
        res = probing_prog.run()
        text = format_metrics(res.metrics)
        assert "hot ops:" in text
        assert "guards" in text
        text2 = format_report(metrics_doc(res.metrics, {"a": 1}))
        assert "run metadata:" in text2


class TestCliMetricsFlags:
    def test_metrics_out_end_to_end(self, tmp_path):
        from repro.__main__ import main as repro_main

        src = tmp_path / "p.diderot"
        src.write_text("""
            strand S (int i) {
                output real v = 0.0;
                update { v = real(i); stabilize; }
            }
            initially [ S(i) | i in 0 .. 7 ];
        """)
        out = str(tmp_path / "m.json")
        assert repro_main([str(src), "--out", str(tmp_path / "o"),
                           "--metrics-out", out]) == 0
        doc = read_metrics_json(out)
        # compile passes AND runtime metrics in one document
        assert doc["counters"]["pass.parse.calls"] >= 1
        assert doc["counters"]["run.count"] == 1
        assert doc["meta"]["workers"] == 1
