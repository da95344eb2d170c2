"""Tests for the observability layer (repro.obs): the ``Obs`` recorder's
spans and scopes, exporters, CLI wiring, the compile-stats view, and the
structural rules (one clock, one argument, always-on layers)."""

import ast
import inspect
import json
import pathlib
import time

import pytest

import repro
from repro.core.codegen import cbuild
from repro.core.driver import CompileStats, OptOptions, compile_program, compile_to_source
from repro.obs import (
    ROOT,
    Obs,
    chrome_trace,
    current,
    format_summary,
    write_chrome_trace,
)
from repro.programs import ALL
from repro.runtime.simsched import as_block_trace, simulate_run

SRC = """
    strand S (int i) {
        output real x = 0.0;
        update { x += 1.0; if (x > 2.5) stabilize; }
    }
    initially [ S(i) | i in 0 .. 99 ];
"""


class TestTracerSpans:
    def test_span_records_duration(self):
        tr = Obs(detail=True)
        with tr.span("work", cat="test"):
            time.sleep(0.002)
        (ev,) = tr.spans("test")
        assert ev.name == "work"
        assert ev.dur >= 0.002

    def test_span_nesting(self):
        """A child span's interval lies within its parent's."""
        tr = Obs(detail=True)
        with tr.span("parent", cat="test"):
            with tr.span("child", cat="test"):
                time.sleep(0.001)
        child, parent = tr.spans("test")  # children close (record) first
        assert child.name == "child" and parent.name == "parent"
        assert parent.ts <= child.ts
        assert child.end <= parent.end + 1e-9
        assert child.tid == parent.tid

    def test_span_set_attaches_args(self):
        tr = Obs(detail=True)
        with tr.span("p", cat="pass") as sp:
            sp.set("removed", 7)
        assert tr.spans("pass")[0].args["removed"] == 7

    def test_span_records_on_exception(self):
        tr = Obs(detail=True)
        with pytest.raises(ValueError):
            with tr.span("p", cat="pass"):
                raise ValueError("boom")
        assert len(tr.spans("pass")) == 1

    def test_counters_accumulate(self):
        tr = Obs(detail=True)
        tr.inc("bytes", 10)
        tr.inc("bytes", 5)
        assert tr.counters["bytes"] == 15

    def test_gauge_keeps_latest(self):
        tr = Obs(detail=True)
        tr.gauge("active", 100)
        tr.gauge("active", 40)
        assert tr.gauges["active"] == 40

    def test_threaded_appends_are_complete(self):
        import threading

        tr = Obs(detail=True)

        def spam(k):
            for i in range(50):
                tr.event("tick", cat="t", k=k, i=i)

        threads = [threading.Thread(target=spam, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len([e for e in tr.events if e.cat == "t"]) == 200


class TestDisabledMode:
    """A run without ``detail`` — what tracing-off used to be."""

    def test_default_obs_records_no_detail_spans(self):
        """Per-step and per-block spans are what ``detail`` buys; the
        phases of the run are always there."""
        res = compile_program(SRC).run(block_size=16)
        obs = res.metrics
        assert not obs.detail
        assert obs.spans("superstep") == [] and obs.spans("block") == []
        assert obs.block_step_times() == []
        assert {"run", "setup", "steps", "result"} <= {
            ev.name for ev in obs.spans("run")}
        assert all(ev.ph != "C" for ev in obs.events)

    def test_run_without_tracer_collects_nothing(self, monkeypatch, tmp_path):
        """A library run reads no environment and leaves nothing on the
        process root but aggregates."""
        out = tmp_path / "never.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        res = compile_program(SRC).run(block_size=16)
        assert res.steps == 3
        assert not out.exists()
        assert ROOT.events == [] and ROOT.series == {}


class TestScopes:
    def test_child_folds_aggregates_not_spans_or_series(self):
        with Obs("session") as session:
            res = compile_program(SRC).run(block_size=16)
            assert current() is session
        assert res.metrics.parent is session
        assert session.counters["run.count"] == 1
        assert session.counters["pass.parse.calls"] == 1  # the compile's
        assert session.histograms["sched.step_seconds"].count == 3
        assert session.events == [] and session.series == {}
        assert res.metrics.series["steps"]  # the run keeps its own

    def test_span_close_books_its_aggregate(self):
        obs = Obs(parent=None)
        with obs.span("setup", "run", counter="x.seconds"):
            pass
        with obs.span("restore", "incremental", hist="y_seconds") as sp:
            pass
        with obs.span("parse", cat="pass"):
            pass
        assert obs.counters["x.seconds"] > 0
        assert obs.histograms["y_seconds"].count == 1
        assert obs.histograms["y_seconds"].sum == sp.dur
        assert obs.counters["pass.parse.calls"] == 1
        assert obs.counters["pass.parse.seconds"] > 0

    def test_parentless_obs_folds_nowhere(self):
        before = ROOT.snapshot()["counters"].get("probe.only", 0)
        with Obs(parent=None) as obs:
            assert current() is obs
            current().inc("probe.only")
        assert current() is ROOT
        assert ROOT.snapshot()["counters"].get("probe.only", 0) == before

    def test_root_keeps_aggregates_only(self):
        ROOT.event("stray", cat="t")
        ROOT.rows("stray", [{"a": 1}])
        with ROOT.span("stray", cat="t"):
            pass
        assert ROOT.events == [] and ROOT.series == {}

    def test_pass_spans_and_counters(self):
        """One span per compiler pass, and the same passes as counters."""
        obs = Obs()
        compile_to_source(SRC, obs=obs)
        names = {ev.name for ev in obs.spans("pass")}
        for name in ("parse", "typecheck", "simplify", "highir",
                     "contraction", "value-numbering", "midir", "lowir",
                     "codegen"):
            assert name in names
            assert obs.counters[f"pass.{name}.calls"] == sum(
                ev.name == name for ev in obs.spans("pass"))


class TestCompileStatsView:
    def test_stats_built_from_trace(self):
        tr = Obs(detail=True)
        _, _, stats = compile_to_source(SRC, obs=tr)
        rebuilt = CompileStats.from_trace(tr.events)
        assert rebuilt == stats
        assert stats.high_instrs["update"] > 0
        assert stats.low_instrs["update"] >= stats.mid_instrs["update"]

    def test_stats_without_vn(self):
        tr = Obs(detail=True)
        _, _, stats = compile_to_source(
            SRC, OptOptions(value_numbering=False), obs=tr
        )
        assert stats.vn_removed == {}
        assert tr.spans("pass")
        assert "value-numbering" not in {ev.name for ev in tr.spans("pass")}


class TestBlockStepTimes:
    def test_grouped_and_ordered_by_block(self):
        tr = Obs(detail=True)
        # record out of completion order: block 1 before block 0
        tr.complete("block", "block", tr.epoch + 0.2, 0.02, tid="worker-1",
                    step=0, block=1)
        tr.complete("block", "block", tr.epoch + 0.1, 0.01, tid="worker-0",
                    step=0, block=0)
        tr.complete("block", "block", tr.epoch + 0.3, 0.03, tid="worker-0",
                    step=1, block=0)
        assert tr.block_step_times() == [[0.01, 0.02], [0.03]]
        assert tr.block_workers() == [["worker-0", "worker-1"], ["worker-0"]]

    def test_simsched_accepts_tracer(self):
        tr = Obs(detail=True)
        prog = compile_program(SRC)
        prog.run(block_size=16, obs=tr)
        sim = simulate_run(tr, workers=2)
        assert len(sim.per_step) == 3
        assert sim.total_time > 0
        assert as_block_trace([[1.0]]) == [[1.0]]


class TestChromeExport:
    def test_round_trip(self, tmp_path):
        tr = Obs(detail=True)
        prog = compile_program(SRC, obs=tr)
        prog.run(block_size=16, workers=2, obs=tr)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(tr, path)
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "M"} <= phases
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"parse", "typecheck", "codegen", "superstep", "block"} <= names
        for e in events:
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
        # thread metadata names every tid used by an event
        tids = {e["tid"] for e in events if e["ph"] != "M"}
        named = {e["tid"] for e in events if e["ph"] == "M"}
        assert tids <= named

    def test_worker_attribution_in_export(self):
        tr = Obs(detail=True)
        compile_program(SRC).run(block_size=8, workers=2, obs=tr)
        doc = chrome_trace(tr)
        tid_names = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
                     if e["ph"] == "M"}
        block_tids = {tid_names[e["tid"]] for e in doc["traceEvents"]
                      if e.get("cat") == "block"}
        assert block_tids <= {f"worker-{i}" for i in range(2)}
        assert block_tids  # at least one worker ran blocks


class TestSummary:
    def test_summary_sections(self):
        tr = Obs(detail=True)
        prog = compile_program(SRC, obs=tr)
        prog.run(block_size=16, obs=tr)
        text = format_summary(tr, prog.stats)
        assert "compiler passes" in text
        assert "instruction counts" in text
        assert "convergence:" in text  # the per-step rows
        assert "workers" in text
        assert "worker-0" in text

    def test_guard_line_counts_compacted_arms(self):
        """The guard line of ``--profile``: every ``rt.any_lane`` check,
        the arms no lane took, and the heavy arms run on their live lanes
        only (``guard.compacted``)."""
        from repro.programs import vr_lite

        tr = Obs()
        vr_lite.make_program(scale=0.12, volume_size=32).run(obs=tr)
        c = tr.snapshot()["counters"]
        assert c["guard.compacted"] > 0
        checked, skipped = c["guard.checked"], c["guard.skipped"]
        assert (f"  uniform-branch guards: {checked} checked, {skipped} skipped "
                f"({skipped / checked:.0%}), {c['guard.compacted']} compacted"
                ) in format_summary(tr).splitlines()

    def test_empty_tracer_summary(self):
        assert "no trace events" in format_summary(Obs())


class TestEnvActivation:
    def test_trace_env_var_is_not_read(self, monkeypatch, tmp_path):
        """``REPRO_TRACE`` was an alias of ``--trace``, and aliases are
        settable values nothing needs (DESIGN.md "Configuration matrix"):
        only the flag writes a trace."""
        env, flag = tmp_path / "env.json", tmp_path / "flag.json"
        monkeypatch.setenv("REPRO_TRACE", str(env))
        compile_program(SRC).cli(["--block-size", "16", "--trace", str(flag)])
        assert not env.exists()
        doc = json.loads(flag.read_text(encoding="utf-8"))
        names = {e["name"] for e in doc["traceEvents"]}
        assert "superstep" in names and "block" in names

    def test_explicit_tracer_wins_over_env(self, monkeypatch, tmp_path):
        out = tmp_path / "never.json"
        monkeypatch.setenv("REPRO_TRACE", str(out))
        tr = Obs(detail=True)
        compile_program(SRC).run(block_size=16, obs=tr)
        assert not out.exists()  # caller owns export when passing an Obs
        assert tr.spans("superstep")


# -- structure: one clock, one argument, one recorder ---------------------------

SRC_ROOT = pathlib.Path(repro.__file__).parent

#: wall-clock reads that may appear outside ``repro/obs/``: only file-age
#: deadlines, which compare against ``st_mtime`` and so need epoch seconds
#: (``time.monotonic`` / ``time.sleep`` — deadlines too — are never banned)
CLOCK_ALLOWED = {("diskcache.py", "time")}

DELETED = ("Tracer", "NullTracer", "NULL_TRACER", "MetricsRegistry",
           "NullRegistry", "NULL_METRICS", "ACTIVE", "set_active", "GLOBAL",
           "ambient", "collect", "resolve", "fold", "fold_pass_spans",
           "env_traced", "tracer_from_env")


def _modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        yield path.relative_to(SRC_ROOT).as_posix(), ast.parse(path.read_text())


class TestStructure:
    def test_obs_is_the_only_clock(self):
        banned = {"perf_counter", "time", "process_time"}
        offenders = []
        for rel, tree in _modules():
            if rel.startswith("obs/"):
                continue
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and node.attr in banned
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "time"):
                    name = node.attr
                elif isinstance(node, ast.ImportFrom) and node.module == "time":
                    name = next((a.name for a in node.names
                                 if a.name in banned), None)
                else:
                    continue
                if name and (rel, name) not in CLOCK_ALLOWED:
                    offenders.append(f"{rel}:{node.lineno} time.{name}")
        assert offenders == []

    def test_no_function_threads_a_tracer_or_a_registry(self):
        banned = {"tracer", "tr", "metrics", "reg"}
        offenders = []
        for rel, tree in _modules():
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    a = node.args
                    names = {x.arg for x in (*a.posonlyargs, *a.args,
                                             *a.kwonlyargs, a.vararg, a.kwarg)
                             if x is not None}
                    if names & banned:
                        offenders.append(
                            f"{rel}:{node.lineno} {sorted(names & banned)}")
        assert offenders == []

    def test_deleted_names_are_gone(self):
        import repro.obs
        import repro.obs.metrics
        import repro.obs.recorder

        for module in (repro.obs, repro.obs.metrics, repro.obs.recorder):
            for name in DELETED:
                assert not hasattr(module, name), (module.__name__, name)
        with pytest.raises(ImportError):
            import repro.obs.tracer  # noqa: F401
        for rel, tree in _modules():  # and nothing guards on `.enabled`
            assert not any(isinstance(n, ast.Attribute) and n.attr == "enabled"
                           for n in ast.walk(tree)), rel

    def test_public_entry_points_take_obs(self):
        from repro.core import driver
        from repro.core.xform.to_high import HighBuilder
        from repro.runtime.mpsched import ProcessScheduler
        from repro.runtime.program import Program
        from repro.runtime.scheduler import SequentialScheduler, ThreadScheduler
        from repro.serve import cache

        for fn in (Program.run, Program.run_update, Program.update_input,
                   Program.build_footprints, driver.compile_program,
                   driver.compile_to_source, HighBuilder.__init__, cache.load,
                   cache.store, SequentialScheduler.run_step,
                   ThreadScheduler.run_step, ProcessScheduler.run_step):
            assert "obs" in inspect.signature(fn).parameters, fn.__qualname__


# -- layers: the always-on spans of a run account for its wall time ------------


def _self_times(spans) -> dict:
    """``id(span) -> duration minus the union of the spans nested in it``
    (single-threaded runs: nesting is interval containment)."""
    out = {}
    for s in spans:
        inner = sorted((c.ts, c.end) for c in spans if c is not s
                       and s.ts <= c.ts and c.end <= s.end)
        covered, edge = 0.0, s.ts
        for a, b in inner:
            if b > edge:
                covered += b - max(a, edge)
                edge = b
        out[id(s)] = s.dur - covered
    return out


class TestLayers:
    BACKENDS = ["numpy", pytest.param("c", marks=pytest.mark.skipif(
        not cbuild.compiler_available(),
        reason="native backend needs a C compiler on PATH"))]
    SIZES = {"vr-lite": dict(scale=0.1, volume_size=24),
             "illust-vr": dict(scale=0.1, volume_size=24),
             "lic2d": dict(scale=0.08),
             "ridge3d": dict(scale=0.4, volume_size=24)}

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_always_on_spans_sum_to_wall(self, name, backend):
        prog = ALL[name].make_program(**self.SIZES[name])
        prog.run(backend=backend)  # first run loads images, builds the kernel
        best = 0.0
        for _ in range(3):  # the native runs take well under a millisecond
            res = prog.run(backend=backend)
            obs = res.metrics
            spans = obs.spans()
            assert {ev.cat for ev in spans} == {"run"}
            assert len(obs.events) < 32, (res.steps, len(obs.events))
            wall = obs.counters["run.wall_seconds"]
            assert wall == res.wall_time
            selfs = _self_times(spans)
            best = max(best, sum(selfs[id(s)] for s in spans
                                 if s.name != "run") / wall)
        assert best >= 0.95
        assert ROOT.events == [] and ROOT.series == {}
