"""Span recording, wrap/restore, and the self-time arithmetic."""

import asyncio
import threading
import types

import pytest

from ledger import trace
from ledger.trace import Span


def test_union_length_merges_overlaps():
    assert trace.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert trace.union_length([]) == 0.0


def test_self_time_is_duration_minus_children():
    spans = [Span(1, None, "root", 0.0, 10.0),
             Span(2, 1, "a", 1.0, 4.0),
             Span(3, 1, "b", 5.0, 9.0),
             Span(4, 3, "c", 6.0, 7.0)]
    selfs = trace.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0})
    # sequential children: attributed == self, and the tree sums to the root
    att = trace.attributed(spans)
    assert att == pytest.approx(selfs)
    assert sum(att.values()) == pytest.approx(10.0)
    assert trace.by_name(spans, att)["b"] == pytest.approx(3.0)


def test_parallel_children_share_the_wall_they_cover():
    # two workers run 4 s each, fully overlapped, inside a 5 s step
    spans = [Span(1, None, "step", 0.0, 5.0),
             Span(2, 1, "kernel", 0.5, 4.5),
             Span(3, 1, "kernel", 0.5, 4.5)]
    assert trace.self_times(spans)[1] == pytest.approx(1.0)
    att = trace.attributed(spans)
    assert att[2] == att[3] == pytest.approx(2.0)  # 4 s of wall between them
    assert sum(att.values()) == pytest.approx(5.0)
    assert trace.by_name(spans, att) == pytest.approx({"step": 1.0, "kernel": 4.0})


def test_child_outside_its_parent_is_rerooted():
    spans = [Span(1, None, "old-request", 0.0, 1.0),
             Span(2, 1, "batch", 5.0, 6.0)]  # a long-lived task's stale context
    att = trace.attributed(spans)
    assert att == pytest.approx({1: 1.0, 2: 1.0})


def test_recorder_nests_and_follows_pool_threads():
    rec = trace.Recorder()
    started = threading.Event()
    release = threading.Event()

    def pool_worker():  # started before any span: empty context
        started.set()
        release.wait(5)
        with rec.span("kernel"):
            pass

    worker = threading.Thread(target=pool_worker)
    worker.start()
    started.wait(5)
    with rec.span("run"):
        with rec.span("step"):
            release.set()
            worker.join(5)
    by = {s.name: s for s in rec.drain()}
    assert by["step"].parent == by["run"].id
    assert by["kernel"].parent == by["step"].id  # the call blocked on the worker
    assert by["run"].parent is None
    assert rec.drain() == []


def test_wrap_restores_and_missing_name_is_an_error():
    rec = trace.Recorder()
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f

    class Layer:
        def method(self, x):
            return x * 2

    table = {"update": lambda: 7}
    method = vars(Layer)["method"]
    with trace.wrapped(rec, [(mod, "f", "mod.f"), (Layer, "method", "layer.method"),
                             (table, "update", "generated.update")]):
        assert mod.f is not original
        assert mod.f(1) == 2 and Layer().method(3) == 6 and table["update"]() == 7
    assert mod.f is original and vars(Layer)["method"] is method
    assert [s.name for s in rec.drain()] == ["mod.f", "layer.method", "generated.update"]
    with pytest.raises(LookupError, match="no_such"):
        with trace.wrapped(rec, [(mod, "f", "ok"), (mod, "no_such", "boom")]):
            pass
    assert mod.f is original  # the partial wrap was undone


def test_async_entry_points_are_timed_to_completion():
    rec = trace.Recorder()

    class App:
        async def handle(self):
            await asyncio.sleep(0.02)
            return "done"

    async def main():
        with trace.wrapped(rec, [(App, "handle", "request")]):
            return await App().handle()

    assert asyncio.run(main()) == "done"
    (span,) = rec.drain()
    assert span.name == "request" and span.dur >= 0.015
