"""The serving layer: registry, batching front door, backpressure.

The load-bearing assertion (ISSUE acceptance): concurrent batched
requests through the front door return results **bit-identical** to a
direct ``Program.run`` under seq/thread/process schedulers — batching
changes latency, never values.  Float64 survives the JSON hop exactly
because Python serializes floats with shortest-round-trip repr.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.driver import compile_file
from repro.errors import InputError
from repro.image import Image
from repro.obs import ROOT
from repro.serve.batch import Overloaded, ProbeBatcher
from repro.serve.registry import ProbeSpec, ProgramRegistry, warm_manifest
from repro.serve.server import ServeApp
from tests.http_client import _send, request

EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir,
                       "examples", "programs", "probe_serve.diderot")

SIMPLE = """
input int N = 4;
strand s (int i) {
    output real y = 0.0;
    update { y = real(i) * 3.0; stabilize; }
}
initially [ s(i) | i in 0..(N-1) ];
"""


#: a run that would take a million super-steps unless something stops it
ENDLESS = """
input int K = 1000000;
strand s (int i) {
    output real y = 0.0;
    int n = 0;
    update { y += 1.0; n += 1; if (n >= K) stabilize; }
}
initially [ s(i) | i in 0..1 ];
"""


def _counter(name: str) -> float:
    return ROOT.snapshot()["counters"].get(name, 0)


def _points(n: int) -> np.ndarray:
    rng = np.random.default_rng(99)
    return np.asarray(rng.random((n, 3)) * 30.0)


def _direct_oracle(points: np.ndarray) -> np.ndarray:
    """Ground truth: a separately-compiled Program, run directly."""
    prog = compile_file(EXAMPLE, cache=False)
    data = np.concatenate([points, points[-1:]], axis=0)
    prog.bind_image("pts", Image(data, dim=1, tensor_shape=(3,)))
    prog.set_input("N", points.shape[0])
    return prog.run().outputs["out"]


def _hold_first_batch(monkeypatch, entry):
    """Park ``entry``'s first ``run_batch`` call until ``release`` is set,
    so that later requests queue behind it deterministically.  Returns
    ``(started, release, batches)``: ``batches`` collects the points of
    every batch run."""
    started, release = threading.Event(), threading.Event()
    run, batches = entry.run_batch, []

    def held(points):
        batches.append(points)
        if len(batches) == 1:
            started.set()
            release.wait(60)
        return run(points)

    monkeypatch.setattr(entry, "run_batch", held)
    return started, release, batches


async def _until(pred, timeout: float = 60.0) -> None:
    """Yield to the event loop until ``pred()`` holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not pred():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.002)


@pytest.fixture()
def registry():
    reg = ProgramRegistry()
    yield reg
    reg.clear()


class TestRegistry:
    def test_register_get_list_evict(self, registry):
        entry = registry.register("a", source=SIMPLE)
        assert registry.get("a") is entry
        assert "a" in registry and len(registry) == 1
        listed = registry.list()
        assert listed[0]["name"] == "a"
        assert listed[0]["outputs"] == ["y"]
        assert registry.evict("a") is True
        assert registry.evict("a") is False
        with pytest.raises(KeyError):
            registry.get("a")

    def test_source_xor_path_required(self, registry):
        with pytest.raises(InputError):
            registry.register("x")
        with pytest.raises(InputError):
            registry.register("x", source=SIMPLE, path=EXAMPLE)

    def test_bad_manifest_names_entry_and_field(self, registry, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{
            "name": "w", "path": EXAMPLE, "probe": {"count_input": "N"}}]))
        with pytest.raises(InputError, match="'w': 'probe.points_image'"):
            warm_manifest(registry, str(manifest))

    def test_evicted_entry_refuses_runs(self, registry):
        entry = registry.register("a", source=SIMPLE)
        registry.evict("a")
        with pytest.raises(InputError, match="evicted"):
            entry.run()

    def test_lru_capacity_eviction(self):
        reg = ProgramRegistry(capacity=2)
        before = _counter("serve.registry.evicted")
        reg.register("a", source=SIMPLE)
        reg.register("b", source=SIMPLE.replace("3.0", "4.0"))
        reg.get("a")  # refresh a's recency: b becomes the LRU
        reg.register("c", source=SIMPLE.replace("3.0", "5.0"))
        assert "a" in reg and "c" in reg and "b" not in reg
        assert _counter("serve.registry.evicted") == before + 1
        reg.clear()

    def test_replacement_closes_old_entry(self, registry):
        old = registry.register("a", source=SIMPLE, scheduler="thread",
                                workers=2)
        old.run()  # builds the pooled scheduler
        pool = old._pool
        assert pool is not None
        registry.register("a", source=SIMPLE)
        assert old._closed and old._pool is None
        assert pool._stop.is_set() if hasattr(pool, "_stop") else True

    def test_scheduler_pool_is_reused(self, registry):
        entry = registry.register("a", source=SIMPLE, scheduler="thread",
                                  workers=2)
        r1 = entry.run()
        pool1 = entry._pool
        r2 = entry.run()
        assert entry._pool is pool1 and pool1 is not None
        assert np.array_equal(r1.outputs["y"], r2.outputs["y"])

    def test_default_scheduler_is_the_runs_and_pooled(self, registry):
        """An entry that names no scheduler reports, and pools, the one
        its runs' plan picks."""
        entry = registry.register("a", source=SIMPLE, workers=2)
        assert entry.info()["scheduler"] == "thread"
        runs = [entry.run(), entry.run()]
        assert entry._pool is not None and entry._pool.workers == 2
        picked = [e.args["scheduler"] for r in runs for e in r.metrics.events
                  if e.name == "superstep-loop"]
        assert picked == ["instance→thread"] * 2
        assert registry.register("b", source=SIMPLE).info()["scheduler"] \
            == "seq"

    def test_process_entry_forks_per_run(self, registry):
        import multiprocessing

        seq = registry.register("seq", source=SIMPLE)
        entry = registry.register("a", source=SIMPLE, scheduler="process",
                                  workers=2)
        want = seq.run().outputs["y"]
        for _ in range(2):
            got = entry.run().outputs["y"]
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert entry._pool is None  # each run owned and closed its pool
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("diderot-worker-")]


class TestRunBatch:
    @pytest.mark.parametrize("scheduler,workers", [
        (None, 1), ("thread", 2), ("process", 2),
    ])
    def test_batch_bit_identical_to_direct_run(self, registry, scheduler,
                                               workers):
        points = _points(10)
        want = _direct_oracle(points)
        entry = registry.register(f"p-{scheduler}", path=EXAMPLE,
                                  probe=ProbeSpec("pts", "N"),
                                  scheduler=scheduler, workers=workers)
        got = entry.run_batch(points)["out"]
        assert np.array_equal(got, want)
        # and a second batch through the (possibly pooled) scheduler
        got2 = entry.run_batch(points[:4])["out"]
        assert np.array_equal(got2, want[:4])

    def test_batch_requires_probe_spec(self, registry):
        entry = registry.register("a", source=SIMPLE)
        with pytest.raises(InputError, match="probe"):
            entry.run_batch(_points(2))


class TestBatcher:
    def test_coalesces_and_splits_bit_exact(self, registry, monkeypatch):
        points = _points(9)
        want = _direct_oracle(points)
        entry = registry.register("p", path=EXAMPLE,
                                  probe=ProbeSpec("pts", "N"))
        started, release, _ = _hold_first_batch(monkeypatch, entry)
        before_b = _counter("serve.batch.batches")
        before_c = _counter("serve.batch.coalesced")

        async def drive():
            batcher = ProbeBatcher(entry)
            first = asyncio.ensure_future(batcher.submit(points[:3]))
            await asyncio.to_thread(started.wait, 60)
            rest = [asyncio.ensure_future(batcher.submit(points[i:i + 3]))
                    for i in (3, 6)]
            await _until(lambda: batcher._queue.qsize() == 2)
            release.set()
            outs = await asyncio.gather(first, *rest)
            await batcher.close()
            return outs

        outs = asyncio.run(drive())
        for i, out in enumerate(outs):
            assert np.array_equal(out["out"], want[3 * i:3 * i + 3])
        assert _counter("serve.batch.batches") - before_b == 2, \
            "the two submits queued behind the first batch share one run"
        assert _counter("serve.batch.coalesced") - before_c == 2

    def test_queue_bound_sheds(self, registry, monkeypatch):
        entry = registry.register("p", path=EXAMPLE,
                                  probe=ProbeSpec("pts", "N"))
        started, release, _ = _hold_first_batch(monkeypatch, entry)
        points = _points(8)
        before = _counter("serve.shed")

        async def drive():
            batcher = ProbeBatcher(entry, max_queue=2)
            first = asyncio.ensure_future(batcher.submit(points[:1]))
            await asyncio.to_thread(started.wait, 60)
            rest = [asyncio.ensure_future(batcher.submit(points[i:i + 1]))
                    for i in range(1, 8)]
            await _until(lambda: sum(t.done() for t in rest) == 5)
            release.set()
            results = await asyncio.gather(first, *rest,
                                           return_exceptions=True)
            await batcher.close()
            return results

        results = asyncio.run(drive())
        shed = [i for i, r in enumerate(results) if isinstance(r, Overloaded)]
        served = [i for i, r in enumerate(results) if isinstance(r, dict)]
        # the running batch holds one, the queue two; the other five shed
        assert served == [0, 1, 2] and shed == [3, 4, 5, 6, 7]
        assert _counter("serve.shed") - before == 5

    def test_unassembled_batch_answers_every_request(self, registry,
                                                     monkeypatch):
        """Rows of two shapes cannot be concatenated into one batch: each
        request of that batch gets the error, and the drain goes on."""
        entry = registry.register("p", path=EXAMPLE,
                                  probe=ProbeSpec("pts", "N"))
        started, release, _ = _hold_first_batch(monkeypatch, entry)
        points = _points(3)

        async def drive():
            batcher = ProbeBatcher(entry)
            first = asyncio.ensure_future(batcher.submit(points[:1]))
            await asyncio.to_thread(started.wait, 60)
            queued = [asyncio.ensure_future(batcher.submit(p))
                      for p in (np.ones((1, 2)), points[1:2])]
            await _until(lambda: batcher._queue.qsize() == 2)
            release.set()
            done = await asyncio.wait_for(asyncio.gather(
                first, *queued, return_exceptions=True), 30)
            after = await asyncio.wait_for(batcher.submit(points[2:]), 30)
            await batcher.close()
            return done, after

        (first, bad, good), after = asyncio.run(drive())
        assert isinstance(first, dict)
        assert isinstance(bad, ValueError) and isinstance(good, ValueError)
        assert np.array_equal(after["out"], _direct_oracle(points)[2:])

    def test_idle_batcher_arms_no_timer(self, registry, monkeypatch):
        """A lone request on an idle batcher runs at once: no
        ``asyncio.wait_for``, no timer on the loop."""
        entry = registry.register("p", path=EXAMPLE,
                                  probe=ProbeSpec("pts", "N"))
        points = _points(2)
        want = _direct_oracle(points)
        waits, timers, batches = [], [], []
        run = entry.run_batch

        def wait_for(aw, timeout):
            waits.append(timeout)
            return real_wait_for(aw, timeout)

        def run_batch(pts):
            batches.append(pts)
            return run(pts)

        real_wait_for = asyncio.wait_for
        monkeypatch.setattr(asyncio, "wait_for", wait_for)
        monkeypatch.setattr(entry, "run_batch", run_batch)

        async def drive():
            loop = asyncio.get_running_loop()
            call_at = loop.call_at

            def spy(when, *args, **kwargs):
                timers.append(when)
                return call_at(when, *args, **kwargs)

            batcher = ProbeBatcher(entry)
            loop.call_at = spy
            try:
                out = await batcher.submit(points)
            finally:
                del loop.call_at
            await batcher.close()
            return out

        out = asyncio.run(drive())
        assert np.array_equal(out["out"], want)
        assert len(batches) == 1 and np.array_equal(batches[0], points)
        assert waits == [] and timers == []

    @pytest.mark.parametrize("max_batch,sizes", [(65536, [1, 5]),
                                                 (3, [1, 3, 2])])
    def test_queued_requests_form_the_next_batch(self, registry, monkeypatch,
                                                 max_batch, sizes):
        """k requests queued while a batch runs form exactly one next batch
        (split at ``max_batch`` rows), in arrival order, bit-exact."""
        points = _points(6)
        want = _direct_oracle(points)
        entry = registry.register("p", path=EXAMPLE,
                                  probe=ProbeSpec("pts", "N"))
        started, release, batches = _hold_first_batch(monkeypatch, entry)

        async def drive():
            batcher = ProbeBatcher(entry, max_batch=max_batch)
            futs = [asyncio.ensure_future(batcher.submit(points[:1]))]
            await asyncio.to_thread(started.wait, 60)
            for i in range(1, 6):
                futs.append(asyncio.ensure_future(
                    batcher.submit(points[i:i + 1])))
                await asyncio.sleep(0)  # the i-th arrival is queued i-th
            await _until(lambda: batcher._queue.qsize() == 5)
            release.set()
            outs = await asyncio.gather(*futs)
            await batcher.close()
            return outs

        outs = asyncio.run(drive())
        assert [b.shape[0] for b in batches] == sizes
        assert np.array_equal(np.concatenate(batches), points)
        for i, out in enumerate(outs):
            assert np.array_equal(out["out"], want[i:i + 1])


class TestHttpServer:
    def test_round_trip_coalesced_and_bit_exact(self, monkeypatch):
        points = _points(8)
        want = _direct_oracle(points)

        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            status, doc = await request(app.port, "POST", "/programs/demo", {
                "path": EXAMPLE, "scheduler": "thread", "workers": 2,
                "probe": {"points_image": "pts", "count_input": "N"},
            })
            assert status == 200, doc
            started, release, _ = _hold_first_batch(
                monkeypatch, app.registry.get("demo"))
            _, before = await request(app.port, "GET", "/metrics")
            probes = [asyncio.ensure_future(request(
                app.port, "POST", "/probe/demo", {"points": [points[0].tolist()]}))]
            await asyncio.to_thread(started.wait, 60)
            probes += [asyncio.ensure_future(request(
                app.port, "POST", "/probe/demo", {"points": [p.tolist()]}))
                for p in points[1:]]
            queue = app._batchers["demo"][1]._queue
            await _until(lambda: queue.qsize() == 7)
            release.set()
            results = await asyncio.gather(*probes)
            status_h, health = await request(app.port, "GET", "/healthz")
            status_m, after = await request(app.port, "GET", "/metrics")
            await app.close()
            return results, (status_h, health), (status_m, before, after)

        results, (sh, health), (sm, before, after) = asyncio.run(drive())
        assert sh == 200 and health["ok"] and sm == 200
        for (status, doc), row in zip(results, want):
            assert status == 200, doc
            got = np.asarray(doc["outputs"]["out"][0])
            assert np.array_equal(got, row), "JSON hop must be bit-exact"
        added = _added(after["counters"], before["counters"])
        assert added["serve.requests"] == 10  # 8 probes, /metrics, /healthz
        assert added["serve.batch.batches"] == 2
        assert added["serve.batch.coalesced"] == 7

    def test_unknown_program_404_and_bad_body_400(self):
        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            r404 = await request(app.port, "POST", "/probe/ghost",
                               {"points": [[0.0, 0.0, 0.0]]})
            r400 = await request(app.port, "POST", "/programs/x",
                               {"source": "not diderot ("})
            r405 = await request(app.port, "GET", "/programs/x/extra")
            await app.close()
            return r404, r400, r405

        (s404, _), (s400, _), (s405, _) = asyncio.run(drive())
        assert s404 == 404
        assert s400 == 400
        assert s405 == 404

    def test_malformed_point_answers_400_not_a_hang(self, monkeypatch):
        """A request whose rows are not points of the points image is
        refused before it queues, so it cannot take the batch it would
        join down with it."""
        points = _points(2)
        want = _direct_oracle(points)

        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            await request(app.port, "POST", "/programs/demo", {
                "path": EXAMPLE,
                "probe": {"points_image": "pts", "count_input": "N"}})
            started, release, _ = _hold_first_batch(
                monkeypatch, app.registry.get("demo"))
            first = asyncio.ensure_future(request(
                app.port, "POST", "/probe/demo", {"points": [points[0].tolist()]}))
            await asyncio.to_thread(started.wait, 60)
            bad = asyncio.ensure_future(request(
                app.port, "POST", "/probe/demo", {"points": [[1.0, 2.0]]}))
            good = asyncio.ensure_future(request(
                app.port, "POST", "/probe/demo", {"points": [points[1].tolist()]}))
            await _until(lambda: bad.done())
            release.set()
            answers = await asyncio.wait_for(
                asyncio.gather(first, bad, good), 30)
            await app.close()
            return answers

        (s1, d1), (s_bad, d_bad), (s2, d2) = asyncio.run(drive())
        assert (s1, s_bad, s2) == (200, 400, 200)
        assert "shape (3,)" in d_bad["error"]
        assert np.array_equal(np.asarray(d1["outputs"]["out"]), want[:1])
        assert np.array_equal(np.asarray(d2["outputs"]["out"]), want[1:])

    @pytest.mark.parametrize("probe,field", [
        ({"count_input": "N"}, "probe.points_image"),
        ("pts:N", "'probe'"),
    ])
    def test_malformed_registration_answers_400(self, probe, field):
        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            answer = await request(app.port, "POST", "/programs/demo",
                                   {"path": EXAMPLE, "probe": probe})
            await app.close()
            return answer

        status, doc = asyncio.run(drive())
        assert status == 400 and field in doc["error"]

    def test_shed_returns_429(self, monkeypatch):
        points = _points(10)

        async def drive():
            app = ServeApp(ProgramRegistry(), max_queue=1)
            await app.start("127.0.0.1", 0)
            status, _ = await request(app.port, "POST", "/programs/demo", {
                "path": EXAMPLE,
                "probe": {"points_image": "pts", "count_input": "N"},
            })
            assert status == 200
            started, release, _ = _hold_first_batch(
                monkeypatch, app.registry.get("demo"))
            first = asyncio.ensure_future(request(
                app.port, "POST", "/probe/demo", {"points": [points[0].tolist()]}))
            await asyncio.to_thread(started.wait, 60)
            flood = [asyncio.ensure_future(request(
                app.port, "POST", "/probe/demo", {"points": [p.tolist()]}))
                for p in points[1:]]
            # one request fits the queue; the other eight are answered now
            await _until(lambda: sum(t.done() for t in flood) == 8)
            release.set()
            answers = await asyncio.gather(first, *flood)
            await app.close()
            return answers

        codes = sorted(s for s, _ in asyncio.run(drive()))
        assert codes == [200] * 2 + [429] * 8

    def test_run_endpoint_and_evict(self):
        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            status, _ = await request(app.port, "POST", "/programs/s",
                                    {"source": SIMPLE})
            assert status == 200
            s_run, doc = await request(app.port, "POST", "/run/s",
                                     {"inputs": {"N": 5}})
            s_del, _ = await request(app.port, "DELETE", "/programs/s")
            s_gone, _ = await request(app.port, "POST", "/run/s", {})
            await app.close()
            return s_run, doc, s_del, s_gone

        s_run, doc, s_del, s_gone = asyncio.run(drive())
        assert s_run == 200
        assert doc["outputs"]["y"] == [0.0, 3.0, 6.0, 9.0, 12.0]
        assert s_del == 200
        assert s_gone == 404

    def test_disconnected_stream_frees_the_entry(self):
        """A client that leaves after the first chunk ends its run at the
        next super-step: the entry's next request is served, and the
        abandoned run stopped long before its millionth step."""
        cancelled = _counter("serve.stream.cancelled")
        steps = _counter("sched.supersteps")

        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            await request(app.port, "POST", "/programs/e", {"source": ENDLESS})
            reader, writer, status, _ = await _send(
                app.port, "POST", "/run/e", {"stream": True})
            size = int((await reader.readline()).strip(), 16)
            first = json.loads(await reader.readexactly(size))
            writer.close()
            await writer.wait_closed()
            answer = await asyncio.wait_for(request(
                app.port, "POST", "/run/e", {"inputs": {"K": 3}}), 60)
            await app.close()
            return status, first, answer

        status, first, (s_next, doc) = asyncio.run(drive())
        assert status == 200 and first["step"] == 0
        assert s_next == 200 and doc["outputs"]["y"] == [3.0, 3.0]
        assert _counter("serve.stream.cancelled") - cancelled == 1
        assert _counter("sched.supersteps") - steps < 1000000

    def test_stream_of_cheap_steps_keeps_pace_with_its_writer(self, monkeypatch):
        """Steps far cheaper than a chunk's write do not flood the event
        loop: the first chunk of a million-step stream arrives at once, and
        a run whose client reads 50 chunks and leaves stops within a
        bounded number of steps of the last chunk it was sent."""
        from repro.serve.registry import ProgramEntry
        from repro.serve.server import STREAM_AHEAD

        run, stepped = ProgramEntry.run, []

        def counted(self, *, inputs=None, on_step=None):
            if on_step is not None:
                def on_step(ev, _step=on_step):
                    stepped.append(ev.step)
                    _step(ev)
            return run(self, inputs=inputs, on_step=on_step)

        monkeypatch.setattr(ProgramEntry, "run", counted)

        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            await request(app.port, "POST", "/programs/e", {"source": ENDLESS})
            t0 = time.monotonic()
            reader, writer, _, _ = await _send(
                app.port, "POST", "/run/e", {"stream": True})
            chunks = []
            for _ in range(50):
                size = int((await reader.readline()).strip(), 16)
                chunks.append(json.loads(await reader.readexactly(size)))
                await reader.readline()  # the chunk's CRLF
                if len(chunks) == 1:
                    first_s = time.monotonic() - t0
            writer.close()
            await writer.wait_closed()
            # the entry is free once the abandoned run has ended
            await asyncio.wait_for(request(
                app.port, "POST", "/run/e", {"inputs": {"K": 3}}), 60)
            await app.close()
            return first_s, chunks

        first_s, chunks = asyncio.run(drive())
        assert first_s < 10
        assert [c["step"] for c in chunks] == list(range(50))
        # 50 sent and STREAM_AHEAD in flight, plus the few that still go
        # out before a write to the closed socket fails
        assert 50 < len(stepped) < 50 + STREAM_AHEAD + 1000

    def test_process_with_c_backend_answers_400(self):
        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            status, _ = await request(app.port, "POST", "/programs/s", {
                "source": SIMPLE, "scheduler": "process", "workers": 2,
                "backend": "c"})
            assert status == 200
            answer = await request(app.port, "POST", "/run/s", {})
            await app.close()
            return answer

        status, doc = asyncio.run(drive())
        assert status == 400
        assert "NumPy backend only" in doc["error"]


class TestCli:
    def test_every_flag_reaches_the_server(self, tmp_path):
        """``python -m repro.serve`` with every flag it declares: the
        programs it registers and warms answer, ``--max-batch 1`` keeps
        two concurrent requests from sharing a run, and SIGTERM writes the
        ``--metrics-out`` document."""
        import json
        import re
        import signal
        import subprocess
        import sys

        (tmp_path / "warm.json").write_text(
            json.dumps([{"name": "w", "source": SIMPLE}]), encoding="utf-8")
        metrics = tmp_path / "m.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--host", "127.0.0.1",
             "--port", "0", "--register", f"demo={EXAMPLE}",
             "--probe", "demo=pts:N", "--precision", "double",
             "--scheduler", "thread", "--workers", "2", "--backend", "numpy",
             "--capacity", "2", "--max-batch", "1",
             "--max-queue", "8", "--no-compile-cache",
             "--warm", str(tmp_path / "warm.json"),
             "--metrics-out", str(metrics)],
            stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        try:
            for line in proc.stderr:
                port = re.search(r"serving on http://127\.0\.0\.1:(\d+)", line)
                if port:
                    break
            assert port, "the server did not come up"
            port = int(port.group(1))

            async def drive():
                listed = await request(port, "GET", "/programs")
                probes = await asyncio.gather(*[
                    request(port, "POST", "/probe/demo", {"points": [p]})
                    for p in _points(2).tolist()])
                return listed, probes, await request(port, "POST", "/run/w", {})

            (s_list, listed), probes, (s_run, run) = asyncio.run(drive())
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
            proc.stderr.close()
        assert proc.returncode == 0
        assert s_list == 200 and s_run == 200
        entries = {e["name"]: e for e in listed["programs"]}
        assert set(entries) == {"w", "demo"}
        assert (entries["demo"]["scheduler"], entries["demo"]["workers"],
                entries["demo"]["backend"], entries["demo"]["probe"]) \
            == ("thread", 2, "numpy", {"points_image": "pts", "count_input": "N"})
        assert [s for s, _ in probes] == [200, 200]
        assert run["outputs"]["y"] == [0.0, 3.0, 6.0, 9.0]
        counters = json.loads(metrics.read_text(encoding="utf-8"))["counters"]
        assert counters["serve.batch.batches"] == 2
        assert "serve.batch.coalesced" not in counters

    def test_probe_for_an_unregistered_name_exits_before_warming(self, tmp_path):
        """A ``--probe`` whose name no ``--register`` names (a typo) would
        leave its program without a batch contract, so that every
        ``/probe`` to it answers 400: the command line is refused, naming
        the stray probe, before the manifest is warmed."""
        import json
        import subprocess
        import sys

        (tmp_path / "warm.json").write_text(
            json.dumps([{"name": "w", "source": SIMPLE}]), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--register", f"demo={EXAMPLE}", "--probe", "dmeo=pts:N",
             "--no-compile-cache", "--warm", str(tmp_path / "warm.json")],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 1
        assert "'dmeo'" in proc.stderr
        assert "warmed" not in proc.stderr and "serving" not in proc.stderr


# -- one Obs per request: overlapping requests do not mix their counters --------

# the work of these two is the same whatever the image holds (every probe
# is inside, every strand takes forty steps — long enough that concurrent
# requests really overlap), so the order in which racing requests reach an
# entry's lock cannot change a work counter
_PROBING_A = """
image(2)[] img = load("p.nrrd");
field#2(2)[] F = img ⊛ bspln3;
strand S (int i, int j) {
    output real x = 0.0;
    int n = 0;
    update {
        vec2 p = [real(i) + 2.5, real(j) + 2.5];
        x = x + F(p) + 0.25 * (∇F(p))[0];
        n += 1;
        if (n >= 40) stabilize;
    }
}
initially [ S(i, j) | i in 0 .. 11, j in 0 .. 11 ];
"""
_PROBING_B = _PROBING_A.replace("i in 0 .. 11, j in 0 .. 11",
                                "i in 0 .. 7, j in 0 .. 15") \
                       .replace("(∇F(p))[0]", "(∇F(p))[1] + F(p + [0.5, 0.5])")


def _work(counters: dict) -> dict:
    return {k: v for k, v in counters.items()
            if k == "strands.updated"
            or (k.startswith("op.") and k.endswith((".calls", ".lanes")))}


def _added(after: dict, before: dict) -> dict:
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    return {k: v for k, v in delta.items() if v}


class TestRequestScopedObs:
    @pytest.fixture()
    def image_dir(self, tmp_path):
        from repro.nrrd.writer import write_nrrd

        base = np.random.default_rng(3).random((20, 24))
        write_nrrd(str(tmp_path / "p.nrrd"), base)
        return str(tmp_path), base

    def test_metrics_are_the_sum_of_the_requests(self, image_dir):
        from repro.core.driver import compile_program
        from repro.obs import Obs

        tmp, base = image_dir
        patch = (base[3:6, 4:9] + 1.0).tolist()
        region = [[3, 5], [4, 8]]

        # what each request costs alone, measured through the library
        expected: dict = {}
        solo_a = compile_program(_PROBING_A, search_path=tmp)
        solo_b = compile_program(_PROBING_B, search_path=tmp)

        def update_a():
            solo_a.run(checkpoint=True)
            solo_a.update_input("img", np.asarray(patch), region=region)
            solo_a.run_update()

        for call in (solo_a.run, solo_a.run, solo_b.run, update_a):
            with Obs(parent=None) as alone:
                call()
            for k, v in _work(alone.counters).items():
                expected[k] = expected.get(k, 0) + v
        assert expected["op.gather.calls"] > 0

        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            for name, source in (("a", _PROBING_A), ("b", _PROBING_B)):
                status, doc = await request(app.port, "POST", f"/programs/{name}",
                                          {"source": source, "search_path": tmp})
                assert status == 200, doc
            _, before = await request(app.port, "GET", "/metrics")
            answers = await asyncio.gather(
                request(app.port, "POST", "/run/a", {}),
                request(app.port, "POST", "/run/b", {}),
                request(app.port, "POST", "/update/a",
                      {"image": "img", "data": patch, "region": region}),
                request(app.port, "POST", "/run/a", {}),
            )
            _, after = await request(app.port, "GET", "/metrics")
            await app.close()
            return answers, before, after

        for trial in range(10):
            answers, before, after = asyncio.run(drive())
            assert [status for status, _ in answers] == [200] * 4, answers
            assert _added(_work(after["counters"]),
                          _work(before["counters"])) == expected, trial
            assert _added(after["counters"], before["counters"])[
                "serve.requests"] == 5  # the four, and the first /metrics

    def test_root_grows_with_names_not_requests(self):
        points = _points(4).tolist()

        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            status, _ = await request(app.port, "POST", "/programs/demo", {
                "path": EXAMPLE,
                "probe": {"points_image": "pts", "count_input": "N"},
            })
            assert status == 200
            sizes = []
            for _ in range(2):
                for _ in range(100):
                    status, _ = await request(app.port, "POST", "/probe/demo",
                                            {"points": points})
                    assert status == 200
                snap = ROOT.snapshot()
                sizes.append((len(snap["counters"]), len(snap["histograms"]),
                              len(snap["gauges"])))
            await app.close()
            return sizes

        before = _counter("serve.requests")
        first, second = asyncio.run(drive())
        assert _counter("serve.requests") == before + 201
        assert first == second
        assert ROOT.events == [] and ROOT.series == {}
