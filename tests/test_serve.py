"""The serving layer: registry, batching front door, backpressure.

The load-bearing assertion (ISSUE acceptance): concurrent batched
requests through the front door return results **bit-identical** to a
direct ``Program.run`` under seq/thread/process schedulers — batching
changes latency, never values.  Float64 survives the JSON hop exactly
because Python serializes floats with shortest-round-trip repr.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.core.driver import compile_file
from repro.errors import InputError
from repro.image import Image
from repro.obs import ROOT
from repro.serve.batch import Overloaded, ProbeBatcher
from repro.serve.registry import ProbeSpec, ProgramRegistry
from repro.serve.server import ServeApp

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

    def test_process_pool_reuses_workers(self, registry):
        entry = registry.register("a", source=SIMPLE, scheduler="process",
                                  workers=2)
        entry.run()
        pids1 = [p.pid for p in entry._pool._procs]
        entry.run()
        pids2 = [p.pid for p in entry._pool._procs]
        assert pids1 == pids2, "a pooled process scheduler must re-arm, not re-fork"


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
    def test_coalesces_and_splits_bit_exact(self, registry):
        points = _points(9)
        want = _direct_oracle(points)
        entry = registry.register("p", path=EXAMPLE,
                                  probe=ProbeSpec("pts", "N"))
        before_b = _counter("serve.batch.batches")
        before_c = _counter("serve.batch.coalesced")

        async def drive():
            batcher = ProbeBatcher(entry, window=0.05)
            outs = await asyncio.gather(*[
                batcher.submit(points[i:i + 3]) for i in range(0, 9, 3)
            ])
            await batcher.close()
            return outs

        outs = asyncio.run(drive())
        for i, out in enumerate(outs):
            assert np.array_equal(out["out"], want[3 * i:3 * i + 3])
        assert _counter("serve.batch.batches") - before_b < 3, \
            "three concurrent submits should coalesce"
        assert _counter("serve.batch.coalesced") - before_c >= 2

    def test_queue_bound_sheds(self, registry):
        entry = registry.register("p", path=EXAMPLE,
                                  probe=ProbeSpec("pts", "N"))
        points = _points(8)
        before = _counter("serve.shed")

        async def drive():
            batcher = ProbeBatcher(entry, window=0.2, max_queue=2)
            results = await asyncio.gather(*[
                batcher.submit(points[i:i + 1]) for i in range(8)
            ], return_exceptions=True)
            await batcher.close()
            return results

        results = asyncio.run(drive())
        shed = [r for r in results if isinstance(r, Overloaded)]
        served = [r for r in results if isinstance(r, dict)]
        assert shed, "max_queue=2 under 8 concurrent submits must shed"
        assert served, "some requests must still be served"
        assert _counter("serve.shed") > before


async def _http(port: int, method: str, path: str, doc=None):
    from repro.serve.__main__ import _request

    return await _request(port, method, path, doc)


class TestHttpServer:
    def test_round_trip_coalesced_and_bit_exact(self):
        points = _points(8)
        want = _direct_oracle(points)

        async def drive():
            app = ServeApp(ProgramRegistry(), window=0.05)
            await app.start("127.0.0.1", 0)
            status, doc = await _http(app.port, "POST", "/programs/demo", {
                "path": EXAMPLE, "scheduler": "thread", "workers": 2,
                "probe": {"points_image": "pts", "count_input": "N"},
            })
            assert status == 200, doc
            results = await asyncio.gather(*[
                _http(app.port, "POST", "/probe/demo",
                      {"points": [p.tolist()]})
                for p in points
            ])
            status_h, health = await _http(app.port, "GET", "/healthz")
            status_m, metrics = await _http(app.port, "GET", "/metrics")
            await app.close()
            return results, (status_h, health), (status_m, metrics)

        results, (sh, health), (sm, metrics) = asyncio.run(drive())
        assert sh == 200 and health["ok"] and sm == 200
        for (status, doc), row in zip(results, want):
            assert status == 200, doc
            got = np.asarray(doc["outputs"]["out"][0])
            assert np.array_equal(got, row), "JSON hop must be bit-exact"
        counters = metrics["counters"]
        assert counters.get("serve.requests", 0) >= 9
        assert counters.get("serve.batch.coalesced", 0) >= 2

    def test_unknown_program_404_and_bad_body_400(self):
        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            r404 = await _http(app.port, "POST", "/probe/ghost",
                               {"points": [[0.0, 0.0, 0.0]]})
            r400 = await _http(app.port, "POST", "/programs/x",
                               {"source": "not diderot ("})
            r405 = await _http(app.port, "GET", "/programs/x/extra")
            await app.close()
            return r404, r400, r405

        (s404, _), (s400, _), (s405, _) = asyncio.run(drive())
        assert s404 == 404
        assert s400 == 400
        assert s405 == 404

    def test_shed_returns_429(self):
        points = _points(10)

        async def drive():
            app = ServeApp(ProgramRegistry(), window=0.1, max_queue=1)
            await app.start("127.0.0.1", 0)
            status, _ = await _http(app.port, "POST", "/programs/demo", {
                "path": EXAMPLE,
                "probe": {"points_image": "pts", "count_input": "N"},
            })
            assert status == 200
            flood = await asyncio.gather(*[
                _http(app.port, "POST", "/probe/demo",
                      {"points": [p.tolist()]})
                for p in points
            ])
            await app.close()
            return flood

        flood = asyncio.run(drive())
        codes = {s for s, _ in flood}
        assert 429 in codes
        assert 200 in codes

    def test_run_endpoint_and_evict(self):
        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            status, _ = await _http(app.port, "POST", "/programs/s",
                                    {"source": SIMPLE})
            assert status == 200
            s_run, doc = await _http(app.port, "POST", "/run/s",
                                     {"inputs": {"N": 5}})
            s_del, _ = await _http(app.port, "DELETE", "/programs/s")
            s_gone, _ = await _http(app.port, "POST", "/run/s", {})
            await app.close()
            return s_run, doc, s_del, s_gone

        s_run, doc, s_del, s_gone = asyncio.run(drive())
        assert s_run == 200
        assert doc["outputs"]["y"] == [0.0, 3.0, 6.0, 9.0, 12.0]
        assert s_del == 200
        assert s_gone == 404


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

        for request in (solo_a.run, solo_a.run, solo_b.run, update_a):
            with Obs(parent=None) as alone:
                request()
            for k, v in _work(alone.counters).items():
                expected[k] = expected.get(k, 0) + v
        assert expected["op.gather.calls"] > 0

        async def drive():
            app = ServeApp(ProgramRegistry())
            await app.start("127.0.0.1", 0)
            for name, source in (("a", _PROBING_A), ("b", _PROBING_B)):
                status, doc = await _http(app.port, "POST", f"/programs/{name}",
                                          {"source": source, "search_path": tmp})
                assert status == 200, doc
            _, before = await _http(app.port, "GET", "/metrics")
            answers = await asyncio.gather(
                _http(app.port, "POST", "/run/a", {}),
                _http(app.port, "POST", "/run/b", {}),
                _http(app.port, "POST", "/update/a",
                      {"image": "img", "data": patch, "region": region}),
                _http(app.port, "POST", "/run/a", {}),
            )
            _, after = await _http(app.port, "GET", "/metrics")
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
            app = ServeApp(ProgramRegistry(), window=0.0)
            await app.start("127.0.0.1", 0)
            status, _ = await _http(app.port, "POST", "/programs/demo", {
                "path": EXAMPLE,
                "probe": {"points_image": "pts", "count_input": "N"},
            })
            assert status == 200
            sizes = []
            for _ in range(2):
                for _ in range(100):
                    status, _ = await _http(app.port, "POST", "/probe/demo",
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
