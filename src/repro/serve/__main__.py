"""``python -m repro.serve`` — run the compile-once serving front door.

Quick start (serves the bundled probe demo)::

    python -m repro.serve --register demo=examples/programs/probe_serve.diderot \\
        --probe demo=pts:N --workers 2 --scheduler thread

then::

    curl -s localhost:8077/healthz
    curl -s -X POST localhost:8077/probe/demo \\
        -d '{"points": [[15.0, 15.0, 30.0]]}'

``--smoke`` runs a self-contained end-to-end check (used by CI): start
the server on an ephemeral port, register the demo program, fire
overlapping probe requests, and assert (a) responses are bit-identical
to a direct in-process run, (b) requests were coalesced into shared
batches, and (c) a tiny queue bound sheds load with 429.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.runtime.choices import BACKEND_NAMES


def _parse_register(specs, probes):
    """``name=path`` pairs plus ``name=image:count[:pad]`` probe specs."""
    from repro.serve.registry import ProbeSpec

    probe_by_name = {}
    for spec in probes or ():
        name, _, rest = spec.partition("=")
        parts = rest.split(":")
        if len(parts) < 2:
            raise SystemExit(
                f"--probe {spec!r}: expected NAME=IMAGE:COUNT_INPUT[:PAD]"
            )
        probe_by_name[name] = ProbeSpec(
            points_image=parts[0], count_input=parts[1],
            pad=int(parts[2]) if len(parts) > 2 else 1,
        )
    out = []
    for spec in specs or ():
        name, sep, path = spec.partition("=")
        if not sep or not path:
            raise SystemExit(f"--register {spec!r}: expected NAME=PATH")
        out.append((name, path, probe_by_name.get(name)))
    return out


async def _serve(args) -> int:
    from repro.serve.registry import ProgramRegistry, warm_manifest
    from repro.serve.server import ServeApp

    app = ServeApp(
        ProgramRegistry(capacity=args.capacity),
        window=args.window, max_batch=args.max_batch,
        max_queue=args.max_queue, compile_cache=not args.no_compile_cache,
    )
    if args.warm:
        warmed = await asyncio.to_thread(
            warm_manifest, app.registry, args.warm,
            cache=not args.no_compile_cache,
        )
        for entry in warmed:
            print(f"warmed {entry.name!r}: {entry.info()}", file=sys.stderr)
    for name, path, probe in _parse_register(args.register, args.probe):
        entry = await asyncio.to_thread(
            app.registry.register, name, path=path, probe=probe,
            precision=args.precision, scheduler=args.scheduler,
            workers=args.workers, backend=args.backend,
            cache=not args.no_compile_cache,
        )
        print(f"registered {name!r}: {entry.info()}", file=sys.stderr)
    await app.start(args.host, args.port)
    print(f"serving on http://{args.host}:{app.port}", file=sys.stderr)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    await stop.wait()
    await app.close()
    if args.metrics_out:
        from repro.obs import ROOT, write_metrics_json

        write_metrics_json(ROOT, args.metrics_out)
    return 0


async def _request(port: int, method: str, path: str, doc=None) -> tuple[int, dict]:
    """Minimal HTTP client (stdlib-only, usable inside the event loop)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(doc).encode() if doc is not None else b""
    writer.write(
        (f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
         f"Content-Length: {len(body)}\r\n\r\n").encode() + body
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        k, _, v = line.decode().partition(":")
        if k.strip().lower() == "content-length":
            length = int(v.strip())
    payload = json.loads(await reader.readexactly(length)) if length else {}
    writer.close()
    return status, payload


async def _request_stream(port: int, path: str, doc) -> tuple[int, list]:
    """POST and decode a chunked NDJSON response into a list of events."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(doc).encode()
    writer.write(
        (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
         f"Content-Length: {len(body)}\r\n\r\n").encode() + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    chunked = False
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        k, _, v = line.decode().partition(":")
        if k.strip().lower() == "transfer-encoding":
            chunked = "chunked" in v.lower()
    assert chunked, f"expected chunked response, got status {status}"
    raw = b""
    while True:
        size = int((await reader.readline()).strip(), 16)
        if size == 0:
            break
        raw += await reader.readexactly(size)
        await reader.readexactly(2)  # trailing \r\n
    writer.close()
    events = [json.loads(line) for line in raw.splitlines() if line]
    return status, events


async def _smoke(args) -> int:
    import numpy as np

    from repro.obs import ROOT
    from repro.serve.registry import ProgramRegistry
    from repro.serve.server import ServeApp

    path = args.register[0].split("=", 1)[1] if args.register else \
        "examples/programs/probe_serve.diderot"
    app = ServeApp(ProgramRegistry(), window=0.02, max_queue=args.max_queue)
    await app.start("127.0.0.1", 0)
    port = app.port
    status, _ = await _request(port, "GET", "/healthz")
    assert status == 200, f"healthz: {status}"
    status, doc = await _request(port, "POST", "/programs/demo", {
        "path": path, "workers": args.workers,
        "scheduler": args.scheduler or "thread",
        "probe": {"points_image": "pts", "count_input": "N"},
    })
    assert status == 200, f"register: {status} {doc}"

    rng = np.random.default_rng(7)
    points = (rng.random((12, 3)) * 30).tolist()
    # overlapping singleton requests: the 20ms window coalesces them
    results = await asyncio.gather(*[
        _request(port, "POST", "/probe/demo", {"points": [p]})
        for p in points
    ])
    assert all(s == 200 for s, _ in results), [s for s, _ in results]

    # oracle: direct Program.run over the same points, one batch
    entry = app.registry.get("demo")
    direct = entry.run_batch(np.asarray(points))
    for (_, doc), want in zip(results, direct["out"]):
        got = np.asarray(doc["outputs"]["out"][0])
        assert np.array_equal(got, want), (got, want)

    snap = ROOT.snapshot()["counters"]
    coalesced = snap.get("serve.batch.coalesced", 0)
    batches = snap.get("serve.batch.batches", 0)
    assert coalesced >= 2, f"no coalescing observed: {snap}"
    assert batches < len(points), f"every request ran alone: {snap}"

    # shedding: a tiny queue bound must yield at least one 429
    shed_app = ServeApp(ProgramRegistry(), window=0.05, max_queue=1)
    await shed_app.start("127.0.0.1", 0)
    status, _ = await _request(shed_app.port, "POST", "/programs/demo", {
        "path": path, "probe": {"points_image": "pts", "count_input": "N"},
    })
    assert status == 200
    flood = await asyncio.gather(*[
        _request(shed_app.port, "POST", "/probe/demo", {"points": [p]})
        for p in points
    ])
    codes = sorted({s for s, _ in flood})
    assert 429 in codes, f"no 429 under max_queue=1: {codes}"
    shed = ROOT.snapshot()["counters"].get("serve.shed", 0)
    assert shed >= 1, "serve.shed counter did not record the 429s"

    await app.close()
    await shed_app.close()

    inc = await _smoke_incremental()
    print(f"serve smoke OK: {len(points)} requests in {batches} batches "
          f"({coalesced} coalesced), shed codes {codes}; incremental "
          f"update re-ran {inc['dirty']}/{inc['total']} strands over "
          f"{inc['chunks']} stream chunks")
    return 0


_INC_SOURCE = """\
input int N = 20;
image(2)[] img = load("p.nrrd");
field#2(2)[] F = img ⊛ bspln3;
strand S (int i, int j) {
   output real x = 0.0;
   int n = 0;
   update {
      vec2 p = [real(i) + 2.5, real(j) + 2.5];
      if (inside(p, F)) { x = F(p) + 0.25 * (∇F(p))[0]; }
      n += 1;
      if (n >= 2) stabilize;
   }
}
initially [ S(i, j) | i in 0 .. N-1, j in 0 .. N-1 ];
"""


async def _smoke_incremental() -> dict:
    """Streaming /run + dirty-region /update, checked against cold runs."""
    import tempfile

    import numpy as np

    from repro.nrrd.writer import write_nrrd
    from repro.obs import ROOT
    from repro.serve.registry import ProgramRegistry
    from repro.serve.server import ServeApp

    with tempfile.TemporaryDirectory(prefix="serve-inc-") as tmp:
        rng = np.random.default_rng(0)
        base = rng.random((26, 26))
        patched = base.copy()
        patched[3:6, 3:6] += 1.0
        write_nrrd(f"{tmp}/p.nrrd", base)

        app = ServeApp(ProgramRegistry())
        await app.start("127.0.0.1", 0)
        port = app.port
        status, doc = await _request(port, "POST", "/programs/inc", {
            "source": _INC_SOURCE, "search_path": tmp,
        })
        assert status == 200, f"register inc: {status} {doc}"

        status, full = await _request(port, "POST", "/run/inc", {})
        assert status == 200, f"cold run: {status} {full}"

        # chunked streaming run: per-step events + a final done summary
        status, events = await _request_stream(port, "/run/inc",
                                               {"stream": True})
        assert status == 200 and events[-1].get("done"), events[-1]
        assert events[-1]["outputs"] == full["outputs"], \
            "streamed final outputs differ from the plain run"
        stabilized = sum(e.get("stabilized", 0) for e in events[:-1])
        assert stabilized == full["strands"], (stabilized, full["strands"])

        # dirty-region update: ship only the patched 3x3 block
        status, upd = await _request(port, "POST", "/update/inc", {
            "image": "img", "data": patched[3:6, 3:6].tolist(),
            "region": [[3, 5], [3, 5]],
        })
        assert status == 200, f"update: {status} {upd}"
        assert upd["incremental"] and upd["partial"], upd
        assert 0 < upd["dirty_strands"] < upd["strands"], upd

        # oracle: a cold run over the patched image must match the
        # stitched (full run + updated rows) result bit-exactly
        write_nrrd(f"{tmp}/p.nrrd", patched)
        status, _ = await _request(port, "POST", "/programs/inc2", {
            "source": _INC_SOURCE, "search_path": tmp,
        })
        assert status == 200
        status, oracle = await _request(port, "POST", "/run/inc2", {})
        assert status == 200
        merged = np.asarray(full["outputs"]["x"], dtype=np.float64)
        flat = merged.reshape(upd["strands"])
        flat[np.asarray(upd["updated_indices"], dtype=np.int64)] = \
            np.asarray(upd["outputs"]["x"], dtype=np.float64)
        want = np.asarray(oracle["outputs"]["x"], dtype=np.float64)
        assert np.array_equal(merged, want), "update not bit-identical"

        snap = ROOT.snapshot()["counters"]
        assert snap.get("serve.incremental.updates", 0) >= 1, snap
        chunks = snap.get("serve.stream.chunks", 0)
        assert chunks >= 2, snap
        await app.close()
        return {"dirty": upd["dirty_strands"], "total": upd["strands"],
                "chunks": chunks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async front door over the warm-program registry",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument("--register", action="append", metavar="NAME=PATH",
                        help="compile and register a program at startup "
                             "(repeatable)")
    parser.add_argument("--warm", metavar="MANIFEST",
                        help="JSON manifest of programs to compile and "
                             "register before binding the port")
    parser.add_argument("--probe", action="append",
                        metavar="NAME=IMAGE:COUNT[:PAD]",
                        help="probe spec for a registered name: the points "
                             "image global, the strand-count input, and "
                             "optional guard-row pad (default 1)")
    parser.add_argument("--precision", choices=["single", "double"],
                        default="double")
    parser.add_argument("--scheduler", choices=["seq", "thread", "process"],
                        default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--backend", choices=BACKEND_NAMES, default=None)
    parser.add_argument("--capacity", type=int, default=None,
                        help="registry LRU capacity (default unbounded)")
    parser.add_argument("--window", type=float, default=0.002,
                        help="batching window in seconds (default 2ms)")
    parser.add_argument("--max-batch", type=int, default=65536,
                        help="max strand rows per coalesced batch")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="max queued requests per program before "
                             "shedding with 429")
    parser.add_argument("--no-compile-cache", action="store_true",
                        help="bypass the persistent compile cache")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the serve metrics document on shutdown")
    parser.add_argument("--smoke", action="store_true",
                        help="run the self-contained end-to-end smoke "
                             "check and exit (used by CI)")
    args = parser.parse_args(argv)
    return asyncio.run(_smoke(args) if args.smoke else _serve(args))


if __name__ == "__main__":
    sys.exit(main())
