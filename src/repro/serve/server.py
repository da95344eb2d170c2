"""The asyncio front door: stdlib HTTP over the program registry.

One ``ServeApp`` owns a :class:`~repro.serve.registry.ProgramRegistry`
and one :class:`~repro.serve.batch.ProbeBatcher` per registered program.
The HTTP layer is deliberately tiny (asyncio ``start_server`` + hand
parsing, no framework, no dependencies) — requests and responses are
JSON, one request per connection.

Routes::

    GET    /healthz            liveness
    GET    /metrics            process-wide metrics document (obs layer)
    GET    /programs           registered programs + per-entry stats
    POST   /programs/<name>    compile (through the compile cache) + register
    DELETE /programs/<name>    evict
    POST   /probe/<name>       {"points": [...]} → batch run, coalesced with
                               whatever queued while the last one ran
    POST   /run/<name>         {"inputs": {...}} → one full program run
    POST   /update/<name>      {"image", "data", "region"?} → dirty-region
                               incremental re-run (see DESIGN.md
                               "Incremental execution")

``POST /run`` and ``POST /update`` accept ``"stream": true``: the
response becomes ``Transfer-Encoding: chunked`` NDJSON, one line per
super-step (newly-stabilized strand ids + their output rows) and a
final ``{"done": true, ...}`` line carrying the run summary.  A client
that disconnects mid-stream ends the run at its next super-step, which
frees the entry for the next request (``serve.stream.cancelled``).

Status mapping: unknown program → 404, bad request/compile error → 400,
queue full (:class:`~repro.serve.batch.Overloaded`) → 429 with
``Retry-After``, oversized body → 413, anything unexpected → 500.

Every request increments ``serve.requests`` and the per-status
``serve.http.<code>`` counter and lands one ``serve.request_seconds``
observation; per-batch coalescing metrics come from the batcher.  JSON
float serialization uses Python's shortest-round-trip repr, so float64
outputs survive the HTTP hop bit-exactly (asserted in tests).
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np

from repro.errors import DiderotError
from repro.obs import ROOT, Obs, current
from repro.obs.metrics import metrics_doc
from repro.serve.batch import Overloaded, ProbeBatcher
from repro.serve.registry import ProgramRegistry, registration

__all__ = ["ServeApp"]

#: refuse request bodies larger than this (64 MiB)
MAX_BODY = 64 << 20

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Stream:
    """Marker payload: the response is a chunked NDJSON event stream."""

    def __init__(self, gen):
        self.gen = gen  # async generator of JSON-serializable chunks


class ServeApp:
    """The serving application: registry + per-program batchers + HTTP."""

    def __init__(self, registry: ProgramRegistry | None = None, *,
                 max_batch: int = 65536, max_queue: int = 64,
                 compile_cache: bool = True):
        self.registry = registry if registry is not None else ProgramRegistry()
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.compile_cache = compile_cache
        self._batchers: dict[str, tuple[object, ProbeBatcher]] = {}
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8077):
        """Bind and start serving; returns the asyncio server object."""
        self._server = await asyncio.start_server(self._handle_client,
                                                  host, port)
        return self._server

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for _, batcher in list(self._batchers.values()):
            await batcher.close()
        self._batchers.clear()
        self.registry.clear()

    def _batcher(self, entry) -> ProbeBatcher:
        """The entry's batcher (rebuilt if the entry was re-registered)."""
        held = self._batchers.get(entry.name)
        if held is not None and held[0] is entry:
            return held[1]
        batcher = ProbeBatcher(entry, max_batch=self.max_batch,
                               max_queue=self.max_queue)
        old, self._batchers[entry.name] = held, (entry, batcher)
        if old is not None:
            asyncio.get_running_loop().create_task(old[1].close())
        return batcher

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        # one Obs per request: whatever the request runs — a compile, a
        # run on a to_thread hop, a streamed update — records into it (or
        # into a child).  It folds into the process root before a plain
        # answer is written, so a client that has its answer finds its
        # request in GET /metrics; a stream is part of the request.
        with Obs("request") as obs:
            status, payload = 500, {"error": "internal error"}
            with obs.span("request", "serve", hist="serve.request_seconds"):
                try:
                    method, path, body = await self._read_request(reader)
                    status, payload = await self._dispatch(method, path, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": str(exc)}
                except Overloaded as exc:
                    status, payload = 429, {"error": str(exc)}
                except KeyError as exc:
                    status, payload = 404, {
                        "error": f"unknown program {exc.args[0]!r}"}
                except (DiderotError, ValueError) as exc:
                    status, payload = 400, {"error": str(exc)}
                except (ConnectionError, asyncio.IncompleteReadError):
                    writer.close()
                    return
                except Exception as exc:  # pragma: no cover - defensive
                    status, payload = 500, {
                        "error": f"{type(exc).__name__}: {exc}"}
            obs.inc("serve.requests")
            obs.inc(f"serve.http.{status}")
            if isinstance(payload, _Stream):
                await self._respond_stream(writer, status, payload.gen)
                return
        await self._respond(writer, status, payload)

    async def _read_request(self, reader):
        line = await reader.readline()
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length") from None
        if length > MAX_BODY:
            raise _HttpError(413, f"body exceeds {MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _respond(self, writer, status: int, payload) -> None:
        try:
            data = json.dumps(payload, default=float).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                + ("Retry-After: 1\r\n" if status == 429 else "")
                + "Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + data)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _respond_stream(self, writer, status: int, gen) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head)
            await writer.drain()
            async for chunk in gen:
                data = (json.dumps(chunk, default=float) + "\n").encode("utf-8")
                writer.write(f"{len(data):x}\r\n".encode("latin-1")
                             + data + b"\r\n")
                current().inc("serve.stream.chunks")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, RuntimeError):
            # the client went away: closing the generator stops the run at
            # its next super-step, and the entry's lock with it
            current().inc("serve.stream.cancelled")
        finally:
            await gen.aclose()
            try:
                writer.close()
            except RuntimeError:
                pass

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes):
        seg = [s for s in path.split("?")[0].split("/") if s]
        if seg == ["healthz"] and method == "GET":
            return 200, {"ok": True, "programs": len(self.registry)}
        if seg == ["metrics"] and method == "GET":
            return 200, metrics_doc(ROOT)
        if seg == ["programs"] and method == "GET":
            return 200, {"programs": self.registry.list()}
        if len(seg) == 2 and seg[0] == "programs":
            if method == "POST":
                return await self._register(seg[1], self._json(body))
            if method == "DELETE":
                found = self.registry.evict(seg[1])
                await self._drop_batcher(seg[1])
                if not found:
                    raise KeyError(seg[1])
                return 200, {"evicted": seg[1]}
            raise _HttpError(405, f"{method} not allowed on {path}")
        if len(seg) == 2 and seg[0] == "probe" and method == "POST":
            return await self._probe(seg[1], self._json(body))
        if len(seg) == 2 and seg[0] == "run" and method == "POST":
            return await self._run(seg[1], self._json(body))
        if len(seg) == 2 and seg[0] == "update" and method == "POST":
            return await self._update(seg[1], self._json(body))
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"bad JSON body: {exc}") from None
        if not isinstance(doc, dict):
            raise _HttpError(400, "JSON body must be an object")
        return doc

    async def _drop_batcher(self, name: str) -> None:
        held = self._batchers.pop(name, None)
        if held is not None:
            await held[1].close()

    # -- handlers ----------------------------------------------------------

    async def _register(self, name: str, doc: dict):
        kwargs = registration(doc) | {"cache": self.compile_cache}
        # compile off the event loop: a cold compile takes real time
        entry = await asyncio.to_thread(self.registry.register, name, **kwargs)
        await self._drop_batcher(name)  # stale batcher from a replaced entry
        return 200, {"registered": entry.info()}

    async def _probe(self, name: str, doc: dict):
        entry = self.registry.get(name)
        if "points" not in doc:
            raise _HttpError(400, "probe needs 'points'")
        points = np.asarray(doc["points"], dtype=entry.program.dtype)
        entry.check_points(points)
        outputs = await self._batcher(entry).submit(points)
        return 200, {"outputs": {k: v.tolist() for k, v in outputs.items()}}

    async def _run(self, name: str, doc: dict):
        entry = self.registry.get(name)
        inputs = doc.get("inputs", {})
        if not isinstance(inputs, dict):
            raise _HttpError(400, "'inputs' must be an object")
        if doc.get("stream"):
            def call(on_step):
                result = entry.run(inputs=inputs, on_step=on_step)
                return self._run_payload(result) | {"done": True}
            return 200, _Stream(self._stream_events(call))
        result = await asyncio.to_thread(entry.run, inputs=inputs)
        return 200, self._run_payload(result)

    @staticmethod
    def _run_payload(result) -> dict:
        return {
            "outputs": {k: v.tolist() for k, v in result.outputs.items()},
            "steps": result.steps,
            "strands": result.num_strands,
            "wall_seconds": result.wall_time,
        }

    async def _update(self, name: str, doc: dict):
        entry = self.registry.get(name)
        if "image" not in doc or "data" not in doc:
            raise _HttpError(400, "update needs 'image' and 'data'")
        image = doc["image"]
        data = np.asarray(doc["data"], dtype=entry.program.dtype)
        region = doc.get("region")
        if doc.get("stream"):
            def call(on_step):
                info, result = entry.update(image, data, region,
                                            on_step=on_step)
                return self._update_payload(info, result) | {"done": True}
            return 200, _Stream(self._stream_events(call))
        info, result = await asyncio.to_thread(entry.update, image, data,
                                               region)
        return 200, self._update_payload(info, result)

    @staticmethod
    def _update_payload(info: dict, result) -> dict:
        payload = {
            "update": info,
            "steps": result.steps,
            "strands": result.num_strands,
            "dirty_strands": result.dirty_strands,
            "dirty_fraction": result.dirty_fraction,
            "incremental": result.incremental,
            "wall_seconds": result.wall_time,
        }
        idx = result.updated_indices
        if result.incremental and result.grid and idx is not None:
            # ship only the rows that could have changed: flatten grid
            # outputs to (total, ...) and select the re-run strands
            payload["updated_indices"] = np.asarray(idx).tolist()
            rows = {}
            for k, arr in result.outputs.items():
                flat = arr.reshape((result.num_strands,)
                                   + arr.shape[result.grid_dims:])
                rows[k] = flat[np.asarray(idx)].tolist()
            payload["outputs"] = rows
            payload["partial"] = True
        else:
            payload["outputs"] = {k: v.tolist()
                                  for k, v in result.outputs.items()}
            payload["partial"] = False
        return payload

    async def _stream_events(self, call):
        """Run blocking ``call(on_step)`` in a thread; yield step chunks.

        The worker thread's per-super-step callback is bridged onto the
        event loop via ``call_soon_threadsafe`` into a queue; the final
        chunk is whatever ``call`` returns (a dict with ``done: true``).
        Once the generator is closed — its client has gone — the callback
        raises instead, which ends the run at the next super-step.
        """
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        closed = threading.Event()

        def on_step(ev):
            if closed.is_set():
                raise ConnectionAbortedError("the stream's client has gone")
            mask = ev.status == 1  # strands that stabilized this step
            item = {
                "step": int(ev.step),
                "active": int(ev.active.size),
                "stabilized": int(mask.sum()),
            }
            if item["stabilized"]:
                item["ids"] = ev.active[mask].tolist()
                item["outputs"] = {k: np.asarray(v)[mask].tolist()
                                   for k, v in ev.outputs.items()}
            loop.call_soon_threadsafe(queue.put_nowait, ("step", item))

        task = asyncio.ensure_future(asyncio.to_thread(call, on_step))
        # the done-callback runs on the loop after every pending
        # call_soon_threadsafe step item, so ordering is preserved;
        # consuming .exception() here also silences "never retrieved"
        # when the client disconnects mid-stream
        task.add_done_callback(
            lambda t: queue.put_nowait(("done", t.exception(), t)))
        try:
            while True:
                msg = await queue.get()
                if msg[0] == "step":
                    yield msg[1]
                    continue
                _, exc, done = msg
                if exc is not None:
                    status = getattr(exc, "status", None)
                    yield {"error": f"{type(exc).__name__}: {exc}",
                           **({"status": status} if status else {})}
                    return
                yield done.result()
                return
        finally:
            closed.set()
