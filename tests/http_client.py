"""A minimal HTTP client for the serving tests (stdlib only, usable inside
the event loop): one JSON request per connection, as the server speaks."""

from __future__ import annotations

import asyncio
import json


async def _send(port: int, method: str, path: str, doc):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(doc).encode() if doc is not None else b""
    writer.write(
        (f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
         f"Content-Length: {len(body)}\r\n\r\n").encode() + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        k, _, v = line.decode().partition(":")
        headers[k.strip().lower()] = v.strip()
    return reader, writer, status, headers


async def request(port: int, method: str, path: str, doc=None) -> tuple[int, dict]:
    """``(status, JSON body)`` of one request."""
    reader, writer, status, headers = await _send(port, method, path, doc)
    length = int(headers.get("content-length", 0))
    payload = json.loads(await reader.readexactly(length)) if length else {}
    writer.close()
    return status, payload


async def request_stream(port: int, path: str, doc) -> tuple[int, list]:
    """POST and decode a chunked NDJSON response into a list of events."""
    reader, writer, status, headers = await _send(port, "POST", path, doc)
    assert "chunked" in headers.get("transfer-encoding", ""), \
        f"expected chunked response, got status {status}"
    raw = b""
    while True:
        size = int((await reader.readline()).strip(), 16)
        if size == 0:
            break
        raw += await reader.readexactly(size)
        await reader.readexactly(2)  # trailing \r\n
    writer.close()
    return status, [json.loads(line) for line in raw.splitlines() if line]
