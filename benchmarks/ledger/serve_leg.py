"""The serving half of ``front-door``: latency of the HTTP front door.

A real ``python -m repro.serve --backend c`` subprocess takes *open-loop*
bursts of ``/probe`` request pairs: pair ``i`` of a burst is due at ``i /
rate`` seconds whatever happened to earlier ones, both requests of a pair
at the same instant (so the 2 ms coalescing window has something to
coalesce with at most two connections in flight), and every latency is
measured from the due time, not from when the sender got round to it — a
stall therefore costs every request queued behind it.  One request in eight
carries 2048 points, so p90 sits inside the large-body group (serialization
cost) while p50 is a small request (fixed per-request cost).  Each burst
yields its own p50 and p90; the row is the quietest burst's (README
"Noise").  After each burst, closed loop on one connection: whole ``/run``
requests of vr_lite.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from ledger import inputs, trace
from ledger.harness import Checks, median, percentile, timing
from ledger.spec import EXAMPLES


def _request(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        buf = bytearray()
        while chunk := s.recv(1 << 16):
            buf += chunk
    head, _, payload = bytes(buf).partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), payload


def _post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    """POST during a timed loop: a connection error is status 0, not a crash."""
    try:
        return _request(port, "POST", path, body)
    except OSError:
        return 0, b""


class _Subprocess:
    """``python -m repro.serve`` as a child; always terminated and reaped."""

    def __init__(self, run_dir: Path, cpu: int | None):
        self.log = open(run_dir / "server.log", "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--backend", "c",
             "--register", f"probe={EXAMPLES / 'probe_serve.diderot'}",
             "--probe", "probe=pts:N",
             "--register", f"vr={EXAMPLES / 'vr_lite.diderot'}"],
            stderr=self.log, stdout=subprocess.DEVNULL, cwd=run_dir)
        self.pin(cpu)  # before it starts any thread: they inherit it
        self.port = self._wait_port()

    def pin(self, cpu: int | None) -> None:
        """Move every thread of the server to ``cpu``."""
        if cpu is None:
            return
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except ProcessLookupError:  # a pool thread that has just ended
                pass

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            self.log.seek(0)
            m = re.search(r"serving on http://[\d.]+:(\d+)", self.log.read())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.close()
        raise RuntimeError("serve subprocess did not come up; see server.log")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.log.close()


class _InProcess:
    """The same application hosted on a thread of this process, so that the
    traced run's wrappers see it."""

    def __init__(self):
        self._ready = threading.Event()
        self._box: dict = {}
        self._thread = threading.Thread(target=lambda: asyncio.run(self._main()),
                                        name="ledger-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(60) or "port" not in self._box:
            raise RuntimeError(f"in-process server failed: {self._box.get('error')}")
        self.port = self._box["port"]

    async def _main(self) -> None:
        from repro.serve.registry import ProbeSpec, ProgramRegistry
        from repro.serve.server import ServeApp

        try:
            app = ServeApp(ProgramRegistry())
            await asyncio.to_thread(
                app.registry.register, "probe", path=str(EXAMPLES / "probe_serve.diderot"),
                probe=ProbeSpec("pts", "N"), backend="c")
            await asyncio.to_thread(
                app.registry.register, "vr", path=str(EXAMPLES / "vr_lite.diderot"),
                backend="c")
            await app.start("127.0.0.1", 0)
        except Exception as exc:  # reported by the constructor, which re-raises
            self._box["error"] = repr(exc)
            self._ready.set()
            return
        self._box.update(port=app.port, loop=asyncio.get_running_loop(),
                         stop=asyncio.Event())
        self._ready.set()
        await self._box["stop"].wait()
        await app.close()

    def close(self) -> None:
        self._box["loop"].call_soon_threadsafe(self._box["stop"].set)
        self._thread.join(timeout=30)


def _open_loop(port: int, requests: list[dict], due: list[float], keep: set[int]) -> list[dict]:
    """Send ``requests[i]`` at ``start + due[i]`` from two sender threads
    (even and odd indices); returns one record per request."""
    records: list[dict | None] = [None] * len(requests)
    start = time.perf_counter() + 0.05

    def sender(k: int) -> None:
        for i in range(k, len(requests), 2):
            t_due = start + due[i]
            delay = t_due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t_sent = time.perf_counter()
            status, payload = _post(port, "/probe/probe", requests[i]["body"])
            records[i] = {"latency": time.perf_counter() - t_due, "late": t_sent - t_due,
                          "status": status,
                          "payload": payload if i in keep else None}

    threads = [threading.Thread(target=sender, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def _closed_loop(port: int, path: str, bodies: list[bytes]) -> tuple[list[float], list]:
    lat, answers = [], []
    for body in bodies:
        t0 = time.perf_counter()
        answers.append(_post(port, path, body))
        lat.append(time.perf_counter() - t0)
    return lat, answers


def _gage_context():
    """The hand-written probing context over the served volume."""
    from repro.gage import Context
    from repro.kernels import bspln3
    from repro.nrrd import read_nrrd

    ctx = Context(read_nrrd(str(EXAMPLES / "hand.nrrd")))
    ctx.kernel_set(0, bspln3)
    ctx.kernel_set(1, bspln3.derivative())
    ctx.query_on("value")
    ctx.query_on("gradient")
    ctx.update()
    return ctx


def _gage_probe(ctx, points: np.ndarray) -> np.ndarray:
    """``[F, ∇F]`` per point, zeros outside the field."""
    out = np.zeros((len(points), 4))
    for i, pos in enumerate(points):
        if ctx.probe(pos):
            out[i, 0] = float(ctx.answer("value"))
            out[i, 1:] = ctx.answer("gradient")
    return out


class ServeLeg:
    def __init__(self, seed: int, cfg: dict, run_dir: Path, checks: Checks, rotation):
        self.seed, self.cfg, self.run_dir, self.checks = seed, cfg, run_dir, checks
        self.rotation = rotation
        pairs = max(4, round(cfg["burst_s"] * cfg["pairs_per_s"]))
        self.per_burst = 2 * pairs
        self.pool = inputs.probe_requests(seed, self.per_burst * cfg["pool_bursts"],
                                          cfg["big_every"], cfg["big_points"])
        self.due = inputs.arrival_schedule(pairs, cfg["pairs_per_s"])
        self.sample = set(inputs.oracle_sample(seed, len(self.pool)))
        self.answers: dict[int, bytes] = {}  # pool index -> first sampled payload
        self.small = [r["body"] for r in self.pool if r["n"] <= 8]
        self.run_body = json.dumps(
            {"inputs": inputs.camera(seed, cfg["run_res"])}).encode()
        self.run_answers: list[tuple[int, bytes]] = []
        self.server: _Subprocess | None = None
        self.samples: dict[str, list[float]] = {"probe_p50": [], "probe_p90": [], "run": []}
        self.latencies: list[float] = []
        self.late: list[float] = []
        self.http_429 = 0

    def set_up(self, laps) -> None:
        """Start the server and send it one of everything."""
        self.server = _Subprocess(self.run_dir, self.rotation.other)
        laps.lap("server_start")
        port = self.server.port
        for body in self.small[:self.cfg["warmup"]]:
            _request(port, "POST", "/probe/probe", body)
        _request(port, "POST", "/probe/probe",
                 next(r["body"] for r in self.pool if r["n"] > 8))
        for _ in range(2):
            _request(port, "POST", "/run/vr", self.run_body)
        laps.lap("first_requests")

    def tear_down(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def burst(self, port: int, i: int) -> list[dict]:
        """Send burst ``i`` of the pool open loop; books latencies, lateness,
        statuses and the sampled answers."""
        lo = (i % self.cfg["pool_bursts"]) * self.per_burst
        keep = {k - lo for k in self.sample
                if lo <= k < lo + self.per_burst and k not in self.answers}
        records = _open_loop(port, self.pool[lo:lo + self.per_burst], self.due, keep)
        for j, rec in enumerate(records):
            self.checks.check(rec["status"] == 200,
                              f"/probe request {lo + j}: HTTP {rec['status']}")
            if rec["payload"] is not None and rec["status"] == 200:
                self.answers[lo + j] = rec["payload"]
        self.http_429 += sum(r["status"] == 429 for r in records)
        self.latencies += [r["latency"] for r in records]
        self.late += [r["late"] for r in records]
        return records

    def round(self, i: int) -> None:
        port = self.server.port
        lat = [r["latency"] for r in self.burst(port, i)]
        self.samples["probe_p50"].append(percentile(lat, 50))
        self.samples["probe_p90"].append(percentile(lat, 90))
        run_lat, answers = _closed_loop(port, "/run/vr",
                                        [self.run_body] * self.cfg["runs_per_round"])
        self.samples["run"] += run_lat
        self.run_answers += answers

    def singles(self) -> float:
        """Median latency of lone small probes: each pays the window alone."""
        bodies = (self.small * (self.cfg["singles"] // len(self.small) + 1))
        lat, answers = _closed_loop(self.server.port, "/probe/probe",
                                    bodies[:self.cfg["singles"]])
        for status, _ in answers:
            self.checks.check(status == 200, f"single /probe: HTTP {status}")
        return median(lat)

    def rows(self) -> dict:
        rows = {f"{k}_ms": timing(v) for k, v in self.samples.items()}
        for k in ("probe_p50_ms", "probe_p90_ms"):
            rows[k]["stat"] = f"{k[6:9]} of the quietest burst"
            rows[k]["requests"] = len(self.latencies)
        return rows

    def diagnostics(self) -> dict:
        return {"serve.server.probe_p99_ms": percentile(self.latencies, 99) * 1e3,
                "serve.client.late_p99_ms": percentile(self.late, 99) * 1e3,
                "serve.server.http_429": self.http_429}

    def verify(self) -> None:
        """Sampled ``/probe`` answers against per-point gage probing; every
        ``/run`` answer HTTP 200, equal to the first, and matching an
        in-process NumPy-backend run of the same program and inputs."""
        from repro.core.driver import compile_file

        gage = _gage_context()
        for i, payload in sorted(self.answers.items()):
            got = np.asarray(json.loads(payload)["outputs"]["out"])
            self.checks.close_to(got, _gage_probe(gage, self.pool[i]["points"]), 1e-10,
                                 f"/probe request {i} vs repro.gage")
        payloads = [payload for status, payload in self.run_answers
                    if self.checks.check(status == 200, f"/run: HTTP {status}")]
        if not payloads:
            return
        outs = [{k: np.asarray(v) for k, v in json.loads(payload)["outputs"].items()}
                for payload in payloads]
        first = outs[0]
        for out in outs[1:]:
            self.checks.identical(out, first, "/run repeat")
        prog = compile_file(str(EXAMPLES / "vr_lite.diderot"))
        inputs.apply(prog, inputs.camera(self.seed, self.cfg["run_res"]))
        for name, want in prog.run(backend="numpy").outputs.items():
            self.checks.close_to(first.get(name), want, 1e-10,
                                 f"/run {name} vs NumPy backend")

    # -- traced: the same application on a thread of this process ---------------

    def traced(self, duration: float) -> tuple[dict, float]:
        from repro.serve import batch, registry, server

        rec = trace.Recorder()
        targets = [
            (server.ServeApp, "_handle_client", "request"),
            (batch.ProbeBatcher, "submit", "submit"),
            (registry.ProgramEntry, "run_batch", "run_batch"),
        ]
        with trace.wrapped(rec, targets):
            app = _InProcess()
            try:
                for body in self.small[:self.cfg["warmup"]]:
                    _request(app.port, "POST", "/probe/probe", body)
                rec.drain()
                t_end = time.perf_counter() + duration
                i = 0
                while i < 2 or time.perf_counter() < t_end:
                    self.burst(app.port, i)
                    i += 1
            finally:
                app.close()

        spans = rec.drain()
        batches = sorted((s.t0, s.t1) for s in spans if s.name == "run_batch")
        submits = {s.parent: s for s in spans if s.name == "submit"}
        waits, https, covered, wall = [], [], 0.0, 0.0
        # HTTP, batch wait and run_batch partition a request's span; the sum
        # falls short of the wall only if a request never reached submit
        for req in (s for s in spans if s.name == "request"):
            wall += req.dur
            sub = submits.get(req.id)
            if sub is None:
                continue
            ran = sum(max(0.0, min(sub.t1, b1) - max(sub.t0, b0)) for b0, b1 in batches)
            waits.append(sub.dur - ran)
            https.append(req.dur - sub.dur)
            covered += req.dur
        layers = {
            "serve.batch.wait_ms": median(waits) * 1e3,
            "serve.registry.run_batch_ms": median([b1 - b0 for b0, b1 in batches]) * 1e3,
            "serve.batch.requests_per_batch": len(submits) / len(batches),
            "serve.server.http_ms": median(https) * 1e3,
        }
        return layers, covered / wall
