"""The one recorder: :class:`Obs`, the current-``Obs`` context, the clock.

An :class:`Obs` is the scope of one run, request or compile.  It keeps

* **aggregates** — counters, gauges, histograms and series (the four
  instruments of :mod:`repro.obs.metrics`), always on, and
* **events** — spans (``ph="X"``), decisions (:meth:`Obs.event`,
  ``ph="i"``) and gauge samples (``ph="C"``), timed on :data:`clock`,
  the only wall-clock read for measurement in ``src/``.

Closing a span does both jobs a hand-written ``clock()`` pair would: it
appends the event and adds the span's aggregate (``counter=`` /
``hist=`` at the call site; a ``cat="pass"`` span books
``pass.<name>.seconds`` / ``.calls``).  Coarse spans — one per compiler
pass, per run phase, per request — are always recorded; per-step and
per-block spans are recorded only by an ``Obs(detail=True)``, which is
also what makes the run plan drive the native kernel one step at a time.

Scope and fold
--------------
The *current* ``Obs`` travels in a :mod:`contextvars` variable, so it
follows ``asyncio`` tasks and ``asyncio.to_thread`` by itself; code that a
context cannot reach is handed it explicitly (the thread scheduler's pool
threads at block pick-up; forked process workers record into an ``Obs`` of
their own and ship its :meth:`Obs.drain` in every block's ``done`` ack).
Outside any scope the current ``Obs`` is :data:`ROOT`, the process root.
Closing an ``Obs`` (leaving its ``with`` block) folds its aggregates —
never its events or series — into its parent, so the root accumulates
every finished scope's counters and grows with the number of distinct
metric names, not with the number of requests served; the root itself
keeps no events and no series.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.metrics import TIME_BUCKETS, Histogram

#: the only wall-clock read for measurement in ``src/`` (deadlines use
#: ``time.monotonic``)
clock = time.perf_counter


@dataclass(slots=True)
class SpanEvent:
    """One recorded event.

    ``ts`` and ``dur`` are seconds relative to the recorder's epoch; ``ph``
    follows the Chrome trace-event phase letters: ``"X"`` for a complete
    span, ``"i"`` for an instant, ``"C"`` for a gauge sample.
    """

    name: str
    cat: str
    ts: float
    dur: float
    tid: str
    ph: str = "X"
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


class _Span:
    """An open span; records itself into its ``Obs`` on ``__exit__``.

    ``set(key, value)`` attaches metadata that is only known once the
    spanned work has run (instruction counts, strand tallies, ...);
    ``dur`` is the measured duration once the span has closed.
    """

    __slots__ = ("_obs", "name", "cat", "tid", "counter", "hist", "args",
                 "_t0", "dur")

    def __init__(self, obs, name, cat, tid, counter, hist, args):
        self._obs = obs
        self.name = name
        self.cat = cat
        self.tid = tid
        self.counter = counter
        self.hist = hist
        self.args = args
        self._t0 = self.dur = 0.0

    def set(self, key: str, value) -> None:
        self.args[key] = value

    def __enter__(self) -> "_Span":
        self._t0 = clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur = dur = clock() - self._t0
        obs = self._obs
        obs.complete(self.name, self.cat, self._t0, dur, tid=self.tid,
                     **self.args)
        if self.cat == "pass":
            obs.inc_many({f"pass.{self.name}.seconds": dur,
                          f"pass.{self.name}.calls": 1})
        if self.counter is not None:
            obs.inc(self.counter, dur)
        if self.hist is not None:
            obs.observe(self.hist, dur)
        return False


# op name → ("op.X.calls", "op.X.lanes", "op.X.seconds"), interned once so
# the op-profiler hot path never builds key strings
_OP_KEYS: dict = {}

_IDS = itertools.count(1)
_INHERIT = object()


class Obs:
    """A run/request-scoped recorder: aggregates plus events, thread-safe.

    ``parent`` defaults to the current ``Obs``; pass ``None`` for a
    recorder whose aggregates go nowhere when it closes.  ``detail=True``
    additionally records per-step and per-block spans.  Used as a context
    manager it is the current ``Obs`` inside the block and is closed —
    folded into its parent — on exit.

    All mutation goes through one lock; readers take snapshots.  The
    per-call cost is a dict update under an uncontended lock — the
    instrumented runtime records at *block* granularity (one update per
    kernel call over thousands of strands), which is what keeps the
    always-on overhead within the ≤3 % budget (ROADMAP).
    """

    def __init__(self, name: str = "run", parent=_INHERIT,
                 detail: bool = False):
        self.name = name
        self.id = next(_IDS)
        self.parent = _CURRENT.get() if parent is _INHERIT else parent
        self.detail = detail
        self.epoch = clock()
        self._lock = threading.Lock()
        self._keeps_events = True
        self._closed = False
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, list] = {}
        self.events: list[SpanEvent] = []

    def __repr__(self) -> str:
        return f"<Obs {self.name}#{self.id}>"

    # -- scope -------------------------------------------------------------

    @contextmanager
    def activate(self):
        """Make this the current ``Obs`` inside the block (not closed)."""
        token = _CURRENT.set(self)
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    def __enter__(self) -> "Obs":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        self.close()
        return False

    def close(self) -> None:
        """Fold the aggregates into the parent (once); events and series
        stay here and go when this object does."""
        if self.parent is not None and not self._closed:
            self._closed = True
            self.parent.merge(self, include_series=False)

    # -- aggregates --------------------------------------------------------

    def inc(self, name: str, delta: float = 1) -> None:
        """Accumulate ``delta`` into the named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def inc_many(self, deltas: dict) -> None:
        """Accumulate several counters under one lock acquisition."""
        with self._lock:
            c = self.counters
            for name, delta in deltas.items():
                c[name] = c.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value (with ``detail``, also
        a ``"C"`` sample on the timeline)."""
        with self._lock:
            self.gauges[name] = value
        if self.detail:
            self._append(SpanEvent(name, "gauge", clock() - self.epoch, 0.0,
                                   self._tid(), "C", {"value": value}))

    def observe(self, name: str, value: float, bounds=TIME_BUCKETS) -> None:
        """Record one observation into the named histogram (created with
        ``bounds`` on first use)."""
        with self._lock:
            h = self.histograms.get(name)
            if h is None:
                h = self.histograms[name] = Histogram(bounds)
            h.observe(value)

    def observe_many(self, name: str, values, bounds=TIME_BUCKETS) -> None:
        """Record an array of observations into the named histogram."""
        with self._lock:
            h = self.histograms.get(name)
            if h is None:
                h = self.histograms[name] = Histogram(bounds)
            h.observe_many(values)

    def op(self, name: str, lanes: int, seconds: float) -> None:
        """Record one runtime-kernel invocation: the op-profiler hot path.

        ``name`` is the IR op name the generated code calls (the
        ``rt.<name>`` emitted by :mod:`repro.core.codegen.pygen`), so the
        hot-op table attributes runtime cost directly to LowIR/MidIR
        vocabulary.  One lock acquisition updates calls, element (lane)
        throughput, and accumulated wall seconds.
        """
        keys = _OP_KEYS.get(name)
        if keys is None:
            keys = _OP_KEYS[name] = (
                f"op.{name}.calls", f"op.{name}.lanes", f"op.{name}.seconds"
            )
        k_calls, k_lanes, k_seconds = keys
        with self._lock:
            c = self.counters
            c[k_calls] = c.get(k_calls, 0) + 1
            c[k_lanes] = c.get(k_lanes, 0) + lanes
            c[k_seconds] = c.get(k_seconds, 0.0) + seconds

    def guard(self, skipped: bool = False, compacted: bool = False) -> None:
        """Count one uniform-branch guard evaluation (``rt.any_lane``;
        ``skipped``: no lane takes the arm) or one heavy arm run on its
        live lanes only (``rt.live``; ``compacted``)."""
        with self._lock:
            c = self.counters
            if compacted:
                c["guard.compacted"] = c.get("guard.compacted", 0) + 1
                return
            c["guard.checked"] = c.get("guard.checked", 0) + 1
            if skipped:
                c["guard.skipped"] = c.get("guard.skipped", 0) + 1

    def rows(self, name: str, rows: list) -> None:
        """Append dict rows to the named series (e.g. per-step stats)."""
        if self._keeps_events:
            with self._lock:
                self.series.setdefault(name, []).extend(rows)

    def snapshot(self) -> dict:
        """A JSON-able copy of every aggregate recorded so far."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    k: h.to_dict() for k, h in self.histograms.items()
                },
                "series": {k: list(v) for k, v in self.series.items()},
            }

    def drain(self) -> dict:
        """Snapshot and reset the aggregates: the per-block delta a forked
        worker ships back in its ``done`` ack (merged by the master at
        the barrier)."""
        with self._lock:
            out = {
                "counters": self.counters,
                "gauges": self.gauges,
                "histograms": {
                    k: h.to_dict() for k, h in self.histograms.items()
                },
                "series": self.series,
            }
            self.counters = {}
            self.gauges = {}
            self.histograms = {}
            self.series = {}
        return out

    def merge(self, snap, include_series: bool = True) -> None:
        """Fold a snapshot/drain dict (or another ``Obs``) into this one."""
        if isinstance(snap, Obs):
            snap = snap.snapshot()
        with self._lock:
            c = self.counters
            for name, v in snap.get("counters", {}).items():
                c[name] = c.get(name, 0) + v
            self.gauges.update(snap.get("gauges", {}))
            for name, hd in snap.get("histograms", {}).items():
                h = self.histograms.get(name)
                if h is None:
                    self.histograms[name] = Histogram.from_dict(hd)
                else:
                    h.merge(hd)
            if include_series and self._keeps_events:
                for name, rows in snap.get("series", {}).items():
                    self.series.setdefault(name, []).extend(rows)

    # -- events ------------------------------------------------------------

    def _tid(self) -> str:
        return threading.current_thread().name

    def _append(self, ev: SpanEvent) -> None:
        if self._keeps_events:
            with self._lock:
                self.events.append(ev)

    def span(self, name: str, cat: str = "", *, tid: str | None = None,
             counter: str | None = None, hist: str | None = None,
             **args) -> _Span:
        """Open a span as a context manager.  Closing it appends the event
        and adds its duration to the ``counter`` and/or the ``hist``
        histogram named here."""
        return _Span(self, name, cat, tid, counter, hist, args)

    def complete(self, name: str, cat: str, start: float, dur: float,
                 tid: str | None = None, **args) -> None:
        """Record an interval measured elsewhere — by the native kernel,
        by a worker process — from its absolute :data:`clock` start."""
        self._append(SpanEvent(name, cat, start - self.epoch, dur,
                               tid or self._tid(), "X", args))

    def event(self, name: str, cat: str = "", **why) -> None:
        """Record a decision (a zero-duration marker) with its reasons."""
        self._append(SpanEvent(name, cat, clock() - self.epoch, 0.0,
                               self._tid(), "i", why))

    # -- views -------------------------------------------------------------

    def spans(self, cat: str | None = None) -> list[SpanEvent]:
        """The complete ("X") events, optionally filtered by category."""
        return [ev for ev in self.events
                if ev.ph == "X" and (cat is None or ev.cat == cat)]

    def _blocks_by_step(self, pick) -> list[list]:
        steps: dict[int, list[tuple]] = {}
        for ev in self.spans("block"):
            steps.setdefault(ev.args["step"], []).append(
                (ev.args.get("block", 0), pick(ev)))
        return [[v for _, v in sorted(steps[s])] for s in sorted(steps)]

    def block_step_times(self) -> list[list[float]]:
        """Per-super-step lists of per-block durations (seconds).

        This is the input the simulated multicore scheduler
        (:mod:`repro.runtime.simsched`) replays; blocks are ordered by
        their work-list index within each step, regardless of the order
        worker threads finished them in.
        """
        return self._blocks_by_step(lambda ev: ev.dur)

    def block_workers(self) -> list[list[str]]:
        """Per-super-step lists of the worker label that ran each block."""
        return self._blocks_by_step(lambda ev: ev.tid)


#: the process root: the parent of every scope opened outside another, and
#: the current ``Obs`` outside any scope.  Aggregates only.
ROOT = Obs("process", parent=None)
ROOT._keeps_events = False

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro.obs", default=ROOT)

#: the ``Obs`` instrumented code records into right now
current = _CURRENT.get


def scope(obs: Obs | None, name: str):
    """The recorder a call records into, as a context manager: ``obs`` when
    the caller passed one — it stays open, the caller owns it — else a
    fresh child of the current one, closed on exit.  Either way it is the
    current ``Obs`` inside the block."""
    return obs.activate() if obs is not None else Obs(name)
