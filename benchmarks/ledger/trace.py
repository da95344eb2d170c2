"""Span recording from outside the program under test.

The ledger never edits ``src/``: a traced run swaps each layer's entry
point for a wrapper that records one in-memory span per call (name,
start, end, and the span that caused it), runs the workload, and puts
the original attribute back.  A name that cannot be found is an error —
a layer that silently stopped being measured would read as a layer that
got free.

Two numbers come out of a span tree:

* ``self_times``: a span's duration minus the part of it its child spans
  cover (children may overlap when pool threads run in parallel, so
  coverage is the length of the *union* of their intervals);
* ``attributed``: the same self time scaled so that parallel siblings
  share the wall time they jointly cover.  Summed over a tree this is
  exactly the root's duration, which is what lets a workload check that
  its layers add up to its traced wall.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["OpLedger", "Recorder", "Span", "attributed", "by_name", "self_times",
           "union_length", "wrap", "wrapped"]

#: a child may start/end this much outside its parent (clock reads are
#: not atomic with the span bookkeeping) and still count as nested
_NEST_SLACK = 5e-6


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """Collects spans in memory; thread- and asyncio-safe.

    The current span travels in a context variable, so it follows
    ``asyncio`` tasks and ``asyncio.to_thread`` hops by itself.  Pool
    threads that were started earlier (the thread scheduler's workers)
    have an empty context; their spans are attributed to the innermost
    span open on the thread that created the recorder — the call that
    handed them the work and is blocked on them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "ledger_span", default=None)
        self._owner = threading.get_ident()
        self._ambient: int | None = None
        self._next = 0

    @contextmanager
    def span(self, name: str):
        parent = self._current.get()
        if parent is None:
            parent = self._ambient
        with self._lock:
            self._next += 1
            sp = Span(self._next, parent, name, 0.0)
        owner = threading.get_ident() == self._owner
        token = self._current.set(sp.id)
        if owner:
            prev, self._ambient = self._ambient, sp.id
        sp.t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            self._current.reset(token)
            if owner:
                self._ambient = prev
            with self._lock:
                self.spans.append(sp)

    def drain(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            out, self.spans = self.spans, []
        return out


def wrap(rec: Recorder, owner, attr: str, name: str):
    """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
    span-recording wrapper; returns a callable that restores it."""
    is_dict = isinstance(owner, dict)
    table = owner if is_dict else vars(owner)
    if attr not in table:
        where = "dict" if is_dict else getattr(owner, "__name__", repr(owner))
        raise LookupError(f"trace target {where}.{attr} ({name}) does not exist")
    orig = table[attr]
    if inspect.iscoroutinefunction(orig):
        @functools.wraps(orig)
        async def wrapper(*args, **kwargs):
            with rec.span(name):
                return await orig(*args, **kwargs)
    else:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                return orig(*args, **kwargs)

    if is_dict:
        owner[attr] = wrapper
        return lambda: owner.__setitem__(attr, orig)
    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, orig)


@contextmanager
def wrapped(rec: Recorder, targets):
    """Wrap every ``(owner, attr, span_name)`` target; restore on exit."""
    restores = []
    try:
        for owner, attr, name in targets:
            restores.append(wrap(rec, owner, attr, name))
        yield rec
    finally:
        for restore in reversed(restores):
            restore()


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _children(spans) -> dict:
    """``parent id (or None) -> child spans``; a child that does not nest
    inside its recorded parent (a stale context, e.g. a long-lived task)
    is re-rooted instead of being clipped."""
    by_id = {s.id: s for s in spans}
    kids: dict = {}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and (s.t0 < p.t0 - _NEST_SLACK or s.t1 > p.t1 + _NEST_SLACK):
            p = None
        kids.setdefault(p.id if p is not None else None, []).append(s)
    return kids


def self_times(spans) -> dict[int, float]:
    """``span id -> duration minus the union of its children``."""
    kids = _children(spans)
    return {
        s.id: max(0.0, s.dur - union_length((c.t0, c.t1) for c in kids.get(s.id, ())))
        for s in spans
    }


def attributed(spans) -> dict[int, float]:
    """``span id -> wall-attributed self time`` (see module docstring)."""
    kids = _children(spans)
    selfs = self_times(spans)
    out: dict[int, float] = {}
    stack = [(s, 1.0) for s in kids.get(None, ())]
    while stack:
        s, factor = stack.pop()
        out[s.id] = selfs[s.id] * factor
        cs = kids.get(s.id, ())
        busy = sum(c.dur for c in cs)
        if busy > 0.0:
            share = factor * union_length((c.t0, c.t1) for c in cs) / busy
            stack.extend((c, share) for c in cs)
        else:
            stack.extend((c, factor) for c in cs)
    return out


def by_name(spans, values: dict[int, float]) -> dict[str, float]:
    """Sum a per-span table by span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + values.get(s.id, 0.0)
    return out


class OpLedger:
    """Runs timed operations under a root span and books their layers.

    ``layer_sum / wall`` is the share of the operations' independently
    timed wall that the named layers account for — the check that a
    workload's layers add up to its traced wall.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.layer_sum = 0.0
        self.wall = 0.0

    def op(self, fn, into: dict):
        """Call ``fn()`` as one traced operation and add its attributed
        layer times, by span name, to ``into``.  Returns ``(result,
        seconds, spans)``."""
        self.rec.drain()  # spans of untimed work since the last operation
        with self.rec.span("op"):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        spans = self.rec.drain()
        for name, v in by_name(spans, attributed(spans)).items():
            if name != "op":
                into[name] = into.get(name, 0.0) + v
                self.layer_sum += v
        self.wall += dt
        return out, dt, spans

    @property
    def ratio(self) -> float:
        return self.layer_sum / self.wall
