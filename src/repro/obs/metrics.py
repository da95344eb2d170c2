"""The always-on metrics registry: counters, gauges, histograms, series.

Where :mod:`repro.obs.tracer` records *events* (a timeline you replay or
render), this module records *aggregates* — cheap enough that they stay
on by default.  Three kinds of instruments, all thread-safe behind one
lock:

* **counters** — monotonically accumulated floats/ints (op invocation
  counts, element throughput, guard skips, busy seconds);
* **gauges** — last-value-wins samples (active strand count);
* **histograms** — fixed-bucket distributions with percentile readout
  (super-step seconds, queue wait, load imbalance);
* **series** — append-only lists of dict rows (the per-step convergence
  curve the run report plots).

Deterministic vs. timing metrics
--------------------------------
Counter names under ``op.*`` ending in ``.calls``, ``.lanes`` or
``.memo_*``, and the ``guard.*`` counters, count *work*, not time: for a
fixed program and block size they are bit-identical across the
sequential, thread, and process schedulers (asserted by
``tests/test_metrics.py``).  Names ending in ``.seconds`` and every
histogram are wall-clock measurements and are compared only with
noise-tolerant thresholds (``python -m repro.obs diff``).

Cache and serving metrics
-------------------------
The compile-once layers report through the same registry:
``compile_cache.{hits,misses,evicted}`` from the persistent compile
cache (:mod:`repro.serve.cache`), ``cgen.cache.{hits,misses,evicted,
lock_waits}`` from the native artifact cache
(:mod:`repro.core.codegen.cbuild`), and the front door's
``serve.requests`` / ``serve.http.<status>`` / ``serve.shed`` counters,
``serve.batch.{requests,batches,coalesced}`` coalescing counters, and
``serve.batch.size`` / ``serve.request_seconds`` histograms
(:mod:`repro.serve.server`).  Cache counters increment on :data:`ACTIVE`
outside any run, i.e. on :data:`GLOBAL` unless a run is in flight.

Cross-process protocol
----------------------
Forked :class:`~repro.runtime.mpsched.ProcessScheduler` workers install
a fresh local registry, and :func:`MetricsRegistry.drain` its contents
into each block's ``done`` ack; the master merges the deltas at the
super-step barrier, so process runs report the same op counters as
sequential runs instead of silently dropping worker-side counts.

The active registry
-------------------
Instrumented runtime code writes to :data:`ACTIVE` (module attribute,
swapped by ``Program.run`` for the duration of a run and restored
after).  :data:`GLOBAL` is the process-wide cumulative registry: it is
the default ``ACTIVE``, and every run's registry is folded into it when
the run ends, so session-level tools (``rt.guard_stats()``) keep
working across runs without per-run state leaking into
``RunResult.metrics``.  Disabled mode is :data:`NULL_METRICS`
(:class:`NullRegistry`): ``enabled`` is False and instrumented code
guards all work behind it, so a metrics-off run does no extra work.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager

import numpy as np

#: histogram bucket upper bounds for wall-clock seconds: a 1-2-5 log grid
#: from 1us to 100s (observations above the last edge land in the
#: overflow bucket)
TIME_BUCKETS = tuple(
    m * (10.0 ** e) for e in range(-6, 3) for m in (1.0, 2.0, 5.0)
)

#: bucket bounds for the per-step load-imbalance index (max/mean worker
#: busy time; 1.0 = perfectly balanced)
IMBALANCE_BUCKETS = (1.0, 1.05, 1.1, 1.2, 1.35, 1.5, 2.0, 3.0, 5.0, 10.0)

#: power-of-two bucket bounds for size-like observations (coalesced
#: requests per serving batch, strands per request)
SIZE_BUCKETS = tuple(float(1 << k) for k in range(0, 17))


class Histogram:
    """A fixed-bucket histogram with percentile readout.

    ``bounds`` are increasing upper bucket edges; ``counts`` has
    ``len(bounds) + 1`` entries, the last being the overflow bucket.
    Exact ``sum``/``count``/``min``/``max`` ride along so means and the
    0th/100th percentiles are exact regardless of bucketing.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds=TIME_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bucket whose upper edge >= value
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Record an array of observations in one pass."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if not values.size:
            return
        # first bucket whose upper edge >= value, as in observe()
        buckets = np.searchsorted(self.bounds, values, side="left")
        added = np.bincount(buckets, minlength=len(self.counts)).tolist()
        self.counts = [have + new for have, new in zip(self.counts, added)]
        self.sum += float(values.sum())
        self.count += values.size
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0-100) by linear
        interpolation inside the containing bucket, clamped to the exact
        observed ``[min, max]`` range."""
        if self.count == 0:
            return 0.0
        if p <= 0:
            return self.min
        if p >= 100:
            return self.max
        target = p / 100.0 * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= target:
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (target - cum) / c
                est = lo + (hi - lo) * frac
                return min(max(est, self.min), self.max)
            cum += c
        return self.max  # pragma: no cover - unreachable (cum == count)

    def merge(self, other: "dict | Histogram") -> None:
        """Fold another histogram (or its dict form) into this one."""
        if isinstance(other, Histogram):
            other = other.to_dict()
        if tuple(other["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other["counts"]):
            self.counts[i] += c
        self.sum += other["sum"]
        self.count += other["count"]
        self.min = min(self.min, other["min"])
        self.max = max(self.max, other["max"])

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Histogram":
        h = cls(d["bounds"])
        h.merge(d)
        return h


# op name → ("op.X.calls", "op.X.lanes", "op.X.seconds"), interned once so
# the op-profiler hot path never builds key strings
_OP_KEYS: dict = {}


class MetricsRegistry:
    """Thread-safe counter/gauge/histogram/series store.

    All mutation goes through one lock; readers take snapshots.  The
    per-call cost is a dict update under an uncontended lock — the
    instrumented runtime records at *block* granularity (one update per
    kernel call over thousands of strands), which is what keeps the
    always-on overhead within the ≤3 % budget (EXPERIMENTS.md).
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, list] = {}

    # -- recording ---------------------------------------------------------

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
        """Set the named gauge to its latest value."""
        with self._lock:
            self.gauges[name] = value

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

    def guard(self, skipped: bool) -> None:
        """Count one uniform-branch guard evaluation (see ``rt.any_lane``)."""
        with self._lock:
            c = self.counters
            c["guard.checked"] = c.get("guard.checked", 0) + 1
            if skipped:
                c["guard.skipped"] = c.get("guard.skipped", 0) + 1

    def row(self, name: str, **fields) -> None:
        """Append one dict row to the named series (e.g. per-step stats)."""
        with self._lock:
            self.series.setdefault(name, []).append(fields)

    def rows(self, name: str, rows: list) -> None:
        """Append several dict rows to the named series."""
        with self._lock:
            self.series.setdefault(name, []).extend(rows)

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able copy of everything recorded so far."""
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
        """Snapshot and reset: the per-block delta a forked worker ships
        back in its ``done`` ack (merged by the master at the barrier)."""
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

    def merge(self, snap: dict, include_series: bool = True) -> None:
        """Fold a snapshot/drain dict (or another registry) into this one."""
        if isinstance(snap, MetricsRegistry):
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
            if include_series:
                for name, rows in snap.get("series", {}).items():
                    self.series.setdefault(name, []).extend(rows)

    def reset(self) -> None:
        """Zero every instrument (counters, gauges, histograms, series)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.series.clear()


class NullRegistry:
    """The disabled registry: every operation is a no-op.

    Instrumented hot paths check ``enabled`` first, so a metrics-off run
    takes no locks, reads no clocks, and allocates nothing
    (``tests/test_metrics.py::TestNullRegistry``).
    """

    enabled = False
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    series: dict = {}

    def inc(self, name: str, delta: float = 1) -> None:
        pass

    def inc_many(self, deltas: dict) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, bounds=TIME_BUCKETS) -> None:
        pass

    def observe_many(self, name: str, values, bounds=TIME_BUCKETS) -> None:
        pass

    def op(self, name: str, lanes: int, seconds: float) -> None:
        pass

    def guard(self, skipped: bool) -> None:
        pass

    def row(self, name: str, **fields) -> None:
        pass

    def rows(self, name: str, rows: list) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}

    def drain(self) -> dict:
        return self.snapshot()

    def merge(self, snap: dict, include_series: bool = True) -> None:
        pass

    def reset(self) -> None:
        pass


#: the shared disabled registry — use this instead of ``None`` checks
NULL_METRICS = NullRegistry()

#: the process-wide cumulative registry (default :data:`ACTIVE`; every
#: finished run folds its per-run registry into it)
GLOBAL = MetricsRegistry()

#: the registry instrumented runtime code writes to *right now*; swapped
#: by ``Program.run`` / forked workers, restored when the run ends
ACTIVE: MetricsRegistry | NullRegistry = GLOBAL

_AMBIENT_LOCK = threading.Lock()
_AMBIENT: MetricsRegistry | None = None


def set_active(reg) -> object:
    """Install ``reg`` as the active registry; returns the previous one."""
    global ACTIVE
    prev = ACTIVE
    ACTIVE = reg
    return prev


def ambient() -> MetricsRegistry | None:
    """The registry a :func:`collect` scope asked runs to share, if any."""
    return _AMBIENT


@contextmanager
def collect(reg: MetricsRegistry | None = None):
    """Scope under which ``Program.run(metrics=None)`` joins one registry.

    The CLIs use this to aggregate a whole session (e.g. every program a
    fuzz sweep runs) into a single metrics document::

        with metrics.collect() as reg:
            prog.run(); other.run()
        write_metrics_json(reg, "metrics.json")
    """
    global _AMBIENT
    if reg is None:
        reg = MetricsRegistry()
    with _AMBIENT_LOCK:
        prev = _AMBIENT
        _AMBIENT = reg
    try:
        yield reg
    finally:
        with _AMBIENT_LOCK:
            _AMBIENT = prev


def resolve(metrics) -> tuple:
    """Map a ``Program.run(metrics=...)`` argument to ``(registry, fold)``.

    ``registry`` is what the run records into (always fresh per run in
    the default modes, so nothing leaks across runs); ``fold`` is the
    tuple of registries the run's snapshot is merged into when it ends —
    the ambient :func:`collect` registry (series included) and the
    session-wide :data:`GLOBAL` (series excluded, to bound its memory).

    * ``None`` (the default): metrics on — fresh registry, folded into
      the ambient collect scope (if any) and :data:`GLOBAL`;
    * ``False``: off — :data:`NULL_METRICS`, nothing folded;
    * ``True``: fresh registry folded into :data:`GLOBAL` only (opts out
      of an enclosing collect scope);
    * a registry instance: used as-is, nothing folded (the caller owns
      aggregation).
    """
    if metrics is None:
        amb = ambient()
        targets = (amb, GLOBAL) if amb is not None else (GLOBAL,)
        return MetricsRegistry(), targets
    if metrics is False:
        return NULL_METRICS, ()
    if metrics is True:
        return MetricsRegistry(), (GLOBAL,)
    return metrics, ()


def fold(reg, targets) -> None:
    """Merge a finished run's registry into :func:`resolve`'s ``fold``
    targets.  The session-wide :data:`GLOBAL` keeps cumulative counters
    only; per-step series stay per-run to bound its memory."""
    if reg.enabled and targets:
        snap = reg.snapshot()
        for target in targets:
            target.merge(snap, include_series=target is not GLOBAL)


def fold_pass_spans(tracer, reg=None) -> None:
    """Fold a compile trace's ``cat="pass"`` spans into pass counters.

    The driver's internal tracer always records one span per compiler
    pass; this turns them into ``pass.<name>.seconds`` /
    ``pass.<name>.calls`` counters so compile cost shows up in the same
    metrics document as runtime cost.  With no explicit ``reg`` the
    counters fold into the ambient :func:`collect` scope (if any) and
    :data:`GLOBAL`.
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return
    deltas: dict[str, float] = {}
    for ev in tracer.spans("pass"):
        key = f"pass.{ev.name}"
        deltas[f"{key}.seconds"] = deltas.get(f"{key}.seconds", 0.0) + ev.dur
        deltas[f"{key}.calls"] = deltas.get(f"{key}.calls", 0) + 1
    if not deltas:
        return
    if reg is not None:
        targets = (reg,)
    else:
        amb = ambient()
        targets = (amb, GLOBAL) if amb is not None else (GLOBAL,)
    for target in targets:
        target.inc_many(deltas)


# -- the metrics JSON document ------------------------------------------------

#: schema tag written into every metrics JSON file
SCHEMA = "repro-metrics-v1"


def metrics_doc(reg, meta: dict | None = None) -> dict:
    """Render a registry (or snapshot dict) as a metrics JSON document."""
    snap = reg.snapshot() if hasattr(reg, "snapshot") else reg
    return {"schema": SCHEMA, "meta": dict(meta or {}), **snap}


def write_metrics_json(reg, path: str, meta: dict | None = None) -> str:
    """Write the metrics JSON document to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(metrics_doc(reg, meta), fp, indent=2, default=float)
        fp.write("\n")
    return path


def read_metrics_json(path: str) -> dict:
    """Load a metrics document; adapts Chrome trace JSON on the fly.

    A ``--trace`` file (Chrome trace-event JSON) is converted into the
    metrics schema by totalling span durations per ``cat.name`` into
    ``.seconds``/``.calls`` counters, so ``python -m repro.obs diff`` can
    compare traces and metrics files interchangeably.
    """
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    if "traceEvents" in doc:  # a Chrome trace: adapt
        counters: dict[str, float] = {}
        for ev in doc["traceEvents"]:
            if ev.get("ph") != "X":
                continue
            key = f"{ev.get('cat', 'span')}.{ev['name']}"
            counters[f"{key}.seconds"] = (
                counters.get(f"{key}.seconds", 0.0) + ev.get("dur", 0.0) / 1e6
            )
            counters[f"{key}.calls"] = counters.get(f"{key}.calls", 0) + 1
        return {"schema": SCHEMA, "meta": {"adapted_from": "chrome-trace"},
                "counters": counters, "gauges": {}, "histograms": {},
                "series": {}}
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a {SCHEMA} document (schema="
            f"{doc.get('schema')!r}) and not a Chrome trace"
        )
    return doc
