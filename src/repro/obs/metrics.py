"""Metric instruments and the metrics JSON document.

The aggregates an :class:`repro.obs.Obs` keeps, cheap enough to be always
on: **counters** (accumulated floats/ints — op invocation counts, lane
throughput, guard skips, busy seconds), **gauges** (last value wins),
**histograms** (:class:`Histogram`: fixed buckets with percentile
readout — super-step seconds, queue wait, load imbalance) and **series**
(append-only dict rows — the per-step convergence curve).  This module
holds the histogram, the bucket grids and the ``repro-metrics-v1``
document; recording lives in :mod:`repro.obs.recorder`.

Deterministic vs. timing metrics
--------------------------------
Counter names under ``op.*`` ending in ``.calls``, ``.lanes`` or
``.memo_*``, and the ``guard.*`` counters, count *work*, not time: for a
fixed program and block size they are bit-identical across the
sequential, thread, and process schedulers, and across runs that overlap
in time (asserted by ``tests/test_metrics.py``).  Names ending in
``.seconds`` and every histogram are wall-clock measurements.
"""

from __future__ import annotations

import json

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

#: the shared grids, valid by construction: a histogram over one of them
#: skips the bounds check (every request- or run-scoped ``Obs`` builds its
#: histograms anew)
_GRIDS = (TIME_BUCKETS, IMBALANCE_BUCKETS, SIZE_BUCKETS)


class Histogram:
    """A fixed-bucket histogram with percentile readout.

    ``bounds`` are increasing upper bucket edges; ``counts`` has
    ``len(bounds) + 1`` entries, the last being the overflow bucket.
    Exact ``sum``/``count``/``min``/``max`` ride along so means and the
    0th/100th percentiles are exact regardless of bucketing.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds=TIME_BUCKETS):
        if bounds not in _GRIDS:
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
        self.counts = [a + b for a, b in zip(self.counts, other["counts"])]
        self.sum += other["sum"]
        self.count += other["count"]
        self.min = min(self.min, other["min"])
        self.max = max(self.max, other["max"])

    def to_dict(self) -> dict:
        return {
            "bounds": self.bounds,  # the tuple itself: a shared grid stays one
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


# -- the metrics JSON document ------------------------------------------------

#: schema tag written into every metrics JSON file
SCHEMA = "repro-metrics-v1"


def metrics_doc(obs, meta: dict | None = None) -> dict:
    """Render an ``Obs`` (or snapshot dict) as a metrics JSON document."""
    snap = obs.snapshot() if hasattr(obs, "snapshot") else obs
    return {"schema": SCHEMA, "meta": dict(meta or {}), **snap}


def write_metrics_json(obs, path: str, meta: dict | None = None) -> str:
    """Write the metrics JSON document to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(metrics_doc(obs, meta), fp, indent=2, default=float)
        fp.write("\n")
    return path


def read_metrics_json(path: str) -> dict:
    """Load a metrics document; adapts Chrome trace JSON on the fly.

    A ``--trace`` file (Chrome trace-event JSON) is converted into the
    metrics schema by totalling span durations per ``cat.name`` into
    ``.seconds``/``.calls`` counters, so ``python -m repro.obs report``
    renders traces and metrics files interchangeably.
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
