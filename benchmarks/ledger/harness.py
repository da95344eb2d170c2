"""Helpers shared by the workload modules: timing loops, failure counts."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

import numpy as np

#: a timing is reported only over at least this many timed operations
MIN_SAMPLES = 5


class Checks:
    """Counts attempted and failed output checks, keeping the first few
    failure messages for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return bool(ok)

    def close_to(self, got, want, atol: float, what: str) -> bool:
        """``got`` matches the reference: same shape, finite wherever the
        reference is, and within ``atol``."""
        got, want = np.asarray(got), np.asarray(want)
        ok = (got.shape == want.shape
              and bool(np.all(np.isfinite(got) | ~np.isfinite(want)))
              and bool(np.allclose(got, want, atol=atol, rtol=0.0, equal_nan=True)))
        return self.check(ok, f"{what}: differs from the reference beyond {atol:g}")

    def identical(self, got: dict, want: dict, what: str) -> bool:
        ok = got.keys() == want.keys() and all(
            np.array_equal(got[k], want[k], equal_nan=True) for k in want)
        return self.check(ok, f"{what}: outputs are not bit-identical")


#: how many times a workload sets itself up
SETUP_REPEATS = 4


class Laps:
    """Splits one set-up into named parts: ``lap(name)`` books the time since
    the previous lap under ``name``."""

    def __init__(self):
        self.parts: dict[str, float] = {}
        self._t = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.parts[name] = self.parts.get(name, 0.0) + now - self._t
        self._t = now


def repeat_setup(set_up, rotation, tear_down=None):
    """Run ``set_up(laps)`` :data:`SETUP_REPEATS` times, each on the next CPU
    of ``rotation``, tearing each state down before the next; returns the
    last state and ``part -> seconds of each repeat``.  A part named
    ``check`` is the benchmark verifying the set-up, not the set-up: it is
    dropped."""
    state, parts = None, {}
    for _ in range(SETUP_REPEATS):
        if state is not None and tear_down is not None:
            tear_down(state)
        rotation.advance()
        laps = Laps()
        state = set_up(laps)
        for name, dt in laps.parts.items():
            if name != "check":
                parts.setdefault(name, []).append(dt)
    return state, parts


class CpuRotation:
    """Keeps the calling thread (and the children it starts later) pinned to
    one CPU at a time, moving to the next every ``dwell_s`` seconds.

    Left free, the guest scheduler migrates a single busy thread between
    the vCPUs mid-operation and the same run swings by 30–50 %.  Pinned to
    one vCPU for good, a run is at the mercy of that vCPU's neighbours on
    the host, which slow it for minutes at a time — independently of the
    other vCPU's (README "Noise").  Taking turns, the fastest sample of a
    row comes from whichever CPU was undisturbed.
    """

    def __init__(self, dwell_s: float = 1.0):
        self.dwell_s = dwell_s
        self.cpus = sorted(os.sched_getaffinity(0))
        self._i = 0
        self._since = time.perf_counter()
        os.sched_setaffinity(0, {self.current})

    @property
    def current(self) -> int:
        return self.cpus[self._i % len(self.cpus)]

    @property
    def other(self) -> int | None:
        """The CPU for a companion process (a server), if there is one."""
        return self.cpus[(self._i + 1) % len(self.cpus)] if len(self.cpus) > 1 else None

    def advance(self) -> None:
        self._i += 1
        self._since = time.perf_counter()
        os.sched_setaffinity(0, {self.current})

    def tick(self) -> bool:
        """Call between operations: moves on once the dwell time is up."""
        if time.perf_counter() - self._since < self.dwell_s:
            return False
        self.advance()
        return True

    def release(self) -> None:
        """Let the calling thread use every CPU again (parallel legs)."""
        os.sched_setaffinity(0, set(self.cpus))


def timed(fn) -> tuple[object, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def rounds(seconds: float, one_round, min_rounds: int = MIN_SAMPLES) -> int:
    """Call ``one_round(i)`` until ``seconds`` have passed (and at least
    ``min_rounds`` times); returns the number of rounds run."""
    t_end = time.perf_counter() + seconds
    n = 0
    while n < min_rounds or time.perf_counter() < t_end:
        one_round(n)
        n += 1
    return n


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation across a latency gap)."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return float(ordered[k])


def metric(value: float, unit: str, n: int, stat: str = "value") -> dict:
    return {"value": float(value), "unit": unit, "n": int(n), "stat": stat}


def timing(seconds) -> dict:
    """The fastest of the timed operations, in ms: the row's value.

    The host's speed switches between two states for seconds to minutes at
    a time (README "Noise"), so a run's median says which state the run
    mostly met; its fastest operation says what the program costs.  The
    median, the quartiles and the samples in the order taken ride along.
    """
    ms = [float(x) * 1e3 for x in seconds]
    q = statistics.quantiles(ms, n=4) if len(ms) > 1 else [ms[0]] * 3
    return {"value": min(ms), "unit": "ms", "n": len(ms), "stat": "best",
            "median": q[1], "q1": q[0], "q3": q[2], "samples": ms}


def best_sum(groups, unit: str = "ms") -> dict:
    """A metric that is a sum over parts (programs of a row, steps of a
    set-up): the sum of each part's fastest sample (``groups`` maps a part
    to its seconds)."""
    scale = {"ms": 1e3, "s": 1.0}[unit]
    scaled = {k: [float(x) * scale for x in v] for k, v in groups.items()}
    return {"value": sum(min(v) for v in scaled.values()), "unit": unit,
            "n": sum(len(v) for v in scaled.values()), "stat": "sum of bests",
            "median": sum(statistics.median(v) for v in scaled.values()),
            "samples": scaled}


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest reaped
    child (server or CLI subprocess), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
