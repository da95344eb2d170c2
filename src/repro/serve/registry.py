"""Warm-program registry: named compiled programs + pooled schedulers.

A :class:`ProgramRegistry` holds :class:`ProgramEntry` objects — a
compiled :class:`~repro.runtime.program.Program` plus the scheduler pool
it runs on — under user-chosen names.  Registration compiles through the
persistent compile cache (:mod:`repro.serve.cache`), so re-registering a
program another worker already compiled skips the optimizer pipeline;
requests then run on the entry's *pooled* scheduler (a warm
``ThreadScheduler``), so steady-state serving pays neither compile,
image-load, nor thread-startup cost.  A ``process`` entry's run forks
its own worker pool and closes it when the run ends.

Batching contract: a probe-style program declares (via
:class:`ProbeSpec`) which image global carries the batch's points and
which ``int`` input carries the strand count.  ``run_batch`` binds the
points (plus ``pad`` replicated guard rows, so edge points stay inside
the kernel support of the *loaded* image) and runs the program over
exactly ``len(points)`` strands.  Strand updates are independent, so a
coalesced batch's per-row outputs are bit-identical to running each
request alone — asserted by ``tests/test_serve.py``.

The registry is LRU-bounded (``capacity``): registering past capacity
evicts the least-recently *used* entry (``get`` refreshes recency) and
closes its scheduler pool.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import InputError
from repro.image import Image
from repro.obs import current

__all__ = ["ProbeSpec", "ProgramEntry", "ProgramRegistry", "warm_manifest"]


@dataclass
class ProbeSpec:
    """How to feed a batch of probe positions into a program.

    ``points_image`` — the 1-D image global whose rows are the batch's
    probe positions; ``count_input`` — the ``int`` input holding the
    strand count; ``pad`` — replicated guard rows appended after the
    batch (a support-1 kernel like ``tent`` reads one row past the last
    integer position, so ``pad=1`` keeps every strand's probe inbounds).
    """

    points_image: str
    count_input: str
    pad: int = 1


class ProgramEntry:
    """One registered program: compiled code + its warm scheduler pool.

    ``lock`` serializes runs — a :class:`Program` binds inputs/images on
    itself, so one entry serves one batch at a time (the front door's
    batcher coalesces concurrency *into* those batches instead).
    """

    def __init__(self, name: str, program, *, probe: ProbeSpec | None = None,
                 scheduler: str | None = None, workers: int = 1,
                 backend: str | None = None):
        self.name = name
        self.program = program
        self.probe = probe
        self.scheduler = scheduler
        self.workers = workers
        self.backend = backend
        self.lock = threading.Lock()
        self.requests = 0
        self.batches = 0
        self._pool = None  # lazily-built pooled scheduler instance
        self._closed = False

    # -- scheduler pooling -------------------------------------------------

    def _pooled_scheduler(self):
        """The entry's warm thread pool (built on first use).

        ``Program.run`` never closes a scheduler *instance*, so the
        threads live across runs.  ``seq``/default runs stay
        instance-free, and so do ``process`` runs: each forks its own
        workers (as a borrowed pool would, one fork per run) and closes
        them when it ends.
        """
        if self.scheduler != "thread" or self.workers < 2:
            return None
        if self._pool is None:
            from repro.runtime.scheduler import ThreadScheduler

            self._pool = ThreadScheduler(self.workers)
        return self._pool

    def close(self) -> None:
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    # -- execution ---------------------------------------------------------

    def run(self, *, inputs: dict | None = None, on_step=None):
        """One full program run on the pooled scheduler (serialized).

        ``on_step`` (a per-super-step callback receiving
        :class:`repro.runtime.incremental.StepEvent`) feeds the front
        door's chunked streaming responses.
        """
        with self.lock:
            if self._closed:
                raise InputError(f"program {self.name!r} has been evicted")
            self.requests += 1
            for k, v in (inputs or {}).items():
                self.program.set_input(k, v)
            pool = self._pooled_scheduler()
            return self.program.run(
                workers=self.workers,
                scheduler=pool if pool is not None else self.scheduler,
                backend=self.backend, on_step=on_step,
            )

    def update(self, image: str, data, region=None, *, on_step=None):
        """Dirty-region image update: patch + incremental re-run.

        Primes a checkpoint (one cold run over the entry's current
        inputs) on first use, then patches the named image global and
        re-executes only the strands whose footprints intersect the
        changed regions.  Returns ``(update_info, RunResult)`` — see
        :meth:`repro.runtime.program.Program.update_input` /
        :meth:`~repro.runtime.program.Program.run_update`.
        """
        with self.lock:
            if self._closed:
                raise InputError(f"program {self.name!r} has been evicted")
            self.requests += 1
            pool = self._pooled_scheduler()
            sched = pool if pool is not None else self.scheduler
            if not self.program.has_checkpoint:
                current().inc("serve.incremental.cold_checkpoints")
                self.program.run(
                    workers=self.workers, scheduler=sched,
                    backend=self.backend, checkpoint=True,
                )
            info = self.program.update_input(image, data, region=region)
            result = self.program.run_update(
                workers=self.workers, scheduler=sched, on_step=on_step,
            )
            current().inc("serve.incremental.updates")
            current().observe(
                "serve.incremental.dirty_fraction",
                info["dirty_strands"] / max(info["total_strands"], 1),
            )
        return info, result

    def run_batch(self, points: np.ndarray):
        """Run one coalesced probe batch; returns ``{output: rows}``.

        ``points`` has shape ``(n, *point_shape)``; each output comes
        back with leading dimension ``n`` (guard rows stripped).
        """
        if self.probe is None:
            raise InputError(
                f"program {self.name!r} was registered without a probe "
                "spec; only whole-program /run requests are supported"
            )
        spec = self.probe
        points = np.ascontiguousarray(points, dtype=self.program.dtype)
        if points.ndim < 1 or points.shape[0] < 1:
            raise InputError("probe batch must contain at least one point")
        n = points.shape[0]
        slot = self.program.high.images.get(spec.points_image)
        if slot is None:
            raise InputError(
                f"{spec.points_image!r} is not an image global of "
                f"{self.name!r}"
            )
        if spec.pad:
            guard = np.repeat(points[-1:], spec.pad, axis=0)
            data = np.concatenate([points, guard], axis=0)
        else:
            data = points
        img = Image(data, dim=1, tensor_shape=tuple(slot.shape))
        with current().span("run_batch", "serve", points=n), self.lock:
            if self._closed:
                raise InputError(f"program {self.name!r} has been evicted")
            self.requests += 1
            self.batches += 1
            self.program.bind_image(spec.points_image, img)
            self.program.set_input(spec.count_input, n)
            pool = self._pooled_scheduler()
            result = self.program.run(
                workers=self.workers,
                scheduler=pool if pool is not None else self.scheduler,
                backend=self.backend,
            )
        return {name: arr[:n] for name, arr in result.outputs.items()}

    def info(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.program.input_names,
            "outputs": self.program.output_names,
            "scheduler": self.scheduler or "seq",
            "workers": self.workers,
            "backend": self.backend or "numpy",
            "probe": None if self.probe is None else {
                "points_image": self.probe.points_image,
                "count_input": self.probe.count_input,
                "pad": self.probe.pad,
            },
            "requests": self.requests,
            "batches": self.batches,
        }


class ProgramRegistry:
    """Named warm programs with LRU capacity (thread-safe)."""

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise InputError("registry capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, ProgramEntry] = OrderedDict()
        self._lock = threading.RLock()

    def register(self, name: str, source: str | None = None,
                 path: str | None = None, *, precision: str = "double",
                 optimize=None, search_path: str | None = None,
                 probe: ProbeSpec | None = None,
                 scheduler: str | None = None, workers: int = 1,
                 backend: str | None = None,
                 cache: bool = True) -> ProgramEntry:
        """Compile (through the persistent compile cache) and register.

        Exactly one of ``source`` / ``path`` must be given.  Registering
        an existing name replaces (and closes) the old entry; exceeding
        ``capacity`` evicts the least-recently-used entry.
        """
        from repro.core.api import compile_file, compile_program

        if (source is None) == (path is None):
            raise InputError("register() needs exactly one of source=/path=")
        if path is not None:
            program = compile_file(path, precision=precision,
                                   optimize=optimize, cache=cache)
        else:
            program = compile_program(source, precision=precision,
                                      optimize=optimize,
                                      search_path=search_path or ".",
                                      cache=cache)
        entry = ProgramEntry(name, program, probe=probe, scheduler=scheduler,
                             workers=workers, backend=backend)
        with self._lock:
            old = self._entries.pop(name, None)
            self._entries[name] = entry
            current().inc("serve.registry.registered")
            evicted = []
            while self.capacity is not None and len(self._entries) > self.capacity:
                _, lru = self._entries.popitem(last=False)
                evicted.append(lru)
                current().inc("serve.registry.evicted")
        if old is not None:
            old.close()
        for lru in evicted:
            lru.close()
        return entry

    def get(self, name: str) -> ProgramEntry:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise KeyError(name)
            self._entries.move_to_end(name)  # LRU recency
            return entry

    def list(self) -> list[dict]:
        with self._lock:
            return [e.info() for e in self._entries.values()]

    def evict(self, name: str) -> bool:
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is not None:
                current().inc("serve.registry.evicted")
        if entry is None:
            return False
        entry.close()
        return True

    def clear(self) -> None:
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for e in entries:
            e.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries


def warm_manifest(registry: ProgramRegistry, manifest_path: str, *,
                  cache: bool = True) -> list[ProgramEntry]:
    """Pre-compile and register every program listed in a JSON manifest.

    The manifest is either ``{"programs": [...]}`` or a bare list; each
    item needs ``name`` plus ``path`` or ``source`` and may carry
    ``precision``, ``scheduler``, ``workers``, ``backend``,
    ``search_path``, and a ``probe`` object (``points_image``,
    ``count_input``, optional ``pad``).  Relative ``path`` values are
    resolved against the manifest file's directory.  Each registration
    goes through the persistent compile cache and increments the
    ``serve.registry.warmed`` counter.
    """
    with open(manifest_path, encoding="utf-8") as fp:
        doc = json.load(fp)
    items = doc.get("programs") if isinstance(doc, dict) else doc
    if not isinstance(items, list):
        raise InputError(
            "warm manifest must be a JSON list or {'programs': [...]}"
        )
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = []
    for item in items:
        if not isinstance(item, dict) or "name" not in item:
            raise InputError(f"manifest entry needs a 'name': {item!r}")
        probe = None
        if item.get("probe"):
            p = item["probe"]
            probe = ProbeSpec(points_image=p["points_image"],
                              count_input=p["count_input"],
                              pad=int(p.get("pad", 1)))
        kwargs = dict(
            precision=item.get("precision", "double"), probe=probe,
            scheduler=item.get("scheduler"),
            workers=int(item.get("workers", 1)),
            backend=item.get("backend"), cache=cache,
        )
        if "source" in item:
            kwargs["source"] = item["source"]
            kwargs["search_path"] = item.get("search_path")
        elif "path" in item:
            path = item["path"]
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            kwargs["path"] = path
        else:
            raise InputError(
                f"manifest entry {item['name']!r} needs 'path' or 'source'"
            )
        entries.append(registry.register(item["name"], **kwargs))
        current().inc("serve.registry.warmed")
    return entries
