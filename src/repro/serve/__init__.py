"""The serving layer: compile-once, run-many (ROADMAP "millions of users").

Diderot's execution model is compile-once/run-many — a program is
compiled to a kernel once, then executed over millions of strands.  This
package extends that economy across *processes* and *requests*:

* :mod:`repro.serve.cache` — a persistent compile cache keyed on the
  source text, so a repeat ``compile_program`` skips the compiler
  entirely (the native-artifact cache in :mod:`repro.core.codegen.cbuild`
  sits beneath it for the native backend's ``cc`` invocation).
* :mod:`repro.serve.registry` — named warm :class:`Program` objects with
  pooled schedulers, so serving a request never pays compile, image
  load, or thread-pool startup cost.
* :mod:`repro.serve.batch` + :mod:`repro.serve.server` — an asyncio
  front door (``python -m repro.serve``) that runs a probe batch as soon
  as the batcher is free, coalescing whatever queued meanwhile into one
  strand batch, with bounded queues and backpressure.
"""

from repro.lazy import exports

_EXPORTS = {
    "CompileCacheEntry": "repro.serve.cache",
    "cache_dir": "repro.serve.cache",
    "fingerprint": "repro.serve.cache",
    "ProbeSpec": "repro.serve.registry",
    "ProgramEntry": "repro.serve.registry",
    "ProgramRegistry": "repro.serve.registry",
}
__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
