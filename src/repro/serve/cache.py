"""Persistent compile cache: source text → everything a Program is built from.

A compile is a pure function of the source text, the optimization
options, the precision and the compiler itself — the compiler reads no
file: an image's dim, shape and path come from its declaration, and
``Program._context`` checks the NRRD against them at run time.  So the
key is a SHA-256 of ``FORMAT``, a digest of the compiler's own sources
(``repro.core`` and ``repro.kernels``, read once per process), the
source text, ``OptOptions`` and the precision.  Every byte of the
source counts: a comment or formatting change is a miss.  Keying the
normalized HighIR instead (as this cache once did) made every lookup pay
for the front end first; the source key is what lets a hit skip the
compiler entirely.

An entry (``<key>.pkl``, a :class:`CompileCacheEntry`) holds the
generated Python, the lowered :class:`~repro.core.records.HighProgram`,
the :class:`~repro.core.records.CompileStats` and the native backend's
C translation unit and plan for the key's precision — or the reason the
program has none.  Its classes live in modules that import no compiler
pass, so a hit (:func:`repro.core.api.compile_program`) unpickles a
runnable program, and the native backend goes straight to
``cbuild.build``.

Entries live in a :class:`repro.diskcache.DiskCache` in
``$REPRO_COMPILE_CACHE_DIR`` (default ``~/.cache/repro-compile``),
bounded by ``$REPRO_COMPILE_CACHE_MAX``; one that will not load or names
another key is purged and is a miss.  ``FORMAT`` and the compiler digest
are in the key, so an entry another format or another compiler wrote is
never looked up again.  ``compile_program(cache=True)`` (and
``--compile-cache``) uses the cache; the serving layer always does.  Each
lookup and store is also one ``cat="cache"`` event.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
from dataclasses import dataclass, fields
from pathlib import Path

from repro.diskcache import DiskCache
from repro.obs import current

__all__ = ["CompileCacheEntry", "FORMAT", "cache_dir", "fingerprint", "load",
           "store"]

#: on-disk format version; bump when CompileCacheEntry or the pickled
#: record classes change shape (mixed into the key, so old entries are
#: simply never looked up again)
FORMAT = 3


@dataclass
class CompileCacheEntry:
    """One cached compile: everything a Program is built from."""

    key: str
    gen_source: str
    high: object  # HighProgram, post-lowering (funcs are LowIR)
    stats: object  # CompileStats
    #: ``generate_c_module``'s ``(c_source, plan)`` for the key's precision,
    #: or the ``CodegenError`` message when the program has no C form
    c_module: object


_STORE = DiskCache("compile_cache", "REPRO_COMPILE_CACHE_DIR",
                   str(Path.home() / ".cache" / "repro-compile"),
                   "REPRO_COMPILE_CACHE_MAX", (".pkl",))


def cache_dir() -> Path:
    return Path(_STORE.dir())


@functools.cache
def _compiler_digest() -> str:
    """SHA-256 of the compiler's sources, ``repro.core`` and
    ``repro.kernels``: an entry another compiler wrote is a miss, never
    stale code."""
    root = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for pkg in ("core", "kernels"):
        for path in sorted((root / pkg).rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(source: str, opts, precision: str) -> str:
    """Hash (format, compiler, source text, OptOptions, precision) →
    32-hex key."""
    doc = ("repro-compile-cache", FORMAT, _compiler_digest(), source,
           tuple((f.name, getattr(opts, f.name)) for f in fields(opts)),
           precision)
    return hashlib.sha256(repr(doc).encode("utf-8")).hexdigest()[:32]


def _read_entry(key: str, path: str) -> CompileCacheEntry:
    with open(path, "rb") as fp:
        entry = pickle.load(fp)
    if not (isinstance(entry, CompileCacheEntry) and entry.key == key):
        # a renamed/foreign entry must never satisfy another key
        raise ValueError(f"{path} holds no entry for this key")
    return entry


def load(key: str, obs=None):
    """The CompileCacheEntry for ``key``, or None: counted by the store
    and an event on ``obs`` (default: the current one)."""
    obs = obs or current()
    entry = _STORE.get(key, functools.partial(_read_entry, key), obs)
    obs.event(f"compile-cache-{'miss' if entry is None else 'hit'}",
              cat="cache", key=key)
    return entry


def store(key: str, prog, obs=None) -> None:
    """Persist a freshly compiled Program, its C translation unit
    included, atomically; best-effort (I/O errors are not compile errors
    — a read-only cache dir just means no caching)."""
    entry = CompileCacheEntry(key, prog.generated_source, prog.high,
                              prog.stats, prog.c_module())
    try:
        _STORE.put(key, ".pkl", pickle.dumps(entry, pickle.HIGHEST_PROTOCOL),
                   obs)
    except (OSError, pickle.PicklingError):
        return
    (obs or current()).event("compile-cache-store", cat="cache", key=key)
