"""Persistent compile cache: normalized HighIR → compiled artifacts.

The compiler front end (parse → typecheck → HighIR construction, which
includes field normalization) is cheap and deterministic; everything
after it — contraction, value numbering, probe fusion, lowering, codegen
— dominates compile time and is a pure function of the normalized HighIR
plus the optimization options.  So the cache key is a **fingerprint of
the normalized HighIR** (not of the source text): two sources that
differ only in formatting, comments, or variable names that normalize
away hit the same entry.

Keying on HighIR rather than source also makes the key *semantically
honest*: anything that could change the generated code (kernel
coefficients, image dims/shapes/paths, optimization toggles, precision)
is structurally folded into the hash, and nothing else is.

Entries are pickles of :class:`CompileCacheEntry` — the generated Python
source, the (lowered) :class:`HighProgram`, and the
:class:`CompileStats` from the original compile — written atomically
(temp file + ``os.replace``) so concurrent writers are safe, and read
defensively (a corrupt or version-skewed entry is deleted and treated as
a miss).  The on-disk format is versioned via ``FORMAT``, which is mixed
into the key, so format bumps invalidate old entries instead of
mis-reading them.

Environment knobs:

* ``REPRO_COMPILE_CACHE`` — enable for plain ``compile_program`` calls
  (the serving layer passes ``cache=True`` explicitly).
* ``REPRO_COMPILE_CACHE_DIR`` — cache directory (default
  ``~/.cache/repro-compile``).
* ``REPRO_COMPILE_CACHE_MAX`` — max number of entries; least-recently
  used (by mtime, refreshed on hit) are evicted on store.  Default
  unbounded.

Metrics: ``compile_cache.hits`` / ``compile_cache.misses`` /
``compile_cache.evicted`` counters on the current ``Obs``, plus one
``cat="cache"`` event per lookup.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import tempfile
from dataclasses import dataclass, fields as _dc_fields
from pathlib import Path

import numpy as np

from repro.obs import current

__all__ = [
    "CompileCacheEntry",
    "FORMAT",
    "cache_dir",
    "clear",
    "fingerprint",
    "load",
    "store",
]

#: on-disk format version; bump when CompileCacheEntry or the pickled IR
#: classes change shape (mixed into the fingerprint, so old entries are
#: simply never looked up again)
FORMAT = 1


@dataclass
class CompileCacheEntry:
    """One cached compile: everything ``compile_to_source`` returns."""

    key: str
    gen_source: str
    high: object  # HighProgram, post-lowering (funcs are LowIR)
    stats: object  # CompileStats


def cache_dir() -> Path:
    env = os.environ.get("REPRO_COMPILE_CACHE_DIR")
    d = Path(env) if env else Path.home() / ".cache" / "repro-compile"
    d.mkdir(parents=True, exist_ok=True)
    return d


# --------------------------------------------------------------------------
# fingerprinting


def _stable(v) -> object:
    """A canonical, process-independent view of an attribute value.

    Mirrors value_numbering's ``_attr_key`` (ndarrays and kernels by
    structure, scalars by type+value) but never embeds object identity:
    NaN maps to a constant tag (same-text programs should hit), and the
    fallback is ``repr`` — safe for the frozen type dataclasses that
    appear as ``Value.ty``.
    """
    from repro.kernels import Kernel

    if isinstance(v, np.ndarray):
        return ("A", v.shape, str(v.dtype), v.tobytes().hex())
    if isinstance(v, Kernel):
        return ("K", v.support, tuple(_stable(p.coeffs) for p in v.pieces))
    if isinstance(v, (list, tuple)):
        return ("T",) + tuple(_stable(x) for x in v)
    if isinstance(v, dict):
        return ("D",) + tuple(
            (str(k), _stable(x)) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))
        )
    if isinstance(v, float) and math.isnan(v):
        return ("nan",)
    if isinstance(v, (bool, int, float, str, bytes)) or v is None:
        return (type(v).__name__, v)
    return ("R", type(v).__name__, repr(v))


def _func_sig(func, number: dict[int, int]) -> list:
    """Serialize one SSA function with *locally renumbered* values.

    ``Value.id`` comes from a process-global counter, so raw ids differ
    between otherwise identical compiles; renumbering in definition
    order (params first, then depth-first over the structured body)
    produces identical signatures for identical programs.
    """
    from repro.core.ir.base import Instr

    def num(v) -> int:
        n = number.get(v.id)
        if n is None:
            n = number[v.id] = len(number)
        return n

    sig: list = ["func", func.name]
    for p, name in zip(func.params, func.param_names):
        sig.append(("param", name, num(p), _stable(p.ty)))

    def walk(body) -> None:
        for item in body.items:
            if isinstance(item, Instr):
                sig.append((
                    item.op,
                    tuple(num(a) for a in item.args),
                    tuple(sorted((k, _stable(v)) for k, v in item.attrs.items())),
                    tuple((num(r), _stable(r.ty)) for r in item.results),
                ))
            else:
                sig.append(("if", num(item.cond)))
                walk(item.then_body)
                sig.append(("else",))
                walk(item.else_body)
                for phi in item.phis:
                    sig.append(("phi", num(phi.then_val), num(phi.else_val),
                                num(phi.result)))
                sig.append(("endif",))

    walk(func.body)
    sig.append(("ret",) + tuple(
        (name, num(v)) for name, v in zip(func.result_names, func.results)
    ))
    return sig


def fingerprint(hp, opts, extra: tuple = ()) -> str:
    """Hash (normalized HighIR, OptOptions, extra tags) → 32-hex key.

    ``extra`` carries the non-IR parts of the compile configuration —
    ``compile_program`` passes ``("precision", ...)``; the native
    backend's separate artifacts are keyed by
    :mod:`repro.core.codegen.cbuild` beneath this layer.
    """
    from repro.core.xform.to_high import HighBuilder

    doc: list = ["repro-compile-cache", FORMAT, tuple(extra)]
    doc.append(tuple(
        (f.name, getattr(opts, f.name)) for f in _dc_fields(opts)
    ))
    doc.append(tuple(
        ("image", name, s.dim, tuple(s.shape), s.path)
        for name, s in sorted(hp.images.items())
    ))
    doc.append((
        tuple(hp.defaulted_inputs), tuple(hp.concrete_globals),
        tuple(hp.input_names), tuple(hp.iter_names), bool(hp.grid),
        tuple(hp.state_order), tuple(hp.extra_state), tuple(hp.outputs),
    ))
    number: dict[int, int] = {}
    for fn in HighBuilder.all_funcs(hp):
        doc.append(_func_sig(fn, number))
    blob = repr(doc).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:32]


# --------------------------------------------------------------------------
# load / store / evict


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.pkl"


def load(key: str, obs=None):
    """Look up a compile by key; returns a CompileCacheEntry or None.

    A hit refreshes the entry's mtime (LRU recency) and increments
    ``compile_cache.hits``; a miss (including a corrupt entry, which is
    deleted) increments ``compile_cache.misses``; either is an event on
    ``obs`` (default: the current one), with the key.
    """
    obs = obs or current()
    path = _entry_path(key)
    entry = None
    try:
        with open(path, "rb") as fp:
            obj = pickle.load(fp)
        if isinstance(obj, CompileCacheEntry) and obj.key == key:
            entry = obj
        else:
            # a renamed/foreign entry must never satisfy another key
            os.unlink(path)
    except FileNotFoundError:
        pass
    except Exception:
        # corrupt / truncated / version-skewed pickle: purge and recompile
        try:
            os.unlink(path)
        except OSError:
            pass
    if entry is not None:
        obs.inc("compile_cache.hits")
        try:
            os.utime(path)
        except OSError:
            pass
        obs.event("compile-cache-hit", cat="cache", key=key)
    else:
        obs.inc("compile_cache.misses")
        obs.event("compile-cache-miss", cat="cache", key=key)
    return entry


def store(key: str, gen_source: str, high, stats, obs=None) -> None:
    """Persist a compile atomically; best-effort (I/O errors are not
    compile errors — a read-only cache dir just means no caching)."""
    d = cache_dir()
    entry = CompileCacheEntry(key=key, gen_source=gen_source, high=high,
                              stats=stats)
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=f"{key}.", suffix=".pkl.tmp")
        try:
            with os.fdopen(fd, "wb") as fp:
                pickle.dump(entry, fp, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, _entry_path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, pickle.PicklingError):
        return
    (obs or current()).event("compile-cache-store", cat="cache", key=key)
    _evict_lru(d, keep_key=key)


def _max_entries() -> int | None:
    raw = os.environ.get("REPRO_COMPILE_CACHE_MAX", "").strip()
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        return None
    return n if n > 0 else None


def _evict_lru(d: Path, keep_key: str | None = None) -> None:
    limit = _max_entries()
    if limit is None:
        return
    entries = []
    for p in d.glob("*.pkl"):
        try:
            entries.append((p.stat().st_mtime, p))
        except OSError:
            continue
    if len(entries) <= limit:
        return
    entries.sort()
    excess = len(entries) - limit
    for _, p in entries:
        if excess <= 0:
            break
        if keep_key is not None and p.stem == keep_key:
            continue
        try:
            os.unlink(p)
            current().inc("compile_cache.evicted")
            excess -= 1
        except OSError:
            pass


def clear() -> int:
    """Delete every entry; returns the number removed (CLI hook)."""
    n = 0
    for p in cache_dir().glob("*.pkl"):
        try:
            os.unlink(p)
            n += 1
        except OSError:
            pass
    return n
