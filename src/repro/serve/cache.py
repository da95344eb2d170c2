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

Entries are ``<key>.pkl`` pickles of :class:`CompileCacheEntry` (generated
source, lowered :class:`HighProgram`, :class:`CompileStats`) in a
:class:`repro.diskcache.DiskCache` in ``$REPRO_COMPILE_CACHE_DIR``
(default ``~/.cache/repro-compile``), bounded by
``$REPRO_COMPILE_CACHE_MAX``; one that will not load or names another key
is purged and is a miss.  ``FORMAT`` is mixed into the key, so a format
bump invalidates old entries instead of mis-reading them.
``REPRO_COMPILE_CACHE`` enables the cache for plain ``compile_program``
calls (the serving layer passes ``cache=True``).  Each lookup and store
is also one ``cat="cache"`` event.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass, fields as _dc_fields
from functools import partial
from pathlib import Path

import numpy as np

from repro.diskcache import DiskCache
from repro.obs import current

__all__ = ["CompileCacheEntry", "FORMAT", "cache_dir", "fingerprint", "load",
           "store"]

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


_STORE = DiskCache("compile_cache", "REPRO_COMPILE_CACHE_DIR",
                   str(Path.home() / ".cache" / "repro-compile"),
                   "REPRO_COMPILE_CACHE_MAX", (".pkl",))


def cache_dir() -> Path:
    return Path(_STORE.dir())


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
# load / store


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
    entry = _STORE.get(key, partial(_read_entry, key), obs)
    obs.event(f"compile-cache-{'miss' if entry is None else 'hit'}",
              cat="cache", key=key)
    return entry


def store(key: str, gen_source: str, high, stats, obs=None) -> None:
    """Persist a compile atomically; best-effort (I/O errors are not
    compile errors — a read-only cache dir just means no caching)."""
    entry = CompileCacheEntry(key, gen_source, high, stats)
    try:
        _STORE.put(key, ".pkl", pickle.dumps(entry, pickle.HIGHEST_PROTOCOL),
                   obs)
    except (OSError, pickle.PicklingError):
        return
    (obs or current()).event("compile-cache-store", cat="cache", key=key)
