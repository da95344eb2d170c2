"""Compile and cache native-backend C modules.

Thin wrapper around the system C compiler and :mod:`cffi`'s ABI mode:

- :func:`compiler_available` — can this machine build and load native
  kernels at all (cffi importable + a ``cc``/``gcc``/``clang`` on PATH)?
- :func:`build` — compile a C translation unit emitted by
  :mod:`repro.core.codegen.cgen` into a shared object and ``dlopen`` it,
  returning ``(lib, ffi)``.

Artifacts are keyed by a hash of the source, the exact flag set, the
compiler path and the toolchain version (``cc --version``, probed once per
path per process; a failed probe keys a per-path sentinel, so two broken
toolchains never share an artifact).  They live in a
:class:`repro.diskcache.DiskCache` in ``$REPRO_CGEN_CACHE`` (default
``~/.cache/repro-cgen``), bounded by ``$REPRO_CGEN_CACHE_MAX``, as
``<key>.c`` (for inspection) + ``<key>.so``; the store makes a cold-cache
stampede compile once and rebuilds an artifact that will not load.

Flag sets come from :func:`flags_for`: ``-O3 -march=native
-fno-math-errno -fopenmp-simd`` so cgen's batched lane loops vectorize,
plus, on the double path only, the load-bearing ``-ffp-contract=off``
(no FMA, so kernels round exactly like the NumPy oracle).  A compiler
that rejects ``-march=native`` is retried once without it under the same
key.  Every failure is a :class:`~repro.errors.CodegenError`, on which
``Program`` falls back to the NumPy backend.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import threading

from ...diskcache import DiskCache
from ...errors import CodegenError

__all__ = ["CDEF", "CFLAGS", "build", "compiler_available",
           "compiler_version", "find_compiler", "flags_for"]

#: The fixed entry-point ABI shared by every generated module (see cgen).
#: RP entries point at dd_real payloads (double or float per the plan's
#: ``real_dtype``), so the table itself is ``void **``.
CDEF = (
    "int64_t dd_run(void **RP, int64_t **IP, unsigned char **BP,"
    " const double *SC, const int64_t *IC,"
    " int64_t *idx, int64_t *n_io, int64_t max_steps,"
    " int64_t *counts, double *seconds);"
)

_STORE = DiskCache(
    "cgen.cache", "REPRO_CGEN_CACHE",
    os.path.join(os.path.expanduser("~"), ".cache", "repro-cgen"),
    "REPRO_CGEN_CACHE_MAX", (".so", ".c"))


def flags_for(single: bool = False) -> list[str]:
    """Compiler flag set for a kernel of the given precision."""
    flags = ["-O3"]
    if not single:
        # forbids FMA contraction so double kernels round exactly like the
        # NumPy oracle (1e-12 differential agreement)
        flags.append("-ffp-contract=off")
    return flags + ["-march=native", "-fno-math-errno", "-fopenmp-simd",
                    "-fPIC", "-shared", "-w"]


#: Default (double-precision) compiler flags.
CFLAGS = flags_for(False)

_COMPILERS = ("cc", "gcc", "clang")


def find_compiler() -> str | None:
    """Path of the first working C compiler on PATH, or None."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _have_cffi() -> bool:
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return True


def compiler_available() -> bool:
    """True when native kernels can be built and loaded on this machine."""
    return _have_cffi() and find_compiler() is not None


# compiler path → version line (or failure sentinel), probed once per
# process instead of forking `cc --version` on every build call
_VERSION_CACHE: dict[str, str] = {}
_VERSION_LOCK = threading.Lock()


def compiler_version(cc: str) -> str:
    """The toolchain's ``--version`` first line, memoized per path.

    A failed probe (missing binary, non-zero exit, empty output, timeout)
    returns — and caches — a sentinel embedding the compiler *path* and
    the failure kind: two broken toolchains must never share artifacts.
    """
    with _VERSION_LOCK:
        ver = _VERSION_CACHE.get(cc)
    if ver is not None:
        return ver
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        first = proc.stdout.splitlines()[:1]
        if proc.returncode != 0 or not first or not first[0].strip():
            ver = f"version-probe-failed:{cc}:rc={proc.returncode}"
        else:
            ver = first[0].strip()
    except (OSError, subprocess.SubprocessError) as exc:
        ver = f"version-probe-failed:{cc}:{type(exc).__name__}"
    with _VERSION_LOCK:
        _VERSION_CACHE[cc] = ver
    return ver


def _cache_key(c_source: str, cc: str, flags: list[str]) -> str:
    h = hashlib.sha256()
    h.update(c_source.encode())
    h.update("\0".join(flags).encode())
    h.update(cc.encode())
    h.update(platform.machine().encode())
    # toolchain version: a new compiler may emit different code for the
    # same source, so it must key the artifact (failure sentinel included
    # — see compiler_version)
    h.update(compiler_version(cc).encode())
    return h.hexdigest()[:32]


def _compile(cc: str, flags: list[str], c_path: str, out: str) -> None:
    """Run the compiler on ``c_path``, writing the shared object to ``out``."""
    try:
        proc = subprocess.run([cc, *flags, "-o", out, c_path, "-lm"],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0 and "-march=native" in flags:
            # some toolchains/targets reject -march=native; retry
            # without it (the cache key stays on the requested flags)
            retry = [f for f in flags if f != "-march=native"]
            proc = subprocess.run([cc, *retry, "-o", out, c_path, "-lm"],
                                  capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        raise CodegenError(f"native backend: C compilation failed: {exc}") from exc
    if proc.returncode != 0:
        raise CodegenError(
            f"native backend: C compilation failed:\n{proc.stderr.strip()}"
        )


def _dlopen(so_path: str):
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    return ffi.dlopen(so_path), ffi


def build(c_source: str, flags: list[str] | None = None):
    """Compile ``c_source`` (or reuse a cached artifact) and dlopen it.

    ``flags`` defaults to the double-precision :data:`CFLAGS`; pass
    ``flags_for(True)`` for single-precision kernels.  Returns
    ``(lib, ffi)`` where ``lib.dd_run`` is the native entry point.  The
    cffi call releases the GIL for its whole duration, which is what lets
    the thread scheduler scale across cores.  Concurrent builders of one
    key (threads or processes) compile once; the rest reuse the ``.so``.
    Raises :class:`CodegenError` when no compiler/cffi is available, the
    build fails, its artifact will not load, or a live peer holds the
    key's lock past ``diskcache.LOCK_WAIT_S``.
    """
    if flags is None:
        flags = CFLAGS
    if not _have_cffi():
        raise CodegenError("native backend unavailable: cffi is not importable")
    cc = find_compiler()
    if cc is None:
        raise CodegenError(
            "native backend unavailable: no C compiler (cc/gcc/clang) on PATH"
        )

    def make(key: str) -> None:
        _STORE.publish(key, ".c", c_source.encode())
        _STORE.publish(key, ".so", lambda out: _compile(
            cc, flags, _STORE.path(key, ".c"), out))

    try:
        return _STORE.get(_cache_key(c_source, cc, flags), _dlopen, make=make)
    except OSError as exc:  # the fresh artifact will not load, or the lock
        raise CodegenError(f"native backend: {exc}") from exc
