"""Compile and cache native-backend C modules.

Thin wrapper around the system C compiler and :mod:`cffi`'s ABI mode:

- :func:`compiler_available` — can this machine build and load native
  kernels at all (cffi importable + a ``cc``/``gcc``/``clang`` on PATH)?
- :func:`build` — compile a C translation unit emitted by
  :mod:`repro.core.codegen.cgen` into a shared object and ``dlopen`` it,
  returning ``(lib, ffi)``.

Artifacts are cached on disk keyed by a hash of the source, the exact flag
set, the compiler path, and the toolchain version (``cc --version``), so
repeat builds of the same program are a single ``dlopen`` — and a flags or
toolchain change can never serve a stale ``.so``.  The version probe is
memoized per compiler path (one subprocess per process lifetime, not one
per build), and a *failed* probe mixes a per-path failure sentinel into
the key: two broken toolchains at different paths must never hash to the
same artifact.  The cache directory is ``$REPRO_CGEN_CACHE`` or
``~/.cache/repro-cgen``; each entry stores both ``<key>.c`` (for
inspection/debugging) and ``<key>.so``.

Concurrency: writes go through a pid-suffixed temporary plus
:func:`os.replace` (atomic publish), and the compile itself runs under a
per-key inter-process file lock (``<key>.lock``) so a cold-cache stampede
— N process workers missing on the same key at once — does exactly one
compile; the other workers wait on the lock and reuse the published
artifact.  Locks time out (``REPRO_CGEN_LOCK_TIMEOUT``, default 300 s)
and stale locks left by crashed builders are broken and reclaimed.

Hygiene: a failed build removes its ``<key>.c`` and temporary ``.so``
so failures never leak files into the cache, and when
``REPRO_CGEN_CACHE_MAX`` is set (max number of cached artifacts; default
unbounded) the least-recently-used entries (by ``.so`` mtime — refreshed
on every cache hit) are evicted after each successful build, so a
long-lived server's cache stays bounded.

Flag sets come from :func:`flags_for`: both precisions build with
``-O3 -march=native -fno-math-errno -fopenmp-simd`` so the batched lane
loops emitted by :mod:`~repro.core.codegen.cgen` actually vectorize.  On the
double-precision path ``-ffp-contract=off`` is load-bearing: it forbids
fused multiply-adds so the native kernels round exactly like the NumPy
oracle.  The single-precision path omits it (FMA allowed; its oracle
tolerance is relaxed).  If the compiler rejects ``-march=native`` (exotic
targets), the build retries once without it — the cache key still reflects
the *requested* flags.  All failures are wrapped in
:class:`~repro.errors.CodegenError` so ``Program`` can fall back to the
NumPy backend.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import time

from ...errors import CodegenError
from ...obs import current

__all__ = [
    "CDEF",
    "CFLAGS",
    "build",
    "cache_dir",
    "compiler_available",
    "compiler_version",
    "find_compiler",
    "flags_for",
]

#: The fixed entry-point ABI shared by every generated module (see cgen).
#: RP entries point at dd_real payloads (double or float per the plan's
#: ``real_dtype``), so the table itself is ``void **``.
CDEF = (
    "int64_t dd_run(void **RP, int64_t **IP, unsigned char **BP,"
    " const double *SC, const int64_t *IC,"
    " int64_t *idx, int64_t *n_io, int64_t max_steps,"
    " int64_t *counts, double *seconds);"
)

#: how long a waiter polls a peer's build lock before assuming the
#: builder is dead (seconds; also the stale-lock age threshold)
DEFAULT_LOCK_TIMEOUT = 300.0


def flags_for(single: bool = False) -> list[str]:
    """Compiler flag set for a kernel of the given precision."""
    flags = ["-O3"]
    if not single:
        # forbids FMA contraction so double kernels round exactly like the
        # NumPy oracle (1e-12 differential agreement)
        flags.append("-ffp-contract=off")
    flags += [
        "-march=native",
        "-fno-math-errno",
        "-fopenmp-simd",
        "-fPIC",
        "-shared",
        "-w",
    ]
    return flags


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
    except Exception:
        return False
    return True


def compiler_available() -> bool:
    """True when native kernels can be built and loaded on this machine."""
    return _have_cffi() and find_compiler() is not None


def cache_dir() -> str:
    """The on-disk artifact cache directory (created on demand)."""
    d = os.environ.get("REPRO_CGEN_CACHE")
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "repro-cgen")
    os.makedirs(d, exist_ok=True)
    return d


# compiler path → version line (or failure sentinel), probed once per
# process instead of forking `cc --version` on every build call
_VERSION_CACHE: dict[str, str] = {}
_VERSION_LOCK = threading.Lock()


def compiler_version(cc: str) -> str:
    """The toolchain's ``--version`` first line, memoized per path.

    A failed probe (missing binary, non-zero exit, empty output, timeout)
    returns a sentinel that embeds the compiler *path* and the failure
    kind: two different broken toolchains must key different artifacts,
    never serve each other's.  The sentinel is cached like a success —
    a broken probe is stable for the life of the process.
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
    except Exception as exc:
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


def _atomic_write(path: str, data: bytes) -> None:
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=f".tmp{os.getpid()}")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _lock_timeout() -> float:
    try:
        return float(os.environ.get("REPRO_CGEN_LOCK_TIMEOUT", ""))
    except ValueError:
        return DEFAULT_LOCK_TIMEOUT


class _KeyLock:
    """A per-key inter-process build lock (``<key>.lock``).

    ``O_CREAT | O_EXCL`` makes acquisition atomic across processes.  The
    lock file carries the owner's pid for debugging; a lock older than
    the timeout is presumed abandoned (builder crashed before its
    ``finally``) and broken so waiters can reclaim the key.
    """

    def __init__(self, path: str, timeout: float):
        self.path = path
        self.timeout = timeout
        self.held = False

    def try_acquire(self) -> bool:
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            self._break_if_stale()
            return False
        with os.fdopen(fd, "w") as f:
            f.write(f"{os.getpid()}\n")
        self.held = True
        return True

    def _break_if_stale(self) -> None:
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return  # released between the open and the stat
        if age > self.timeout:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def release(self) -> None:
        if self.held:
            self.held = False
            try:
                os.unlink(self.path)
            except OSError:
                pass


def _evict_lru(d: str, keep_key: str | None = None) -> int:
    """Bound the cache to ``REPRO_CGEN_CACHE_MAX`` entries (LRU by mtime).

    Also sweeps build debris: ``*.tmp*`` temporaries and orphan ``.c``
    files (no published ``.so``) older than the lock timeout — leftovers
    from builders that died without cleanup.  Returns the number of
    artifacts evicted.
    """
    now = time.time()
    horizon = _lock_timeout()
    sos = []
    for name in os.listdir(d):
        path = os.path.join(d, name)
        try:
            mtime = os.stat(path).st_mtime
        except OSError:
            continue
        if ".tmp" in name or name.endswith(".lock"):
            if now - mtime > horizon:
                _unlink_quiet(path)
            continue
        if name.endswith(".so"):
            sos.append((mtime, path))
        elif name.endswith(".c"):
            if not os.path.exists(path[:-2] + ".so") and now - mtime > horizon:
                _unlink_quiet(path)
    raw = os.environ.get("REPRO_CGEN_CACHE_MAX")
    if not raw:
        return 0
    try:
        limit = int(raw)
    except ValueError:
        return 0
    if limit <= 0 or len(sos) <= limit:
        return 0
    sos.sort()  # oldest mtime first; hits re-touch their .so (see build)
    evicted = 0
    for _, path in sos[: len(sos) - limit]:
        if keep_key and os.path.basename(path) == f"{keep_key}.so":
            continue
        _unlink_quiet(path)
        _unlink_quiet(path[:-3] + ".c")
        evicted += 1
    if evicted:
        current().inc("cgen.cache.evicted", evicted)
    return evicted


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _compile(cc: str, flags: list[str], c_path: str, so_path: str,
             d: str) -> None:
    """Run the compiler and atomically publish ``so_path``.

    On *any* failure the entry's ``.c`` and the temporary ``.so`` are
    removed — a failed build must leave nothing behind in the cache.
    """
    fd, tmp_so = tempfile.mkstemp(dir=d, suffix=f".so.tmp{os.getpid()}")
    os.close(fd)
    ok = False
    try:
        proc = subprocess.run(
            [cc, *flags, "-o", tmp_so, c_path, "-lm"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0 and "-march=native" in flags:
            # some toolchains/targets reject -march=native; retry
            # without it (the cache key stays on the requested flags)
            retry = [f for f in flags if f != "-march=native"]
            proc = subprocess.run(
                [cc, *retry, "-o", tmp_so, c_path, "-lm"],
                capture_output=True,
                text=True,
                timeout=300,
            )
        if proc.returncode != 0:
            raise CodegenError(
                f"native backend: C compilation failed:\n{proc.stderr.strip()}"
            )
        os.replace(tmp_so, so_path)
        ok = True
    except CodegenError:
        raise
    except Exception as exc:
        raise CodegenError(f"native backend: C compilation failed: {exc}") from exc
    finally:
        _unlink_quiet(tmp_so)
        if not ok:
            _unlink_quiet(c_path)


def build(c_source: str, flags: list[str] | None = None):
    """Compile ``c_source`` (or reuse a cached artifact) and dlopen it.

    ``flags`` defaults to the double-precision :data:`CFLAGS`; pass
    ``flags_for(True)`` for single-precision kernels.  Returns
    ``(lib, ffi)`` where ``lib.dd_run`` is the native entry point.  The
    cffi call releases the GIL for its whole duration, which is what lets
    the thread scheduler scale across cores.  Raises :class:`CodegenError`
    when no compiler/cffi is available or the build fails.

    Cold-cache concurrency contract: concurrent builders of the same key
    (threads or processes) serialize on ``<key>.lock`` — one compiles,
    the rest wait and reuse the published ``.so``.  Metrics:
    ``cgen.cache.hits`` / ``.misses`` / ``.lock_waits`` / ``.evicted``.
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

    import cffi

    d = cache_dir()
    key = _cache_key(c_source, cc, flags)
    so_path = os.path.join(d, f"{key}.so")
    c_path = os.path.join(d, f"{key}.c")

    if os.path.exists(so_path):
        current().inc("cgen.cache.hits")
        # refresh the artifact's LRU position so hot entries survive
        # REPRO_CGEN_CACHE_MAX eviction
        try:
            os.utime(so_path)
        except OSError:
            pass
    else:
        _build_locked(cc, flags, c_source, c_path, so_path, d, key)

    try:
        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        lib = ffi.dlopen(so_path)
    except Exception as exc:
        raise CodegenError(f"native backend: failed to load {so_path}: {exc}") from exc
    return lib, ffi


def _build_locked(cc, flags, c_source, c_path, so_path, d, key) -> None:
    """The cold-cache path: compile under the per-key file lock."""
    timeout = _lock_timeout()
    lock = _KeyLock(os.path.join(d, f"{key}.lock"), timeout)
    deadline = time.monotonic() + timeout
    waited = False
    try:
        while True:
            if os.path.exists(so_path):
                # a peer published while we waited: a shared-stampede hit
                current().inc("cgen.cache.hits")
                if waited:
                    current().inc("cgen.cache.lock_waits")
                return
            if lock.try_acquire():
                if os.path.exists(so_path):  # re-check under the lock
                    current().inc("cgen.cache.hits")
                    return
                current().inc("cgen.cache.misses")
                if waited:
                    current().inc("cgen.cache.lock_waits")
                _atomic_write(c_path, c_source.encode())
                _compile(cc, flags, c_path, so_path, d)
                _evict_lru(d, keep_key=key)
                return
            waited = True
            if time.monotonic() > deadline:
                raise CodegenError(
                    f"native backend: timed out after {timeout:.0f}s waiting "
                    f"for a concurrent build of {key} (stale {key}.lock?)"
                )
            time.sleep(0.02)
    finally:
        lock.release()
