"""One on-disk store under the compile cache and the native-artifact cache.

An entry is the files ``<key><ext>`` for its cache's extensions; the first
(``.so`` beside its ``.c``; ``.pkl``) marks it published.  Once each:

* atomic publish — a temporary in the cache directory, then ``os.replace``;
* the per-key lock ``<key>.lock`` (``O_CREAT | O_EXCL``) holding its owner's
  ``pid@host``: a waiter breaks it at once when that pid is dead on this
  host or the lock is older than :data:`LOCK_STALE_S`, and gives up with
  :class:`TimeoutError` after :data:`LOCK_WAIT_S` on a live owner;
* after every publish, the LRU bound (``$<max_var>`` entries by primary
  mtime, which a hit refreshes) and the debris sweep (temporaries,
  abandoned locks, companions without a primary);
* the one load-failure path: a primary that will not load is read again
  under the key lock — publishers hold it, so a peer's fresh entry wins
  and is never deleted — else purged, counted ``<ns>.corrupt`` with the
  exception type as a ``cache-corrupt`` event, and a miss.
"""

from __future__ import annotations

import os
import socket
import tempfile
import time
from contextlib import contextmanager

from repro.obs import current

#: a lock older than this is abandoned whoever holds it (seconds); also the
#: age at which the sweep removes temporaries and orphaned companions
LOCK_STALE_S = 300.0
#: how long a waiter waits on a lock whose owner is alive (seconds)
LOCK_WAIT_S = 300.0
_POLL_S = 0.02
_HOST = socket.gethostname()


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _abandoned(lock: str) -> bool:
    """``lock`` is older than :data:`LOCK_STALE_S`, or its owner is a dead
    pid on this host (a lock naming no host is this host's)."""
    try:
        with open(lock) as fp:
            owner = fp.read().strip()
        age = time.time() - os.stat(lock).st_mtime
    except OSError:
        return False  # released meanwhile
    pid, _, host = owner.partition("@")
    if age > LOCK_STALE_S:
        return True
    if not pid.isdigit() or host not in ("", _HOST):
        return False  # still being written, or another host's
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, someone else's
        pass
    return False


class DiskCache:
    """Entries ``<key><ext>`` in ``$<dir_var>`` (else ``default_dir``),
    counted as ``<ns>.{hits,misses,corrupt,evicted,lock_waits}``."""

    def __init__(self, ns: str, dir_var: str, default_dir: str, max_var: str,
                 exts: tuple[str, ...]):
        self.ns, self.dir_var, self.default_dir = ns, dir_var, default_dir
        self.max_var, self.exts = max_var, exts

    def dir(self) -> str:
        d = os.environ.get(self.dir_var) or self.default_dir
        os.makedirs(d, exist_ok=True)
        return d

    def path(self, key: str, ext: str | None = None) -> str:
        return os.path.join(self.dir(), key + (ext or self.exts[0]))

    def get(self, key: str, load, obs=None, make=None):
        """``load(path)`` of entry ``key``'s primary file, or ``None`` on a
        miss.  With ``make``, a miss is filled first: under the key lock,
        unless a peer published while this caller waited, ``make(key)``
        publishes the entry (a failure purges it) and the fresh entry is
        loaded — what that load raises propagates."""
        obs = obs or current()
        value = self._read(key, load, obs)
        if value is None and make is not None:
            with self._lock(key, obs):
                value = self._read(key, load, obs, held=True)
                if value is None:
                    obs.inc(f"{self.ns}.misses")
                    try:
                        make(key)
                    except BaseException:
                        self._purge(key)
                        raise
                    self._evict(key, obs)
                    return load(self.path(key))
        obs.inc(f"{self.ns}.{'misses' if value is None else 'hits'}")
        return value

    def put(self, key: str, ext: str, data, obs=None) -> None:
        """Publish one file of entry ``key`` under its lock; sweep, bound."""
        obs = obs or current()
        with self._lock(key, obs):
            self.publish(key, ext, data)
        self._evict(key, obs)

    def publish(self, key: str, ext: str, data) -> None:
        """Atomically publish ``<key><ext>`` from ``data`` — bytes, or a
        callable filling the temporary path it is given — under the key
        lock the caller holds (``get``'s ``make`` does)."""
        fd, tmp = tempfile.mkstemp(dir=self.dir(), prefix=f"{key}.",
                                   suffix=".tmp")
        os.close(fd)
        try:
            if callable(data):
                data(tmp)
            else:
                with open(tmp, "wb") as fp:
                    fp.write(data)
            os.replace(tmp, self.path(key, ext))
        finally:
            _unlink(tmp)  # gone already once published

    def _read(self, key, load, obs, held=False):
        path = self.path(key)
        if not os.path.exists(path):
            return None
        try:
            value = load(path)
        except Exception as exc:  # the store's one load-failure handler
            if not held:  # again under the lock: a peer may have republished
                with self._lock(key, obs):
                    return self._read(key, load, obs, held=True)
            self._purge(key)
            obs.inc(f"{self.ns}.corrupt")
            obs.event("cache-corrupt", cat="cache", cache=self.ns, key=key,
                      error=type(exc).__name__)
            return None
        try:
            os.utime(path)  # LRU recency
        except OSError:
            pass
        return value

    @contextmanager
    def _lock(self, key, obs):
        path = self.path(key, ".lock")
        deadline = time.monotonic() + LOCK_WAIT_S
        waited = False
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if _abandoned(path):
                    _unlink(path)
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"timed out after {LOCK_WAIT_S:.0f}s waiting for "
                        f"{path} (owner alive)") from None
                waited = True
                time.sleep(_POLL_S)
        with os.fdopen(fd, "w") as fp:
            fp.write(f"{os.getpid()}@{_HOST}\n")
        if waited:
            obs.inc(f"{self.ns}.lock_waits")
        try:
            yield
        finally:
            _unlink(path)

    def _purge(self, key: str) -> None:
        for ext in self.exts:
            _unlink(self.path(key, ext))

    def _evict(self, keep: str, obs) -> None:
        """Sweep debris, then drop least-recently-used entries other than
        ``keep`` down to ``$<max_var>`` (unset, 0 or garbage: unbounded)."""
        d, now = self.dir(), time.time()
        primary, companions = self.exts[0], self.exts[1:]
        entries = []
        for name in os.listdir(d):
            path = os.path.join(d, name)
            key, ext = os.path.splitext(name)
            try:
                mtime = os.stat(path).st_mtime
            except OSError:
                continue
            if ext == primary:
                entries.append((mtime, key))
            elif ext == ".lock":
                if _abandoned(path):
                    _unlink(path)
            elif now - mtime > LOCK_STALE_S and (ext == ".tmp" or (
                    ext in companions
                    and not os.path.exists(os.path.join(d, key + primary)))):
                _unlink(path)
        try:
            limit = int(os.environ.get(self.max_var, ""))
        except ValueError:
            limit = 0
        if 0 < limit < len(entries):
            entries.sort()
            victims = [k for _, k in entries if k != keep][:len(entries) - limit]
            for k in victims:
                self._purge(k)
            obs.inc(f"{self.ns}.evicted", len(victims))
