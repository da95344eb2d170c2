"""The one on-disk store (:mod:`repro.diskcache`) under both caches.

Store-level contracts the cache tests (``test_cbuild_cache.py``,
``test_compile_cache.py``) exercise only through their callers: the
load-failure path and its re-check under the key lock, the debris sweep,
the lock's owner record — and the structural rule that nothing else in
``src/`` speaks the publish/lock protocol.
"""

from __future__ import annotations

import ast
import os
import pathlib
import socket
import subprocess
import time

import pytest

import repro
from repro import diskcache
from repro.diskcache import DiskCache
from repro.obs import Obs

SRC_ROOT = pathlib.Path(repro.__file__).parent


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("TEST_STORE_DIR", str(tmp_path))
    monkeypatch.delenv("TEST_STORE_MAX", raising=False)
    return DiskCache("test_store", "TEST_STORE_DIR", str(tmp_path / "unused"),
                     "TEST_STORE_MAX", (".bin", ".txt"))


def _read(path: str) -> bytes:
    data = pathlib.Path(path).read_bytes()
    if not data.startswith(b"ok"):
        raise ValueError("not an entry")
    return data


class TestLoadFailure:
    def test_corrupt_entry_is_purged_counted_and_a_miss(self, store, tmp_path):
        for ext in (".bin", ".txt"):
            (tmp_path / f"k{ext}").write_bytes(b"garbage")
        obs = Obs()
        assert store.get("k", _read, obs) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == []
        assert obs.counters == {"test_store.corrupt": 1,
                                "test_store.misses": 1}
        (ev,) = [e for e in obs.events if e.name == "cache-corrupt"]
        assert ev.args == {"cache": "test_store", "key": "k",
                           "error": "ValueError"}

    def test_peer_publish_seen_under_the_lock_wins(self, store, tmp_path):
        entry = tmp_path / "k.bin"
        entry.write_bytes(b"garbage")
        seen = []

        def racing_read(path):
            if not seen:  # a torn read, and a peer republishes meanwhile
                seen.append(path)
                store.publish("k", ".bin", b"ok fresh")
                raise ValueError("torn")
            return _read(path)

        obs = Obs()
        assert store.get("k", racing_read, obs) == b"ok fresh"
        assert entry.read_bytes() == b"ok fresh"
        assert "test_store.corrupt" not in obs.counters
        assert obs.counters["test_store.hits"] == 1

    def test_make_failure_leaves_nothing(self, store, tmp_path):
        def make(key):
            store.publish(key, ".txt", b"companion")
            raise RuntimeError("compiler died")

        with pytest.raises(RuntimeError):
            store.get("k", _read, Obs(), make=make)
        assert list(tmp_path.iterdir()) == []


class TestLockAndSweep:
    def test_lock_names_its_owner(self, store, tmp_path):
        owners = []

        def make(key):
            owners.append((tmp_path / f"{key}.lock").read_text().strip())
            store.publish(key, ".bin", b"ok")

        assert store.get("k", _read, Obs(), make=make) == b"ok"
        assert owners == [f"{os.getpid()}@{socket.gethostname()}"]
        assert not (tmp_path / "k.lock").exists()

    def test_lock_of_another_host_is_not_probed(self, store, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(diskcache, "LOCK_WAIT_S", 0.1)
        gone = subprocess.Popen(["true"])
        gone.wait()
        (tmp_path / "k.lock").write_text(f"{gone.pid}@elsewhere.invalid\n")
        with pytest.raises(TimeoutError):
            store.put("k", ".bin", b"ok", Obs())

    def test_sweep_removes_debris_only(self, store, tmp_path):
        old = time.time() - diskcache.LOCK_STALE_S - 60
        gone = subprocess.Popen(["true"])
        gone.wait()
        debris = {"a.x1.tmp": b"", "orphan.txt": b"src",
                  "dead.lock": f"{gone.pid}\n".encode()}
        keep = {"fresh.x2.tmp": b"", "live.txt": b"src", "live.bin": b"ok"}
        for name, data in {**debris, **keep}.items():
            (tmp_path / name).write_bytes(data)
            if name != "fresh.x2.tmp":
                os.utime(tmp_path / name, (old, old))
        store.put("new", ".bin", b"ok", Obs())
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [*keep, "new.bin"])


def test_only_the_store_speaks_the_publish_protocol():
    """Atomic publish, recency stamps and exclusive locks live in one
    module; nothing else in ``src/`` writes a cache entry its own way."""
    protocol = {("os", "replace"), ("os", "utime"), ("os", "O_EXCL"),
                ("tempfile", "mkstemp")}
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = (node.value.id, node.attr) in protocol
            elif isinstance(node, ast.ImportFrom):
                hit = any((node.module, a.name) in protocol for a in node.names)
            else:
                continue
            if hit and rel != "diskcache.py":
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []


def test_broad_excepts_only_in_the_store_and_reasoned():
    def broad(tree):  # handlers that catch everything and do not re-raise
        return [h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)
                and (h.type is None or ast.unparse(h.type) in
                     ("Exception", "BaseException"))
                and not isinstance(h.body[-1], ast.Raise)]

    for rel in ("core/codegen/cbuild.py", "serve/cache.py"):
        assert broad(ast.parse((SRC_ROOT / rel).read_text())) == [], rel
    (handler,) = broad(ast.parse((SRC_ROOT / "diskcache.py").read_text()))
    body = ast.unparse(handler)
    assert ".corrupt" in body and "type(exc).__name__" in body
