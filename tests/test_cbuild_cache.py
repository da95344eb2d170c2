"""Artifact-cache correctness under concurrency and failure.

Covers the serving-layer hardening of :mod:`repro.core.codegen.cbuild`:
the memoized version probe with per-path failure sentinels, the per-key
inter-process build lock (cold-cache stampede → exactly one compiler
invocation), recovery from stale and dead-owner locks, the rebuild of a
truncated artifact, failed-build cleanup, and the
``REPRO_CGEN_CACHE_MAX`` LRU bound.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import stat
import subprocess
import sys
import threading
import time

import pytest

from repro import diskcache
from repro.core.codegen import cbuild
from repro.errors import CodegenError
from repro.obs import ROOT

requires_cc = pytest.mark.skipif(
    not cbuild.compiler_available(),
    reason="needs cffi plus a C compiler on PATH",
)

#: a minimal translation unit satisfying the dd_update ABI
OK_SOURCE = """
#include <stdint.h>
int dd_update(void **RP, int64_t **IP, unsigned char **BP,
              const double *SC, const int64_t *IC,
              const int64_t *idx, int64_t start, int64_t end) {
    (void)RP; (void)IP; (void)BP; (void)SC; (void)IC; (void)idx;
    (void)start; (void)end;
    return %d;
}
"""


def _counter(name: str) -> float:
    return ROOT.snapshot()["counters"].get(name, 0)


class TestVersionProbe:
    def test_memoized_per_path(self, monkeypatch):
        cbuild._VERSION_CACHE.clear()
        calls = []
        real_run = subprocess.run

        def counting_run(cmd, *a, **kw):
            calls.append(cmd)
            return real_run(cmd, *a, **kw)

        monkeypatch.setattr(cbuild.subprocess, "run", counting_run)
        cc = cbuild.find_compiler() or "/usr/bin/definitely-missing-cc"
        v1 = cbuild.compiler_version(cc)
        v2 = cbuild.compiler_version(cc)
        v3 = cbuild.compiler_version(cc)
        assert v1 == v2 == v3
        assert len(calls) == 1, "probe must fork once per path, not per build"

    def test_failure_sentinel_is_per_path(self):
        cbuild._VERSION_CACHE.clear()
        a = cbuild.compiler_version("/no/such/toolchain-a")
        b = cbuild.compiler_version("/no/such/toolchain-b")
        assert a.startswith("version-probe-failed:")
        assert b.startswith("version-probe-failed:")
        assert a != b, "two broken toolchains must never share a sentinel"

    def test_failed_probe_keys_differently(self):
        cbuild._VERSION_CACHE.clear()
        src, flags = "int x;", ["-O2"]
        k1 = cbuild._cache_key(src, "/no/such/toolchain-a", flags)
        k2 = cbuild._cache_key(src, "/no/such/toolchain-b", flags)
        assert k1 != k2

    def test_version_participates_in_key(self, monkeypatch):
        cc = "/fake/cc"
        monkeypatch.setitem(cbuild._VERSION_CACHE, cc, "fake 1.0")
        k1 = cbuild._cache_key("int x;", cc, ["-O2"])
        monkeypatch.setitem(cbuild._VERSION_CACHE, cc, "fake 2.0")
        k2 = cbuild._cache_key("int x;", cc, ["-O2"])
        assert k1 != k2


def _stub_compiler(tmp_path, log_path):
    """A PATH shim named ``cc``: logs compile invocations, defers to the
    real compiler.  Version probes (``--version``) are not logged."""
    real = cbuild.find_compiler()
    stub_dir = tmp_path / "bin"
    stub_dir.mkdir()
    stub = stub_dir / "cc"
    stub.write_text(
        "#!/bin/sh\n"
        'case "$*" in *--version*) ;; *) echo "compile $$" >> '
        f'"{log_path}" ;; esac\n'
        f'exec "{real}" "$@"\n'
    )
    stub.chmod(stub.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return stub_dir


def _build_in_proc(args):
    src, cache, path = args
    os.environ["REPRO_CGEN_CACHE"] = cache
    os.environ["PATH"] = path
    from repro.core.codegen import cbuild as cb

    cb._VERSION_CACHE.clear()
    lib, _ = cb.build(src)
    return True


@requires_cc
class TestStampede:
    def test_thread_stampede_single_compile(self, tmp_path, monkeypatch):
        log = tmp_path / "log.txt"
        stub_dir = _stub_compiler(tmp_path, log)
        monkeypatch.setenv("PATH",
                           f"{stub_dir}{os.pathsep}{os.environ['PATH']}")
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path / "cache"))
        cbuild._VERSION_CACHE.clear()
        src = OK_SOURCE % 11
        errors = []

        def worker():
            try:
                cbuild.build(src)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert log.read_text().count("compile") == 1, (
            "a cold-key stampede must run the compiler exactly once"
        )

    def test_process_stampede_single_compile(self, tmp_path, monkeypatch):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork start method")
        log = tmp_path / "log.txt"
        stub_dir = _stub_compiler(tmp_path, log)
        path = f"{stub_dir}{os.pathsep}{os.environ['PATH']}"
        cache = str(tmp_path / "cache")
        src = OK_SOURCE % 23
        ctx = mp.get_context("fork")
        with ctx.Pool(4) as pool:
            results = pool.map(_build_in_proc, [(src, cache, path)] * 4)
        assert all(results)
        assert log.read_text().count("compile") == 1

    def test_waiters_reuse_not_rebuild(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        src = OK_SOURCE % 31
        before_miss = _counter("cgen.cache.misses")
        cbuild.build(src)
        before_hit = _counter("cgen.cache.hits")
        cbuild.build(src)
        assert _counter("cgen.cache.misses") == before_miss + 1
        assert _counter("cgen.cache.hits") == before_hit + 1


def _lock_for(cache, src: str, owner):
    """Plant ``src``'s build lock in ``cache``, naming ``owner``."""
    key = cbuild._cache_key(src, cbuild.find_compiler(), cbuild.CFLAGS)
    lock = cache / f"{key}.lock"
    lock.write_text(f"{owner}\n")
    return lock


@requires_cc
class TestLockRecovery:
    def test_stale_lock_is_broken(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        src = OK_SOURCE % 41
        # a live owner, but older than any build takes
        lock = _lock_for(tmp_path, src, os.getpid())
        old = time.time() - diskcache.LOCK_STALE_S - 60
        os.utime(lock, (old, old))
        lib, _ = cbuild.build(src)  # must not time out on the dead lock
        assert not lock.exists()

    def test_dead_pid_lock_is_broken_at_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        src = OK_SOURCE % 42
        gone = subprocess.Popen(["true"])
        gone.wait()
        lock = _lock_for(tmp_path, src, gone.pid)  # fresh, owner dead
        built = []
        t = threading.Thread(target=lambda: built.append(cbuild.build(src)),
                             daemon=True)
        t.start()
        t.join(timeout=5)  # a waiter honouring the lock would still be here
        assert built, "a lock naming a dead pid must be broken at once"
        assert not lock.exists()

    def test_fresh_foreign_lock_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        monkeypatch.setattr(diskcache, "LOCK_WAIT_S", 0.2)
        src = OK_SOURCE % 43
        lock = _lock_for(tmp_path, src, os.getpid())  # a live owner
        with pytest.raises(CodegenError, match="timed out"):
            cbuild.build(src)
        assert lock.exists(), "a live owner's fresh lock is never broken"


#: compiles and runs a tiny program on the native backend in a fresh
#: process (a process that has dlopened an artifact keeps its mapping, so
#: only a new one sees the file on disk); prints its outputs and counters
FRESH_RUN = """
import json
from repro.core.driver import compile_program
from repro.obs import ROOT
res = compile_program(
    "strand S (int i) { output real x = 0.0; update { x += 3.0; stabilize; } }"
    " initially [ S(i) | i in 0 .. 5 ];").run(backend="c")
c = ROOT.snapshot()["counters"]
print(json.dumps(dict(x=res.outputs["x"].tolist(), **{
    k: v for k, v in c.items() if k.startswith(("cgen.cache", "runtime.backend"))})))
"""


@requires_cc
def test_truncated_artifact_is_rebuilt_in_a_fresh_process(tmp_path):
    env = dict(os.environ, REPRO_CGEN_CACHE=str(tmp_path),
               PYTHONPATH=os.pathsep.join(sys.path))

    def fresh_run() -> dict:
        out = subprocess.run([sys.executable, "-c", FRESH_RUN], env=env,
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    cold = fresh_run()
    assert cold["cgen.cache.misses"] == 1
    (so,) = tmp_path.glob("*.so")
    so.write_bytes(so.read_bytes()[:512])  # a builder killed mid-write
    again = fresh_run()
    assert again["cgen.cache.corrupt"] == 1
    assert again["cgen.cache.misses"] == 1 and "cgen.cache.hits" not in again
    assert not [k for k in again if k.startswith("runtime.backend.fallback")]
    assert again["x"] == cold["x"] == [3.0] * 6
    assert so.stat().st_size > 512  # rebuilt under the same key


@requires_cc
class TestHygiene:
    def test_failed_build_leaves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        with pytest.raises(CodegenError):
            cbuild.build("this is not C at all %%%")
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == [], f"failed build leaked {leftovers}"

    def test_lru_eviction_bounds_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_CGEN_CACHE_MAX", "2")
        before = _counter("cgen.cache.evicted")
        sources = [OK_SOURCE % n for n in (51, 52, 53)]
        for src in sources:
            cbuild.build(src)
            time.sleep(0.02)  # distinct mtimes for a deterministic LRU order
        sos = sorted(p.name for p in tmp_path.glob("*.so"))
        assert len(sos) == 2, sos
        cc = cbuild.find_compiler()
        oldest = cbuild._cache_key(sources[0], cc, cbuild.CFLAGS)
        assert f"{oldest}.so" not in sos
        assert len(list(tmp_path.glob("*.c"))) == 2
        assert _counter("cgen.cache.evicted") == before + 1

    def test_hit_refreshes_lru_position(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_CGEN_CACHE_MAX", "2")
        a, b, c = (OK_SOURCE % n for n in (61, 62, 63))
        cbuild.build(a)
        time.sleep(0.02)
        cbuild.build(b)
        time.sleep(0.02)
        cbuild.build(a)  # hit: re-touches a's artifact
        time.sleep(0.02)
        cbuild.build(c)  # evicts b (now the LRU), not a
        cc = cbuild.find_compiler()
        names = {p.name for p in tmp_path.glob("*.so")}
        assert f"{cbuild._cache_key(a, cc, cbuild.CFLAGS)}.so" in names
        assert f"{cbuild._cache_key(b, cc, cbuild.CFLAGS)}.so" not in names
