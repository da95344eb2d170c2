"""Artifact-cache correctness under concurrency and failure.

Covers the serving-layer hardening of :mod:`repro.core.codegen.cbuild`:
the memoized version probe with per-path failure sentinels, the per-key
inter-process build lock (cold-cache stampede → exactly one compiler
invocation), stale-lock recovery, failed-build cleanup, and the
``REPRO_CGEN_CACHE_MAX`` LRU bound.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import stat
import subprocess
import threading
import time

import pytest

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


@requires_cc
class TestLockRecovery:
    def test_stale_lock_is_broken(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_CGEN_LOCK_TIMEOUT", "1")
        src = OK_SOURCE % 41
        cc = cbuild.find_compiler()
        key = cbuild._cache_key(src, cc, cbuild.CFLAGS)
        lock = tmp_path / f"{key}.lock"
        lock.write_text("99999999\n")
        old = time.time() - 3600
        os.utime(lock, (old, old))
        lib, _ = cbuild.build(src)  # must not time out on the dead lock
        assert not lock.exists()

    def test_fresh_foreign_lock_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_CGEN_LOCK_TIMEOUT", "0.2")
        src = OK_SOURCE % 43
        cc = cbuild.find_compiler()
        key = cbuild._cache_key(src, cc, cbuild.CFLAGS)
        lock = tmp_path / f"{key}.lock"
        lock.write_text("99999999\n")

        def keep_fresh(stop):
            while not stop.is_set():
                try:
                    os.utime(lock)
                except OSError:
                    pass
                time.sleep(0.02)

        stop = threading.Event()
        t = threading.Thread(target=keep_fresh, args=(stop,))
        t.start()
        try:
            with pytest.raises(CodegenError, match="timed out"):
                cbuild.build(src)
        finally:
            stop.set()
            t.join()


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
