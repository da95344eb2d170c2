"""The persistent compile cache (:mod:`repro.serve.cache`).

The contract under test: a repeat compile of the same normalized HighIR
is a disk hit that skips every optimizer/lowering/codegen pass (verified
via obs spans), yields a Program whose behavior is bit-identical to the
cold compile's, and the fingerprint is stable across processes but
sensitive to everything that could change generated code.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.driver import OptOptions, compile_program
from repro.obs import ROOT, Obs
from repro.serve import cache as cc

SRC = """
input int N = 6;
input real scale = 2.0;
strand s (int i) {
    output real y = 0.0;
    update { y = real(i) * scale + 1.0; stabilize; }
}
initially [ s(i) | i in 0..(N-1) ];
"""

#: front-end passes that always run, hit or miss
FRONTEND = {"parse", "typecheck", "simplify", "highir"}
#: passes that must NOT run on a cache hit
BACKEND = {"contraction", "value-numbering", "midir", "probe-fuse",
           "lowir", "codegen"}


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_COMPILE_CACHE_MAX", raising=False)
    return tmp_path


def _counter(name: str) -> float:
    return ROOT.snapshot()["counters"].get(name, 0)


class TestHitMiss:
    def test_cold_compile_misses_then_hits(self, cache_dir):
        miss0, hit0 = _counter("compile_cache.misses"), _counter("compile_cache.hits")
        with Obs() as tr1:  # counts into tr1, which folds into the root
            p1 = compile_program(SRC, obs=tr1, cache=True)
        assert tr1.counters["compile_cache.misses"] == 1
        assert _counter("compile_cache.misses") == miss0 + 1
        assert BACKEND <= {e.name for e in tr1.spans("pass")}
        assert len(list(cache_dir.glob("*.pkl"))) == 1

        with Obs() as tr2:
            p2 = compile_program(SRC, obs=tr2, cache=True)
        assert _counter("compile_cache.hits") == hit0 + 1
        passes = {e.name for e in tr2.spans("pass")}
        assert passes <= FRONTEND, f"optimizer passes re-ran on a hit: {passes}"
        assert [e.name for e in tr2.events if e.cat == "cache"] == \
            ["compile-cache-hit"]
        assert p2.generated_source == p1.generated_source

    def test_hit_program_is_bit_identical(self, cache_dir):
        p1 = compile_program(SRC, cache=True)
        p2 = compile_program(SRC, cache=True)
        r1, r2 = p1.run(), p2.run()
        assert np.array_equal(r1.outputs["y"], r2.outputs["y"])
        assert r1.steps == r2.steps

    def test_formatting_changes_still_hit(self, cache_dir):
        compile_program(SRC, cache=True)
        tr = Obs()
        reformatted = SRC.replace("input int N = 6;",
                                  "// renamed nothing\ninput int N = 6;")
        compile_program(reformatted, obs=tr, cache=True)
        assert {e.name for e in tr.spans("pass")} <= FRONTEND

    def test_disabled_by_default(self, cache_dir, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
        compile_program(SRC)
        assert list(cache_dir.glob("*.pkl")) == []
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "1")
        compile_program(SRC)
        assert len(list(cache_dir.glob("*.pkl"))) == 1


class TestKeySensitivity:
    def test_opt_options_key(self, cache_dir):
        compile_program(SRC, cache=True)
        tr = Obs()
        compile_program(SRC, cache=True,
                        optimize=OptOptions(value_numbering=False))
        # different OptOptions → a different entry, i.e. a miss
        assert len(list(cache_dir.glob("*.pkl"))) == 2

    def test_precision_keys_differently(self, cache_dir):
        compile_program(SRC, cache=True, precision="double")
        compile_program(SRC, cache=True, precision="single")
        assert len(list(cache_dir.glob("*.pkl"))) == 2

    def test_program_change_keys_differently(self, cache_dir):
        compile_program(SRC, cache=True)
        compile_program(SRC.replace("+ 1.0", "+ 2.0"), cache=True)
        assert len(list(cache_dir.glob("*.pkl"))) == 2

    def test_fingerprint_stable_across_processes(self, cache_dir):
        script = (
            "from repro.core.driver import compile_to_source\n"
            "import repro.serve.cache as cc\n"
            "from repro.core.syntax import parse_program\n"
            "from repro.core.ty import check_program\n"
            "from repro.core.xform.to_high import HighBuilder\n"
            "from repro.core.driver import OptOptions\n"
            f"hp = HighBuilder(check_program(parse_program({SRC!r}))).build()\n"
            "print(cc.fingerprint(hp, OptOptions(), ('precision', 'double')))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(sys.path))

        def one():
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()

        assert one() == one(), "fingerprint must not depend on process state"


class TestRobustness:
    def test_corrupt_entry_recompiles(self, cache_dir):
        p1 = compile_program(SRC, cache=True)
        entry = next(cache_dir.glob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        tr = Obs()
        p2 = compile_program(SRC, obs=tr, cache=True)
        # the corrupt entry was purged (counted, with the reason), the
        # compile re-ran and re-stored the same code
        assert tr.counters["compile_cache.corrupt"] == 1
        assert tr.counters["compile_cache.misses"] == 1
        assert [e.args["error"] for e in tr.events
                if e.name == "cache-corrupt"] == ["UnpicklingError"]
        assert BACKEND <= {e.name for e in tr.spans("pass")}
        assert len(list(cache_dir.glob("*.pkl"))) == 1
        assert p2.generated_source == p1.generated_source
        r1, r2 = p1.run(), p2.run()
        assert np.array_equal(r1.outputs["y"], r2.outputs["y"])

    def test_wrong_key_entry_ignored(self, cache_dir):
        compile_program(SRC, cache=True)
        entry = next(cache_dir.glob("*.pkl"))
        # an entry renamed to another key must not satisfy that key
        stolen = cache_dir / ("0" * 32 + ".pkl")
        entry.rename(stolen)
        assert cc.load("0" * 32) is None
        assert not stolen.exists(), "mismatched entry should be purged"

    def test_lru_eviction(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE_MAX", "2")
        import time

        for k in (1, 2, 3):
            compile_program(SRC.replace("+ 1.0", f"+ {k}.0"), cache=True)
            time.sleep(0.02)
        assert len(list(cache_dir.glob("*.pkl"))) == 2
