"""Emitted code does not depend on what the process compiled before.

``Value.id`` comes from a process-wide counter, so an emitter that prints
it makes the n-th compile of a source differ from the first: a different
Python module, a different C translation unit, a different artifact key
and a fresh ``cc`` run for a program the cache already holds.  Both
emitters number values in first-use order instead; these tests pin that
down on every example program, and on the artifact cache it exists for.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.codegen import cbuild
from repro.core.driver import code_digests, compile_file
from repro.obs import ROOT

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples" / "programs")
    .glob("*.diderot"))


def test_three_compiles_in_two_orders_are_byte_identical():
    assert len(EXAMPLES) >= 5
    seen: dict[str, set] = {p.name: set() for p in EXAMPLES}
    for order in (EXAMPLES, EXAMPLES[::-1], EXAMPLES):
        for path in order:
            seen[path.name].add(code_digests(compile_file(str(path), cache=False)))
    assert {name: len(v) for name, v in seen.items()} == \
        {name: 1 for name in seen}


@pytest.mark.skipif(not cbuild.compiler_available(),
                    reason="needs cffi plus a C compiler on PATH")
def test_second_program_object_reuses_the_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
    compiles = []
    real_run = cbuild.subprocess.run

    def counting_run(cmd, *args, **kwargs):
        if "--version" not in cmd:
            compiles.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(cbuild.subprocess, "run", counting_run)
    path = next(p for p in EXAMPLES if p.name == "isocontour.diderot")

    def cache_counters() -> tuple:
        c = ROOT.snapshot()["counters"]
        return c.get("cgen.cache.hits", 0), c.get("cgen.cache.misses", 0)

    hits, misses = cache_counters()
    assert compile_file(str(path), cache=False)._native_artifacts()
    assert cache_counters() == (hits, misses + 1) and len(compiles) == 1

    # other compiles in between move the process-wide value counter
    compile_file(str(EXAMPLES[0]), cache=False)
    assert compile_file(str(path), cache=False)._native_artifacts()
    assert cache_counters() == (hits + 1, misses + 1) and len(compiles) == 1
