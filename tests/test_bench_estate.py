"""One benchmark estate: docs cite what exists, EXPERIMENTS.md cannot drift.

Wall-clock numbers live in one place — the perf ledger's committed output
under ``benchmarks/reference/`` — and EXPERIMENTS.md is rendered from it.
These tests keep that true: no document or source file names a benchmark
file that is gone, the committed page is exactly what the renderer prints,
and the reference documents are well-formed, failure-free ledger output.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"

#: where a benchmark file may be named: the three documents and the sources
CITING = {
    "README.md": [ROOT / "README.md"],
    "DESIGN.md": [ROOT / "DESIGN.md"],
    "EXPERIMENTS.md": [ROOT / "EXPERIMENTS.md"],
    "src": sorted((ROOT / "src").rglob("*.py")),
}


@pytest.fixture(scope="module")
def renderer():
    """``benchmarks/make_experiments_md.py`` as a module (it puts
    ``benchmarks/`` on ``sys.path`` to reach the ledger package; undone)."""
    before = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "make_experiments_md", BENCH / "make_experiments_md.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path[:] = before


def _cited(text: str) -> set[str]:
    """Repo-relative paths (globs allowed) of every benchmark file named."""
    paths = {m.rstrip(".,:;") for m in re.findall(r"benchmarks/[\w./*-]*", text)}
    paths |= set(re.findall(r"\bBENCH_\w+\.json", text))
    # a bare script name, with or without ``.py`` (``.bench_build`` is not one)
    paths |= {f"benchmarks/{name}.py"
              for name in re.findall(r"(?<![\w./])bench_[a-z0-9_]+", text)}
    return paths


@pytest.mark.parametrize("where", CITING)
def test_cited_benchmark_files_exist(where):
    missing = sorted((str(path.relative_to(ROOT)), cited)
                     for path in CITING[where]
                     for cited in _cited(path.read_text(encoding="utf-8"))
                     if not any(ROOT.glob(cited)))
    assert not missing, "benchmark files that are cited but gone"


def test_experiments_md_is_the_rendered_reference(renderer):
    committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert renderer.render() == committed, \
        "EXPERIMENTS.md is stale: run python benchmarks/make_experiments_md.py"


@pytest.mark.parametrize("name", ["ledger.json", "ledger-traced.json"])
def test_reference_documents_are_clean_ledger_output(renderer, name):
    spec = renderer.spec
    doc = json.loads((BENCH / "reference" / name).read_text(encoding="utf-8"))
    assert doc["schema"] == spec.SCHEMA
    assert {r["workload"] for r in doc["runs"]} == set(spec.WORKLOADS)
    assert all(r["traced"] == (name == "ledger-traced.json") for r in doc["runs"])
    assert [r["failed"] for r in doc["runs"]] == [0] * len(doc["runs"])
    assert all(r["attempted"] > 0 and r["size"] == "full" for r in doc["runs"])
