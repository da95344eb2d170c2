"""The command lines load only what they run.

* ``--help`` of each ``python -m`` entry point imports neither NumPy nor
  the compiler driver;
* a warm ``python -m repro ... --backend c --compile-cache`` run (both
  on-disk caches primed) imports no compiler pass, opens no pass span,
  emits no C and runs no ``cc``, and writes what a cold run writes;
* that run loads its kernel through ctypes: it imports neither ``cffi``
  nor ``pycparser``;
* its compile-cache entry unpickles without the front end's AST or the
  field normalizer;
* a run imports the exporters only for the report flags that need them;
* every name the perf ledger wraps by ``vars(module)`` in its traced CLI
  leg is a real attribute of its owner, not a lazy one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.codegen import cbuild

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples" / "programs"

#: what a compile-cache hit must never load
COMPILER = ("repro.core.driver", "repro.core.syntax.parser",
            "repro.core.syntax.lexer", "repro.core.ty.check",
            "repro.core.xform.contract", "repro.core.xform.value_numbering",
            "repro.core.xform.to_mid", "repro.core.xform.probe_fuse",
            "repro.core.xform.to_low", "repro.core.codegen.cgen",
            "repro.core.verify.validate")

#: what unpickling a compile-cache entry must not load either
FRONT_END = ("repro.core.syntax", "repro.core.syntax.ast",
             "repro.core.syntax.source", "repro.core.xform.normalize")

#: runs ``module`` as ``python -m`` would and prints what it imported
_RUN_MODULE = """\
import contextlib, io, json, runpy, sys
sys.argv = [{module!r}, *{args!r}]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module({module!r}, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""


def _run(module: str, args: list[str], env: dict) -> tuple[int, set[str]]:
    out = subprocess.run(
        [sys.executable, "-c", _RUN_MODULE.format(module=module, args=args)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(out.stdout.splitlines()[-1])
    return doc["code"], set(doc["modules"])


def _env(**extra) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **extra)


@pytest.mark.parametrize("module", ["repro", "repro.serve", "repro.obs",
                                    "repro.core.verify"])
def test_help_loads_neither_numpy_nor_the_compiler(module):
    code, modules = _run(module, ["--help"], _env())
    assert code == 0
    assert "numpy" not in modules and "repro.core.driver" not in modules


requires_cc = pytest.mark.skipif(not cbuild.compiler_available(),
                                 reason="needs a C compiler on PATH")


@pytest.fixture(scope="module")
def warm_cli(tmp_path_factory):
    """A cold, then a warm ``--backend c --compile-cache`` CLI run:
    ``(directory, warm run's modules, cold counters, warm counters)``."""
    tmp_path = tmp_path_factory.mktemp("warm-cli")
    env = _env(REPRO_CGEN_CACHE=str(tmp_path / "cgen"),
               REPRO_COMPILE_CACHE_DIR=str(tmp_path / "compile"))
    args = [str(EXAMPLES / "vr_lite.diderot"), "--backend", "c",
            "--compile-cache", "--input", "imgResU=24", "--input", "imgResV=24"]

    def run(tag: str) -> tuple[set[str], dict]:
        metrics = tmp_path / f"{tag}.json"
        code, modules = _run("repro", [*args, "--out", str(tmp_path / tag),
                                       "--metrics-out", str(metrics)], env)
        assert code == 0
        return modules, json.loads(metrics.read_text(encoding="utf-8"))["counters"]

    _, cold = run("cold")  # fills both caches
    modules, warm = run("warm")
    return tmp_path, modules, cold, warm


@requires_cc
def test_warm_cli_runs_no_compiler_code(warm_cli):
    tmp_path, modules, cold, warm = warm_cli
    assert cold["compile_cache.misses"] == 1 and cold["cgen.cache.misses"] == 1
    assert sorted(modules.intersection(COMPILER)) == []
    assert [k for k in warm if k.startswith("pass.")] == []
    assert warm["compile_cache.hits"] == 1 and warm["cgen.cache.hits"] == 1
    assert warm.get("cgen.cache.misses", 0) == 0
    assert (tmp_path / "warm-gray.nrrd").read_bytes() == \
        (tmp_path / "cold-gray.nrrd").read_bytes()


@requires_cc
def test_warm_cli_unpickles_no_front_end(warm_cli):
    _, modules, _, warm = warm_cli
    assert warm["compile_cache.hits"] == 1
    assert sorted(modules.intersection(FRONT_END)) == []
    # --metrics-out writes JSON; no exporter is needed for it
    assert "repro.obs.export" not in modules


def test_run_without_report_flags_imports_no_exporter(tmp_path):
    code, modules = _run("repro", [
        str(EXAMPLES / "isocontour.diderot"), "--input", "resU=8",
        "--input", "resV=8", "--out", str(tmp_path / "iso")], _env())
    assert code == 0
    assert "repro.obs.export" not in modules


@requires_cc
def test_warm_cli_loads_the_kernel_without_cffi(warm_cli):
    _, modules, _, warm = warm_cli
    assert warm["cgen.cache.hits"] == 1  # the kernel was loaded
    assert sorted(modules.intersection({"cffi", "pycparser"})) == []


def test_ledger_cli_targets_are_real_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from ledger.cli_leg import _targets

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in _targets() if attr not in vars(owner)]
    assert missing == []
