"""The compiler and command-line half of ``front-door``: what a user at a
shell waits for.

Rows: ``compile_ms`` — source → generated Python and C translation unit
in-process, summed over the six example programs; ``start_ms`` — ``python
-m repro --help``; ``warm_ms`` — ``python -m repro vr_lite.diderot --backend
c --compile-cache`` with both caches primed.  The set-up primes them: one
run of the same command from an empty compile cache.  A cold ``cc`` takes
seconds and cannot be repeated often enough in a run to be a steady row;
it is the layer metric ``core.codegen.cbuild_ms``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from ledger import inputs, trace
from ledger.harness import Checks, best_sum, median, timed, timing
from ledger.spec import EXAMPLES


def _compile_once(source: str):
    """Source text → generated Python and C: every compiler layer once."""
    from repro.core.codegen import cgen
    from repro.core.driver import compile_to_source

    py, hp, stats = compile_to_source(source, cache=False)
    c_source, _plan = cgen.generate_c_module(hp, single=False)
    return py, c_source, stats


def _read_outputs(prefix: Path) -> dict[str, np.ndarray]:
    from repro.nrrd import read_nrrd

    return {p.name[len(prefix.name) + 1:-5]: read_nrrd(str(p)).data
            for p in sorted(prefix.parent.glob(prefix.name + "-*.nrrd"))}


class CliLeg:
    def __init__(self, seed: int, cfg: dict, run_dir: Path, checks: Checks):
        self.seed, self.run_dir, self.checks = seed, run_dir, checks
        self.program, self.res = cfg["program"], cfg["res"]
        self.sources = {p.stem: p.read_text(encoding="utf-8")
                        for p in sorted(EXAMPLES.glob("*.diderot"))}
        self.cache_dir = run_dir / "cli-compile-cache"
        # native artifacts come from the checkout's shared cgen directory
        self.env = {**os.environ, "REPRO_COMPILE_CACHE_DIR": str(self.cache_dir)}
        self.samples: dict = {"compile": {name: [] for name in self.sources},
                              "start": [], "warm": []}

    def _args(self, out_prefix: Path) -> list[str]:
        args = [str(EXAMPLES / f"{self.program}.diderot"), "--backend", "c",
                "--compile-cache", "--out", str(out_prefix)]
        for name, v in inputs.paper_inputs(self.seed, self.program, self.res).items():
            text = "[" + ",".join(repr(float(x)) for x in v) + "]" if isinstance(v, list) \
                else repr(v)
            args += ["--input", f"{name}={text}"]
        return args

    def _cli(self, tag: str) -> float:
        cmd = [sys.executable, "-m", "repro", *self._args(self.run_dir / tag)]
        proc, dt = timed(lambda: subprocess.run(
            cmd, env=self.env, cwd=self.run_dir, capture_output=True, text=True,
            timeout=120))
        self.checks.check(proc.returncode == 0 and "strands" in proc.stdout,
                          f"{tag} CLI run failed: {proc.stderr.strip()[-200:]}")
        return dt

    def set_up(self) -> None:
        """Prime the caches: the command once from an empty compile cache."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self._cli("cold")

    def round(self) -> None:
        for name, src in self.sources.items():
            self.samples["compile"][name].append(timed(lambda s=src: _compile_once(s))[1])
        help_cmd = [sys.executable, "-m", "repro", "--help"]
        self.samples["start"].append(timed(lambda: subprocess.run(
            help_cmd, env=self.env, capture_output=True, timeout=60))[1])
        self.samples["warm"].append(self._cli("warm"))

    def rows(self) -> dict:
        return {"compile_ms": best_sum(self.samples["compile"]),
                "start_ms": timing(self.samples["start"]),
                "warm_ms": timing(self.samples["warm"])}

    def verify(self) -> None:
        """Warm == cold bit for bit, and cold matches an in-process
        NumPy-backend run of the same program and inputs."""
        from repro.core.driver import compile_file

        cold = _read_outputs(self.run_dir / "cold")
        self.checks.identical(_read_outputs(self.run_dir / "warm"), cold,
                              "warm CLI vs cold CLI")
        prog = compile_file(str(EXAMPLES / f"{self.program}.diderot"))
        inputs.apply(prog, inputs.paper_inputs(self.seed, self.program, self.res))
        ref = prog.run(backend="numpy").outputs
        self.checks.check(ref.keys() == cold.keys(), f"CLI wrote {sorted(cold)}")
        for name in ref.keys() & cold.keys():
            self.checks.close_to(cold[name], ref[name], 1e-10, f"{name}: CLI vs NumPy")

    # -- traced: the same CLI entry point and compiler, in this process --------

    def traced(self, repeats: int) -> tuple[dict, trace.OpLedger]:
        ledger = trace.OpLedger(trace.Recorder())
        with trace.wrapped(ledger.rec, _targets()):
            layers, compile_ms = self._traced_compile(ledger, repeats)
            layers.update(self._traced_cli(ledger))

        def python_wall(code: str) -> float:
            return median([timed(lambda: subprocess.run(
                [sys.executable, "-c", code], capture_output=True, timeout=60))[1]
                for _ in range(3)])

        layers["cli.import_ms"] = max(
            0.0, python_wall("import repro.__main__") - python_wall("pass")) * 1e3
        untraced = sum(median(v) for v in self.samples["compile"].values()) * 1e3
        layers["trace.overhead_ratio"] = compile_ms / untraced
        return layers, ledger

    def _traced_compile(self, ledger: trace.OpLedger, repeats: int) -> tuple[dict, float]:
        """Per pass, the sum over programs of its median self time (ms); also
        exact IR and code-size counts, and the traced ``compile_ms``."""
        layers: dict[str, float] = {}
        compiled, total = [], 0.0
        for src in self.sources.values():
            per_repeat: list[dict] = [{} for _ in range(repeats)]
            outs = [ledger.op(lambda s=src: _compile_once(s), into) for into in per_repeat]
            compiled.append(outs[0][0])
            total += median([dt for _, dt, _ in outs])
            for name in per_repeat[0]:
                layers[name] = layers.get(name, 0.0) + \
                    median([r.get(name, 0.0) for r in per_repeat]) * 1e3
        for ir in ("high", "mid", "low"):
            layers[f"core.ir.{ir}_instrs"] = sum(
                sum(getattr(stats, f"{ir}_instrs").values()) for _, _, stats in compiled)
        layers["core.xform.vn_removed"] = sum(
            sum(stats.vn_removed.values()) for _, _, stats in compiled)
        layers["core.codegen.py_bytes"] = sum(len(py.encode()) for py, _, _ in compiled)
        layers["core.codegen.c_bytes"] = sum(len(c.encode()) for _, c, _ in compiled)
        return layers, total * 1e3

    def _traced_cli(self, ledger: trace.OpLedger) -> dict:
        """The CLI's ``main()`` in this process: cold (empty private caches,
        so ``cc`` runs), then warm; layer times in ms."""
        import repro.__main__ as cli

        cgen_dir = self.run_dir / "traced-cgen"
        legs: dict[str, dict] = {"traced-cold": {}, "traced-warm": {}}
        private = {"REPRO_CGEN_CACHE": str(cgen_dir),
                   "REPRO_COMPILE_CACHE_DIR": str(self.run_dir / "traced-compile-cache")}
        with mock.patch.dict(os.environ, private):
            for tag, into in legs.items():
                with contextlib.redirect_stdout(io.StringIO()):
                    code, _, _ = ledger.op(
                        lambda t=tag: cli.main(self._args(self.run_dir / t)), into)
                self.checks.check(code == 0, f"{tag} CLI run exited {code}")
        self.checks.identical(_read_outputs(self.run_dir / "traced-warm"),
                              _read_outputs(self.run_dir / "traced-cold"),
                              "traced warm vs cold")
        cold, warm = legs["traced-cold"], legs["traced-warm"]
        layers = {
            "core.codegen.cbuild_ms": cold.get("cbuild", 0.0),
            "core.codegen.cbuild_hit_ms": warm.get("cbuild", 0.0),
            "serve.cache.store_ms": cold.get("serve.cache.store_ms", 0.0),
        }
        for name in ("serve.cache.fingerprint_ms", "serve.cache.load_ms",
                     "nrrd.read_ms", "nrrd.write_ms"):
            layers[name] = warm.get(name, 0.0)
        layers = {k: v * 1e3 for k, v in layers.items()}
        layers["core.codegen.so_bytes"] = sum(
            f.stat().st_size for f in cgen_dir.glob("*.so"))
        return layers


_PASSES = (
    ("parse_program", "core.syntax.parse_ms"),
    ("check_program", "core.ty.check_ms"),
    ("contract", "core.xform.contract_ms"),
    ("value_number", "core.xform.value_numbering_ms"),
    ("to_mid", "core.xform.to_mid_ms"),
    ("probe_fuse", "core.xform.probe_fuse_ms"),
    ("to_low", "core.xform.to_low_ms"),
    ("generate_module", "core.codegen.pygen_ms"),
)


def _targets() -> list:
    import repro.nrrd
    from repro.core import driver
    from repro.core.codegen import cbuild, cgen
    from repro.core.xform.to_high import HighBuilder
    from repro.runtime import program
    from repro.serve import cache

    return [(driver, attr, name) for attr, name in _PASSES] + [
        (HighBuilder, "build", "core.xform.to_high_ms"),
        (driver, "compile_to_source", "core.driver.self_ms"),
        (cgen, "generate_c_module", "core.codegen.cgen_ms"),
        (cbuild, "build", "cbuild"),
        (cache, "fingerprint", "serve.cache.fingerprint_ms"),
        (cache, "load", "serve.cache.load_ms"),
        (cache, "store", "serve.cache.store_ms"),
        (program, "read_nrrd", "nrrd.read_ms"),
        (repro.nrrd, "write_nrrd", "nrrd.write_ms"),
        (program.Program, "run", "runtime.program.run"),
    ]
