"""The differential fuzzer: generator, N-way agreement, shrinking."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.codegen import cbuild
from repro.core.verify.fuzz import (
    ProgramGen,
    differential_check,
    fuzz,
    render_program,
    render_stmts,
    shrink_failure,
)


def _count_stmts(stmts) -> int:
    n = 0
    for s in stmts:
        if isinstance(s, str):
            n += 1
        else:
            _, _, then, els = s
            n += 1 + _count_stmts(then) + _count_stmts(els or [])
    return n


class TestGenerator:
    def test_deterministic(self):
        assert ProgramGen(5).program() == ProgramGen(5).program()

    def test_seeds_differ(self):
        assert ProgramGen(1).program() != ProgramGen(2).program()

    def test_generates_probes(self):
        probed = sum("F(" in ProgramGen(s).program() for s in range(40))
        assert probed > 20

    def test_generates_control_flow(self):
        branched = sum("if (" in ProgramGen(s).program() for s in range(40))
        assert branched > 15

    def test_tree_renders_to_same_program(self):
        g = ProgramGen(9)
        tree = g.program_tree()
        assert render_program(tree) == ProgramGen(9).program()


class TestDifferential:
    def test_fixed_seed_smoke(self):
        # the CI job runs 50 programs across all three schedulers; keep
        # the in-suite copy lighter but over the same generator
        report = fuzz(n=15, seed=0, schedulers=("seq", "thread"))
        assert report.ok, "\n".join(
            f"seed {f.seed}: {f.message}\n{f.minimized}" for f in report.failures
        )

    def test_process_scheduler_included(self):
        report = fuzz(n=4, seed=100)
        assert report.schedulers == ("seq", "thread", "process")
        assert report.ok

    def test_check_returns_none_on_agreement(self):
        src = ProgramGen(0).program()
        assert differential_check(src, schedulers=("seq",)) is None


class TestShrinker:
    def test_removes_irrelevant_statements(self):
        tree = [
            "x += 1.0;",
            "v = [2.0, 3.0];",
            ("if", "x < 0.0", ["x = 9.0;"], ["x -= 0.5;"]),
            "x *= 2.0;",
        ]
        # pretend the bug needs only the last statement
        small = shrink_failure(tree, lambda t: "x *= 2.0;" in render_stmts(t))
        assert _count_stmts(small) == 1

    def test_hoists_if_arms(self):
        tree = [("if", "x < 0.0", ["x = 1.0;", "x += 2.0;"], None)]
        small = shrink_failure(tree, lambda t: "x += 2.0;" in render_stmts(t))
        assert small == ["x += 2.0;"]

    def test_skips_reductions_that_stop_failing(self):
        tree = ["real t0 = 2.0;", "x = t0;"]
        # both statements are required: dropping either stops the "failure"
        # (stands in for a reduction that no longer compiles)
        pred = lambda t: "real t0 = 2.0;" in t and "x = t0;" in t
        assert shrink_failure(tree, pred) == tree

    def test_terminates_on_never_failing(self):
        tree = ProgramGen(3).program_tree()
        assert shrink_failure(tree, lambda t: False) == tree


class TestHarnessCatchesBugs:
    def test_scheduler_divergence_detected(self, monkeypatch):
        """Sanity for the oracle itself: a broken scheduler is flagged."""
        import repro.core.verify.fuzz as fz

        real = fz._run_scheduler

        def broken(src, image, scheduler, fuse=True, backend="numpy",
                   precision="double"):
            out = real(src, image, scheduler, fuse, backend, precision)
            if scheduler == "thread":
                out = {k: v + (1e-6 if v.dtype.kind == "f" else 1)
                       for k, v in out.items()}
            return out

        monkeypatch.setattr(fz, "_run_scheduler", broken)
        msg = fz.differential_check(ProgramGen(0).program(),
                                    schedulers=("seq", "thread"))
        assert msg is not None and "thread" in msg

    def test_interpreter_divergence_detected(self, monkeypatch):
        import repro.core.verify.fuzz as fz

        real = fz.interpret_program

        def broken(src, image):
            out = real(src, image)
            return {k: v + 1e-3 for k, v in out.items()}

        monkeypatch.setattr(fz, "interpret_program", broken)
        msg = fz.differential_check(ProgramGen(0).program(),
                                    schedulers=("seq",))
        assert msg is not None and "interpreter" in msg


    @pytest.mark.skipif(not cbuild.compiler_available(),
                        reason="needs a C compiler on PATH")
    def test_driving_divergence_detected(self, monkeypatch):
        """The C backend's second leg: a per-step run that drops a strand
        from one step's tally is told apart from the kernel-driven one."""
        import repro.core.verify.fuzz as fz

        src = ProgramGen(0).program()
        assert fz.driving_check(src) is None
        assert fz.driving_check(src, scheduler="thread") is None
        real = fz.step_tallies

        def lossy(res):
            steps, stable, died, rows = real(res)
            if res.metrics.counters.get("runtime.loop.per_step.on_step"):
                rows = [(s, a - 1, st, d) for s, a, st, d in rows]
            return steps, stable, died, rows

        monkeypatch.setattr(fz, "step_tallies", lossy)
        msg = fz.driving_check(src)
        assert msg is not None and "tallies" in msg


def test_cli_fuzz_exit_status(capsys):
    from repro.core.verify.__main__ import main

    assert main(["fuzz", "--n", "3", "--seed", "0",
                 "--schedulers", "seq,thread"]) == 0
    out = capsys.readouterr().out
    assert "all agree" in out
    # ... and says which LowIR ops its programs never contained: these
    # three seeds probe (gather) and compute no eigensystem (evecs)
    coverage = out.splitlines()[-1]
    emitted, never = coverage.split("; never: ")
    assert re.fullmatch(r"LowIR ops \d+/\d+ emitted", emitted)
    assert "evecs" in never.split() and "gather" not in never.split()


def test_cli_fuzz_flags(tmp_path, capsys):
    import json

    from repro.core.verify.__main__ import main

    metrics = tmp_path / "m.json"
    assert main(["--metrics-out", str(metrics), "fuzz", "--n", "1", "--seed",
                 "0", "--schedulers", "seq", "--no-shrink", "--no-fuse",
                 "--incremental", "--progress"]) == 0
    out = capsys.readouterr().out
    assert "[1/1] seed 0" in out
    assert "probe fusion off" in out and "incremental replay" in out
    counters = json.loads(metrics.read_text(encoding="utf-8"))["counters"]
    assert counters["run.count"] > 0


@pytest.mark.skipif(not cbuild.compiler_available(),
                    reason="needs a C compiler on PATH")
def test_cli_fuzz_c_defaults_to_seq_and_thread(capsys):
    """The process pool runs NumPy only, so ``--backend c`` fuzzes the
    schedulers that run C."""
    from repro.core.verify.__main__ import main

    assert main(["fuzz", "--n", "1", "--seed", "0", "--backend", "c",
                 "--single"]) == 0
    assert "schedulers seq/thread, backend c, single precision: all agree" \
        in capsys.readouterr().out


def test_outputs_are_real_arrays():
    from repro.core.verify.fuzz import _phantom, _run_scheduler

    out = _run_scheduler(ProgramGen(2).program(), _phantom(), "seq")
    assert set(out) == {"x", "v"}
    assert all(isinstance(v, np.ndarray) for v in out.values())
