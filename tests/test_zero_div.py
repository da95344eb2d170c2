"""Integer division/modulo by zero: the predicated-execution contract.

Generated code runs both arms of every ``if`` and selects results with
the φ masks, so a zero divisor can legitimately appear on a *dead* lane
(one the guard excluded).  The contract, enforced by
:func:`repro.runtime.ops.idiv` / :func:`~repro.runtime.ops.imod`:

* zero divisor on any **live** lane → :class:`~repro.errors.RuntimeErrorD`
  (deterministic, instead of NumPy's warning + garbage 0);
* zero divisor only on **dead** lanes → sanitized to 0 locally; the value
  never survives the φ-select.

Both the generated code and the HighIR interpreter thread the same lane
masks, so the differential tests below must agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codegen import cbuild
from repro.core.driver import compile_program
from repro.errors import RuntimeErrorD
from repro.obs import Obs
from repro.runtime import ops as rt

GUARDED = """
    strand S (int i) {
        output int q = 0;
        update {
            int d = i % 3;
            if (d != 0) q = i / d;
            else q = -i;
            stabilize;
        }
    }
    initially [ S(i) | i in 0 .. 8 ];
"""

UNGUARDED = """
    strand S (int i) {
        output int q = 0;
        update { q = i / (i % 3); stabilize; }
    }
    initially [ S(i) | i in 0 .. 8 ];
"""

NESTED = """
    strand S (int i) {
        output int q = 0;
        update {
            if (i >= 3) {
                int d = i - 3;
                if (d != 0) q = 100 / d;
            } else {
                q = 7;
            }
            stabilize;
        }
    }
    initially [ S(i) | i in 0 .. 8 ];
"""


class TestOps:
    def test_idiv_live_zero_raises(self):
        with pytest.raises(RuntimeErrorD, match="division by zero"):
            rt.idiv(np.array([4, 2]), np.array([2, 0]))

    def test_imod_live_zero_raises(self):
        with pytest.raises(RuntimeErrorD, match="division by zero"):
            rt.imod(np.array([4, 2]), np.array([2, 0]))

    def test_idiv_dead_zero_sanitized(self):
        live = np.array([True, False])
        out = rt.idiv(np.array([4, 2]), np.array([2, 0]), live=live)
        assert out[0] == 2  # dead lane's value is unspecified but finite

    def test_imod_dead_zero_sanitized(self):
        live = np.array([False, True])
        out = rt.imod(np.array([7, 7]), np.array([0, 4]), live=live)
        assert out[1] == 3

    def test_live_zero_among_dead_still_raises(self):
        live = np.array([True, True, False])
        with pytest.raises(RuntimeErrorD):
            rt.idiv(np.array([1, 1, 1]), np.array([1, 0, 0]), live=live)

    def test_scalar_divisors(self):
        assert rt.idiv(np.array([9, 4]), 2).tolist() == [4, 2]
        with pytest.raises(RuntimeErrorD):
            rt.idiv(np.array([9, 4]), 0)

    def test_truncation_semantics_preserved(self):
        # Diderot int division is C-style: truncation toward zero
        assert rt.idiv(np.array([-7]), np.array([2]))[0] == -3
        assert rt.imod(np.array([-7]), np.array([2]))[0] == -1


class TestCompiled:
    def _interp(self, src):
        from repro.core.verify.fuzz import interpret_program

        return interpret_program(src.replace("0 .. 8", "0 .. 11"), image=None)

    def test_guarded_zero_divisor_runs(self):
        prog = compile_program(GUARDED)
        out = prog.run(max_steps=2).outputs["q"]
        # i=0,3,6 take the else arm; the rest divide by i%3
        assert out.tolist() == [0, 1, 1, -3, 4, 2, -6, 7, 4]

    def test_nested_guard_zero_divisor_runs(self):
        prog = compile_program(NESTED)
        out = prog.run(max_steps=2).outputs["q"]
        assert out.tolist() == [7, 7, 7, 0, 100, 50, 33, 25, 20]

    def test_unguarded_zero_divisor_raises(self):
        prog = compile_program(UNGUARDED)
        with pytest.raises(RuntimeErrorD, match="division by zero"):
            prog.run(max_steps=2)

    def test_interpreter_agrees_on_guarded(self):
        # same source, 12 strands (interpret_program's BSP loop is fixed at 12)
        src = GUARDED.replace("0 .. 8", "0 .. 11")
        prog = compile_program(src)
        compiled = prog.run(max_steps=2).outputs["q"]
        ref = self._interp(GUARDED)["q"]
        assert np.array_equal(compiled, ref)

    def test_interpreter_raises_on_unguarded(self):
        with pytest.raises(RuntimeErrorD, match="division by zero"):
            self._interp(UNGUARDED)

    def test_all_schedulers_agree_on_guarded(self):
        outs = []
        for scheduler, workers in (("seq", 1), ("thread", 2), ("process", 2)):
            prog = compile_program(GUARDED)
            res = prog.run(max_steps=2, scheduler=scheduler, workers=workers,
                           block_size=4)
            outs.append(res.outputs["q"])
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])


#: the divisor of strand 1 — block 0 at block size 4 — reaches zero at
#: step 3; every other strand, and strand 1 before that, divides cleanly
LATE_ZERO = """
    strand S (int i) {
        output int q = 1000;
        int n = 0;
        update {
            int d = 7;
            if (i == 1) d = 3 - n;
            q = q / d;
            n += 1;
            if (n >= 6) stabilize;
        }
    }
    initially [ S(i) | i in 0 .. 11 ];
"""


@pytest.mark.skipif(not cbuild.compiler_available(),
                    reason="needs a C compiler on PATH")
class TestNativeStepLoop:
    """The fault contract survives moving the step loop into the kernel:
    a zero divisor met deep inside a block's run still surfaces."""

    @pytest.mark.parametrize("scheduler,workers", [("seq", 1), ("thread", 2)])
    def test_zero_divisor_at_step_three_raises(self, scheduler, workers):
        prog = compile_program(LATE_ZERO)
        kw = dict(backend="c", scheduler=scheduler, workers=workers,
                  block_size=4)
        # three steps are fine, under either driving
        ok = prog.run(max_steps=3, **kw)
        assert ok.metrics.counters["runtime.loop.kernel"] == 1
        assert ok.steps == 3 and ok.outputs["q"][1] == 1000 // 3 // 2 // 1
        with Obs("session") as reg:
            with pytest.raises(RuntimeErrorD, match="division by zero"):
                prog.run(**kw)
        assert reg.counters["runtime.loop.kernel"] == 1
        with pytest.raises(RuntimeErrorD, match="division by zero"):
            prog.run(on_step=lambda ev: None, **kw)
        with pytest.raises(RuntimeErrorD, match="division by zero"):
            prog.run(backend="numpy", block_size=4)
