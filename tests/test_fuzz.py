"""Differential fuzzing of the compiler.

Draws random well-typed Diderot programs — arithmetic, tensors,
conditionals, nested control flow, probes, early exits, state copies and
swaps — and checks that three executions agree:

1. the fully optimized compiled program (contraction + value numbering),
2. the unoptimized compiled program,
3. the HighIR reference interpreter driven by a hand-rolled BSP loop
   (which bypasses probe synthesis, kernel expansion, and codegen).

The generator and the interpreter's loop are :mod:`repro.core.verify.fuzz`'s,
the ones ``python -m repro.core.verify fuzz`` runs.

Any disagreement is a compiler bug: either an optimization changed
semantics or the lowering half diverged from the reference semantics.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import OptOptions, compile_program
from repro.core.verify.fuzz import ProgramGen, interpret_program
from repro.data import portrait_phantom

IMG = portrait_phantom(48)


def run_compiled(src: str, optimize: OptOptions) -> dict[str, np.ndarray]:
    prog = compile_program(src, optimize=optimize)
    prog.bind_image("img", IMG)
    res = prog.run(max_steps=100)
    return res.outputs


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_three_way_differential(seed):
    src = ProgramGen(seed).program()
    opt = run_compiled(src, OptOptions())
    unopt = run_compiled(
        src, OptOptions(contraction=False, value_numbering=False)
    )
    ref = interpret_program(src, IMG)
    for name in opt:
        a, b, c = opt[name], unopt[name], ref[name]
        np.testing.assert_allclose(
            a, b, rtol=1e-12, atol=1e-12,
            err_msg=f"optimized vs unoptimized disagree on {name!r}\n{src}",
        )
        np.testing.assert_allclose(
            a, c, rtol=1e-9, atol=1e-10,
            err_msg=f"compiled vs interpreter disagree on {name!r}\n{src}",
        )


def test_known_seed_exercises_probes():
    """Sanity: the generator actually produces probe-containing programs."""
    probed = sum("F(" in ProgramGen(s).program() for s in range(50))
    assert probed > 25
