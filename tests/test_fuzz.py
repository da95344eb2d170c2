"""Differential fuzzing of the optimizer: random programs from
:mod:`repro.core.verify.fuzz`'s generator, compiled with and without
contraction and value numbering, must agree with each other and with the
HighIR interpreter (which bypasses probe synthesis, kernel expansion and
codegen).  Any disagreement is a compiler bug.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import OptOptions
from repro.core.verify.fuzz import (
    ProgramGen,
    _phantom,
    _run_scheduler,
    interpret_program,
)

IMG = _phantom()


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_three_way_differential(seed):
    src = ProgramGen(seed).program()
    opt = _run_scheduler(src, IMG, "seq")
    unopt = _run_scheduler(
        src, IMG, "seq", OptOptions(contraction=False, value_numbering=False))
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
    assert probed > 20
