"""``real → int`` of NaN, ±inf and out-of-range reals: one defined rule.

A bare C cast is undefined there and NumPy's ``astype`` warns, while
Python's ``int`` raises; the op gives ``INT64_MIN`` instead, on both
backends, whether the real is per-lane, unlaned (computed from globals
only) or a constant the optimizer folds.  In-range reals truncate toward
zero as before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codegen import cbuild
from repro.core.driver import compile_program
from repro.runtime import ops as rt

INT64_MIN = np.iinfo(np.int64).min

# the real is the same on every lane: computed from an input at run time
UNLANED = """
    input real a = 0.0;
    strand S (int i) {
        output int nan = 1;
        output int pinf = 1;
        output int big = 1;
        output int keep = 1;
        update {
            nan = int(1e308*10.0 * a);
            pinf = int(1e308*10.0 + a);
            big = int(-1e30 + a);
            keep = int(-2.75 + a);
            stabilize;
        }
    }
    initially [ S(i) | i in 0 .. 1 ];
"""

# constants only: contraction folds every cast
FOLDED = """
    strand S (int i) {
        output int nan = 1;
        output int ninf = 1;
        output int big = 1;
        output int keep = 1;
        update {
            nan = int(1e308*10.0 - 1e308*10.0);
            ninf = int(-(1e308*10.0));
            big = int(9.3e18);
            keep = int(2.75);
            stabilize;
        }
    }
    initially [ S(i) | i in 0 .. 1 ];
"""

# per-lane reals: lane 0 NaN, lane 1 +inf, lane 2 -inf; the bounds of
# int64's range on the fourth and fifth
LANED = """
    strand S (int i) {
        output int k = 1;
        output int keep = 1;
        update {
            real x = 1e308*10.0 * real(i - 1);
            if (i == 0) x = 0.0 * x;
            if (i == 2) x = -x;
            if (i == 3) x = -9223372036854775808.0;
            if (i == 4) x = 9223372036854775808.0;
            k = int(x);
            keep = int(real(i) - 2.5);
            stabilize;
        }
    }
    initially [ S(i) | i in 0 .. 4 ];
"""

CASES = {
    "unlaned": (UNLANED, {"nan": INT64_MIN, "pinf": INT64_MIN, "big": INT64_MIN,
                          "keep": -2}),
    "folded": (FOLDED, {"nan": INT64_MIN, "ninf": INT64_MIN, "big": INT64_MIN,
                        "keep": 2}),
    "laned": (LANED, {"k": [INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN],
                      "keep": [-2, -1, 0, 0, 1]}),
}

BACKENDS = [
    "numpy",
    pytest.param("c", marks=pytest.mark.skipif(
        not cbuild.compiler_available(),
        reason="native backend needs a C compiler on PATH")),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_both_backends(case, backend):
    src, want = CASES[case]
    out = compile_program(src, check=True).run(backend=backend).outputs
    n = len(out["keep"])
    for name, value in want.items():
        np.testing.assert_array_equal(out[name], np.broadcast_to(value, (n,)), err_msg=name)


def test_the_folded_program_casts_nothing_at_run_time():
    """Every cast of FOLDED is a constant in the generated code."""
    prog = compile_program(FOLDED)
    assert "rt.to_int" not in prog.generated_source


def test_runtime_op_on_scalars_and_arrays():
    for v in (np.nan, np.inf, -np.inf, 2.0**63, -2.0**64):
        assert rt.to_int(v) == INT64_MIN
        assert rt.to_int(np.float32(v)) == INT64_MIN
    assert rt.to_int(1e300) == INT64_MIN
    assert rt.to_int(-2.0**63) == INT64_MIN
    assert rt.to_int(-3.9) == -3 and rt.to_int(np.float64(3.9)) == 3
    got = rt.to_int(np.array([np.nan, 2.5, -2.5, np.inf, 2.0**63, -2.0**63], np.float32))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, [INT64_MIN, 2, -2, INT64_MIN, INT64_MIN, INT64_MIN])
