"""Ablation: the §5.4 domain-specific optimizations, on vs off.

The paper claims contraction + value numbering yield domain-specific wins
a general-purpose compiler would miss: shared convolutions between F and
∇F probes at one position, and Hessian symmetry.  We compile illust-vr —
which probes F, ∇F, and ∇⊗∇F at every ray step — both ways and compare
(a) MidIR instruction counts and (b) measured run time.
"""

from __future__ import annotations

from conftest import SCALE, record

from repro.core.driver import OptOptions, compile_program
from repro.programs import illust_vr


def _build(vn: bool):
    prog = illust_vr.make_program(
        precision="single",
        scale=max(0.12, 0.28 * SCALE),
        volume_size=48,
    )
    # recompile with explicit optimization flags
    prog2 = compile_program(illust_vr.SOURCE, precision="single",
                            optimize=OptOptions(value_numbering=vn))
    # carry over inputs/bindings from the configured program
    prog2._inputs = dict(prog._inputs)
    prog2._bound_images = dict(prog._bound_images)
    return prog2


def test_value_numbering_ablation(benchmark):
    runs = {}
    stats = {}
    for vn in (True, False):
        prog = _build(vn)
        res = prog.run()
        runs[vn] = res.wall_time
        stats[vn] = prog.stats
        assert "rgb" in res.outputs
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    mid_with = stats[True].mid_instrs["update"]
    mid_without = stats[False].mid_instrs["update"]
    removed = stats[True].vn_removed["update"]
    print("\n\n§5.4 ablation — value numbering on illust-vr's update method")
    print(f"MidIR instructions: {mid_without} without VN → {mid_with} with VN "
          f"({removed} redundancies removed across levels)")
    print(f"run time: {runs[False]:.2f}s without VN → {runs[True]:.2f}s with VN "
          f"({runs[False] / runs[True]:.2f}x)")

    # the probes of F / ∇F / ∇⊗∇F at one position share heavily
    assert mid_with < 0.7 * mid_without
    assert removed > 20
    # and it should actually run faster (shared gathers and weights)
    assert runs[True] < runs[False] * 1.02

    record(
        "ablation_valnum",
        {
            "mid_instrs_with_vn": mid_with,
            "mid_instrs_without_vn": mid_without,
            "vn_removed": removed,
            "time_with_vn": runs[True],
            "time_without_vn": runs[False],
        },
    )
