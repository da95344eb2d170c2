"""Ablation: strand-block size vs. parallel scaling (paper §6.4).

"With some experimentation, we found that the biggest limitation to
parallelism was the lock that controls access to the work-list.  With
smaller blocks of strands ... we saw a significant reduction in parallel
scaling."

We run one benchmark sequentially at several block sizes, collect the
block traces, and simulate 8-worker scaling with a lock cost that
reflects Python-level work-list overhead.  Expected shape: tiny blocks
lose to lock traffic *and* per-block dispatch overhead; huge blocks lose
to load imbalance (too few blocks for 8 workers); the paper's 4096 sits
in the sweet band for its workloads.
"""

from __future__ import annotations

from conftest import SCALE, record

from repro.obs import Obs
from repro.programs import lic2d
from repro.runtime.simsched import speedup_curve

BLOCK_SIZES = [32, 128, 512, 2048, 8192]

#: a lock cost reflecting our runtime's per-grab overhead (Python-level
#: list pop + closure dispatch, ~20 µs measured) rather than a raw mutex.
LOCK_OVERHEAD = 2e-5


def test_blocksize_ablation(benchmark):
    res = max(64, int(round(128 * SCALE)))
    speedups = {}
    seq_times = {}
    for bs in BLOCK_SIZES:
        prog = lic2d.make_program(precision="single", scale=res / 250.0,
                                  field_size=64)
        obs = Obs(detail=True)
        prog.run(block_size=bs, obs=obs)
        trace = obs.block_step_times()
        speedups[bs] = speedup_curve(trace, [8], LOCK_OVERHEAD)[8]
        seq_times[bs] = sum(sum(step) for step in trace)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    n = res * res
    print(f"\n\n§6.4 ablation — block size vs 8-worker scaling ({n} strands)")
    print(f"{'block size':>10}{'blocks':>8}{'seq (s)':>9}{'8P speedup':>12}")
    for bs in BLOCK_SIZES:
        print(f"{bs:>10}{-(-n // bs):>8}{seq_times[bs]:>9.3f}{speedups[bs]:>12.2f}")

    best = max(speedups.values())
    # huge blocks starve the workers (load imbalance)
    assert speedups[8192] < 0.7 * best, "few-block regime must scale worse"
    # the best configuration is an intermediate block size
    best_bs = max(speedups, key=speedups.get)
    assert 32 <= best_bs <= 2048
    record(
        "ablation_blocksize",
        {"block_sizes": BLOCK_SIZES, "speedups_8p": speedups,
         "seq_times": seq_times, "strands": n},
    )
