"""What the ledger measures: workloads, metric names, units, sizes.

``BENCHMARK.json`` at the repo root is generated from this module
(``python -m ledger.spec`` prints it); a self-test keeps the two equal.

Every workload prints the same eight end-to-end metrics.  Six of them are
*rows*: ``row1_ms`` … ``row6_ms`` carry the workload's own six operations,
named in :data:`ROWS` (``row1_ms`` on ``paper-native`` is the vr_lite run,
on ``front-door`` the in-process compile, and so on).  Result documents
and the printed tables use the row's own name; only the contract's
last-line JSON uses the slot name.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SCHEMA = 1

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
EXAMPLES = ROOT / "examples" / "programs"

PROGRAMS = ("vr_lite", "illust_vr", "lic2d", "ridge3d")

WORKLOADS = {
    "paper-native": "paper programs + checkpointed probe program on the compiled-C "
                    "backend, seq: native kernel does most of the work, Program.run and "
                    "runtime.incremental the rest; rows as the README's table",
    "paper-numpy": "same six operations on the NumPy backend at reduced size: "
                   "runtime.ops does the work, cgen/cbuild/native none (bypass for "
                   "native-kernel changes); rows as paper-native",
    "front-door": "everything but the strands: in-process compiles, CLI subprocesses "
                  "on warm caches, a real serve subprocess under open-loop bursts; "
                  "rows compile start warm probe_p50 probe_p90 run",
}

_PAPER_ROWS = tuple(f"{p}_ms" for p in PROGRAMS) + ("rerun_ms", "update_5pct_ms")

#: workload -> the six row metrics it reports, in slot order
ROWS = {
    "paper-native": _PAPER_ROWS,
    "paper-numpy": _PAPER_ROWS,
    "front-door": ("compile_ms", "start_ms", "warm_ms", "probe_p50_ms",
                   "probe_p90_ms", "run_ms"),
}

SLOTS = tuple(f"row{i}_ms" for i in range(1, 7))

#: (name, unit, better, bound).  The row bound is the contract's maximum:
#: medians of back-to-back runs on the shared sandbox spread by 5-11 %
#: (README "Sizing, noise"), and a bound has to sit well clear of that.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
) + tuple((slot, "ms", "lower", 0.25) for slot in SLOTS)

RUN_SECONDS = 30


def _layers() -> list[tuple[str, str, str]]:
    out: list[tuple[str, str, str]] = []

    def add(names, unit, better="lower"):
        out.extend((n, unit, better) for n in names)

    add(["core.syntax.parse_ms", "core.ty.check_ms"], "ms")
    add([f"core.xform.{p}_ms" for p in ("to_high", "contract", "value_numbering",
                                         "to_mid", "probe_fuse", "to_low")], "ms")
    add(["core.codegen.pygen_ms", "core.codegen.cgen_ms", "core.driver.self_ms"], "ms")
    add(["core.ir.high_instrs", "core.ir.mid_instrs", "core.ir.low_instrs"], "count")
    add(["core.xform.vn_removed"], "count", "higher")
    add(["core.codegen.py_bytes", "core.codegen.c_bytes", "core.codegen.so_bytes"],
        "bytes")
    add(["core.codegen.cbuild_ms", "core.codegen.cbuild_hit_ms",
         "serve.cache.fingerprint_ms", "serve.cache.load_ms", "serve.cache.store_ms",
         "cli.import_ms", "nrrd.read_ms", "nrrd.write_ms"], "ms")
    for p in PROGRAMS:
        add([f"runtime.native.kernel_s.{p}", f"runtime.native.bind_s.{p}",
             f"runtime.program.self_s.{p}", f"runtime.scheduler.step_s.{p}",
             f"runtime.native.single_s.{p}"], "s")
        add([f"runtime.program.steps.{p}", f"runtime.program.strand_updates.{p}"],
            "count")
        add([f"runtime.program.strand_updates_per_s.{p}"], "1/s", "higher")
        add([f"runtime.scheduler.speedup.{p}"], "ratio", "higher")
    add([f"runtime.ops.{op}_s" for op in ("gather", "probe_parts", "conv_contract",
                                           "contract_axis", "horner", "other")], "s")
    add(["runtime.scheduler.thread.run_step_s"], "s")
    add([f"runtime.mpsched.{leg}_s" for leg in ("setup", "rearm", "run", "close")], "s")
    add(["runtime.mpsched.shm_leaked"], "count")
    add(["serve.batch.wait_ms", "serve.registry.run_batch_ms"], "ms")
    add(["serve.batch.requests_per_batch"], "ratio", "higher")
    add(["serve.server.http_429"], "count")
    add(["serve.server.http_ms", "serve.server.probe_p99_ms", "serve.client.single_ms",
         "serve.client.late_p99_ms"], "ms")
    add([f"runtime.incremental.{leg}_ms" for leg in
         ("build_footprints", "update_input", "dirty_query", "checkpoint_run",
          "first_update", "update_100pct")], "ms")
    add(["runtime.incremental.dirty_strands"], "count")
    add(["runtime.incremental.dirty_fraction", "runtime.incremental.update_over_rerun"],
        "ratio")
    add(["trace.overhead_ratio"], "ratio")
    return out


#: (name, unit, better) of every per-layer metric, in report order
LAYERS = tuple(_layers())
LAYER_UNITS = {name: unit for name, unit, _ in LAYERS}


# -- input sizes ---------------------------------------------------------------
#
# Sizing rule (README "Sizing"): a timed operation is kept to 20-100 ms so
# that a 30 s run takes dozens of samples of every row and some of them meet
# the host at full speed.  "quick" is only for the self-tests.

SIZES = {
    "full": {
        # res = rays or seeds per side (gridRes for ridge3d); vol = volume or
        # field samples per side
        "native": {"vr_lite": (72, 96), "illust_vr": (72, 96),
                   "lic2d": (144, 256), "ridge3d": (36, 96)},
        "numpy": {"vr_lite": (32, 64), "illust_vr": (28, 64),
                  "lic2d": (48, 128), "ridge3d": (16, 64)},
        # hand-written baselines run per point in Python: keep the oracle tiny
        "oracle": {"vr_lite": 4, "illust_vr": 3, "lic2d": 5, "ridge3d": 5},
        # bench_incremental's program: grid^3 strands over a vol^3 volume
        "incremental": {"native": {"vol": 96, "grid": 36, "steps": 6},
                        "numpy": {"vol": 48, "grid": 20, "steps": 6}},
        # the CLI legs are about everything but the strands: a small grid
        "cli": {"program": "vr_lite", "res": 48},
        # open-loop bursts of pairs_per_s request pairs for burst_s seconds;
        # pool_bursts distinct bursts are generated and sent in turn
        "serve": {"pairs_per_s": 100, "burst_s": 0.4, "pool_bursts": 8,
                  "big_every": 8, "big_points": 2048, "runs_per_round": 3,
                  "run_res": 64, "singles": 50, "warmup": 30},
    },
    "quick": {
        "native": {"vr_lite": (32, 32), "illust_vr": (24, 32),
                   "lic2d": (48, 64), "ridge3d": (12, 32)},
        "numpy": {"vr_lite": (16, 32), "illust_vr": (12, 32),
                  "lic2d": (24, 64), "ridge3d": (8, 32)},
        "oracle": {"vr_lite": 3, "illust_vr": 2, "lic2d": 3, "ridge3d": 3},
        "incremental": {"native": {"vol": 32, "grid": 12, "steps": 6},
                        "numpy": {"vol": 32, "grid": 8, "steps": 6}},
        "cli": {"program": "vr_lite", "res": 12},
        "serve": {"pairs_per_s": 50, "burst_s": 0.3, "pool_bursts": 2,
                  "big_every": 8, "big_points": 256, "runs_per_round": 1,
                  "run_res": 16, "singles": 5, "warmup": 5},
    },
}


def benchmark_json() -> dict:
    """The contract document checked in as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in LAYERS],
    }


def bounds() -> dict[str, float]:
    """``end-to-end metric -> regression bound`` as fixed in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        doc = json.load(fp)
    return {m["name"]: float(m["bound"]) for m in doc["end_to_end"]}


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
