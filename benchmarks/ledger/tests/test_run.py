"""End to end at ``--quick`` size: every workload, both modes, hygiene."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from ledger import spec
from ledger.harness import SETUP_REPEATS

RUN = [sys.executable, str(spec.LEDGER_DIR / "run.py")]
BUILD = spec.ROOT / ".bench_build" / "ledger"


def _run(*args, cwd=spec.ROOT, timeout=300):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def _shm() -> int:
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0


@pytest.fixture(scope="module")
def warm_build():
    """Native artifacts of the quick sizes are built once, outside the clock."""
    proc = _run("--quick", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_quick_runs_every_workload_within_a_minute(warm_build, tmp_path):
    listing = sorted(p.name for p in spec.ROOT.iterdir())
    out_file = tmp_path / "doc.json"
    t0 = time.time()
    proc = _run("--quick", "--seconds", "1", "--seed", "11", "--out", str(out_file))
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 60, elapsed

    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith('{"correct"')]
    assert len(lines) == len(spec.WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m[0] for m in spec.END_TO_END]
        for (name, unit, _, _), m in zip(spec.END_TO_END, line["metrics"].values()):
            assert m["unit"] == unit and m["value"] > 0, name
    assert proc.stdout.rstrip().splitlines()[-1].startswith('{"correct"')

    doc = json.loads(out_file.read_text())
    assert {"schema", "git_sha", "cpu_count", "seed", "python", "numpy", "cc",
            "claim", "runs"} <= set(doc)
    assert doc["claim"] is None and doc["seed"] == 11
    assert doc["cpu_count"] == len(os.sched_getaffinity(0))
    assert [r["workload"] for r in doc["runs"]] == list(spec.WORKLOADS)
    for run in doc["runs"]:
        rows = set(spec.ROWS[run["workload"]])
        assert set(run["end_to_end"]) == rows | {"setup_s", "peak_rss_mb"}
        for m in run["end_to_end"].values():
            assert {"value", "unit", "n", "stat"} <= set(m)
        parts = run["end_to_end"]["setup_s"]["samples"]
        assert parts and all(len(v) == SETUP_REPEATS for v in parts.values())

    # hygiene: private run directories are gone, nothing new in the repo root
    assert not list(BUILD.glob("run-*"))
    assert sorted(p.name for p in spec.ROOT.iterdir()) == listing


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run_reports_every_layer_metric(warm_build, workload):
    shm_before = _shm()
    proc = _run("--quick", "--seconds", "1", "--trace", "1", "--workload", workload)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.rstrip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [name for name, _, _ in spec.LAYERS]
    for (name, unit, _), m in zip(spec.LAYERS, line["metrics"].values()):
        assert m["unit"] == unit, name
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert line["metrics"]["runtime.mpsched.shm_leaked"]["value"] == 0
    assert _shm() == shm_before
    if workload == "paper-native":  # no speedup is claimed from one CPU
        limited = len(os.sched_getaffinity(0)) < 2
        assert f"flag cpu_limited = {limited}" in proc.stdout
        speedup = line["metrics"]["runtime.scheduler.speedup.vr_lite"]["value"]
        assert (speedup == 0) == limited
    ratio = float(proc.stdout.split("layer self-times / traced wall = ")[1].split()[0])
    assert abs(ratio - 1.0) <= 0.05


def test_wrapped_entry_points_are_restored():
    code = (
        "import os, tempfile\n"
        "from pathlib import Path\n"
        "from ledger import paper, spec\n"
        "from repro.runtime.program import Program\n"
        "from repro.runtime.native import NativeUpdate\n"
        "before = (Program.run, NativeUpdate.run_range)\n"
        "paper.run('paper-native', 1, 0.5, True, spec.SIZES['quick'])\n"
        "assert (Program.run, NativeUpdate.run_range) == before\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(spec.LEDGER_DIR.parent), str(spec.ROOT / "src")]),
        REPRO_CGEN_CACHE=str(BUILD / "cgen"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(spec.LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "paper-native",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
