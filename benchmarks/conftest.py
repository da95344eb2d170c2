"""Shared infrastructure for the figure, Table 1 and ablation scripts.

These scripts reproduce what the paper shows that is *not* a timing
(rendered figures, line counts, instruction counts, the simulated
scheduler's curves); wall-clock numbers come from ``benchmarks/ledger/``
only.  Each script asserts the paper's qualitative shape and writes its
rows to ``benchmarks/results/<name>.json``, from which
``make_experiments_md.py`` renders EXPERIMENTS.md.  Workloads are
scaled-down versions of the paper's (DESIGN.md's benchmark scaling
note); ``REPRO_BENCH_SCALE`` trades time for fidelity (default 1.0 ≈ a
minute in total on one core) and is the estate's one knob.
"""

from __future__ import annotations

import json
import os
import subprocess

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: results-document schema: bumped when the stamped envelope changes
SCHEMA_VERSION = 2


def record(name: str, payload) -> None:
    """Persist one benchmark's results for EXPERIMENTS.md.

    Dict payloads are stamped in place with the results ``schema``
    version, the benchmark name, the producing commit's ``git_sha`` and
    the ``cpu_count`` it ran on.
    """
    if isinstance(payload, dict):
        payload.setdefault("schema", SCHEMA_VERSION)
        payload.setdefault("bench", name)
        payload.setdefault("git_sha", git_sha())
        payload.setdefault("cpu_count", len(os.sched_getaffinity(0)))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as fp:
        json.dump(payload, fp, indent=2, default=float)


def git_sha() -> str:
    """The current commit's short SHA, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"
