#!/usr/bin/env python3
"""The perf ledger's one command.

    python benchmarks/ledger/run.py [--workload NAME] [--seed N] [--seconds S]
                                    [--trace 0|1 | --traced] [--quick]
                                    [--repeat K] [--out FILE]

Runs each workload (all three without ``--workload``) in a fresh child
process whose caches and temporaries live in a private directory under
``.bench_build/`` in the checkout, checks the outputs, prints every
metric by name with its unit and sample count, and ends with one JSON
line per workload in the benchmark contract's format.  ``--trace 1``
(or ``--traced``) prints the per-layer metrics instead of the end-to-end
ones.  Nothing is written outside ``.bench_build/`` unless ``--out`` names
a file for the full stamped result document.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

# import the package, not this directory's modules by bare name (a bare
# ``trace`` would shadow the standard library's)
sys.path[0] = str(Path(__file__).resolve().parents[1])

from ledger import spec  # noqa: E402
from ledger.spec import LEDGER_DIR, ROOT  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "ledger"

#: ambient knobs that would change what is measured
_SCRUB = ("REPRO_TRACE", "REPRO_CHECK", "REPRO_COMPILE_CACHE", "REPRO_CGEN_BATCH",
          "REPRO_CGEN_CACHE_MAX", "REPRO_COMPILE_CACHE_MAX", "REPRO_BENCH_SCALE")

#: a child that has not finished by then is killed (the contract's cap is 180 s)
CHILD_TIMEOUT = 170.0


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _cc_version() -> str:
    cc = next((p for p in map(shutil.which, ("cc", "gcc", "clang")) if p), None)
    if cc is None:
        return "none"
    try:
        out = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (out.stdout.splitlines() or ["unknown"])[0].strip()


def stamp(seed: int) -> dict:
    import numpy

    return {
        "schema": spec.SCHEMA,
        "git_sha": _git_sha(),
        "cpu_count": len(os.sched_getaffinity(0)),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": _cc_version(),
        "claim": None,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 quick: bool) -> dict:
    """Spawn the workload's child, wait for it, return its document."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR))
    (run_dir / "tmp").mkdir()
    env = {k: v for k, v in os.environ.items() if k not in _SCRUB}
    env.update(
        PYTHONPATH=os.pathsep.join([str(LEDGER_DIR.parent), str(ROOT / "src")]),
        # native artifacts are this checkout's build products: kept across
        # runs (only the traced front-door run points cc at an empty private dir)
        REPRO_CGEN_CACHE=str(BUILD_DIR / "cgen"),
        REPRO_COMPILE_CACHE_DIR=str(run_dir / "compile-cache"),
        LEDGER_RUN_DIR=str(run_dir),
        TMPDIR=str(run_dir / "tmp"),
    )
    doc_path = run_dir / "doc.json"
    cmd = [sys.executable, "-m", "ledger.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--traced", str(int(traced)), "--doc", str(doc_path)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"ledger: {workload} did not finish in {CHILD_TIMEOUT:.0f}s")
        if code != 0:
            raise SystemExit(f"ledger: {workload} child exited with code {code}")
        with open(doc_path, encoding="utf-8") as fp:
            return json.load(fp)
    finally:
        # the child's own children (server, CLI runs) share its session:
        # nothing it started survives, whatever happened above
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


def contract_line(doc: dict) -> str:
    """The benchmark contract's last-line JSON for one workload document."""
    if doc["traced"]:
        metrics = {name: {"value": float(doc["layers"].get(name, 0.0)), "unit": unit}
                   for name, unit, _ in spec.LAYERS}
    else:
        e2e = doc["end_to_end"]
        named = dict(zip(spec.SLOTS, spec.ROWS[doc["workload"]]))
        metrics = {}
        for name, unit, _, _ in spec.END_TO_END:
            m = e2e[named.get(name, name)]
            metrics[name] = {"value": m["value"], "unit": unit}
    return json.dumps({
        "correct": doc["failed"] == 0 and doc["attempted"] > 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    })


def report(doc: dict) -> str:
    """Every metric of one workload by name, with unit and sample count."""
    w = doc["workload"]
    lines = [f"== {w}  seed={doc['seed']}  size={doc['size']}  "
             f"{'traced' if doc['traced'] else 'untraced'}  "
             f"checks {doc['attempted'] - doc['failed']}/{doc['attempted']} ok"]
    for key, value in doc.get("flags", {}).items():
        lines.append(f"   flag {key} = {value}")
    slots = dict(zip(spec.ROWS[w], spec.SLOTS))
    for name, m in doc["end_to_end"].items():
        slot = f"  [{slots[name]}]" if name in slots else ""
        lines.append(f"   {name:<22} {m['value']:>12.4f} {m['unit']:<3} {m['stat']} "
                     f"n={m['n']}{slot}")
    fail_ratio = doc["failed"] / max(doc["attempted"], 1)
    lines.append(f"   {'fail_ratio':<22} {fail_ratio:>12.4f}")
    if doc["traced"]:
        for name, value in doc["layers"].items():
            lines.append(f"   {name:<46} {value:>14.6g} {spec.LAYER_UNITS[name]}")
        lines.append(f"   layer self-times / traced wall = {doc['layer_sum_ratio']:.4f}")
    for msg in doc["failures"]:
        lines.append(f"   FAILED {msg}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS), default=None,
                    help="run one workload (default: all three)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                    help="how long each workload measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = traced run: per-layer metrics")
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs (self-tests only; numbers mean nothing)")
    ap.add_argument("--repeat", type=int, default=1, metavar="K",
                    help="run each workload K times (compare.py wants several)")
    ap.add_argument("--out", metavar="FILE", default=None,
                    help="write the stamped result document here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    traced = bool(args.trace) or args.traced
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    result = stamp(args.seed)
    result["runs"] = []
    lines = []
    for _ in range(args.repeat):
        for name in names:
            doc = run_workload(name, args.seed, args.seconds, traced, args.quick)
            result["runs"].append(doc)
            print(report(doc), flush=True)
            lines.append(contract_line(doc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(result, fp, indent=1)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
