#!/usr/bin/env python3
"""Compare two ledger result documents.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the base.  Each document is what ``run.py --out`` wrote, ideally
with ``--repeat`` so every workload has several runs.  One row per
(end-to-end metric, workload): both medians with their quartiles over the
runs, the ratio B/A, and a verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the metric's bound, so
  neither "same" nor "worse" can be said;
* ``worse`` / ``better`` — B's median is beyond the bound from A's;
* ``same`` — within the bound.

``fail_ratio`` is worse on any increase.  Exit status 1 if any row is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[1])

from ledger import spec  # noqa: E402


def summarize(doc: dict) -> dict:
    """``(workload, metric) -> {"median", "q1", "q3", "n", "unit"}`` over the
    document's untraced runs; ``fail_ratio`` from the summed check counts."""
    values: dict[tuple[str, str], list[float]] = {}
    units: dict[tuple[str, str], str] = {}
    checks: dict[str, list[int]] = {}
    for run in doc["runs"]:
        if run["traced"]:
            continue
        w = run["workload"]
        for name, m in run["end_to_end"].items():
            values.setdefault((w, name), []).append(m["value"])
            units[(w, name)] = m["unit"]
        tally = checks.setdefault(w, [0, 0])
        tally[0] += run["failed"]
        tally[1] += run["attempted"]
    out = {}
    for key, vs in values.items():
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        out[key] = {"median": statistics.median(vs), "q1": q[0], "q3": q[2],
                    "n": len(vs), "unit": units[key]}
    for w, (failed, attempted) in checks.items():
        ratio = failed / max(attempted, 1)
        out[(w, "fail_ratio")] = {"median": ratio, "q1": ratio, "q3": ratio,
                                  "n": attempted, "unit": "ratio"}
    return out


def bound_for(workload: str, metric: str, bounds: dict[str, float]) -> float:
    if metric == "fail_ratio":
        return 0.0
    slots = dict(zip(spec.ROWS[workload], spec.SLOTS))
    return bounds[slots.get(metric, metric)]


def verdict(a: dict, b: dict, bound: float) -> tuple[str, float]:
    """``(verdict, ratio B/A)`` for a lower-is-better metric."""
    if a["median"] == 0.0:
        return ("same" if b["median"] == 0.0 else "worse"), float("inf")
    ratio = b["median"] / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
                 for s in (a, b))
    if spread > bound:
        return "unresolved", ratio
    if ratio > 1.0 + bound:
        return "worse", ratio
    if ratio < 1.0 - bound:
        return "better", ratio
    return "same", ratio


def compare(doc_a: dict, doc_b: dict, bounds: dict[str, float]) -> list[dict]:
    a, b = summarize(doc_a), summarize(doc_b)
    rows = []
    for key in sorted(a.keys() & b.keys()):
        w, metric = key
        bound = bound_for(w, metric, bounds)
        if metric == "fail_ratio":
            v = "worse" if b[key]["median"] > a[key]["median"] else "same"
            ratio = float("nan")
        else:
            v, ratio = verdict(a[key], b[key], bound)
        rows.append({"workload": w, "metric": metric, "a": a[key], "b": b[key],
                     "ratio": ratio, "bound": bound, "verdict": v})
    return rows


def _cell(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fp:
            docs.append(json.load(fp))
    rows = compare(docs[0], docs[1], spec.bounds())
    print(f"A = {argv[0]} ({docs[0]['git_sha']}, seed {docs[0]['seed']})   "
          f"B = {argv[1]} ({docs[1]['git_sha']}, seed {docs[1]['seed']})")
    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B/A':>7} {'bound':>6}  verdict")
    for r in rows:
        unit = r["a"]["unit"]
        print(f"{r['workload']:<14} {r['metric']:<18} {_cell(r['a']) + ' ' + unit:<34} "
              f"{_cell(r['b']) + ' ' + unit:<34} {r['ratio']:>7.3f} {r['bound']:>6.2f}  "
              f"{r['verdict']}")
    tally = {v: sum(r["verdict"] == v for r in rows)
             for v in ("better", "same", "worse", "unresolved")}
    print("  ".join(f"{k}: {n}" for k, n in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
