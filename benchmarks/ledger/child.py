"""One workload in a fresh process: ``python -m ledger.child`` (spawned by
``run.py`` with the private cache directories already in the environment).

Writes the workload's result document as JSON to ``--doc``; prints
nothing the caller has to parse.
"""

from __future__ import annotations

import argparse
import json
import sys

from ledger import spec
from ledger.harness import best_sum, metric, peak_rss_mb


def _module(workload: str):
    if workload.startswith("paper-"):
        from ledger import paper as mod
    elif workload == "front-door":
        from ledger import front_door as mod
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return mod


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m ledger.child")
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--doc", required=True)
    args = ap.parse_args(argv)

    size_key = "quick" if args.quick else "full"
    doc = _module(args.workload).run(args.workload, args.seed, args.seconds,
                                     bool(args.traced), spec.SIZES[size_key])
    checks = doc.pop("checks")
    if args.traced:
        checks.check(abs(doc["layer_sum_ratio"] - 1.0) <= 0.05,
                     f"layer self-times sum to {doc['layer_sum_ratio']:.3f} of the traced wall")
    doc["end_to_end"]["setup_s"] = best_sum(doc.pop("setup_parts"), "s")
    doc["end_to_end"]["peak_rss_mb"] = metric(peak_rss_mb(), "MB", 1)
    doc.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.traced), size=size_key, sizes=spec.SIZES[size_key],
        attempted=checks.attempted, failed=checks.failed, failures=checks.messages,
    )
    with open(args.doc, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
