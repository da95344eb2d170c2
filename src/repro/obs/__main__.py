"""``python -m repro.obs report FILE`` — render a saved run.

``FILE`` is a metrics JSON document (written by ``--metrics-out`` on the
CLIs or ``write_metrics_json``) or a Chrome trace file (``--trace``
output, adapted into per-span ``.seconds``/``.calls`` counters on the
fly).  The report: metadata, compiler-pass table, hot-op profiler table,
scheduler-health distributions, per-worker load shares, per-step
convergence curve.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.export import format_report
from repro.obs.metrics import read_metrics_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description="metrics reporting")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("report", help="render a metrics JSON file as tables")
    p.add_argument("file", help="metrics JSON (or Chrome trace JSON)")
    ns = parser.parse_args(argv)
    try:
        print(format_report(read_metrics_json(ns.file)))
        return 0
    except BrokenPipeError:  # e.g. `report ... | head`
        sys.stderr.close()
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
