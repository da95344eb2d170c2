"""``python -m repro.obs`` — metrics reporting and perf-regression diff.

Two subcommands over saved metrics JSON documents (written by
``--metrics-out`` on the CLIs, ``write_metrics_json``, or the benchmark
suite); ``report`` also accepts Chrome trace files (``--trace`` output),
which are adapted into pass/superstep counters on the fly.

``report FILE``
    Render the run report: metadata, compiler-pass table, hot-op
    profiler table, scheduler-health distributions, per-worker load
    shares, per-step convergence curve.

``diff OLD NEW``
    Noise-tolerant comparison of two metrics documents.  Wall-clock
    metrics (``*.seconds`` counters, histogram p95s) regress only when
    they exceed **both** a relative threshold (``--threshold``, default
    8 %) and an absolute floor (``--abs-floor``, default 5 ms) — small
    timing jitter never fails a build, a real ≥10 % slowdown always
    does.  Deterministic work counters (``op.*.calls`` / ``.lanes`` /
    ``.memo_*``, ``guard.*``) regress on any increase beyond
    ``--count-threshold`` (default 2 %); decreases are reported as
    improvements and never fail.  Exit status: 0 when clean, 1 on any
    regression.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.export import _fmt_time, format_report
from repro.obs.metrics import Histogram, read_metrics_json

#: counter suffixes that count *work* (scheduler-deterministic) rather
#: than time — compared with the strict count threshold
_COUNT_SUFFIXES = (".calls", ".lanes", ".memo_hits", ".memo_misses")


def _is_timing(name: str) -> bool:
    return name.endswith(".seconds") or name.endswith("_seconds")


def _is_count(name: str) -> bool:
    return (name.endswith(_COUNT_SUFFIXES)
            or name.startswith("guard.")
            or name in ("sched.supersteps", "run.count", "run.steps",
                        "run.strands", "strands.updated",
                        "strands.stabilized", "strands.died"))


def cmd_report(ns: argparse.Namespace) -> int:
    doc = read_metrics_json(ns.file)
    print(format_report(doc))
    return 0


def _diff_rows(old: dict, new: dict, ns: argparse.Namespace):
    """Yield ``(kind, name, old, new, ratio)`` rows; kind is
    ``regression`` / ``improvement`` / ``new`` / ``gone``."""
    rel = ns.threshold
    floor = ns.abs_floor
    crel = ns.count_threshold

    oc = old.get("counters", {})
    nc = new.get("counters", {})
    for name in sorted(set(oc) | set(nc)):
        if name not in oc:
            yield ("new", name, None, nc[name], None)
            continue
        if name not in nc:
            yield ("gone", name, oc[name], None, None)
            continue
        o, n = float(oc[name]), float(nc[name])
        ratio = n / o if o else (float("inf") if n else 1.0)
        if _is_timing(name):
            if n > o * (1 + rel) and n - o > floor:
                yield ("regression", name, o, n, ratio)
            elif o > n * (1 + rel) and o - n > floor:
                yield ("improvement", name, o, n, ratio)
        elif _is_count(name):
            if n > o * (1 + crel):
                yield ("regression", name, o, n, ratio)
            elif n < o:
                yield ("improvement", name, o, n, ratio)

    oh = old.get("histograms", {})
    nh = new.get("histograms", {})
    for name in sorted(set(oh) & set(nh)):
        o = Histogram.from_dict(oh[name]).percentile(95)
        n = Histogram.from_dict(nh[name]).percentile(95)
        if o <= 0 and n <= 0:
            continue
        ratio = n / o if o else float("inf")
        if n > o * (1 + rel) and n - o > floor:
            yield ("regression", f"{name} (p95)", o, n, ratio)
        elif o > n * (1 + rel) and o - n > floor:
            yield ("improvement", f"{name} (p95)", o, n, ratio)


def _fmt_val(name: str, v) -> str:
    if v is None:
        return "-"
    if _is_timing(name) or "(p95)" in name:
        return _fmt_time(v)
    return f"{v:g}"


def cmd_diff(ns: argparse.Namespace) -> int:
    old = read_metrics_json(ns.old)
    new = read_metrics_json(ns.new)
    rows = list(_diff_rows(old, new, ns))
    regressions = [r for r in rows if r[0] == "regression"]
    improvements = [r for r in rows if r[0] == "improvement"]

    def show(title, items):
        print(f"{title}:")
        print(f"  {'metric':<40}{'old':>12}{'new':>12}{'ratio':>8}")
        for _, name, o, n, ratio in items:
            rtxt = f"{ratio:.2f}x" if ratio is not None else "-"
            print(f"  {name:<40}{_fmt_val(name, o):>12}"
                  f"{_fmt_val(name, n):>12}{rtxt:>8}")

    if regressions:
        show("REGRESSIONS", regressions)
    if improvements:
        if regressions:
            print()
        show("improvements", improvements)
    if ns.verbose:
        added = [r for r in rows if r[0] == "new"]
        gone = [r for r in rows if r[0] == "gone"]
        if added:
            print()
            show("new metrics", added)
        if gone:
            print()
            show("dropped metrics", gone)
    if not regressions and not improvements:
        print("no significant differences "
              f"(threshold {ns.threshold:.0%}, floor {ns.abs_floor * 1e3:g}ms)")
    if regressions:
        print(f"\n{len(regressions)} regression(s) — failing")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="metrics reporting and perf-regression diff",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("report", help="render a metrics JSON file as tables")
    p.add_argument("file", help="metrics JSON (or Chrome trace JSON)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("diff", help="compare two metrics files; exit 1 on "
                                    "regression")
    p.add_argument("old", help="baseline metrics JSON")
    p.add_argument("new", help="candidate metrics JSON")
    p.add_argument("--threshold", type=float, default=0.08,
                   help="relative slowdown tolerated for timing metrics "
                        "(default 0.08 = 8%%)")
    p.add_argument("--abs-floor", type=float, default=0.005,
                   help="absolute seconds a timing metric must grow by to "
                        "count (default 0.005)")
    p.add_argument("--count-threshold", type=float, default=0.02,
                   help="relative increase tolerated for deterministic work "
                        "counters (default 0.02)")
    p.add_argument("--verbose", action="store_true",
                   help="also list metrics only present on one side")
    p.set_defaults(fn=cmd_diff)

    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except BrokenPipeError:  # e.g. `report ... | head`
        sys.stderr.close()
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
