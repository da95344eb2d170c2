"""Trace exporters: Chrome trace-event JSON and a summary table.

The Chrome exporter emits the `trace-event format`__ consumed by Perfetto
and ``chrome://tracing``: one ``"X"`` (complete) event per span, ``"i"``
instants, ``"C"`` counter samples, and ``"M"`` metadata events naming the
worker threads.  Timestamps are microseconds from the recorder's epoch.

__ https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

The summary exporter (:func:`format_summary`, the CLI's ``--profile``)
renders three tables: compiler passes, per-function instruction counts,
and runtime super-steps with per-worker utilization.

:func:`format_metrics` / :func:`format_report` render the aggregates of
an :class:`repro.obs.Obs` (or a saved metrics JSON document) as the run
report: compiler-pass totals, the hot-op profiler
table, scheduler-health distributions, per-worker load shares, and the
per-step convergence curve.  ``python -m repro.obs report`` is the CLI
entry point.
"""

from __future__ import annotations

import json

from repro.obs.metrics import Histogram


def chrome_trace(obs) -> dict:
    """Render an ``Obs``'s events as a Chrome trace-event JSON object."""
    tids: dict[str, int] = {}
    out: list[dict] = []
    for ev in obs.events:
        if ev.tid not in tids:
            tids[ev.tid] = len(tids) + 1
    for label, tid in tids.items():
        out.append({
            "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
            "args": {"name": label},
        })
    for ev in obs.events:
        rec = {
            "name": ev.name,
            "cat": ev.cat or "repro",
            "ph": ev.ph,
            "ts": ev.ts * 1e6,
            "pid": 1,
            "tid": tids[ev.tid],
            "args": ev.args,
        }
        if ev.ph == "X":
            rec["dur"] = ev.dur * 1e6
        elif ev.ph == "i":
            rec["s"] = "t"  # thread-scoped instant
        out.append(rec)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(obs, path: str) -> str:
    """Write the Chrome trace-event JSON file; returns the path."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(chrome_trace(obs), fp, default=float)
    return path


def _fmt_time(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _pass_table(obs) -> list[str]:
    order: list[str] = []
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for ev in obs.spans("pass"):
        if ev.name not in total:
            order.append(ev.name)
            total[ev.name] = 0.0
            count[ev.name] = 0
        total[ev.name] += ev.dur
        count[ev.name] += 1
    if not order:
        return []
    lines = ["compiler passes:", f"  {'pass':<18}{'calls':>6}{'time':>10}"]
    for name in order:
        lines.append(f"  {name:<18}{count[name]:>6}{_fmt_time(total[name]):>10}")
    lines.append(f"  {'total':<18}{'':>6}{_fmt_time(sum(total.values())):>10}")
    return lines


def _instr_table(obs) -> list[str]:
    counts: dict[str, dict[str, int]] = {}
    removed: dict[str, int] = {}
    for ev in obs.events:
        if ev.name == "instr-count" and ev.cat == "count":
            counts.setdefault(ev.args["func"], {})[ev.args["ir"]] = ev.args["value"]
        elif ev.name == "value-numbering" and ev.cat == "pass":
            fn = ev.args.get("func")
            removed[fn] = removed.get(fn, 0) + ev.args.get("removed", 0)
    if not counts:
        return []
    lines = ["instruction counts (HighIR → MidIR → LowIR):",
             f"  {'function':<12}{'high':>6}{'mid':>6}{'low':>6}{'VN-removed':>12}"]
    for fn, c in counts.items():
        lines.append(
            f"  {fn:<12}{c.get('high', 0):>6}{c.get('mid', 0):>6}"
            f"{c.get('low', 0):>6}{removed.get(fn, 0):>12}"
        )
    return lines


def _superstep_table(obs) -> list[str]:
    steps = obs.spans("superstep")
    if not steps:
        return []
    lines = ["super-steps:",
             f"  {'step':>4}{'time':>10}{'blocks':>8}{'active':>8}"
             f"{'stable':>8}{'died':>8}"]
    for ev in steps:
        a = ev.args
        lines.append(
            f"  {a.get('step', 0):>4}{_fmt_time(ev.dur):>10}{a.get('blocks', 0):>8}"
            f"{a.get('active', 0):>8}{a.get('stable', 0):>8}{a.get('died', 0):>8}"
        )
    return lines


def _tid_sort_key(tid: str) -> tuple:
    """Natural ordering for worker labels: worker-2 before worker-10.

    Block spans carry the same ``worker-<i>`` labels whether the worker
    was a thread or a forked process, so one table serves all backends.
    """
    head, _, tail = tid.rpartition("-")
    if tail.isdigit():
        return (head, int(tail))
    return (tid, -1)


def _worker_table(obs) -> list[str]:
    blocks = obs.spans("block")
    if not blocks:
        return []
    busy: dict[str, float] = {}
    n: dict[str, int] = {}
    for ev in blocks:
        busy[ev.tid] = busy.get(ev.tid, 0.0) + ev.dur
        n[ev.tid] = n.get(ev.tid, 0) + 1
    span_total = sum(ev.dur for ev in obs.spans("superstep"))
    lines = ["workers:",
             f"  {'worker':<16}{'blocks':>8}{'busy':>10}{'util':>7}"]
    for tid in sorted(busy, key=_tid_sort_key):
        util = busy[tid] / span_total if span_total > 0 else 0.0
        lines.append(
            f"  {tid:<16}{n[tid]:>8}{_fmt_time(busy[tid]):>10}{util:>6.0%}"
        )
    return lines


def format_summary(obs) -> str:
    """Human-readable profile of everything ``obs`` recorded (the CLI's
    ``--profile``): the event tables, then the op-profiler and
    scheduler-health tables of :func:`format_metrics`."""
    pass_table = _pass_table(obs)
    sections = [
        pass_table,
        _instr_table(obs),
        _superstep_table(obs),
        _worker_table(obs),
    ]
    body = "\n\n".join("\n".join(s) for s in sections if s)
    # the span pass table (when present) is a superset of the counter
    # one — don't print both
    mbody = format_metrics(obs, passes=not pass_table)
    if mbody:
        body = f"{body}\n\n{mbody}" if body else mbody
    return body if body else "(no trace events collected)"


# -- aggregate rendering ------------------------------------------------------


def _snap_of(obs) -> dict:
    """Accept an ``Obs``, a snapshot dict, or a metrics JSON document."""
    if hasattr(obs, "snapshot"):
        return obs.snapshot()
    return obs


def _group_ops(counters: dict) -> dict[str, dict[str, float]]:
    """Collect ``op.<name>.<field>`` counters into per-op dicts."""
    ops: dict[str, dict[str, float]] = {}
    for key, v in counters.items():
        if not key.startswith("op."):
            continue
        name, _, field = key[3:].rpartition(".")
        if name:
            ops.setdefault(name, {})[field] = v
    return ops


def _hot_op_table(counters: dict) -> list[str]:
    """The op-profiler table: runtime kernels ranked by accumulated time.

    Op names are the IR vocabulary the generated code calls
    (``rt.conv_contract`` etc.), so rows map directly to LowIR ops."""
    ops = _group_ops(counters)
    if not ops:
        return []
    total = sum(c.get("seconds", 0.0) for c in ops.values())
    lines = ["hot ops:",
             f"  {'op':<16}{'calls':>9}{'lanes':>12}{'time':>10}"
             f"{'share':>7}  {'notes'}"]
    for name in sorted(ops, key=lambda n: -ops[n].get("seconds", 0.0)):
        c = ops[name]
        secs = c.get("seconds", 0.0)
        share = secs / total if total > 0 else 0.0
        notes = ""
        hits = c.get("memo_hits")
        if hits is not None:
            tries = hits + c.get("memo_misses", 0)
            if tries:
                notes = f"memo {hits / tries:.0%}"
        lines.append(
            f"  {name:<16}{int(c.get('calls', 0)):>9}"
            f"{int(c.get('lanes', 0)):>12}{_fmt_time(secs):>10}"
            f"{share:>6.0%}  {notes}".rstrip()
        )
    scratch = counters.get("mem.scratch.allocated", 0) + counters.get(
        "mem.scratch.reused", 0)
    if scratch:
        reuse = counters.get("mem.scratch.reused", 0) / scratch
        lines.append(f"  scratch-pool reuse: {reuse:.0%} "
                     f"({int(scratch)} requests)")
    checked = counters.get("guard.checked", 0)
    if checked:
        skipped = counters.get("guard.skipped", 0)
        lines.append(f"  uniform-branch guards: {int(checked)} checked, "
                     f"{int(skipped)} skipped ({skipped / checked:.0%})")
    return lines


def _pass_metrics_table(counters: dict) -> list[str]:
    """Compiler-pass table from folded ``pass.<name>.seconds`` counters."""
    rows = []
    for key, secs in counters.items():
        if key.startswith("pass.") and key.endswith(".seconds"):
            name = key[len("pass."):-len(".seconds")]
            calls = counters.get(f"pass.{name}.calls", 0)
            rows.append((name, int(calls), secs))
    if not rows:
        return []
    lines = ["compiler passes:", f"  {'pass':<18}{'calls':>6}{'time':>10}"]
    for name, calls, secs in rows:
        lines.append(f"  {name:<18}{calls:>6}{_fmt_time(secs):>10}")
    lines.append(
        f"  {'total':<18}{'':>6}{_fmt_time(sum(r[2] for r in rows)):>10}")
    return lines


def _hist_line(name: str, hd: dict) -> str:
    h = Histogram.from_dict(hd) if isinstance(hd, dict) else hd
    return (f"  {name:<28}{h.count:>7}"
            f"{_fmt_time(h.mean):>10}{_fmt_time(h.percentile(50)):>10}"
            f"{_fmt_time(h.percentile(95)):>10}{_fmt_time(h.max):>10}")


def _sched_health_table(snap: dict) -> list[str]:
    counters = snap.get("counters", {})
    hists = snap.get("histograms", {})
    if not counters.get("sched.supersteps") and not hists:
        return []
    lines = ["scheduler health:"]
    steps = counters.get("sched.supersteps", 0)
    if steps:
        lines.append(
            f"  super-steps: {int(steps)}   strand updates: "
            f"{int(counters.get('strands.updated', 0))}   stabilized: "
            f"{int(counters.get('strands.stabilized', 0))}   died: "
            f"{int(counters.get('strands.died', 0))}"
        )
    timing = [(n, hd) for n, hd in hists.items()
              if n in ("sched.step_seconds", "sched.block_seconds",
                       "sched.queue_wait_seconds")]
    if timing:
        lines.append(f"  {'distribution':<28}{'n':>7}{'mean':>10}"
                     f"{'p50':>10}{'p95':>10}{'max':>10}")
        for name, hd in timing:
            lines.append(_hist_line(name, hd))
    imb = hists.get("sched.imbalance")
    if imb:
        h = Histogram.from_dict(imb) if isinstance(imb, dict) else imb
        lines.append(
            f"  load imbalance (max/mean busy): p50 {h.percentile(50):.2f}, "
            f"p95 {h.percentile(95):.2f}, worst {h.max:.2f}"
        )
    return lines


def _worker_metrics_table(counters: dict) -> list[str]:
    busy: dict[str, float] = {}
    blocks: dict[str, float] = {}
    for key, v in counters.items():
        if key.startswith("sched.worker.") and key.endswith(".busy_seconds"):
            busy[key[len("sched.worker."):-len(".busy_seconds")]] = v
        elif key.startswith("sched.worker.") and key.endswith(".blocks"):
            blocks[key[len("sched.worker."):-len(".blocks")]] = v
    if len(busy) < 2:  # a single worker's share is always 100%
        return []
    total = sum(busy.values())
    lines = ["workers:", f"  {'worker':<16}{'blocks':>8}{'busy':>10}{'share':>8}"]
    for label in sorted(busy, key=_tid_sort_key):
        share = busy[label] / total if total > 0 else 0.0
        lines.append(f"  {label:<16}{int(blocks.get(label, 0)):>8}"
                     f"{_fmt_time(busy[label]):>10}{share:>7.0%}")
    return lines


def _convergence_table(series: dict, limit: int = 40) -> list[str]:
    """The per-step convergence curve from the ``steps`` series."""
    rows = series.get("steps") or []
    if not rows:
        return []
    lines = ["convergence:",
             f"  {'step':>4}{'time':>10}{'blocks':>8}{'active':>8}"
             f"{'stable':>8}{'died':>8}"]
    shown = rows if len(rows) <= limit else rows[: limit // 2] + rows[-limit // 2:]
    prev_step = None
    for r in shown:
        if prev_step is not None and r.get("step", 0) != prev_step + 1:
            lines.append(f"  {'...':>4}")
        prev_step = r.get("step", 0)
        lines.append(
            f"  {r.get('step', 0):>4}{_fmt_time(r.get('seconds', 0.0)):>10}"
            f"{r.get('blocks', 0):>8}{r.get('active', 0):>8}"
            f"{r.get('stable', 0):>8}{r.get('died', 0):>8}"
        )
    return lines


def format_metrics(obs, passes: bool = True) -> str:
    """Human-readable rendering of an ``Obs`` / snapshot / metrics doc.

    ``passes=False`` drops the compiler-pass table (``format_summary``
    uses it when the pass spans already rendered a richer one).
    """
    snap = _snap_of(obs)
    counters = snap.get("counters", {})
    sections = [
        _pass_metrics_table(counters) if passes else None,
        _hot_op_table(counters),
        _sched_health_table(snap),
        _worker_metrics_table(counters),
        _convergence_table(snap.get("series", {})),
    ]
    body = "\n\n".join("\n".join(s) for s in sections if s)
    return body


def format_report(doc: dict) -> str:
    """The ``python -m repro.obs report`` body: meta header + tables."""
    lines = []
    meta = doc.get("meta", {})
    if meta:
        lines.append("run metadata:")
        for key in sorted(meta):
            lines.append(f"  {key}: {meta[key]}")
    body = format_metrics(doc)
    if body:
        lines.append("")
        lines.append(body)
    out = "\n".join(lines).strip()
    return out if out else "(no metrics recorded)"
