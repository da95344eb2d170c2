"""Exporters: Chrome trace-event JSON and the run report.

The Chrome exporter emits the `trace-event format`__ consumed by Perfetto
and ``chrome://tracing``: one ``"X"`` (complete) event per span, ``"i"``
instants, ``"C"`` counter samples, and ``"M"`` metadata events naming the
worker threads.  Timestamps are microseconds from the recorder's epoch.

__ https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

The run report (:func:`format_metrics`; :func:`format_summary` is the
CLIs' ``--profile``, :func:`format_report` adds a saved document's
metadata for ``python -m repro.obs report``) is rendered from aggregates
only — an :class:`repro.obs.Obs`, its snapshot or a metrics JSON
document — plus a ``CompileStats`` for the instruction counts: compiler
passes, instruction counts, hot ops, scheduler health, workers and the
per-step convergence curve, each table once.
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


# -- aggregate rendering ------------------------------------------------------


def _group(counters: dict, prefix: str) -> dict[str, dict[str, float]]:
    """Collect ``<prefix><name>.<field>`` counters into per-name dicts,
    in the order the names were first booked."""
    out: dict[str, dict[str, float]] = {}
    for key, v in counters.items():
        if key.startswith(prefix):
            name, _, field = key[len(prefix):].rpartition(".")
            if name:
                out.setdefault(name, {})[field] = v
    return out


def _hot_op_table(counters: dict) -> list[str]:
    """The op-profiler table: runtime kernels ranked by accumulated time.

    Op names are the IR vocabulary the generated code calls
    (``rt.conv_contract`` etc.), so rows map directly to LowIR ops."""
    ops = _group(counters, "op.")
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
        compacted = counters.get("guard.compacted", 0)
        lines.append(f"  uniform-branch guards: {int(checked)} checked, "
                     f"{int(skipped)} skipped ({skipped / checked:.0%}), "
                     f"{int(compacted)} compacted")
    return lines


def _pass_table(counters: dict) -> list[str]:
    """Compiler-pass table from the ``pass.<name>.seconds``/``.calls``
    counters."""
    passes = _group(counters, "pass.")
    if not passes:
        return []
    lines = ["compiler passes:", f"  {'pass':<18}{'calls':>6}{'time':>10}"]
    for name, c in passes.items():
        lines.append(f"  {name:<18}{int(c.get('calls', 0)):>6}"
                     f"{_fmt_time(c.get('seconds', 0.0)):>10}")
    total = sum(c.get("seconds", 0.0) for c in passes.values())
    lines.append(f"  {'total':<18}{'':>6}{_fmt_time(total):>10}")
    return lines


def _instr_table(stats) -> list[str]:
    """Per-function instruction counts from a ``CompileStats``."""
    if stats is None or not stats.low_instrs:
        return []
    lines = ["instruction counts (HighIR → MidIR → LowIR):",
             f"  {'function':<12}{'high':>6}{'mid':>6}{'low':>6}{'VN-removed':>12}"]
    for fn, low in stats.low_instrs.items():
        lines.append(
            f"  {fn:<12}{stats.high_instrs.get(fn, 0):>6}"
            f"{stats.mid_instrs.get(fn, 0):>6}{low:>6}"
            f"{stats.vn_removed.get(fn, 0):>12}"
        )
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


def _tid_sort_key(label: str) -> tuple:
    """Natural ordering for worker labels: worker-2 before worker-10."""
    head, _, tail = label.rpartition("-")
    if tail.isdigit():
        return (head, int(tail))
    return (label, -1)


def _worker_table(counters: dict) -> list[str]:
    """Per-worker blocks and busy time from the ``sched.worker.*``
    counters; ``util`` is busy time over the runs' wall time less their
    set-up (``run.wall_seconds`` − ``run.setup_seconds``)."""
    workers = _group(counters, "sched.worker.")
    if not workers:
        return []
    running = (counters.get("run.wall_seconds", 0.0)
               - counters.get("run.setup_seconds", 0.0))
    lines = ["workers:", f"  {'worker':<16}{'blocks':>8}{'busy':>10}{'util':>7}"]
    for label in sorted(workers, key=_tid_sort_key):
        busy = workers[label].get("busy_seconds", 0.0)
        util = busy / running if running > 0 else 0.0
        lines.append(f"  {label:<16}{int(workers[label].get('blocks', 0)):>8}"
                     f"{_fmt_time(busy):>10}{util:>6.0%}")
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


def format_metrics(obs, stats=None) -> str:
    """The run report: the tables of an ``Obs`` / snapshot / metrics doc,
    with the instruction counts of ``stats`` (a ``CompileStats``) when
    given — compiler passes, instruction counts, hot ops, scheduler
    health, workers, convergence; each rendered once, from aggregates."""
    snap = obs.snapshot() if hasattr(obs, "snapshot") else obs
    counters = snap.get("counters", {})
    sections = [
        _pass_table(counters),
        _instr_table(stats),
        _hot_op_table(counters),
        _sched_health_table(snap),
        _worker_table(counters),
        _convergence_table(snap.get("series", {})),
    ]
    return "\n\n".join("\n".join(s) for s in sections if s)


def format_summary(obs, stats=None) -> str:
    """The CLIs' ``--profile``: :func:`format_metrics`, or a placeholder
    when nothing was recorded."""
    return format_metrics(obs, stats) or "(no trace events collected)"


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
