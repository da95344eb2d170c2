"""Observability: one run-scoped recorder and one clock (`repro.obs`).

The measurements the paper's evaluation (§6) relies on — per-compiler-pass
timing and instruction counts, per-run-phase and per-super-step runtime
timing with worker attribution, op and scheduler-health aggregates — all
go through one object, :class:`Obs` (DESIGN.md "Observability"):

* :mod:`repro.obs.recorder` — :class:`Obs` (spans, decisions and the four
  metric instruments), the current-``Obs`` context (:func:`current`,
  :func:`scope`, :data:`ROOT`) and :data:`clock`, the only wall-clock
  read for measurement in ``src/``;
* :mod:`repro.obs.metrics` — the histogram and the ``repro-metrics-v1``
  JSON document;
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in Perfetto
  / ``chrome://tracing``), the ``--profile`` summary, the run report;
* ``python -m repro.obs report FILE`` — render a saved metrics or trace
  file.

Every ``Program.run`` records into an ``Obs`` — the one passed as
``obs=``, else a fresh child of the current one — and returns it as
``result.metrics``; ``--trace FILE`` / ``--profile`` on the CLIs pass an
``Obs(detail=True)``, ``--metrics-out FILE`` saves its aggregates.
"""

from repro.obs.export import (
    chrome_trace,
    format_metrics,
    format_report,
    format_summary,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Histogram,
    metrics_doc,
    read_metrics_json,
    write_metrics_json,
)
from repro.obs.recorder import ROOT, Obs, SpanEvent, clock, current, scope

__all__ = [
    "ROOT",
    "Histogram",
    "Obs",
    "SpanEvent",
    "chrome_trace",
    "clock",
    "current",
    "format_metrics",
    "format_report",
    "format_summary",
    "metrics_doc",
    "read_metrics_json",
    "scope",
    "write_chrome_trace",
    "write_metrics_json",
]
