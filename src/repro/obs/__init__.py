"""Observability: tracing, metrics, and profiling (`repro.obs`).

A unified layer over the measurements the paper's evaluation (§6) relies
on: per-compiler-pass timing and instruction counts, and per-super-step /
per-block runtime timing with worker attribution.

* :mod:`repro.obs.tracer` — the thread-safe event collector: spans,
  counters, and gauges, with a zero-allocation disabled mode
  (:data:`NULL_TRACER`);
* :mod:`repro.obs.metrics` — the always-on aggregate registry: op
  counters, scheduler-health histograms, the per-step convergence
  series, and the ``repro-metrics-v1`` JSON document;
* :mod:`repro.obs.export` — exporters: Chrome trace-event JSON (loadable
  in Perfetto / ``chrome://tracing``), the summary table, and the
  metrics run report;
* ``python -m repro.obs`` — ``report`` renders a saved metrics file,
  ``diff`` compares two with noise-tolerant thresholds (the CI perf
  gate's engine).

Activation surfaces:

* metrics are **on by default**: every ``Program.run`` returns its
  registry as ``result.metrics`` and folds into the session-wide
  ``metrics.GLOBAL``; pass ``metrics=False`` (or ``--no-metrics``) for
  the zero-overhead path, ``--metrics-out FILE`` to save the document
* ``python -m repro PROG --trace out.json`` / ``--profile``
* ``Program.run(..., tracer=Tracer(...))`` with optional ``on_pass`` /
  ``on_superstep`` callbacks
* the ``REPRO_TRACE=out.json`` environment variable
"""

from repro.obs.export import (
    chrome_trace,
    env_traced,
    format_metrics,
    format_report,
    format_summary,
    write_chrome_trace,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    metrics_doc,
    read_metrics_json,
    write_metrics_json,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, SpanEvent, Tracer, tracer_from_env

__all__ = [
    "NULL_METRICS",
    "NULL_TRACER",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "SpanEvent",
    "Tracer",
    "chrome_trace",
    "env_traced",
    "format_metrics",
    "format_report",
    "format_summary",
    "metrics_doc",
    "read_metrics_json",
    "tracer_from_env",
    "write_chrome_trace",
    "write_metrics_json",
]
