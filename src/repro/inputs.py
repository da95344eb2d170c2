"""Parsing of input-variable values given as command-line text.

The compiler "synthesizes glue code that allows command-line setting of
input variables" (paper §3.3.1).  Both of our command-line surfaces —
``python -m repro --input name=value`` and the synthesized
:meth:`Program.cli <repro.runtime.program.Program.cli>` — accept the same
textual forms, parsed here:

* ``true`` / ``false`` — booleans
* ``[a,b,c]`` — tensors (a list of reals)
* ``42`` — integers
* ``1.5``, ``1e-3`` — reals

and declare the flags that configure a run once, in
:func:`add_run_arguments`; :func:`run_recorder` and :func:`report_run`
are what both command lines do with them around the run.
"""

from __future__ import annotations

import argparse

from repro.errors import InputError
from repro.runtime.choices import BACKEND_NAMES, DEFAULT_BLOCK_SIZE, SCHEDULER_CHOICES


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the run flags both command lines share.

    ``--workers --scheduler --backend --block-size`` map onto
    :meth:`Program.run <repro.runtime.program.Program.run>`'s parameters;
    ``--trace --profile --metrics-out`` onto its ``obs``.
    """
    parser.add_argument("--workers", type=str, default=None, metavar="N|auto",
                        help="worker count, or 'auto' for the CPU count "
                             "(default: 1, or 'auto' with --scheduler auto)")
    parser.add_argument("--scheduler", choices=SCHEDULER_CHOICES, default=None,
                        help="seq, thread, process (numpy backend only), or "
                             "auto (default: seq for 1 worker, thread "
                             "otherwise); auto picks seq on a single-CPU "
                             "machine, for 1 worker, or when the program "
                             "fits in one strand block, else thread for "
                             "--backend c and process for numpy")
    parser.add_argument("--backend", choices=BACKEND_NAMES, default="numpy",
                        help="strand-update backend: numpy (the generated "
                             "NumPy module, the reference) or c (native "
                             "kernel loaded via ctypes; needs a C compiler, "
                             "falls back to numpy with a warning)")
    parser.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
                        help="strands per work-list block (default: "
                             f"{DEFAULT_BLOCK_SIZE}, the paper's)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON file")
    parser.add_argument("--profile", action="store_true",
                        help="print the run report (passes, instruction "
                             "counts, hot ops, scheduler health, workers, "
                             "convergence)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the run's metrics JSON document (see "
                             "python -m repro.obs report)")


def run_recorder(args):
    """``(workers, obs)`` for a command-line run: the resolved
    ``--workers`` (default ``auto`` under ``--scheduler auto``, else 1;
    a bad count raises :class:`~repro.errors.InputError`) and the one
    :class:`~repro.obs.Obs` the compile and the run record into, with
    per-step spans when ``--trace`` or ``--profile`` asks for them."""
    from repro.obs import Obs
    from repro.runtime.scheduler import resolve_workers

    raw = args.workers
    if raw is None:
        raw = "auto" if args.scheduler == "auto" else "1"
    return resolve_workers(raw), Obs("cli", detail=bool(args.trace or args.profile))


def report_run(args, obs, result, workers: int, stats=None, **meta) -> int:
    """Do what ``--trace``, ``--profile`` and ``--metrics-out`` ask of a
    finished run: write the Chrome trace, print the run report (with the
    instruction counts of ``stats``, a ``CompileStats``), write the
    metrics document (``meta`` joins its metadata).  An artifact that
    cannot be written is an ``error:`` line on stderr; returns the exit
    status, 1 if any was not written.  The exporters are imported only
    for the flags that need them."""
    import sys
    from functools import partial

    writers = []
    if args.trace:
        from repro.obs.export import write_chrome_trace

        writers.append(("trace", args.trace, write_chrome_trace))
    if args.profile:
        from repro.obs.export import format_summary

        print(format_summary(obs, stats))
    if args.metrics_out:
        from repro.obs.metrics import write_metrics_json

        meta.update(workers=workers, block_size=args.block_size,
                    scheduler=args.scheduler or
                    ("seq" if workers == 1 else "thread"),
                    wall_seconds=result.wall_time)
        writers.append(("metrics", args.metrics_out,
                        partial(write_metrics_json, meta=meta)))
    status = 0
    for what, path, write in writers:
        try:
            write(obs, path)
            print(f"wrote {what} {path}")
        except OSError as exc:
            print(f"error: cannot write {what} {path}: {exc}", file=sys.stderr)
            status = 1
    return status


def parse_value(text: str):
    """Parse one input value from its command-line spelling.

    Raises :class:`~repro.errors.InputError` on text that parses as none
    of the accepted forms.
    """
    text = text.strip()
    if text in ("true", "false"):
        return text == "true"
    if text.startswith("["):
        if not text.endswith("]"):
            raise InputError(f"unterminated vector literal {text!r}")
        body = text[1:-1].strip()
        if not body:
            raise InputError(f"empty vector literal {text!r}")
        try:
            return [float(part) for part in body.split(",")]
        except ValueError as exc:
            raise InputError(f"bad vector component in {text!r}: {exc}") from exc
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(
            f"cannot parse input value {text!r} (expected bool, int, "
            "real, or [a,b,...])"
        ) from exc
