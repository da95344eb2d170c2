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
:func:`add_run_arguments`.
"""

from __future__ import annotations

import argparse
import os

from repro.errors import InputError


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the run flags both command lines share.

    ``--workers --scheduler --backend --block-size`` map onto
    :meth:`Program.run <repro.runtime.program.Program.run>`'s parameters;
    ``--trace --profile --metrics-out`` onto its ``obs`` (``--trace``'s
    default is the one place ``REPRO_TRACE`` is read).
    """
    from repro.runtime.native import BACKEND_NAMES
    from repro.runtime.scheduler import DEFAULT_BLOCK_SIZE, SCHEDULER_CHOICES

    parser.add_argument("--workers", type=str, default=None, metavar="N|auto",
                        help="worker count, or 'auto' for the CPU count "
                             "(default: 1, or 'auto' with --scheduler auto)")
    parser.add_argument("--scheduler", choices=SCHEDULER_CHOICES, default=None,
                        help="seq, thread, process, or auto (default: seq for "
                             "1 worker, thread otherwise); auto picks seq on "
                             "a single-CPU machine, for 1 worker, or when "
                             "the program fits in one strand block, else "
                             "thread for --backend c and process for numpy")
    parser.add_argument("--backend", choices=BACKEND_NAMES, default="numpy",
                        help="strand-update backend: numpy (the generated "
                             "NumPy module, the reference) or c (native "
                             "kernel compiled via cffi; needs a C compiler, "
                             "falls back to numpy with a warning)")
    parser.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
                        help="strands per work-list block (default: "
                             f"{DEFAULT_BLOCK_SIZE}, the paper's)")
    parser.add_argument("--trace", metavar="FILE",
                        default=os.environ.get("REPRO_TRACE") or None,
                        help="write a Chrome trace-event JSON file (also "
                             "via REPRO_TRACE=FILE)")
    parser.add_argument("--profile", action="store_true",
                        help="print a pass / super-step / worker profile "
                             "summary")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the run's metrics JSON document (see "
                             "python -m repro.obs report)")


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
