"""Command-line Diderot compiler and runner.

The paper's compiler "synthesizes glue code that allows command-line
setting of input variables" (§3.3.1) and its runtime writes program output
"to either a text or Nrrd file" (§5.5).  This entry point provides both:

    python -m repro PROGRAM.diderot [--input name=value ...]
                                    [--precision single|double]
                                    [--scheduler seq|thread|process|auto]
                                    [--backend numpy|c]
                                    [--workers N|auto] [--block-size N]
                                    [--out PREFIX] [--text]
                                    [--emit-python] [--stats] [--check]
                                    [--trace FILE.json] [--profile]
                                    [--metrics-out FILE.json]
                                    [--compile-cache]

Each output variable is written to ``PREFIX-<name>.nrrd`` (or ``.txt``
with ``--text``).  ``--trace`` writes a Chrome trace-event JSON file
(loadable in Perfetto / ``chrome://tracing``) covering both the compiler
passes and the runtime's super-steps/blocks; ``--profile`` prints the
same data as a summary table.  Setting ``REPRO_TRACE=FILE.json`` in the
environment is equivalent to ``--trace FILE.json``.

The compile and the run record into one :class:`repro.obs.Obs` (DESIGN.md
"Observability"): ``--metrics-out FILE`` saves its metrics JSON document
(compile-pass timings, the op-profiler counters, scheduler health) for
``python -m repro.obs report``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.driver import OptOptions, compile_file
from repro.errors import DiderotError
from repro.inputs import add_run_arguments, parse_value
from repro.obs import Obs, format_summary, write_chrome_trace, write_metrics_json
from repro.runtime.scheduler import resolve_workers


def _write_text(prefix: str, name: str, arr: np.ndarray) -> str:
    path = f"{prefix}-{name}.txt"
    flat = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr
    np.savetxt(path, flat)
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro", description="Compile and run a Diderot program"
    )
    ap.add_argument("program", help="path to a .diderot source file")
    ap.add_argument("--input", action="append", default=[], metavar="NAME=VALUE",
                    help="set an input global (repeatable)")
    ap.add_argument("--precision", choices=("single", "double"), default="double")
    add_run_arguments(ap)
    ap.add_argument("--max-steps", type=int, default=None)
    ap.add_argument("--out", default="out", help="output file prefix")
    ap.add_argument("--text", action="store_true", help="write text, not NRRD")
    ap.add_argument("--emit-python", action="store_true",
                    help="print the generated NumPy code and exit")
    ap.add_argument("--stats", action="store_true",
                    help="print compiler statistics")
    ap.add_argument("--check", action="store_true",
                    help="run the IR validator after every compiler pass "
                         "(also via REPRO_CHECK=1)")
    ap.add_argument("--no-fuse", action="store_true",
                    help="disable probe fusion (A/B against the fused "
                         "pipeline)")
    ap.add_argument("--compile-cache", action=argparse.BooleanOptionalAction,
                    default=None,
                    help="use the persistent compile cache (default: the "
                         "REPRO_COMPILE_CACHE environment variable); a hit "
                         "skips the optimizer/lowering/codegen passes "
                         "entirely")
    args = ap.parse_args(argv)

    raw_workers = args.workers
    if raw_workers is None:
        raw_workers = "auto" if args.scheduler == "auto" else "1"
    try:
        workers = resolve_workers(raw_workers)
    except DiderotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # one recorder for the whole invocation: the compile's pass timings
    # and the run's metrics land in a single document and one timeline
    with Obs("cli", detail=bool(args.trace or args.profile)) as obs:
        return _compile_and_run(args, workers, obs)


def _compile_and_run(args, workers, obs) -> int:
    try:
        prog = compile_file(args.program, precision=args.precision, obs=obs,
                            check=True if args.check else None,
                            optimize=OptOptions(probe_fusion=not args.no_fuse),
                            cache=args.compile_cache)
    except (DiderotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.emit_python:
        print(prog.generated_source)
        return 0
    if args.stats:
        st = prog.stats
        print("instruction counts (HighIR → MidIR → LowIR), per function:")
        for fn in st.low_instrs:
            print(
                f"  {fn:<10} {st.high_instrs[fn]:>5} → {st.mid_instrs[fn]:>5} "
                f"→ {st.low_instrs[fn]:>5}   (VN removed {st.vn_removed.get(fn, 0)})"
            )

    for setting in args.input:
        if "=" not in setting:
            print(f"error: --input expects NAME=VALUE, got {setting!r}",
                  file=sys.stderr)
            return 1
        name, _, value = setting.partition("=")
        try:
            prog.set_input(name.strip(), parse_value(value))
        except DiderotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        result = prog.run(
            workers=workers,
            block_size=args.block_size,
            max_steps=args.max_steps,
            scheduler=args.scheduler,
            backend=args.backend,
            obs=obs,
        )
    except DiderotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(
        f"{result.num_strands} strands, {result.steps} super-steps, "
        f"{result.num_stable} stable, {result.num_died} died, "
        f"{result.wall_time:.2f}s"
    )
    status = 0
    if args.trace:
        try:
            write_chrome_trace(obs, args.trace)
            print(f"wrote trace {args.trace}")
        except OSError as exc:
            print(f"error: cannot write trace {args.trace}: {exc}",
                  file=sys.stderr)
            status = 1
    if args.profile:
        print(format_summary(obs))
    if args.metrics_out:
        try:
            write_metrics_json(
                obs, args.metrics_out,
                meta={"program": args.program, "workers": workers,
                      "scheduler": args.scheduler or
                      ("seq" if workers == 1 else "thread"),
                      "block_size": args.block_size,
                      "precision": args.precision,
                      "wall_seconds": result.wall_time},
            )
            print(f"wrote metrics {args.metrics_out}")
        except OSError as exc:
            print(f"error: cannot write metrics {args.metrics_out}: {exc}",
                  file=sys.stderr)
            status = 1
    if args.text:
        paths = [
            _write_text(args.out, name, arr)
            for name, arr in result.outputs.items()
        ]
    else:
        paths = result.save(args.out)
    for path, arr in zip(paths, result.outputs.values()):
        print(f"wrote {path}  shape={tuple(arr.shape)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
