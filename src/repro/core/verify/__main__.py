"""Command-line entry for the verification layer.

::

    python -m repro.core.verify fuzz --n 50 --seed 0
    python -m repro.core.verify props --seed 0 --positions 24
    python -m repro.core.verify check prog.diderot [more.diderot ...]

``fuzz`` differentially executes seeded random programs (compiled under
every scheduler vs the HighIR interpreter), prints shrunk counterexamples
and ends with its own coverage — which LowIR ops the programs never
contained; ``props`` runs the Figure-10 identity harness; ``check``
compiles source files with the IR validator enabled between every pass
and prints the SHA-256 of the generated Python and C — unchanged digests
across a compiler refactoring mean byte-identical generated code.
Exit status is non-zero on any failure, so all three work as CI jobs.

Every subcommand aggregates the metrics of all the programs it compiles
and runs into one ``repro.obs.Obs`` (each compile and run folds into it);
``--metrics-out FILE`` saves the aggregate document.
"""

from __future__ import annotations

import argparse
import sys

from repro.runtime.choices import BACKEND_NAMES


def _cmd_fuzz(ns) -> int:
    from repro.core.ir.ops import LOW
    from repro.core.verify.fuzz import fuzz

    report = fuzz(
        n=ns.n,
        seed=ns.seed,
        schedulers=tuple(ns.schedulers.split(",")) if ns.schedulers else None,
        shrink=not ns.no_shrink,
        progress=(lambda k, s: print(f"[{k + 1}/{ns.n}] seed {s}", end="\r"))
        if ns.progress else None,
        fuse=not ns.no_fuse,
        backend=ns.backend,
        precision="single" if ns.single else "double",
        incremental=ns.incremental,
    )
    print(f"fuzz: {report.n_programs} programs, schedulers "
          f"{'/'.join(report.schedulers)}"
          f"{', probe fusion off' if ns.no_fuse else ''}"
          f"{f', backend {ns.backend}' if ns.backend != 'numpy' else ''}"
          f"{', single precision' if ns.single else ''}"
          f"{', incremental replay' if ns.incremental else ''}: "
          f"{'all agree' if report.ok else f'{len(report.failures)} FAILURES'}")
    for f in report.failures:
        print(f"\nseed {f.seed}: {f.message}\nminimized reproducer:")
        print(f.minimized)
    never = sorted(set(LOW) - report.ops)
    print(f"LowIR ops {len(LOW) - len(never)}/{len(LOW)} emitted; "
          f"never: {' '.join(never) or 'none'}")
    return 0 if report.ok else 1


def _cmd_props(ns) -> int:
    from repro.core.verify.properties import run_properties

    results = run_properties(seed=ns.seed, n_positions=ns.positions)
    for r in results:
        print(r)
    return 0 if all(r.ok for r in results) else 1


def _cmd_check(ns) -> int:
    from repro.core.driver import code_digests, compile_file, source_digest
    from repro.errors import CodegenError, DiderotError

    status = 0
    for path in ns.files:
        try:
            # never from the compile cache: a hit skips the passes to validate
            prog = compile_file(path, check=True, cache=False)
        except (DiderotError, OSError) as exc:
            print(f"{path}: FAIL\n  {exc}")
            status = 1
            continue
        try:
            py_sha, c_sha = code_digests(prog)
            c_line = f"sha256 {c_sha}"
        except CodegenError as exc:
            # valid, and runs on NumPy: C emission is optional, as in a run
            py_sha = source_digest(prog.generated_source)
            c_line = f"not translatable ({exc})"
        print(f"{path}: ok (validated after every pass)\n"
              f"  python sha256 {py_sha}\n  c      {c_line}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.verify",
        description="compiler verification: differential fuzzing, "
                    "normalization properties, per-pass IR validation",
    )
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the aggregate metrics JSON document")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fuzz", help="differential fuzzing across schedulers")
    p.add_argument("--n", type=int, default=50, help="number of programs")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--schedulers", default=None,
                   help="comma list (default seq,thread,process; "
                        "seq,thread with --backend c)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimizing them")
    p.add_argument("--no-fuse", action="store_true",
                   help="compile without probe fusion (A/B the optimizer)")
    p.add_argument("--backend", choices=BACKEND_NAMES, default="numpy",
                   help="strand-update backend for the compiled legs "
                        "(c additionally diffs against the NumPy oracle "
                        "and runs each program under both step-loop "
                        "drivings, in the kernel and per step)")
    p.add_argument("--single", action="store_true",
                   help="compile the legs in single precision; the float64 "
                        "interpreter stays the oracle at relaxed tolerance")
    p.add_argument("--incremental", action="store_true",
                   help="replay random dirty-region patch sequences through "
                        "checkpointed update runs against fresh-compile "
                        "cold oracles (bit-identity contract)")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("props", help="Figure-10 normalization identities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--positions", type=int, default=24)
    p.set_defaults(fn=_cmd_props)

    p = sub.add_parser("check", help="compile files with per-pass validation")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_check)

    ns = parser.parse_args(argv)
    from repro.errors import DiderotError
    from repro.obs import Obs, write_metrics_json

    try:
        with Obs("verify") as session:
            status = ns.fn(ns)
        if ns.metrics_out:
            write_metrics_json(session, ns.metrics_out,
                               meta={"command": ns.cmd})
            print(f"wrote metrics {ns.metrics_out}")
        return status
    except DiderotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
