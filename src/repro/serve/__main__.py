"""``python -m repro.serve`` — run the compile-once serving front door.

Quick start (serves the bundled probe demo)::

    python -m repro.serve --register demo=examples/programs/probe_serve.diderot \\
        --probe demo=pts:N --workers 2 --scheduler thread

then::

    curl -s localhost:8077/healthz
    curl -s -X POST localhost:8077/probe/demo \\
        -d '{"points": [[15.0, 15.0, 30.0]]}'
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.runtime.choices import BACKEND_NAMES


def _parse_register(specs, probes):
    """``name=path`` pairs plus ``name=image:count[:pad]`` probe specs."""
    from repro.serve.registry import ProbeSpec

    probe_by_name = {}
    for spec in probes or ():
        name, _, rest = spec.partition("=")
        parts = rest.split(":")
        if len(parts) < 2:
            raise SystemExit(
                f"--probe {spec!r}: expected NAME=IMAGE:COUNT_INPUT[:PAD]"
            )
        probe_by_name[name] = ProbeSpec(
            points_image=parts[0], count_input=parts[1],
            pad=int(parts[2]) if len(parts) > 2 else 1,
        )
    out = []
    for spec in specs or ():
        name, sep, path = spec.partition("=")
        if not sep or not path:
            raise SystemExit(f"--register {spec!r}: expected NAME=PATH")
        out.append((name, path, probe_by_name.get(name)))
    return out


async def _serve(args) -> int:
    from repro.serve.registry import ProgramRegistry, warm_manifest
    from repro.serve.server import ServeApp

    app = ServeApp(
        ProgramRegistry(capacity=args.capacity), max_batch=args.max_batch,
        max_queue=args.max_queue, compile_cache=not args.no_compile_cache,
    )
    if args.warm:
        warmed = await asyncio.to_thread(
            warm_manifest, app.registry, args.warm,
            cache=not args.no_compile_cache,
        )
        for entry in warmed:
            print(f"warmed {entry.name!r}: {entry.info()}", file=sys.stderr)
    for name, path, probe in _parse_register(args.register, args.probe):
        entry = await asyncio.to_thread(
            app.registry.register, name, path=path, probe=probe,
            precision=args.precision, scheduler=args.scheduler,
            workers=args.workers, backend=args.backend,
            cache=not args.no_compile_cache,
        )
        print(f"registered {name!r}: {entry.info()}", file=sys.stderr)
    await app.start(args.host, args.port)
    print(f"serving on http://{args.host}:{app.port}", file=sys.stderr)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    await stop.wait()
    await app.close()
    if args.metrics_out:
        from repro.obs import ROOT, write_metrics_json

        write_metrics_json(ROOT, args.metrics_out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async front door over the warm-program registry",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument("--register", action="append", metavar="NAME=PATH",
                        help="compile and register a program at startup "
                             "(repeatable)")
    parser.add_argument("--warm", metavar="MANIFEST",
                        help="JSON manifest of programs to compile and "
                             "register before binding the port")
    parser.add_argument("--probe", action="append",
                        metavar="NAME=IMAGE:COUNT[:PAD]",
                        help="probe spec for a registered name: the points "
                             "image global, the strand-count input, and "
                             "optional guard-row pad (default 1)")
    parser.add_argument("--precision", choices=["single", "double"],
                        default="double")
    parser.add_argument("--scheduler", choices=["seq", "thread", "process"],
                        default=None,
                        help="process runs the numpy backend only")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--backend", choices=BACKEND_NAMES, default=None)
    parser.add_argument("--capacity", type=int, default=None,
                        help="registry LRU capacity (default unbounded)")
    parser.add_argument("--max-batch", type=int, default=65536,
                        help="max strand rows per coalesced batch")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="max queued requests per program before "
                             "shedding with 429")
    parser.add_argument("--no-compile-cache", action="store_true",
                        help="bypass the persistent compile cache")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the serve metrics document on shutdown")
    args = parser.parse_args(argv)
    return asyncio.run(_serve(args))


if __name__ == "__main__":
    sys.exit(main())
