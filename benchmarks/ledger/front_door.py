"""Workload ``front-door``: everything a user meets before and around the
strands — the compiler, the command line and its caches (``cli_leg``), and
the HTTP serving layer (``serve_leg``).

One round takes one sample of every row: six in-process compiles, ``--help``,
a warm CLI run, an open-loop burst of probe requests, a few ``/run``
requests.  The rows are interleaved so that each one samples the whole
run, slow stretches of the host and fast ones alike.
"""

from __future__ import annotations

import os
from pathlib import Path

from ledger.cli_leg import CliLeg
from ledger.harness import MIN_SAMPLES, Checks, CpuRotation, repeat_setup, rounds
from ledger.serve_leg import ServeLeg


def run(workload: str, seed: int, seconds: float, traced: bool, sizes: dict) -> dict:
    run_dir = Path(os.environ["LEDGER_RUN_DIR"])
    checks = Checks()
    # this process (compiles, load generator) and its CLI children on one
    # CPU, the server on the next when there is one; they swap every few
    # rounds (a swap costs both their warm caches)
    rotation = CpuRotation(dwell_s=4.0)
    cli = CliLeg(seed, sizes["cli"], run_dir, checks)
    serve = ServeLeg(seed, sizes["serve"], run_dir, checks, rotation)

    def set_up(laps) -> bool:
        cli.set_up()
        laps.lap("cli_cold")
        serve.set_up(laps)
        return True

    def one_round(i: int) -> None:
        if rotation.tick():
            serve.server.pin(rotation.other)
        cli.round()
        serve.round(i)

    try:
        _, setup_parts = repeat_setup(set_up, rotation, lambda _state: serve.tear_down())
        rounds(seconds * (0.3 if traced else 1.0), one_round,
               min_rounds=2 if traced else MIN_SAMPLES)
        single_ms = serve.singles() * 1e3 if traced else None
    finally:
        serve.tear_down()
    cli.verify()
    serve.verify()

    doc = {
        "checks": checks,
        "setup_parts": setup_parts,
        "flags": {"cpus": rotation.cpus,
                  "cli_program": cli.program, "compiled_programs": sorted(cli.sources),
                  "requests_per_burst": serve.per_burst,
                  "pairs_per_s": sizes["serve"]["pairs_per_s"]},
        "end_to_end": {**cli.rows(), **serve.rows()},
    }
    if traced:
        diagnostics = serve.diagnostics()
        layers, ledger = cli.traced(repeats=3)
        serve_layers, serve_ratio = serve.traced(seconds * 0.2)
        diagnostics["serve.server.http_429"] = serve.http_429
        doc["layers"] = {**layers, **serve_layers, **diagnostics,
                         "serve.client.single_ms": single_ms}
        # both legs must add up; report the one further from 1
        doc["layer_sum_ratio"] = max(ledger.ratio, serve_ratio,
                                     key=lambda r: abs(r - 1.0))
    return doc
