"""Compiler verification layer (validators, property harness, fuzzer).

Three independent lines of defense against miscompilation:

* :mod:`repro.core.verify.validate` — per-level IR well-formedness
  checkers (structured-SSA def-before-use, per-instruction type/shape
  consistency against the :mod:`repro.core.ir.ops` vocabularies, level
  legality).  The driver runs them at every pass boundary when
  ``--check`` / ``REPRO_CHECK=1`` is set, so the first pass that breaks
  an invariant is named in the error instead of crashing downstream.
* :mod:`repro.core.verify.properties` — numeric metamorphic tests of the
  Figure-10 normalization identities on synthetic images.
* :mod:`repro.core.verify.fuzz` — a seeded random-program generator with
  a differential harness (pygen vs. the HighIR interpreter, across the
  seq/thread/process schedulers) and a structural shrinker.
"""

from __future__ import annotations

import os

from repro.lazy import exports

# the validators load on first use (``python -m repro.core.verify --help``
# and the driver's unchecked compiles never need them)
__getattr__ = exports(__name__, {"verify_func": "repro.core.verify.validate"})


def check_enabled(env: str = "REPRO_CHECK") -> bool:
    """True when pass-boundary IR validation is requested via ``env``."""
    return os.environ.get(env, "").strip().lower() in ("1", "true", "yes", "on")
