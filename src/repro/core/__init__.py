"""The Diderot compiler — the paper's primary contribution.

The pipeline mirrors the three-phase structure of paper §5.1:

* **front-end** — :mod:`repro.core.syntax` (lexing/parsing),
  :mod:`repro.core.ty` (type checking with unification over shape and
  dimension variables), :mod:`repro.core.simple` (simplification to ANF
  with statically determined fields);
* **optimization and lowering** — :mod:`repro.core.ir` (HighIR, MidIR,
  LowIR) and :mod:`repro.core.xform` (field normalization, probe expansion,
  kernel-evaluation expansion, contraction, value numbering);
* **code generation** — :mod:`repro.core.codegen` (a NumPy backend
  vectorized across strands, plus a reference interpreter).

Use :func:`repro.core.api.compile_program` (re-exported as
:func:`repro.compile_program`) to go from source text to a runnable
:class:`~repro.runtime.program.Program`.
"""

from repro.lazy import exports

__all__ = ["compile_program", "compile_to_source"]
__getattr__ = exports(__name__, {"compile_program": "repro.core.api",
                                 "compile_to_source": "repro.core.driver"})
