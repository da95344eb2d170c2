"""Code generation backends.

* :mod:`repro.core.codegen.pygen` — the production backend: LowIR →
  Python/NumPy source, data-parallel across strands (DESIGN.md deviation
  2: the original's per-strand SSE vectorization becomes across-strand
  array programming).
* :mod:`repro.core.codegen.cgen` — the native backend: LowIR → a
  self-contained C translation unit (one strand-update function over flat
  ``double*`` buffers), compiled and loaded at build time by
  :mod:`repro.core.codegen.cbuild` via ctypes; selected with ``--backend c``
  and verified against pygen as the differential oracle.
* :mod:`repro.core.codegen.interp` — a reference interpreter that executes
  HighIR directly against the :mod:`repro.fields` runtime objects,
  bypassing probe synthesis entirely; used to differentially test the
  lowering pipeline.
"""

from repro.lazy import exports

__all__ = ["generate_module"]
__getattr__ = exports(__name__, {"generate_module": "repro.core.codegen.pygen"})
