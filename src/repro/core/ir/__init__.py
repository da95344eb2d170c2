"""The compiler's intermediate representations (paper §5.1).

"The optimization and lowering occurs over a series of three intermediate
representations (IRs) based on Static Single Assignment (SSA) form.  These
IRs share a common control-flow graph representation, but differ in their
types and operations."

Our shared representation (:mod:`repro.core.ir.base`) is *structured SSA*:
because the 2012 surface language has structured control flow only, each
function body is a tree of instructions and ``if`` regions with explicit
φ-lists at the joins, rather than a free-form CFG (DESIGN.md, deviation 1).
The three levels share this structure and differ in their operator
vocabularies, three views of the one op table in
:mod:`repro.core.ir.ops`, enforced by :func:`repro.core.ir.base.validate`.

* **HighIR** — "essentially a desugared version of the source language":
  tensor operations and probes of *normalized* convolution fields.
* **MidIR** — probes compiled away into world→index transforms, voxel
  gathers, per-axis kernel weights, convolution contractions, and the
  ``M⁻ᵀ`` gradient pushback.
* **LowIR** — kernel weight evaluations expanded into Horner-form
  arithmetic; only vector/scalar primitives and library calls remain.
"""

from repro.core.ir.base import Body, Func, IfRegion, Instr, Phi, Value, validate

__all__ = ["Body", "Func", "IfRegion", "Instr", "Phi", "Value", "validate"]
