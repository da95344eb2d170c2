"""The Diderot runtime (paper §5.5).

"The Diderot runtime is comprised of common code for loading image data
from Nrrd files and writing the program's output ... In addition to the
common code, there is target-specific code for managing strands."

* :mod:`repro.runtime.ops` — the primitive operations that generated code
  calls (one function per LowIR op), vectorized across strand lanes;
* :mod:`repro.runtime.program` — the compiled-program object: inputs,
  image binding, execution, outputs;
* :mod:`repro.runtime.plan`, :mod:`~repro.runtime.kernel`,
  :mod:`~repro.runtime.loop` — what a run is composed of: its decisions,
  the block kernel, the strand set and the one super-step loop;
* :mod:`repro.runtime.scheduler` — bulk-synchronous strand scheduling:
  sequential, thread-pool, and simulated-multicore (DESIGN.md) variants.
"""

from repro.runtime.program import Program

__all__ = ["Program"]
