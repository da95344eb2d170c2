"""The compiler's entry points: source text or a file → runnable Program.

:func:`compile_program` is the one place the persistent compile cache
(:mod:`repro.serve.cache`) is consulted, for library callers, the
serving layer and ``python -m repro`` alike.  A hit builds the Program
from the entry and imports no compiler pass — not even
:mod:`repro.core.driver`, which a miss loads to run the pipeline.  Both
functions are re-exported by the driver and by :mod:`repro`.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.records import OptOptions
from repro.errors import CompileError, InputError
from repro.obs import scope


def compile_program(
    source: str,
    precision: str = "double",
    optimize=None,
    search_path: str = ".",
    obs=None,
    check: bool | None = None,
    cache: bool = False,
):
    """Compile Diderot source text into a runnable Program.

    Parameters
    ----------
    source:
        Diderot program text.
    precision:
        ``"single"`` or ``"double"`` — the representation of ``real``
        (paper §6.3: "the user must decide if reals are represented as
        single or double-precision floats").
    optimize:
        :class:`~repro.core.records.OptOptions` toggles; defaults to
        everything on.
    search_path:
        Directory against which ``load(...)`` paths resolve.
    obs:
        Optional :class:`repro.obs.Obs` that receives the compiler-pass
        spans (pass the same one to :meth:`Program.run
        <repro.runtime.program.Program.run>` for one unified timeline).
    check:
        Run the IR validators at every pass boundary (``--check``);
        defaults to the ``REPRO_CHECK`` environment variable.
    cache:
        Use the persistent compile cache (``--compile-cache``; the
        serving layer always does).  A hit skips the compiler entirely —
        its only trace is one ``compile-cache-hit`` event; a miss
        compiles and stores the Program with its C translation unit.
    """
    # here, not at the top: the driver re-exports this function, and a
    # caller that only compiles loads neither the runtime nor the cache
    from repro.runtime.program import Program

    if precision not in ("single", "double"):
        raise CompileError(f"precision must be 'single' or 'double', got {precision!r}")
    dtype = np.float32 if precision == "single" else np.float64
    opts = optimize or OptOptions()
    with scope(obs, "compile") as obs:
        key = None
        if cache:
            from repro.serve import cache as _cc

            key = _cc.fingerprint(source, opts, precision)
            entry = _cc.load(key, obs)
            if entry is not None:
                return Program.from_entry(entry, dtype, search_path)
        from repro.core import driver

        gen_source, hp, stats = driver.compile_to_source(
            source, opts, obs=obs, check=check, cache=False)
        prog = Program(hp, gen_source, dtype, search_path, stats)
        if key is not None:
            _cc.store(key, prog, obs)
        return prog


def compile_file(path: str, **kwargs):
    """Compile a ``.diderot`` file (load paths resolve next to it)."""
    try:
        with open(path, encoding="utf-8") as fp:
            src = fp.read()
    except UnicodeDecodeError:
        raise InputError(f"{path}: not a UTF-8 Diderot source") from None
    kwargs.setdefault("search_path", os.path.dirname(os.path.abspath(path)))
    return compile_program(src, **kwargs)
