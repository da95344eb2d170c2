"""Exception hierarchy for the Diderot reproduction.

Every error raised by the compiler, runtime, or substrate libraries derives
from :class:`DiderotError`, so callers can catch one type.  Compiler errors
carry a source :class:`~repro.core.syntax.source.Span` when one is known.
"""

from __future__ import annotations


class DiderotError(Exception):
    """Base class for all errors raised by this package."""


class SyntaxErrorD(DiderotError):
    """A lexical or syntactic error in a Diderot program.

    The trailing ``D`` avoids shadowing the builtin :class:`SyntaxError`.
    """

    def __init__(self, message: str, span=None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


class TypeErrorD(DiderotError):
    """A type error in a Diderot program."""

    def __init__(self, message: str, span=None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


class CompileError(DiderotError):
    """An internal error in a later compiler stage (simplify, IR, codegen)."""


class CodegenError(CompileError):
    """An error while emitting or building the native C backend.

    Raised by :mod:`repro.core.codegen.cgen` when the LowIR cannot be
    translated (unknown op, unsupported type, malformed attributes) and by
    :mod:`repro.core.codegen.cbuild` when no C compiler is on PATH
    or the compilation itself fails.  ``Program.run(backend="c")`` catches
    it and falls back to the NumPy backend with a warning; direct callers
    of the codegen see it raised.
    """


class RuntimeErrorD(DiderotError):
    """An error raised while executing a compiled Diderot program."""


class InputError(RuntimeErrorD):
    """An input variable was missing or set to an ill-typed value."""


class NrrdError(DiderotError):
    """A malformed NRRD file or an unsupported NRRD feature."""


class GageError(DiderotError):
    """Misuse of the gage (Teem-like) probing API."""
