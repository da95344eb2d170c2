"""Diderot's type system (paper §3.4, Figure 2; §5.1).

The language is monomorphic, but "most of its operators have instances at
multiple types", so the checker uses "a mix of ad hoc overloading and
polymorphism ... the internal representation of types includes kinded type
variables, shape variables, and dimension variables" resolved by
unification (§5.1).  Because every Diderot expression has a ground type
bottom-up (all declarations are explicitly typed and literals are ground),
unification here is one-way matching of signature patterns — with shape,
dimension, and continuity variables — against ground argument types.
"""

from repro.core.ty.types import (
    BOOL,
    INT,
    REAL,
    STRING,
    FieldTy,
    ImageTy,
    KernelTy,
    TensorTy,
    Ty,
    vec,
)
from repro.lazy import exports

__all__ = [
    "BOOL",
    "INT",
    "REAL",
    "STRING",
    "FieldTy",
    "ImageTy",
    "KernelTy",
    "TensorTy",
    "Ty",
    "TypedProgram",
    "check_program",
    "vec",
]

# The checker is imported on first use, not with the package: it pulls in
# the overload tables, which derive from repro.core.ir.ops, which imports
# this package's types — importing it here would close that cycle whenever
# the op table happens to be imported first.
__getattr__ = exports(__name__, {"check_program": "repro.core.ty.check",
                                 "TypedProgram": "repro.core.records"})
