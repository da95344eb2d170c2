"""Tensor math substrate: the concrete values of the Diderot language.

Diderot's concrete numeric values are tensors — scalars, vectors, and
matrices (paper §2).  This package provides small-tensor operations the
language exposes (cross, outer, norms, trace, determinant, normalize) and
closed-form eigensystems for symmetric 2x2 and 3x3 matrices, all vectorized
over arbitrary leading "strand" axes.  ``•``, ``lerp`` and ``identity[n]``
live in :mod:`repro.runtime.ops` only: ``•`` needs the operands' tensor
orders, which the arrays' shapes cannot tell apart from a lane axis.
"""

from repro.tensors.ops import (
    cross,
    determinant,
    norm,
    normalize,
    outer,
    trace,
    transpose,
)
from repro.tensors.eigen import eigen_symmetric, evals, evecs

__all__ = [
    "cross",
    "determinant",
    "eigen_symmetric",
    "evals",
    "evecs",
    "norm",
    "normalize",
    "outer",
    "trace",
    "transpose",
]
