"""ridge3d: particle-based ridge detection (§6.2).

"An initial uniform distribution of points within a portion of CT scan of
a lung is moved iteratively towards the centers of blood vessels, using
Newton optimization to compute ridge lines.  This program computes the
eigenvalues and eigenvectors of the Hessian, and permits the implementation
to closely resemble the mathematical definition of a ridge line" (citing
Eberly's height-ridge definition [11]).

A point x is on a 1-D height ridge when the gradient is orthogonal to the
two most-negative Hessian eigenvectors; the Newton step projects the
gradient onto that cross-sectional eigenplane and divides by the
eigenvalues:

    Δ = -( (g•e₂)/λ₂ ) e₂ - ( (g•e₃)/λ₃ ) e₃

Strands die when they leave the domain, land in non-ridge-like territory
(λ₂ ≥ 0), or fail to converge; they stabilize when the step shrinks below
``epsilon``.
"""

from __future__ import annotations

from repro.data import lung_phantom
from repro.programs import source

SOURCE = source("ridge3d")

PAPER_STRANDS = 1_728_000
NAME = "ridge3d"


def make_program(precision: str = "double", scale: float = 1.0, volume_size: int = 48):
    from repro.core.driver import compile_program

    prog = compile_program(SOURCE, precision=precision)
    prog.bind_image("img", lung_phantom(volume_size))
    res = max(2, int(round(12 * scale)))
    prog.set_input("gridRes", res)
    return prog
