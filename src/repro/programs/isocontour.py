"""isocontour: particle-based isocontour detection (Figure 7, §4.3).

A grid of strands picks the nearest of three isovalues to its starting
field value and runs Newton-Raphson along the normalized gradient to land
on that isocontour; strands that leave the domain or fail to converge die,
so the stable collection (``initially { ... }``) is a *subset* of the
initial strands — the green dots of Figure 8.
"""

from __future__ import annotations

from repro.data import portrait_phantom
from repro.programs import source

SOURCE = source("isocontour")

NAME = "isocontour"
PAPER_STRANDS = None  # demonstration program (Figures 7-8), not in Table 1


def make_program(precision: str = "double", scale: float = 1.0, image_size: int = 100):
    from repro.core.driver import compile_program

    prog = compile_program(SOURCE, precision=precision)
    prog.bind_image("ddro", portrait_phantom(image_size))
    res = max(2, int(round(image_size * scale)))
    prog.set_input("resU", res)
    prog.set_input("resV", res)
    return prog
