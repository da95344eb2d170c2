"""lic2d: line integral convolution (Figure 5, §4.2, §6.2).

Each pixel strand integrates a streamline forward and backward through the
vector field with the midpoint method (second-order Runge-Kutta), averaging
noise-texture samples along it; the result is modulated by the seed-point
velocity magnitude, exactly as in the paper's Figure 5.
"""

from __future__ import annotations

from repro.data import noise_texture, vector_field_2d
from repro.programs import source

SOURCE = source("lic2d")

PAPER_STRANDS = 572_220
NAME = "lic2d"


def make_program(precision: str = "double", scale: float = 1.0, field_size: int = 64):
    from repro.core.driver import compile_program

    prog = compile_program(SOURCE, precision=precision)
    prog.bind_image("vectors", vector_field_2d(field_size))
    prog.bind_image("rand", noise_texture(field_size))
    res = max(2, int(round(250 * scale)))
    prog.set_input("imgResU", res)
    prog.set_input("imgResV", res)
    return prog
