"""vr-lite: "simple volume-renderer with Phong shading" (Figure 1, §6.2).

A grid of ray strands marches through the scalar field; where the field
value exceeds the opacity window the strand accumulates shaded gray-level
contribution, with the surface normal taken from the gradient field.
"""

from __future__ import annotations

from repro.data import hand_phantom
from repro.programs import source

#: the Diderot program (Figure 1, with the camera as explicit inputs)
SOURCE = source("vr_lite")

#: paper's strand count for this benchmark (Table 1)
PAPER_STRANDS = 165_600

#: update-method line span for Table 1's "core" LOC (computed dynamically)
NAME = "vr-lite"


def make_program(precision: str = "double", scale: float = 1.0, volume_size: int = 48):
    """Compile vr-lite and bind the synthetic hand volume.

    ``scale`` multiplies the image resolution per axis (strand count
    scales with ``scale²``); at scale 1.0 the grid is 100x100 = 10,000
    strands vs the paper's 165,600.
    """
    from repro.core.driver import compile_program

    prog = compile_program(SOURCE, precision=precision)
    prog.bind_image("img", hand_phantom(volume_size))
    res = max(2, int(round(100 * scale)))
    prog.set_input("imgResU", res)
    prog.set_input("imgResV", res)
    # keep the viewport covering the volume at any resolution
    prog.set_input("cVec", [30.0 / res, 0.0, 0.0])
    prog.set_input("rVec", [0.0, 30.0 / res, 0.0])
    return prog
