"""illust-vr: "fancy volume-renderer with cartoon shading" (Figure 3, §6.2).

The ray strands compute implicit-surface principal curvatures (κ₁, κ₂)
from the gradient and Hessian (§4.1) and look the surface color up in a
2-D RGB transfer-function field sampled with bilinear interpolation
(``tent``), exactly the structure of the paper's Figure 3.
"""

from __future__ import annotations

import numpy as np

from repro.data import hand_phantom
from repro.image import Image, Orientation
from repro.programs import source

SOURCE = source("illust_vr")

PAPER_STRANDS = 307_200
NAME = "illust-vr"


def curvature_colormap(size: int = 33) -> Image:
    """The (κ₁, κ₂) → RGB transfer function image (Figure 4's colormap).

    Index space covers κ ∈ [-1, 1] on both axes; colors separate convex
    (κ>0, warm) from concave (κ<0, cool) and saddle regions, like the
    bivariate map of Kindlmann et al. the paper cites [17].
    """
    u = np.linspace(-1.0, 1.0, size)
    k1, k2 = np.meshgrid(u, u, indexing="ij")
    r = 0.5 + 0.5 * np.clip(k1, -1, 1)
    g = 0.5 + 0.5 * np.clip(k2, -1, 1)
    b = 1.0 - 0.25 * np.clip(k1 + k2, -2, 2)
    rgb = np.stack([r, g, b], axis=-1)
    # orientation maps index [0, size-1] to world [-1, 1]
    orient = Orientation(
        np.diag([2.0 / (size - 1)] * 2), np.array([-1.0, -1.0])
    )
    return Image(rgb, dim=2, tensor_shape=(3,), orientation=orient)


def make_program(precision: str = "double", scale: float = 1.0, volume_size: int = 48):
    from repro.core.driver import compile_program

    prog = compile_program(SOURCE, precision=precision)
    prog.bind_image("img", hand_phantom(volume_size))
    prog.bind_image("xfer", curvature_colormap())
    res = max(2, int(round(100 * scale)))
    prog.set_input("imgResU", res)
    prog.set_input("imgResV", res)
    prog.set_input("cVec", [30.0 / res, 0.0, 0.0])
    prog.set_input("rVec", [0.0, 30.0 / res, 0.0])
    return prog
