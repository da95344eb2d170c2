"""The paper's benchmark Diderot programs (§6.2, Table 1).

Each program's Diderot text exists once, as ``examples/programs/<p>.diderot``
in the source tree; each module exposes it as ``SOURCE`` (read by
:func:`source` at import) —

* :mod:`repro.programs.vr_lite`    — simple volume renderer (Figure 1)
* :mod:`repro.programs.illust_vr`  — curvature-shaded volume renderer (Figure 3)
* :mod:`repro.programs.lic2d`      — line integral convolution (Figure 5)
* :mod:`repro.programs.ridge3d`    — particle-based ridge detection
* :mod:`repro.programs.isocontour` — isocontour sampling (Figure 7, §4.3)

— plus a ``make_program`` helper that compiles it and binds the synthetic
input data from :mod:`repro.data`.  Grid resolutions are scaled-down
versions of the paper's (see DESIGN.md's benchmark scaling note); every
helper takes a ``scale`` knob.
"""

from pathlib import Path

#: ``examples/programs`` of the checkout this package is imported from
PROGRAMS_DIR = Path(__file__).resolve().parents[3] / "examples" / "programs"


def source(name: str) -> str:
    """The Diderot text of ``examples/programs/<name>.diderot``."""
    path = PROGRAMS_DIR / f"{name}.diderot"
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(
            f"paper program source {path} is missing: repro.programs reads "
            f"the examples/programs/ directory of a source checkout"
        ) from None


from repro.programs import illust_vr, isocontour, lic2d, ridge3d, vr_lite  # noqa: E402

ALL = {
    "vr-lite": vr_lite,
    "illust-vr": illust_vr,
    "lic2d": lic2d,
    "ridge3d": ridge3d,
    "isocontour": isocontour,
}

__all__ = ["ALL", "PROGRAMS_DIR", "illust_vr", "isocontour", "lic2d", "ridge3d",
           "source", "vr_lite"]
