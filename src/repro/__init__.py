"""repro — a Python reproduction of *Diderot: A Parallel DSL for Image
Analysis and Visualization* (Chiw, Kindlmann, Reppy, Samuels, Seltzer,
PLDI 2012).

Quick start::

    import repro

    prog = repro.compile_program('''
        image(3)[] img = load("volume.nrrd");
        field#2(3)[] F = img ⊛ bspln3;
        strand S (int i) {
            output real v = 0.0;
            update { v = F([real(i), 0.0, 0.0]); stabilize; }
        }
        initially [ S(i) | i in 0 .. 9 ];
    ''')
    prog.bind_image("img", my_image)     # or let load(...) read the NRRD
    result = prog.run()
    print(result.outputs["v"])

Packages
--------
:mod:`repro.core`
    The Diderot compiler (the paper's contribution): front-end, three
    SSA-style IRs, field normalization, probe synthesis, domain-specific
    optimization, NumPy code generation.
:mod:`repro.runtime`
    Bulk-synchronous strand execution: sequential, threaded, and
    simulated-multicore schedulers.
:mod:`repro.fields`, :mod:`repro.kernels`, :mod:`repro.image`,
:mod:`repro.tensors`, :mod:`repro.nrrd`
    The substrates: continuous tensor fields by separable convolution,
    piecewise-polynomial kernels with symbolic derivatives, oriented
    images, small-tensor math with closed-form eigensystems, and the NRRD
    file format.
:mod:`repro.gage`
    A Teem/`gage`-style per-point probing library — the paper's baseline.
:mod:`repro.programs`, :mod:`repro.baselines`, :mod:`repro.data`
    The paper's four benchmark programs, their hand-written baselines, and
    synthetic stand-ins for the paper's datasets.
"""

from repro.lazy import exports

__version__ = "1.0.0"

#: public name -> defining module, imported on first access: ``python -m
#: repro --help`` loads neither NumPy nor the compiler
_EXPORTS = {
    "KERNELS": "repro.kernels",
    "Field": "repro.fields",
    "Image": "repro.image",
    "Kernel": "repro.kernels",
    "OptOptions": "repro.core.records",
    "Orientation": "repro.image",
    "Program": "repro.runtime.program",
    "RunResult": "repro.runtime.program",
    "bspln3": "repro.kernels",
    "bspln5": "repro.kernels",
    "compile_file": "repro.core.api",
    "compile_program": "repro.core.api",
    "compile_to_source": "repro.core.driver",
    "convolve": "repro.fields",
    "ctmr": "repro.kernels",
    "read_nrrd": "repro.nrrd",
    "tent": "repro.kernels",
    "write_nrrd": "repro.nrrd",
}

__all__ = sorted(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
