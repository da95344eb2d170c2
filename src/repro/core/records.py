"""The records a compile is configured by and hands on.

Plain dataclasses — the optimization toggles, the type checker's symbol
tables, the lowered program and the per-pass statistics — in a module
that imports no compiler pass.  A compile-cache entry
(:mod:`repro.serve.cache`) pickles them, so a cache hit can unpickle a
runnable program without loading the compiler.  Their historical homes
(:mod:`repro.core.driver`, :mod:`repro.core.ty.check`,
:mod:`repro.core.xform.to_high`) re-export them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.core.ir.base import Func
    from repro.core.syntax.ast import Program
    from repro.core.ty.types import Ty


@dataclass
class OptOptions:
    """Optimization toggles (all on by default).

    ``contraction`` and ``value_numbering`` are the paper's §5.4 passes;
    ``probe_fusion`` is the shared-partial-contraction rewrite
    (:mod:`repro.core.xform.probe_fuse`), exposed separately so the fused
    and unfused pipelines can be A/B-compared (``--no-fuse``).
    """

    contraction: bool = True
    value_numbering: bool = True
    probe_fusion: bool = True


@dataclass
class CompileStats:
    """Per-function instruction counts across the pipeline, for the
    §5.4 optimization ablations.

    Built from the compile trace (:meth:`from_trace`); the driver emits
    an ``instr-count`` event after each IR stage and a ``removed`` count
    on every value-numbering pass span.
    """

    high_instrs: dict[str, int] = field(default_factory=dict)
    mid_instrs: dict[str, int] = field(default_factory=dict)
    mid_instrs_unopt: dict[str, int] = field(default_factory=dict)
    low_instrs: dict[str, int] = field(default_factory=dict)
    vn_removed: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, events) -> "CompileStats":
        """Aggregate a trace's compile events into the stats tables."""
        stats = cls()
        tables = {
            "high": stats.high_instrs,
            "mid": stats.mid_instrs,
            "mid-unopt": stats.mid_instrs_unopt,
            "low": stats.low_instrs,
        }
        for ev in events:
            if ev.cat == "count" and ev.name == "instr-count":
                table = tables.get(ev.args["ir"])
                if table is not None:
                    table[ev.args["func"]] = ev.args["value"]
            elif ev.cat == "pass" and ev.name == "value-numbering":
                fn = ev.args.get("func")
                if fn is not None:
                    stats.vn_removed[fn] = (
                        stats.vn_removed.get(fn, 0) + ev.args.get("removed", 0)
                    )
        return stats


@dataclass
class VarInfo:
    name: str
    ty: Ty
    kind: str
    mutable: bool
    is_output: bool = False
    is_input: bool = False


@dataclass
class TypedProgram:
    """The result of type checking: the AST plus symbol information."""

    program: Program
    globals: dict[str, VarInfo]
    global_order: list[str]
    params: dict[str, VarInfo]
    state: dict[str, VarInfo]
    state_order: list[str]
    outputs: list[str]

    @property
    def inputs(self) -> list[str]:
        return [n for n in self.global_order if self.globals[n].is_input]


@dataclass
class ImageSlot:
    """A global image: its declared type and where its data comes from."""

    name: str
    dim: int
    shape: tuple[int, ...]
    path: Optional[str]  # NRRD path from load(...), or None if bound in API


@dataclass
class HighProgram:
    """All IR functions for one Diderot program, plus what the runtime
    needs of its symbols.

    Built as HighIR by :class:`repro.core.xform.to_high.HighBuilder`; the
    driver lowers its functions in place, so a compiled program's are
    LowIR.
    """

    #: input name → ``(kind, shape)``: kind ``int``, ``bool``, ``tensor``
    #: (of that shape) or ``other``
    input_types: dict[str, tuple[str, tuple[int, ...]]]
    #: strand parameter and state variable name → tensor order (0 for a
    #: non-tensor; a state variable wins over a parameter of its name)
    tensor_orders: dict[str, int]
    images: dict[str, ImageSlot]
    globals_func: Func
    defaults_func: Func
    bounds_func: Func
    seed_func: Func
    init_func: Func
    update_func: Func
    stabilize_func: Optional[Func]
    #: inputs that have a default value (computable by defaults_func)
    defaulted_inputs: list[str]
    #: concrete globals in declaration order (the runtime "globals" record)
    concrete_globals: list[str]
    input_names: list[str]
    iter_names: list[str]
    grid: bool
    state_order: list[str]
    #: strand parameters referenced inside methods: persisted as hidden,
    #: immutable state alongside the declared state variables
    extra_state: list[str]
    outputs: list[str]

    def funcs(self) -> list[Func]:
        """Every function, in pipeline order."""
        fns = [self.globals_func, self.defaults_func, self.bounds_func,
               self.seed_func, self.init_func, self.update_func]
        if self.stabilize_func is not None:
            fns.append(self.stabilize_func)
        return fns
