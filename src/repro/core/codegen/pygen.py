"""LowIR → Python/NumPy source (the code-generation phase, paper §5.1).

"Because these targets are all block-structured languages, our first step
in code generation is to convert the LowIR SSA representation into a
block-structured AST."  Our structured SSA already *is* block-structured,
so emission is a single walk.

The generated module defines one function per compiled SSA function.  All
strand functions are **data-parallel across strands**: every SSA value
becomes a NumPy array with one lane per strand in the current block, and
an ``if`` region is compiled to *predicated* form — each φ becomes an
``rt.select`` on the branch condition (every LowIR op is pure and gathers
are clamped, so executing an arm for lanes that did not take it is safe).
Each arm is wrapped in a **uniform-branch guard**, ``if rt.any_lane(c):``
— when every lane in the block agrees (e.g. every ray already exited the
volume), the dead arm is skipped entirely and the φ collapses to a plain
assignment of the live arm's value.  Structured SSA makes the guard
sound: a value defined inside an arm is only reachable outside it
through a φ (value numbering is lexically scoped for the same reason).
Kernel weights appear as inline Horner expressions, honoring the paper's
"expand the kernel evaluations into vectorized arithmetic".

Generated functions take a context object ``ctx`` (images + dtype) followed
by their SSA parameters, and return their result tuple.
"""

from __future__ import annotations

import numpy as np

from repro.core.ir import ops as irops
from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ty.types import INT, TensorTy
from repro.errors import CompileError

_HEADER = '''"""Generated by the Diderot compiler (repro.core.codegen.pygen)."""

import numpy as np

from repro.runtime import ops as rt
'''

def _tensor_order(ty) -> int:
    if isinstance(ty, TensorTy):
        return len(ty.shape)
    return 0


def _has_int_div(body: Body) -> bool:
    """True when the body (recursively) contains an int div/mod.

    Those are the ops whose zero-divisor fault must distinguish live from
    predicated-off lanes, so their enclosing arms carry a lane mask.
    """
    for item in body.items:
        if isinstance(item, Instr):
            if item.op == "mod" or (item.op == "div"
                                    and item.results[0].ty == INT):
                return True
        elif _has_int_div(item.then_body) or _has_int_div(item.else_body):
            return True
    return False


class _FuncGen:
    def __init__(self, func: Func, images: list[str]):
        self.func = func
        self.images = images
        self.lines: list[str] = []
        self.indent = 1
        self._guards = 0
        #: name of the current lane-liveness mask (None = all lanes live)
        self._mask: str | None = None
        #: value -> emitted name, numbered densely in first-use order
        self._names: dict[Value, str] = {}

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def name(self, v: Value) -> str:
        name = self._names.get(v)
        if name is None:
            name = self._names[v] = f"v{len(self._names)}"
        return name

    def _const_text(self, value) -> str:
        if isinstance(value, bool):
            return repr(value)
        if isinstance(value, int):
            return f"np.int64({value})"
        if isinstance(value, float):
            return f"_dt({value!r})"
        if isinstance(value, np.ndarray):
            if value.dtype.kind == "f":
                return f"np.array({value.tolist()!r}, dtype=_dt)"
            if value.dtype.kind == "b":
                return f"np.array({value.tolist()!r}, dtype=bool)"
            return f"np.array({value.tolist()!r}, dtype=np.int64)"
        raise CompileError(f"cannot emit constant {value!r}")

    def emit_instr(self, instr: Instr) -> None:
        """One assignment: the op's ``py`` template from the op table,
        formatted over the fields :class:`repro.core.ir.ops.OpInfo` lists."""
        op = instr.op
        info = irops.LOW.get(op)
        if info is None:
            raise CompileError(f"pygen: unhandled op {op!r}")
        res = ", ".join([self.name(v) for v in instr.results])
        if op == "probe_parts" and len(instr.results) == 1:
            res += ","  # the one multi-result op returns a sequence
        a = [self.name(x) for x in instr.args]
        fields = dict(
            instr.attrs,
            args=", ".join(a),
            ro=_tensor_order(instr.results[0].ty),
            live=f", live={self._mask}" if self._mask else "",
        )
        for i, x in enumerate(instr.args):
            fields[f"o{i}"] = _tensor_order(x.ty)
        if op == "const":
            fields["value"] = self._const_text(instr.attrs["value"])
        elif op == "horner":
            fields["poly"] = self._horner_text(instr.attrs["coeffs"], a[0])
        self.line(f"{res} = {irops.template(info.py, instr).format(*a, **fields)}")

    @staticmethod
    def _horner_text(coeffs, f: str) -> str:
        """Inline Horner-form arithmetic (paper §5.3)."""
        if len(coeffs) == 1:
            return f"np.full(np.shape({f}), {coeffs[0]!r}, dtype=_dt)"
        expr = repr(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            expr = f"({expr}) * {f} + {c!r}"
        return expr

    def emit_body(self, body: Body) -> None:
        for item in body.items:
            if isinstance(item, Instr):
                self.emit_instr(item)
            else:
                cond = self.name(item.cond)
                gid = self._guards
                self._guards += 1
                live_t, live_f = f"_t{gid}", f"_f{gid}"
                self.line(f"# if {cond}: (predicated, uniform-branch guarded)")
                self.line(f"{live_t} = rt.any_lane({cond})")
                self.line(f"{live_f} = rt.any_lane_not({cond})")
                outer_mask = self._mask
                if item.then_body.items:
                    self.line(f"if {live_t}:")
                    self.indent += 1
                    if _has_int_div(item.then_body):
                        # int div/mod inside a predicated arm needs the
                        # combined lane mask to tell faults from dead lanes
                        mask = f"_m{gid}t"
                        expr = (cond if outer_mask is None
                                else f"np.logical_and({outer_mask}, {cond})")
                        self.line(f"{mask} = {expr}")
                        self._mask = mask
                    self.emit_body(item.then_body)
                    self._mask = outer_mask
                    self.indent -= 1
                if item.else_body.items:
                    self.line(f"if {live_f}:")
                    self.indent += 1
                    if _has_int_div(item.else_body):
                        mask = f"_m{gid}f"
                        expr = (f"np.logical_not({cond})" if outer_mask is None
                                else f"np.logical_and({outer_mask}, "
                                     f"np.logical_not({cond}))")
                        self.line(f"{mask} = {expr}")
                        self._mask = mask
                    self.emit_body(item.else_body)
                    self._mask = outer_mask
                    self.indent -= 1
                for phi in item.phis:
                    order = _tensor_order(phi.result.ty)
                    r = self.name(phi.result)
                    tv, ev = self.name(phi.then_val), self.name(phi.else_val)
                    # mixed lanes select; uniform lanes take the live arm's
                    # value directly (the dead arm never ran)
                    self.line(f"if {live_t} and {live_f}:")
                    self.line(f"    {r} = rt.select({cond}, {tv}, {ev}, {order})")
                    self.line(f"elif {live_t}:")
                    self.line(f"    {r} = {tv}")
                    self.line("else:")
                    self.line(f"    {r} = {ev}")

    def generate(self) -> str:
        fn = self.func
        params = ", ".join(self.name(p) for p in fn.params)
        self.lines.append(f"def {fn.name}(ctx{', ' + params if params else ''}):")
        doc_params = ", ".join(fn.param_names)
        self.line(f'"""({doc_params}) -> ({", ".join(fn.result_names)})"""')
        self.line("_dt = ctx.dtype")
        for img in self.images:
            self.line(f"_img_{img} = ctx.images[{img!r}]")
        # predicated execution runs both branch arms; dead lanes may raise
        # IEEE flags (div-by-zero, invalid) whose results the φ selects drop
        self.line('with np.errstate(all="ignore"):')
        self.indent += 1
        self.emit_body(fn.body)
        rets = ", ".join(self.name(r) for r in fn.results)
        self.line(f"return ({rets},)" if len(fn.results) == 1 else f"return ({rets})")
        self.indent -= 1
        return "\n".join(self.lines)


def _images_used(func: Func) -> list[str]:
    used = []
    for instr in func.body.instructions():
        img = instr.attrs.get("image")
        if img is not None and img not in used:
            used.append(img)
    return sorted(used)


def generate_func(func: Func) -> str:
    """Generate the Python source for one LowIR function."""
    return _FuncGen(func, _images_used(func)).generate()


def generate_module(funcs: list[Func]) -> str:
    """Generate a complete Python module for a compiled program."""
    parts = [_HEADER]
    parts.extend(generate_func(f) for f in funcs)
    return "\n\n".join(parts) + "\n"
