"""Reference interpreter for HighIR.

Executes HighIR functions directly — probes evaluate through
:func:`repro.fields.probe.probe_convolution`, the same engine the
:mod:`repro.fields` reference objects use — without ever running probe
synthesis, kernel expansion, or code generation.  Differential tests
compare its results against the generated NumPy code to validate the
entire lowering half of the compiler (to_mid → to_low → pygen).

Execution is lane-batched exactly like generated code: every SSA value is
a NumPy array with one leading lane axis (or an unbatched constant), and
``if`` regions are predicated.
"""

from __future__ import annotations


import numpy as np

from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ty.types import INT, TensorTy
from repro.core.records import HighProgram
from repro.errors import CompileError
from repro.fields.probe import probe_convolution, probe_inside
from repro.runtime import ops as rt

_NP_FUNCS = {
    "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "exp": np.exp, "log": np.log, "atan2": np.arctan2,
    "fmod": np.fmod, "floor": np.floor, "ceil": np.ceil,
    "min": np.minimum, "max": np.maximum, "abs": np.abs,
}

_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _order(ty) -> int:
    return len(ty.shape) if isinstance(ty, TensorTy) else 0


class HighInterpreter:
    """Interpret the functions of a :class:`HighProgram`.

    ``images`` maps image-slot names to bound :class:`~repro.image.Image`
    objects; ``dtype`` plays the role of the compiled program's precision.
    """

    def __init__(self, high: HighProgram, images: dict, dtype=np.float64):
        self.high = high
        self.images = images
        self.dtype = dtype

    def call(self, func: Func, args: list) -> tuple:
        if len(args) != len(func.params):
            raise CompileError(
                f"{func.name} expects {len(func.params)} arguments, got {len(args)}"
            )
        env: dict[Value, object] = dict(zip(func.params, args))
        # both if-arms run predicated on every lane (generated code does so
        # for light arms), so dead lanes may raise IEEE flags whose results
        # the φ selects drop
        with np.errstate(all="ignore"):
            self._run_body(func.body, env)
        return tuple(env[r] for r in func.results)

    def _run_body(self, body: Body, env: dict, live=None) -> None:
        for item in body.items:
            if isinstance(item, Instr):
                env[item.results[0]] = self._eval(item, env, live)
            else:
                cond = env[item.cond]
                live_t = cond if live is None else np.logical_and(live, cond)
                live_f = (np.logical_not(cond) if live is None
                          else np.logical_and(live, np.logical_not(cond)))
                self._run_body(item.then_body, env, live_t)
                self._run_body(item.else_body, env, live_f)
                for phi in item.phis:
                    env[phi.result] = rt.select(
                        cond,
                        env[phi.then_val],
                        env[phi.else_val],
                        _order(phi.result.ty),
                    )

    def _eval(self, instr: Instr, env: dict, live=None):
        op = instr.op
        a = [env[x] for x in instr.args]
        tys = [x.ty for x in instr.args]
        if op == "const":
            v = instr.attrs["value"]
            if isinstance(v, float):
                return self.dtype(v)
            if isinstance(v, np.ndarray) and v.dtype.kind == "f":
                return v.astype(self.dtype)
            return v
        if op == "add":
            return a[0] + a[1]
        if op == "sub":
            return a[0] - a[1]
        if op == "mul":
            if instr.results[0].ty == INT:
                return a[0] * a[1]
            return rt.scalar_broadcast_mul(a[0], a[1], _order(tys[0]), _order(tys[1]))
        if op == "div":
            if instr.results[0].ty == INT:
                return rt.idiv(a[0], a[1], live=live)
            return rt.scalar_broadcast_div(a[0], a[1], _order(tys[0]), _order(tys[1]))
        if op == "mod":
            return rt.imod(a[0], a[1], live=live)
        if op == "neg":
            return -np.asarray(a[0]) if isinstance(a[0], np.ndarray) else -a[0]
        if op == "pow":
            return rt.power(a[0], a[1])
        if op in _CMP:
            return _CMP[op](a[0], a[1])
        if op == "and":
            return np.logical_and(a[0], a[1])
        if op == "or":
            return np.logical_or(a[0], a[1])
        if op == "not":
            return np.logical_not(a[0])
        if op == "select":
            return rt.select(a[0], a[1], a[2], _order(instr.results[0].ty))
        if op in _NP_FUNCS:
            return _NP_FUNCS[op](*a)
        if op == "clamp":
            return rt.clamp(*a)
        if op == "lerp":
            return rt.lerp(a[0], a[1], a[2], _order(tys[0]))
        if op == "dot":
            return rt.dot_ord(a[0], a[1], _order(tys[0]), _order(tys[1]))
        if op == "cross":
            return rt.cross(a[0], a[1])
        if op == "outer":
            return rt.outer(a[0], a[1])
        if op == "norm":
            return rt.norm(a[0], instr.attrs["order"])
        if op == "trace":
            return rt.trace(a[0])
        if op == "det":
            return rt.det(a[0])
        if op == "transpose":
            return rt.transpose(a[0])
        if op == "evals":
            return rt.evals(a[0])
        if op == "evecs":
            return rt.evecs(a[0])
        if op == "normalize_v":
            return rt.normalize_v(a[0])
        if op == "tensor_cons":
            return rt.tensor_cons(_order(tys[0]), *a)
        if op == "tensor_index":
            return rt.tensor_index(a[0], instr.attrs["indices"], _order(tys[0]))
        if op == "identity":
            return rt.identity(instr.attrs["n"], self.dtype)
        if op == "int_to_real":
            return rt.to_real(a[0], self.dtype)
        if op == "real_to_int":
            return rt.to_int(a[0])
        if op == "probe":
            image = self.images[instr.attrs["image"]]
            pos = self._pos(a[0], image.dim)
            return probe_convolution(
                image, instr.attrs["kernel"], pos, instr.attrs["deriv"],
                dtype=self.dtype,
            )
        if op == "inside":
            image = self.images[instr.attrs["image"]]
            pos = self._pos(a[0], image.dim)
            return probe_inside(image, instr.attrs["support"], pos)
        raise CompileError(f"interp: unhandled HighIR op {op!r}")

    @staticmethod
    def _pos(pos, dim: int):
        pos = np.asarray(pos)
        if dim == 1 and (pos.ndim == 0 or pos.shape[-1] != 1):
            pos = pos[..., None]
        return pos


def compile_high(source: str, optimize=None) -> HighProgram:
    """Front half of the compiler only: source → optimized HighIR."""
    from repro.core.driver import OptOptions, _optimize
    from repro.core.syntax import parse_program
    from repro.core.ty import check_program
    from repro.core.xform.to_high import HighBuilder

    opts = optimize or OptOptions()
    typed = check_program(parse_program(source))
    hp = HighBuilder(typed).build()
    from repro.core.ir import ops as irops
    from repro.obs import current

    for fn in hp.funcs():
        _optimize(fn, irops.HIGH, opts, current(), "high")
    return hp
