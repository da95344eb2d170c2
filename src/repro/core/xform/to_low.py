"""MidIR → LowIR: kernel-evaluation expansion (paper §5.3).

"The final step in generating executable code for field probes is to
expand the kernel evaluations ... The kernels that Diderot supports are
all piecewise polynomial, so it is straightforward to symbolically
differentiate them."

Each MidIR ``weights`` instruction — a whole per-axis weight vector —
expands into ``2s`` ``horner`` instructions (one fixed polynomial in the
in-cell fraction per sample offset, coefficients baked in as attributes)
followed by a ``vec_cons`` packing them into the weight vector.  After this
pass the only remaining domain ops are memory ops (``gather``) and
contractions; everything else is scalar/vector arithmetic — the paper's
"code that is easily vectorized".
"""

from __future__ import annotations

from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ir import ops as irops
from repro.core.ty.types import TensorTy


class _LowLowerer:
    def __init__(self):
        self.repl: dict[Value, Value] = {}

    def resolve(self, v: Value) -> Value:
        while v in self.repl:
            v = self.repl[v]
        return v

    def lower_body(self, body: Body) -> Body:
        new = Body()
        for item in body.items:
            if isinstance(item, Instr):
                item.args = [self.resolve(a) for a in item.args]
                if item.op == "weights":
                    self.repl[item.results[0]] = self.lower_weights(new, item)
                else:
                    new.add(item)
            else:
                item.cond = self.resolve(item.cond)
                item.then_body = self.lower_body(item.then_body)
                item.else_body = self.lower_body(item.else_body)
                for phi in item.phis:
                    phi.then_val = self.resolve(phi.then_val)
                    phi.else_val = self.resolve(phi.else_val)
                new.add(item)
        return new

    def lower_weights(self, body: Body, instr: Instr) -> Value:
        kernel = instr.attrs["kernel"]
        order = instr.attrs["deriv"]
        f = instr.args[0]
        polys = kernel.derivative(order).weight_polynomials()
        scalars = [
            body.emit("horner", [f], TensorTy(()), coeffs=p.coeffs)
            for p in polys
        ]
        return body.emit(
            "vec_cons", scalars, ("weights", len(polys))
        )


def to_low(func: Func, check: bool = True) -> Func:
    """Lower one MidIR function to LowIR in place (body is rebuilt)."""
    lw = _LowLowerer()
    func.body = lw.lower_body(func.body)
    func.results = [lw.resolve(r) for r in func.results]
    if check:
        from repro.core.ir.base import validate

        validate(func, irops.LOW, "LowIR")
    return func
