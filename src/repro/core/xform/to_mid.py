"""HighIR → MidIR: probe synthesis (paper §5.3, Figure 11).

Each HighIR ``probe`` becomes the explicit pipeline the paper describes —
"code that maps the world-space coordinates to image space and then
convolves the image values in the neighborhood of the position":

.. code-block:: text

   x  = M⁻¹ · pos                  to_index
   n  = ⌊x⌋,  f = x - n            floor_i / fract
   V  = image[n + offsets]         gather
   wₐ = h⁽ʳᵃ⁾(fₐ - i)              weights      (one per axis, per order)
   cᵢ = Σ V·w₀·w₁·w₂               conv_contract (one per derivative combo)
   T  = assemble(cᵢ)               deriv_assemble
   out = M⁻ᵀ ⊙ T                   grad_xform   (covariant pushback)

One ``conv_contract`` is emitted per derivative multi-index, so the
symmetric Hessian's off-diagonal pairs produce *identical* instructions for
value numbering to merge (§5.4), and probes of ``F`` and ``∇F`` at one
position share everything up to the weights.

``inside`` lowers to a bounds test on the index-space position.
"""

from __future__ import annotations

from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ir import ops as irops
from repro.core.records import ImageSlot
from repro.core.ty.types import BOOL, TensorTy


def _combos(dim: int, deriv: int) -> list[tuple[int, ...]]:
    """Derivative multi-indices in row-major order (last index fastest)."""
    if deriv == 0:
        return [()]
    out = [()]
    for _ in range(deriv):
        out = [c + (a,) for c in out for a in range(dim)]
    return out


class _MidLowerer:
    def __init__(self, images: dict[str, ImageSlot]):
        self.images = images
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
                if item.op == "probe":
                    result = self.lower_probe(new, item)
                    self.repl[item.results[0]] = result
                elif item.op == "inside":
                    result = self.lower_inside(new, item)
                    self.repl[item.results[0]] = result
                else:
                    new.add(item)
            else:
                item.cond = self.resolve(item.cond)
                then_b = self.lower_body(item.then_body)
                else_b = self.lower_body(item.else_body)
                for phi in item.phis:
                    phi.then_val = self.resolve(phi.then_val)
                    phi.else_val = self.resolve(phi.else_val)
                item.then_body = then_b
                item.else_body = else_b
                new.add(item)
        return new

    def _index_pos(self, body: Body, pos: Value, image: str, dim: int) -> Value:
        if dim == 1:
            # 1-D probes take a real position; wrap it into a 1-vector
            pos = body.emit("tensor_cons", [pos], TensorTy((1,)))
        return body.emit("to_index", [pos], TensorTy((dim,)), image=image)

    def lower_probe(self, body: Body, instr: Instr) -> Value:
        image = instr.attrs["image"]
        kernel = instr.attrs["kernel"]
        deriv = instr.attrs["deriv"]
        slot = self.images[image]
        dim = slot.dim
        tshape = slot.shape
        support = kernel.support
        pos = instr.args[0]

        pidx = self._index_pos(body, pos, image, dim)
        n = body.emit("floor_i", [pidx], ("ivec", dim))
        f = body.emit("fract", [pidx], TensorTy((dim,)))
        vox = body.emit(
            "gather", [n], ("vox", image, support), image=image, support=support
        )
        f_axis = [
            body.emit("tensor_index", [f], TensorTy(()), indices=(a,))
            for a in range(dim)
        ]

        def weight(axis: int, order: int) -> Value:
            return body.emit(
                "weights",
                [f_axis[axis]],
                ("weights", 2 * support),
                kernel=kernel,
                deriv=order,
            )

        parts = []
        for combo in _combos(dim, deriv):
            ws = [weight(a, combo.count(a)) for a in range(dim)]
            parts.append(
                body.emit(
                    "conv_contract", [vox] + ws, TensorTy(tshape), image=image
                )
            )
        if deriv == 0:
            return parts[0]
        out_shape = tshape + (dim,) * deriv
        assembled = body.emit(
            "deriv_assemble",
            parts,
            TensorTy(out_shape),
            tshape=tshape,
            dim=dim,
            deriv=deriv,
        )
        return body.emit(
            "grad_xform", [assembled], TensorTy(out_shape), image=image, deriv=deriv
        )

    def lower_inside(self, body: Body, instr: Instr) -> Value:
        image = instr.attrs["image"]
        support = instr.attrs["support"]
        slot = self.images[image]
        pidx = self._index_pos(body, instr.args[0], image, slot.dim)
        return body.emit(
            "index_inside", [pidx], BOOL, image=image, support=support
        )


def to_mid(func: Func, images: dict[str, ImageSlot], check: bool = True) -> Func:
    """Lower one HighIR function to MidIR in place (body is rebuilt)."""
    lw = _MidLowerer(images)
    func.body = lw.lower_body(func.body)
    func.results = [lw.resolve(r) for r in func.results]
    if check:
        from repro.core.ir.base import validate

        validate(func, irops.MID, "MidIR")
    return func
