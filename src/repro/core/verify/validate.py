"""Per-level IR validators: SSA well-formedness + type/shape consistency.

:func:`repro.core.ir.base.validate` already enforces structural SSA
(def-before-use in dominance order, single assignment) and vocabulary
membership — which is also the level-legality check: a ``probe`` surviving
into MidIR or a ``weights`` surviving into LowIR is an op outside the
level's vocabulary.  :func:`verify_func` layers a full type/shape checker
on top: every instruction's result type is recomputed from its argument
types and attributes against the op's signature and compared with the
recorded type, so a pass that rewrites an instruction inconsistently is
caught at the pass boundary instead of as a shape error deep inside
generated NumPy code.  An op's signature is its row in the op table
(:mod:`repro.core.ir.ops`): the very ``Sig`` patterns the typechecker
resolves, or — for ops whose rule reads attributes or lowered type tags —
the ``_TypeChecker`` method the row names.

Types are the semantic :class:`~repro.core.ty.types.Ty` objects at HighIR
level plus the lowered tags ``("ivec", d)``, ``("vox", image, support)``
and ``("weights", n)`` introduced by probe synthesis and kernel expansion.
"""

from __future__ import annotations

import numpy as np

from repro.core.ir import ops as irops
from repro.core.ir.base import Body, Func, Instr, validate, value_names
from repro.core.ty.types import BOOL, INT, REAL, STRING, TensorTy, resolve
from repro.errors import CompileError
from repro.kernels import Kernel

#: level key → (vocabulary, display name)
LEVELS = {
    "high": (irops.HIGH, "HighIR"),
    "mid": (irops.MID, "MidIR"),
    "low": (irops.LOW, "LowIR"),
}


def _is_tensor(ty) -> bool:
    return isinstance(ty, TensorTy)


def _shape(ty) -> tuple:
    return ty.shape


class _TypeChecker:
    def __init__(self, func: Func, level: str, images=None):
        self.func = func
        self.level = level
        self.vocab, self.display = LEVELS[level]
        self.images = images

    def fail(self, instr: Instr, msg: str) -> None:
        raise CompileError(
            f"{self.display}:{self.func.name}: {msg} in "
            f"`{instr.format(value_names(self.func))}`"
        )

    def slot(self, instr: Instr, name: str):
        """The ImageSlot for an image attribute, or None if unbound."""
        if self.images is None:
            return None
        if name not in self.images:
            self.fail(instr, f"unknown image slot {name!r}")
        return self.images[name]

    # -- entry -----------------------------------------------------------------

    def run(self) -> None:
        self._walk(self.func.body)

    def _walk(self, body: Body) -> None:
        for item in body.items:
            if isinstance(item, Instr):
                self._check(item)
            else:
                if item.cond.ty != BOOL:
                    raise CompileError(
                        f"{self.display}:{self.func.name}: if-condition has "
                        f"type {item.cond.ty}, expected bool"
                    )
                self._walk(item.then_body)
                self._walk(item.else_body)
                for phi in item.phis:
                    tys = {repr(phi.then_val.ty), repr(phi.else_val.ty),
                           repr(phi.result.ty)}
                    if (phi.then_val.ty != phi.result.ty
                            or phi.else_val.ty != phi.result.ty):
                        raise CompileError(
                            f"{self.display}:{self.func.name}: phi operand/"
                            f"result types disagree ({', '.join(sorted(tys))}) "
                            f"in `{phi.format(value_names(self.func))}`"
                        )

    def _check(self, instr: Instr) -> None:
        # probe_parts is the one multi-result op: its rule checks every
        # result itself and returns None
        if instr.op != "probe_parts" and len(instr.results) != 1:
            self.fail(instr, f"expected exactly one result, got {len(instr.results)}")
        expected = self._infer(instr)
        if expected is not None and expected != instr.results[0].ty:
            self.fail(
                instr,
                f"result type {instr.results[0].ty} does not match the "
                f"op signature (expected {expected})",
            )

    # -- per-op signatures -----------------------------------------------------

    def _infer(self, instr: Instr):
        """Recompute the result type; None means "no constraint derivable"."""
        info = self.vocab[instr.op]
        tys = [a.ty for a in instr.args]
        if info.rule is not None:
            return getattr(self, info.rule)(instr, tys)
        ty, guard_err = resolve(info.sigs, tys)
        if ty is None:
            got = ", ".join(str(t) for t in tys)
            self.fail(instr, guard_err or f"no instance of {instr.op} — "
                                          f"{info.doc} — for ({got})")
        return ty

    def _want(self, instr: Instr, tys: list, want: tuple) -> None:
        if len(tys) != len(want) or any(t != w for t, w in zip(tys, want)):
            got = ", ".join(str(t) for t in tys)
            exp = ", ".join(str(w) for w in want)
            self.fail(instr, f"argument types ({got}) do not match ({exp})")

    # attribute-reading rules of the common ops -------------------------------

    def _op_const(self, instr, tys):
        if tys:
            self.fail(instr, "const takes no arguments")
        if "value" not in instr.attrs:
            self.fail(instr, "const is missing its value attribute")
        v = instr.attrs["value"]
        rty = instr.results[0].ty
        # constant folding stores raw fold results, so NumPy scalar types
        # appear alongside the Python ones
        if isinstance(v, (bool, np.bool_)):
            return BOOL
        if isinstance(v, (float, np.floating)):
            return REAL
        if isinstance(v, (int, np.integer)):
            return INT
        if isinstance(v, str):
            return STRING
        if isinstance(v, np.ndarray):
            if _is_tensor(rty):
                if tuple(v.shape) != tuple(_shape(rty)):
                    self.fail(
                        instr,
                        f"constant array shape {tuple(v.shape)} does not "
                        f"match {rty}",
                    )
                return rty
            if isinstance(rty, tuple) and rty and rty[0] in ("weights", "ivec"):
                # a folded vec_cons result keeps its lowered tag
                n = rty[1]
                if v.shape[-1:] != (n,):
                    self.fail(
                        instr,
                        f"constant array shape {tuple(v.shape)} does not "
                        f"match tag {rty}",
                    )
                return rty
            self.fail(instr, f"constant array with non-tensor type {rty}")
        self.fail(instr, f"unsupported constant {type(v).__name__}")

    def _op_select(self, instr, tys):
        if len(tys) != 3 or tys[0] != BOOL:
            self.fail(instr, "select expects (bool, T, T)")
        if tys[1] != tys[2]:
            self.fail(instr, f"select branches disagree: {tys[1]} vs {tys[2]}")
        return tys[1]

    def _op_norm(self, instr, tys):
        if len(tys) != 1 or not _is_tensor(tys[0]):
            self.fail(instr, f"norm of {tys}")
        if instr.attrs.get("order") != len(_shape(tys[0])):
            self.fail(
                instr,
                f"norm order attribute {instr.attrs.get('order')!r} does not "
                f"match operand order {len(_shape(tys[0]))}",
            )
        return REAL

    def _op_tensor_cons(self, instr, tys):
        if not tys:
            self.fail(instr, "empty tensor construction")
        first = tys[0]
        if not _is_tensor(first) or any(t != first for t in tys):
            self.fail(instr, f"tensor elements disagree: {tys}")
        return TensorTy((len(tys),) + _shape(first))

    def _op_tensor_index(self, instr, tys):
        indices = tuple(instr.attrs.get("indices", ()))
        if len(tys) != 1 or not _is_tensor(tys[0]):
            self.fail(instr, f"cannot index {tys}")
        shape = _shape(tys[0])
        if not indices or len(indices) > len(shape):
            self.fail(
                instr,
                f"{len(indices)} indices into a tensor of order {len(shape)}",
            )
        for i, size in zip(indices, shape):
            if not 0 <= i < size:
                self.fail(instr, f"index {i} out of range for axis of size {size}")
        return TensorTy(shape[len(indices):])

    def _op_identity(self, instr, tys):
        n = instr.attrs.get("n")
        if tys or not isinstance(n, int) or n < 1:
            self.fail(instr, f"identity with n={n!r}")
        return TensorTy((n, n))

    # HighIR field ops ---------------------------------------------------------

    def _pos_check(self, instr, ty, dim) -> None:
        if dim == 1:
            if ty not in (REAL, TensorTy((1,))):
                self.fail(instr, f"1-D probe position has type {ty}")
        elif ty != TensorTy((dim,)):
            self.fail(instr, f"probe position has type {ty}, expected "
                             f"tensor[{dim}]")

    def _op_probe(self, instr, tys):
        if self.level != "high":
            self.fail(instr, "probe is only legal in HighIR")
        if len(tys) != 1:
            self.fail(instr, "probe takes exactly one position argument")
        kernel = instr.attrs.get("kernel")
        deriv = instr.attrs.get("deriv")
        out_shape = tuple(instr.attrs.get("out_shape", ()))
        if not isinstance(kernel, Kernel):
            self.fail(instr, f"probe kernel attribute is {kernel!r}")
        if not isinstance(deriv, int) or deriv < 0:
            self.fail(instr, f"probe deriv attribute is {deriv!r}")
        if kernel.continuity < deriv:
            self.fail(
                instr,
                f"probe differentiates a C{kernel.continuity} kernel "
                f"{deriv} times",
            )
        slot = self.slot(instr, instr.attrs.get("image"))
        if slot is not None:
            self._pos_check(instr, tys[0], slot.dim)
            want = tuple(slot.shape) + (slot.dim,) * deriv
            if out_shape != want:
                self.fail(
                    instr,
                    f"probe out_shape {out_shape} does not match image "
                    f"shape {want}",
                )
        return TensorTy(out_shape)

    def _op_inside(self, instr, tys):
        if self.level != "high":
            self.fail(instr, "inside is only legal in HighIR")
        if len(tys) != 1:
            self.fail(instr, "inside takes exactly one position argument")
        support = instr.attrs.get("support")
        if not isinstance(support, int) or support < 1:
            self.fail(instr, f"inside support attribute is {support!r}")
        slot = self.slot(instr, instr.attrs.get("image"))
        if slot is not None:
            self._pos_check(instr, tys[0], slot.dim)
        return BOOL

    # MidIR/LowIR probe machinery ----------------------------------------------

    def _vec_arg(self, instr, ty) -> int:
        if not (_is_tensor(ty) and len(_shape(ty)) == 1):
            self.fail(instr, f"expected an index vector, got {ty}")
        return _shape(ty)[0]

    def _op_to_index(self, instr, tys):
        d = self._vec_arg(instr, tys[0])
        slot = self.slot(instr, instr.attrs.get("image"))
        if slot is not None and slot.dim != d:
            self.fail(instr, f"to_index of a {d}-vector into a "
                             f"{slot.dim}-D image")
        return TensorTy((d,))

    def _op_floor_i(self, instr, tys):
        d = self._vec_arg(instr, tys[0])
        return ("ivec", d)

    def _op_fract(self, instr, tys):
        d = self._vec_arg(instr, tys[0])
        return TensorTy((d,))

    def _op_gather(self, instr, tys):
        image = instr.attrs.get("image")
        support = instr.attrs.get("support")
        if not isinstance(support, int) or support < 1:
            self.fail(instr, f"gather support attribute is {support!r}")
        if len(tys) != 1 or not (isinstance(tys[0], tuple)
                                 and tys[0][:1] == ("ivec",)):
            self.fail(instr, f"gather expects an ivec argument, got {tys}")
        slot = self.slot(instr, image)
        if slot is not None and slot.dim != tys[0][1]:
            self.fail(instr, f"gather index dimension {tys[0][1]} does not "
                             f"match {slot.dim}-D image {image!r}")
        return ("vox", image, support)

    def _op_weights(self, instr, tys):
        if self.level != "mid":
            self.fail(instr, "weights is only legal in MidIR "
                             "(LowIR expands it to horner)")
        kernel = instr.attrs.get("kernel")
        deriv = instr.attrs.get("deriv")
        if not isinstance(kernel, Kernel):
            self.fail(instr, f"weights kernel attribute is {kernel!r}")
        if not isinstance(deriv, int) or deriv < 0:
            self.fail(instr, f"weights deriv attribute is {deriv!r}")
        self._want(instr, tys, (REAL,))
        return ("weights", 2 * kernel.support)

    def _op_conv_contract(self, instr, tys):
        if not tys or not (isinstance(tys[0], tuple) and tys[0][:1] == ("vox",)):
            self.fail(instr, f"conv_contract expects a vox argument, got "
                             f"{tys[:1]}")
        _, image, support = tys[0]
        for t in tys[1:]:
            if t != ("weights", 2 * support):
                self.fail(
                    instr,
                    f"weight argument type {t} does not match support "
                    f"{support}",
                )
        slot = self.slot(instr, image)
        if slot is not None:
            if len(tys) - 1 != slot.dim:
                self.fail(
                    instr,
                    f"{len(tys) - 1} weight vectors for a {slot.dim}-D image",
                )
            return TensorTy(tuple(slot.shape))
        return None

    def _op_contract_axis(self, instr, tys):
        image = instr.attrs.get("image")
        support = instr.attrs.get("support")
        axes = instr.attrs.get("axes")
        if not isinstance(support, int) or support < 1:
            self.fail(instr, f"contract_axis support attribute is {support!r}")
        if not isinstance(axes, int) or axes < 1:
            self.fail(instr, f"contract_axis axes attribute is {axes!r}")
        if len(tys) != 2:
            self.fail(instr, "contract_axis takes (neighborhood, weights)")
        src = tys[0]
        if isinstance(src, tuple) and src[:1] == ("vox",):
            if src[1:] != (image, support):
                self.fail(
                    instr,
                    f"vox argument {src} does not match attrs "
                    f"image={image!r} support={support}",
                )
            slot = self.slot(instr, image)
            if slot is not None and axes != slot.dim:
                self.fail(
                    instr,
                    f"first contraction of a {slot.dim}-D neighborhood "
                    f"must have axes={slot.dim}, got {axes}",
                )
        elif isinstance(src, tuple) and src[:1] == ("part",):
            if src[1:] != (image, support, axes):
                self.fail(
                    instr,
                    f"partial argument {src} does not match attrs "
                    f"image={image!r} support={support} axes={axes}",
                )
        else:
            self.fail(instr, f"contract_axis expects a vox or part "
                             f"argument, got {src}")
        if tys[1] != ("weights", 2 * support):
            self.fail(
                instr,
                f"weight argument type {tys[1]} does not match support "
                f"{support}",
            )
        if axes > 1:
            return ("part", image, support, axes - 1)
        slot = self.slot(instr, image)
        if slot is not None:
            return TensorTy(tuple(slot.shape))
        return None

    def _op_probe_parts(self, instr, tys):
        image = instr.attrs.get("image")
        support = instr.attrs.get("support")
        dim = instr.attrs.get("dim")
        specs = instr.attrs.get("specs")
        if not isinstance(support, int) or support < 1:
            self.fail(instr, f"probe_parts support attribute is {support!r}")
        if not isinstance(dim, int) or dim < 1:
            self.fail(instr, f"probe_parts dim attribute is {dim!r}")
        if not tys or not (isinstance(tys[0], tuple) and tys[0][:1] == ("vox",)):
            self.fail(instr, f"probe_parts expects a vox argument, got "
                             f"{tys[:1]}")
        if tys[0][1:] != (image, support):
            self.fail(
                instr,
                f"vox argument {tys[0]} does not match attrs "
                f"image={image!r} support={support}",
            )
        nweights = len(tys) - 1
        if nweights < 1:
            self.fail(instr, "probe_parts has no weight arguments")
        for t in tys[1:]:
            if t != ("weights", 2 * support):
                self.fail(
                    instr,
                    f"weight argument type {t} does not match support "
                    f"{support}",
                )
        if (not isinstance(specs, tuple) or not specs
                or not all(isinstance(s, tuple) for s in specs)):
            self.fail(instr, f"probe_parts specs attribute is {specs!r}")
        for s in specs:
            if len(s) != dim:
                self.fail(
                    instr,
                    f"spec {s} has {len(s)} entries for a {dim}-D probe",
                )
            for wi in s:
                if not isinstance(wi, int) or not 0 <= wi < nweights:
                    self.fail(
                        instr,
                        f"spec weight index {wi!r} out of range for "
                        f"{nweights} weight arguments",
                    )
        if len(instr.results) != len(specs):
            self.fail(
                instr,
                f"{len(instr.results)} results for {len(specs)} specs",
            )
        slot = self.slot(instr, image)
        if slot is not None:
            if slot.dim != dim:
                self.fail(
                    instr,
                    f"dim attribute {dim} does not match {slot.dim}-D "
                    f"image {image!r}",
                )
            want = TensorTy(tuple(slot.shape))
            for r in instr.results:
                if r.ty != want:
                    self.fail(
                        instr,
                        f"result type {r.ty} does not match the op "
                        f"signature (expected {want})",
                    )

    def _op_deriv_assemble(self, instr, tys):
        tshape = tuple(instr.attrs.get("tshape", ()))
        dim = instr.attrs.get("dim")
        deriv = instr.attrs.get("deriv")
        if not isinstance(dim, int) or not isinstance(deriv, int) or deriv < 1:
            self.fail(instr, f"deriv_assemble attrs dim={dim!r} deriv={deriv!r}")
        if len(tys) != dim ** deriv:
            self.fail(
                instr,
                f"{len(tys)} parts for dim={dim}, deriv={deriv} "
                f"(expected {dim ** deriv})",
            )
        want = TensorTy(tshape)
        for t in tys:
            if t != want:
                self.fail(instr, f"part type {t} does not match tshape {tshape}")
        return TensorTy(tshape + (dim,) * deriv)

    def _op_grad_xform(self, instr, tys):
        deriv = instr.attrs.get("deriv")
        if not isinstance(deriv, int) or deriv < 1:
            self.fail(instr, f"grad_xform deriv attribute is {deriv!r}")
        if len(tys) != 1 or not _is_tensor(tys[0]):
            self.fail(instr, f"grad_xform of {tys}")
        if len(_shape(tys[0])) < deriv:
            self.fail(
                instr,
                f"grad_xform of a {len(_shape(tys[0]))}-order tensor with "
                f"deriv={deriv}",
            )
        self.slot(instr, instr.attrs.get("image"))
        return tys[0]

    def _op_index_inside(self, instr, tys):
        d = self._vec_arg(instr, tys[0])
        support = instr.attrs.get("support")
        if not isinstance(support, int) or support < 1:
            self.fail(instr, f"index_inside support attribute is {support!r}")
        slot = self.slot(instr, instr.attrs.get("image"))
        if slot is not None and slot.dim != d:
            self.fail(instr, f"index_inside of a {d}-vector into a "
                             f"{slot.dim}-D image")
        return BOOL

    def _op_horner(self, instr, tys):
        coeffs = instr.attrs.get("coeffs")
        if not coeffs or not all(isinstance(c, (int, float)) for c in coeffs):
            self.fail(instr, f"horner coeffs attribute is {coeffs!r}")
        self._want(instr, tys, (REAL,))
        return REAL

    def _op_vec_cons(self, instr, tys):
        if not tys or any(t != REAL for t in tys):
            self.fail(instr, f"vec_cons of non-scalar arguments {tys}")
        return ("weights", len(tys))


def verify_func(func: Func, level: str, images=None) -> None:
    """Validate one function at an IR level (``"high"``/``"mid"``/``"low"``).

    Raises :class:`~repro.errors.CompileError` on the first violation:
    SSA breakage, an op outside the level's vocabulary, or a result type
    inconsistent with the op's signature.  ``images`` (the driver's
    ``HighProgram.images``) enables the image-derived shape checks.
    """
    if level not in LEVELS:
        raise CompileError(f"unknown IR level {level!r}")
    checker = _TypeChecker(func, level, images)
    validate(func, checker.vocab, checker.display)
    checker.run()
