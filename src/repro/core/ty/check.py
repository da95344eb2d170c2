"""The Diderot type checker (paper §3.4, §5.1).

Checks a surface AST bottom-up, resolving operator overloads through the
signature tables in :mod:`repro.core.ty.builtins` and annotating every
expression node with its ground semantic type (``expr.ty``).  The checker
enforces the field typing rules of Figure 2 — including the continuity
bookkeeping that "helps ensure sensible numerical results" (§1) — plus the
structural rules of §3.3: immutable globals, ``load`` only in the global
section, state variables mutable only within methods, and
``stabilize``/``die`` only inside ``update``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.records import TypedProgram, VarInfo
from repro.core.syntax import ast
from repro.core.ty import builtins as bi
from repro.core.ty.types import (
    BOOL,
    FieldTy,
    ImageTy,
    INT,
    KernelTy,
    REAL,
    STRING,
    TensorTy,
    Ty,
)
from repro.errors import TypeErrorD
from repro.kernels import KERNELS

#: variable kinds, used downstream by simplification and code generation
GLOBAL = "global"
PARAM = "param"
STATE = "state"
LOCAL = "local"
ITER = "iter"
KERNEL_CONST = "kernel"


def resolve_ty_expr(t: ast.TyExpr) -> Ty:
    """Turn a source type annotation into a semantic type."""
    if t.kind == "bool":
        return BOOL
    if t.kind == "int":
        return INT
    if t.kind == "string":
        return STRING
    if t.kind == "real":
        return REAL
    if t.kind == "tensor":
        for s in t.shape:
            if s < 2:
                raise TypeErrorD(
                    f"tensor shape dimensions must be >= 2, got {s} "
                    "(scalars are tensor[])",
                    t.span,
                )
        return TensorTy(tuple(t.shape))
    if t.kind == "image":
        if t.dim not in (1, 2, 3):
            raise TypeErrorD(f"image dimension must be 1-3, got {t.dim}", t.span)
        return ImageTy(t.dim, tuple(t.shape))
    if t.kind == "kernel":
        return KernelTy(t.continuity)
    if t.kind == "field":
        if t.dim not in (1, 2, 3):
            raise TypeErrorD(f"field dimension must be 1-3, got {t.dim}", t.span)
        return FieldTy(t.continuity, t.dim, tuple(t.shape))
    raise TypeErrorD(f"unknown type {t.kind!r}", t.span)  # pragma: no cover


def _is_concrete(ty: Ty) -> bool:
    """Concrete (storable) value types: bool/int/string/tensor."""
    return isinstance(ty, (type(BOOL), type(INT), type(STRING), TensorTy))


class Checker:
    def __init__(self, prog: ast.Program):
        self.prog = prog
        self.globals: dict[str, VarInfo] = {}
        self.global_order: list[str] = []
        self.params: dict[str, VarInfo] = {}
        self.state: dict[str, VarInfo] = {}
        self.state_order: list[str] = []
        self.locals: list[dict[str, VarInfo]] = []
        self.in_update = False

    # -- scope handling ------------------------------------------------------

    def lookup(self, name: str, span) -> VarInfo:
        for scope in reversed(self.locals):
            if name in scope:
                return scope[name]
        for table in (self.state, self.params, self.globals):
            if name in table:
                return table[name]
        if name in KERNELS:
            k = KERNELS[name]
            return VarInfo(name, KernelTy(k.continuity), KERNEL_CONST, False)
        if name in bi.CONSTANTS:
            return VarInfo(name, bi.CONSTANTS[name], GLOBAL, False)
        raise TypeErrorD(f"undefined variable {name!r}", span)

    def _check_fresh(self, name: str, span) -> None:
        shadowed = (
            any(name in s for s in self.locals)
            or name in self.state
            or name in self.params
            or name in self.globals
            or name in KERNELS
            or name in bi.CONSTANTS
        )
        if shadowed:
            raise TypeErrorD(f"redefinition of {name!r}", span)

    # -- program -------------------------------------------------------------

    def check(self) -> TypedProgram:
        for g in self.prog.globals:
            self.check_global(g)
        self.check_strand(self.prog.strand)
        self.check_initially(self.prog.initially)
        outputs = [n for n in self.state_order if self.state[n].is_output]
        if not outputs:
            raise TypeErrorD(
                f"strand {self.prog.strand.name!r} has no output variables",
                self.prog.strand.span,
            )
        return TypedProgram(
            self.prog,
            self.globals,
            self.global_order,
            self.params,
            self.state,
            self.state_order,
            outputs,
        )

    def check_global(self, g: ast.GlobalDecl) -> None:
        self._check_fresh(g.name, g.span)
        declared = resolve_ty_expr(g.ty_expr)
        if g.is_input and not _is_concrete(declared):
            raise TypeErrorD(
                f"input {g.name!r}: inputs must have concrete types, "
                f"not {declared}",
                g.span,
            )
        if g.init is not None:
            actual = self.check_expr(g.init, allow_load=True, expected=declared)
            if actual != declared:
                raise TypeErrorD(
                    f"global {g.name!r} declared {declared} but initialized "
                    f"with {actual}",
                    g.span,
                )
        self.globals[g.name] = VarInfo(
            g.name, declared, GLOBAL, mutable=False, is_input=g.is_input
        )
        self.global_order.append(g.name)

    def check_strand(self, s: ast.StrandDecl) -> None:
        for p in s.params:
            self._check_fresh(p.name, p.span)
            ty = resolve_ty_expr(p.ty_expr)
            if not _is_concrete(ty):
                raise TypeErrorD(
                    f"strand parameter {p.name!r} must have a concrete type, "
                    f"not {ty}",
                    p.span,
                )
            self.params[p.name] = VarInfo(p.name, ty, PARAM, mutable=False)
        for sv in s.state:
            self._check_fresh(sv.name, sv.span)
            declared = resolve_ty_expr(sv.ty_expr)
            if not _is_concrete(declared):
                raise TypeErrorD(
                    f"strand state variable {sv.name!r} must have a concrete "
                    f"type, not {declared}",
                    sv.span,
                )
            if sv.is_output and isinstance(declared, type(STRING)):
                raise TypeErrorD(
                    f"output variable {sv.name!r} may not be a string", sv.span
                )
            actual = self.check_expr(sv.init)
            if actual != declared:
                raise TypeErrorD(
                    f"state variable {sv.name!r} declared {declared} but "
                    f"initialized with {actual}",
                    sv.span,
                )
            self.state[sv.name] = VarInfo(
                sv.name, declared, STATE, mutable=True, is_output=sv.is_output
            )
            self.state_order.append(sv.name)
        seen = set()
        for m in s.methods:
            if m.name in seen:
                raise TypeErrorD(f"duplicate method {m.name!r}", m.span)
            seen.add(m.name)
            self.in_update = m.name == "update"
            self.locals.append({})
            self.check_block(m.body)
            self.locals.pop()
            self.in_update = False

    def check_initially(self, init: ast.Initially) -> None:
        if init.strand != self.prog.strand.name:
            raise TypeErrorD(
                f"initially creates {init.strand!r} but the program defines "
                f"strand {self.prog.strand.name!r}",
                init.span,
            )
        # Iterator bounds are global-scope int expressions; iterator
        # variables are then visible in the strand arguments.
        scope: dict[str, VarInfo] = {}
        for it in init.iters:
            for bound in (it.lo, it.hi):
                ty = self.check_expr(bound)
                if ty != INT:
                    raise TypeErrorD(
                        f"comprehension bounds must be int, got {ty}", bound.span
                    )
            if it.name in scope:
                raise TypeErrorD(f"duplicate iterator {it.name!r}", it.span)
            scope[it.name] = VarInfo(it.name, INT, ITER, mutable=False)
        self.locals.append(scope)
        sparams = self.prog.strand.params
        if len(init.args) != len(sparams):
            raise TypeErrorD(
                f"strand {init.strand!r} takes {len(sparams)} arguments, "
                f"initially supplies {len(init.args)}",
                init.span,
            )
        for arg, p in zip(init.args, sparams):
            ty = self.check_expr(arg)
            want = resolve_ty_expr(p.ty_expr)
            if ty != want:
                raise TypeErrorD(
                    f"argument for parameter {p.name!r} has type {ty}, "
                    f"expected {want}",
                    arg.span,
                )
        self.locals.pop()

    # -- statements ------------------------------------------------------------

    def check_block(self, b: ast.Block) -> None:
        self.locals.append({})
        for s in b.stmts:
            self.check_stmt(s)
        self.locals.pop()

    def check_stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            self.check_block(s)
        elif isinstance(s, ast.DeclStmt):
            self._check_fresh(s.name, s.span)
            declared = resolve_ty_expr(s.ty_expr)
            actual = self.check_expr(s.init)
            if actual != declared:
                raise TypeErrorD(
                    f"local {s.name!r} declared {declared} but initialized "
                    f"with {actual}",
                    s.span,
                )
            self.locals[-1][s.name] = VarInfo(s.name, declared, LOCAL, mutable=True)
        elif isinstance(s, ast.AssignStmt):
            info = self.lookup(s.name, s.span)
            if not info.mutable:
                raise TypeErrorD(
                    f"cannot assign to {info.kind} variable {s.name!r}", s.span
                )
            value_ty = self.check_expr(s.value)
            if s.op == "=":
                if value_ty != info.ty:
                    raise TypeErrorD(
                        f"assigning {value_ty} to {s.name!r} of type {info.ty}",
                        s.span,
                    )
            else:
                op = s.op[0]  # '+', '-', '*', '/'
                result, guard_err = bi.resolve(bi.OPERATORS, op, [info.ty, value_ty])
                if result is None:
                    msg = guard_err or (
                        f"no instance of {op!r} for ({info.ty}, {value_ty})"
                    )
                    raise TypeErrorD(msg, s.span)
                if result != info.ty:
                    raise TypeErrorD(
                        f"{s.name!r} {s.op} ... produces {result}, but "
                        f"{s.name!r} has type {info.ty}",
                        s.span,
                    )
        elif isinstance(s, ast.IfStmt):
            cond_ty = self.check_expr(s.cond)
            if cond_ty != BOOL:
                raise TypeErrorD(f"if condition must be bool, got {cond_ty}", s.cond.span)
            self.check_stmt(s.then_s)
            if s.else_s is not None:
                self.check_stmt(s.else_s)
        elif isinstance(s, (ast.StabilizeStmt, ast.DieStmt)):
            if not self.in_update:
                word = "stabilize" if isinstance(s, ast.StabilizeStmt) else "die"
                raise TypeErrorD(
                    f"{word!r} is only allowed inside the update method", s.span
                )
        else:  # pragma: no cover
            raise TypeErrorD(f"unknown statement {type(s).__name__}", s.span)

    # -- expressions -----------------------------------------------------------

    def check_expr(self, e: ast.Expr, allow_load: bool = False, expected: Optional[Ty] = None) -> Ty:
        ty = self._infer(e, allow_load, expected)
        e.ty = ty
        return ty

    def _infer(self, e: ast.Expr, allow_load: bool, expected: Optional[Ty]) -> Ty:
        if isinstance(e, ast.IntLit):
            return INT
        if isinstance(e, ast.RealLit):
            return REAL
        if isinstance(e, ast.BoolLit):
            return BOOL
        if isinstance(e, ast.StringLit):
            return STRING
        if isinstance(e, ast.Var):
            return self.lookup(e.name, e.span).ty
        if isinstance(e, ast.Load):
            if not allow_load:
                raise TypeErrorD(
                    "load may only be used in the global section (§3.3.1)",
                    e.span,
                )
            if not isinstance(expected, ImageTy):
                raise TypeErrorD(
                    "load must initialize a variable with a declared image "
                    "type (the declaration determines the expected shape)",
                    e.span,
                )
            return expected
        if isinstance(e, ast.Identity):
            if e.n < 2:
                raise TypeErrorD("identity[n] requires n >= 2", e.span)
            return TensorTy((e.n, e.n))
        if isinstance(e, ast.Norm):
            inner = self.check_expr(e.operand, allow_load)
            result, guard_err = bi.resolve(bi.OPERATORS, "norm", [inner])
            if result is None:
                raise TypeErrorD(
                    guard_err or f"|...| is not defined for {inner}", e.span
                )
            return result
        if isinstance(e, ast.UnOp):
            inner = self.check_expr(e.operand, allow_load)
            name = "neg" if e.op == "-" else e.op
            result, guard_err = bi.resolve(bi.OPERATORS, name, [inner])
            if result is None:
                raise TypeErrorD(
                    guard_err or f"no instance of {e.op!r} for {inner}", e.span
                )
            return result
        if isinstance(e, ast.BinOp):
            # `kernel ⊛ load(...)` (Figure 7): the declared field type
            # determines the expected image type of the load.
            exp_img = None
            if e.op == "⊛" and isinstance(expected, FieldTy):
                exp_img = ImageTy(expected.dim, expected.shape)
            lt = self.check_expr(
                e.left, allow_load, exp_img if isinstance(e.left, ast.Load) else None
            )
            rt = self.check_expr(
                e.right, allow_load, exp_img if isinstance(e.right, ast.Load) else None
            )
            result, guard_err = bi.resolve(bi.OPERATORS, e.op, [lt, rt])
            if result is None:
                raise TypeErrorD(
                    guard_err or f"no instance of {e.op!r} for ({lt}, {rt})",
                    e.span,
                )
            return result
        if isinstance(e, ast.Cond):
            cond_ty = self.check_expr(e.cond, allow_load)
            if cond_ty != BOOL:
                raise TypeErrorD(
                    f"conditional test must be bool, got {cond_ty}", e.cond.span
                )
            t1 = self.check_expr(e.then_e, allow_load)
            t2 = self.check_expr(e.else_e, allow_load)
            if t1 != t2:
                raise TypeErrorD(
                    f"conditional branches disagree: {t1} vs {t2}", e.span
                )
            return t1
        if isinstance(e, ast.Index):
            base_ty = self.check_expr(e.base, allow_load)
            if not isinstance(base_ty, TensorTy) or base_ty.order == 0:
                raise TypeErrorD(f"cannot index a value of type {base_ty}", e.span)
            if len(e.indices) > base_ty.order:
                raise TypeErrorD(
                    f"too many indices for {base_ty}: got {len(e.indices)}",
                    e.span,
                )
            for idx, size in zip(e.indices, base_ty.shape):
                ity = self.check_expr(idx, allow_load)
                if ity != INT:
                    raise TypeErrorD(f"tensor index must be int, got {ity}", idx.span)
                if isinstance(idx, ast.IntLit) and not (0 <= idx.value < size):
                    raise TypeErrorD(
                        f"index {idx.value} out of range for axis of size {size}",
                        idx.span,
                    )
            return TensorTy(base_ty.shape[len(e.indices):])
        if isinstance(e, ast.TensorCons):
            elem_tys = [self.check_expr(el, allow_load) for el in e.elements]
            first = elem_tys[0]
            if not isinstance(first, TensorTy):
                raise TypeErrorD(
                    f"tensor elements must be tensors, got {first}", e.span
                )
            for t in elem_tys[1:]:
                if t != first:
                    raise TypeErrorD(
                        f"tensor elements disagree: {first} vs {t}", e.span
                    )
            return TensorTy((len(e.elements),) + first.shape)
        if isinstance(e, ast.Probe):
            fty = self.check_expr(e.field, allow_load)
            if not isinstance(fty, FieldTy):
                raise TypeErrorD(
                    f"cannot probe a value of type {fty}", e.field.span
                )
            pos_ty = self.check_expr(e.pos, allow_load)
            want = REAL if fty.dim == 1 else TensorTy((fty.dim,))
            if pos_ty != want:
                raise TypeErrorD(
                    f"probe position must be {want}, got {pos_ty}", e.pos.span
                )
            return TensorTy(fty.shape)
        if isinstance(e, ast.Call):
            return self._infer_call(e, allow_load)
        raise TypeErrorD(f"unexpected expression {type(e).__name__}", e.span)

    def _infer_call(self, e: ast.Call, allow_load: bool) -> Ty:
        # A "call" is a field probe when the callee names a field variable
        # (§3.2); otherwise it must be a builtin function.
        callee: Optional[VarInfo]
        try:
            callee = self.lookup(e.func, e.span)
        except TypeErrorD:
            callee = None
        if callee is not None and isinstance(callee.ty, FieldTy):
            fty = callee.ty
            if len(e.args) != 1:
                raise TypeErrorD(
                    f"field probe {e.func!r} takes exactly one position",
                    e.span,
                )
            pos_ty = self.check_expr(e.args[0], allow_load)
            want = REAL if fty.dim == 1 else TensorTy((fty.dim,))
            if pos_ty != want:
                raise TypeErrorD(
                    f"probe position for {e.func!r} must be {want}, got {pos_ty}",
                    e.args[0].span,
                )
            return TensorTy(fty.shape)
        if e.func in bi.FUNCTIONS:
            arg_tys = [self.check_expr(a, allow_load) for a in e.args]
            result, guard_err = bi.resolve(bi.FUNCTIONS, e.func, arg_tys)
            if result is None:
                args = ", ".join(str(t) for t in arg_tys)
                raise TypeErrorD(
                    guard_err or f"no instance of {e.func}({args})", e.span
                )
            return result
        if callee is not None:
            raise TypeErrorD(
                f"{e.func!r} has type {callee.ty} and cannot be applied",
                e.span,
            )
        raise TypeErrorD(f"undefined function {e.func!r}", e.span)


def check_program(prog: ast.Program) -> TypedProgram:
    """Type check a parsed program, annotating expression nodes in place."""
    return Checker(prog).check()
