"""Typed AST → HighIR (paper §5.1-5.2).

HighIR is "essentially a desugared version of the source language": SSA
over source-level tensor operations.  Field-typed expressions never become
runtime values — they are evaluated *symbolically* into the normalized
field values of :mod:`repro.core.xform.normalize`, and only their probes
and inside-tests emit instructions (the rewrite rules of Figure 10 applied
at probe sites).

The output is one SSA :class:`~repro.core.ir.base.Func` per program piece:

* ``globals``  — input globals → derived concrete globals
* ``seed``     — globals + comprehension iterators → strand arguments
* ``init``     — globals + strand parameters → initial state
* ``update``   — globals + state → new state + ``$status``
* ``stabilize``— globals + state → new state (optional)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.ir.base import Body, Func, IfRegion, Phi, Value
from repro.core.ir import ops as irops
from repro.core.simple import (
    RUNNING,
    STATUS_VAR,
    simplify_method,
)
from repro.core.syntax import ast
from repro.core.ty.check import TypedProgram
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
from repro.core.xform import normalize as nf
from repro.errors import CompileError
from repro.kernels import KERNELS, Kernel


@dataclass
class ImageSlot:
    """A global image: its declared type and where its data comes from."""

    name: str
    dim: int
    shape: tuple[int, ...]
    path: Optional[str]  # NRRD path from load(...), or None if bound in API


@dataclass
class HighProgram:
    """All HighIR functions for one Diderot program, plus symbol info."""

    typed: TypedProgram
    images: dict[str, ImageSlot]
    fields: dict[str, nf.SymField]
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


#: source spelling → op, from the op table's ``surface`` column
_BINOPS = irops.surface(functions=False)
_FUNCS = irops.surface(functions=True)


class HighBuilder:
    def __init__(self, typed: TypedProgram, check: bool = True, obs=None):
        from repro.obs import current

        self.typed = typed
        self.check = check
        self.obs = obs or current()
        self.images: dict[str, ImageSlot] = {}
        self.fields: dict[str, nf.SymField] = {}
        self.kernels: dict[str, Kernel] = dict(KERNELS)
        # Values of concrete globals *within the currently-built function*
        self.globals_env: dict[str, Value] = {}
        self.concrete_globals: list[str] = []
        # synthetic globals for field scale factors defined in the global
        # section (their SSA values live in the globals function only)
        self.synthetic_tys: dict[str, Ty] = {}
        self._globals_results: Optional[list[Value]] = None
        self._globals_result_names: Optional[list[str]] = None
        self._globals_env_ref: Optional[dict[str, Value]] = None

    def add_scale_global(self, value: Value) -> str:
        """Register a field scale factor computed in the global section as
        a synthetic concrete global, so strand functions can reference it
        by name (it arrives as one of their parameters)."""
        name = f"$fscale{len(self.synthetic_tys)}"
        self.synthetic_tys[name] = value.ty
        self._globals_results.append(value)
        self._globals_result_names.append(name)
        self._globals_env_ref[name] = value
        self.concrete_globals.append(name)
        return name

    # -- main entry ----------------------------------------------------------

    def _params_used_in_methods(self, prog: ast.Program) -> list[str]:
        param_names = {p.name for p in prog.strand.params}
        used: set[str] = set()

        def walk(node) -> None:
            if isinstance(node, ast.Var) and node.name in param_names:
                used.add(node.name)
            if not isinstance(node, ast.Node):
                return
            import dataclasses as _dc

            for f in _dc.fields(node):
                v = getattr(node, f.name)
                if isinstance(v, ast.Node):
                    walk(v)
                elif isinstance(v, list):
                    for x in v:
                        if isinstance(x, ast.Node):
                            walk(x)

        for m in prog.strand.methods:
            walk(m.body)
        return [p.name for p in prog.strand.params if p.name in used]

    def build(self) -> HighProgram:
        prog = self.typed.program
        self.extra_state = self._params_used_in_methods(prog)
        globals_func = self.build_globals(prog)
        defaults_func, defaulted = self.build_defaults(prog)
        bounds_func = self.build_bounds(prog)
        seed_func = self.build_seed(prog)
        init_func = self.build_init(prog)
        update_func = self.build_method(prog, "update")
        stab = None
        if prog.strand.method("stabilize") is not None:
            stab = self.build_method(prog, "stabilize")
        hp = HighProgram(
            typed=self.typed,
            images=self.images,
            fields=self.fields,
            globals_func=globals_func,
            defaults_func=defaults_func,
            bounds_func=bounds_func,
            defaulted_inputs=defaulted,
            seed_func=seed_func,
            init_func=init_func,
            update_func=update_func,
            stabilize_func=stab,
            concrete_globals=list(self.concrete_globals),
            input_names=self.typed.inputs,
            iter_names=[it.name for it in prog.initially.iters],
            grid=prog.initially.kind == "grid",
            state_order=list(self.typed.state_order),
            extra_state=list(self.extra_state),
            outputs=list(self.typed.outputs),
        )
        if self.check:
            from repro.core.ir.base import validate

            for fn in self.all_funcs(hp):
                validate(fn, irops.HIGH, "HighIR")
        return hp

    @staticmethod
    def all_funcs(hp: HighProgram) -> list[Func]:
        fns = [
            hp.globals_func,
            hp.defaults_func,
            hp.bounds_func,
            hp.seed_func,
            hp.init_func,
            hp.update_func,
        ]
        if hp.stabilize_func is not None:
            fns.append(hp.stabilize_func)
        return fns

    # -- function builders ------------------------------------------------------

    def build_globals(self, prog: ast.Program) -> Func:
        """Inputs → derived concrete globals; also record images/fields."""
        body = Body()
        params: list[Value] = []
        param_names: list[str] = []
        env: dict[str, Value] = {}
        # input globals become parameters
        for g in prog.globals:
            if g.is_input:
                info = self.typed.globals[g.name]
                v = Value(info.ty, ("param", g.name))
                params.append(v)
                param_names.append(g.name)
                env[g.name] = v
                self.concrete_globals.append(g.name)
        ctx = ExprCtx(self, body, env, global_ctx=True)
        results: list[Value] = []
        result_names: list[str] = []
        self._globals_results = results
        self._globals_result_names = result_names
        self._globals_env_ref = env
        for g in prog.globals:
            if g.is_input:
                continue
            info = self.typed.globals[g.name]
            ty = info.ty
            if isinstance(ty, ImageTy):
                path = g.init.path if isinstance(g.init, ast.Load) else None
                if path is None:
                    raise CompileError(
                        f"image global {g.name!r} must be initialized with "
                        "load(...)"
                    )
                self.images[g.name] = ImageSlot(g.name, ty.dim, ty.shape, path)
                continue
            if isinstance(ty, KernelTy):
                self.kernels[g.name] = ctx.eval_kernel(g.init)
                continue
            if isinstance(ty, FieldTy):
                self.fields[g.name] = ctx.eval_field(g.init)
                continue
            if ty == STRING:
                raise CompileError("string globals are not supported")
            v = ctx.eval(g.init)
            env[g.name] = v
            results.append(v)
            result_names.append(g.name)
            self.concrete_globals.append(g.name)
        return Func("globals", params, param_names, body, results, result_names)

    def _global_params(self, body_env: dict[str, Value]) -> tuple[list[Value], list[str]]:
        params = []
        names = []
        for name in self.concrete_globals:
            if name in self.synthetic_tys:
                ty = self.synthetic_tys[name]
            else:
                ty = self.typed.globals[name].ty
            v = Value(ty, ("param", name))
            params.append(v)
            names.append(name)
            body_env[name] = v
        return params, names

    def build_defaults(self, prog: ast.Program) -> tuple[Func, list[str]]:
        """Default values for ``input`` globals that declare one.

        Defaults are closed expressions (they may not reference other
        globals: the order in which users override inputs is unspecified),
        so this function takes no parameters.
        """
        body = Body()
        ctx = ExprCtx(self, body, {})
        results: list[Value] = []
        names: list[str] = []
        for g in prog.globals:
            if g.is_input and g.init is not None:
                try:
                    results.append(ctx.eval(g.init))
                except CompileError as exc:
                    raise CompileError(
                        f"default for input {g.name!r} must be a closed "
                        f"expression: {exc}"
                    ) from exc
                names.append(g.name)
        return Func("defaults", [], [], body, results, names), names

    def build_bounds(self, prog: ast.Program) -> Func:
        """Comprehension iterator bounds: globals → (lo, hi) per iterator."""
        body = Body()
        env: dict[str, Value] = {}
        params, names = self._global_params(env)
        ctx = ExprCtx(self, body, env)
        results: list[Value] = []
        result_names: list[str] = []
        for it in prog.initially.iters:
            results.append(ctx.eval(it.lo))
            result_names.append(f"{it.name}.lo")
            results.append(ctx.eval(it.hi))
            result_names.append(f"{it.name}.hi")
        return Func("bounds", params, names, body, results, result_names)

    def build_seed(self, prog: ast.Program) -> Func:
        body = Body()
        env: dict[str, Value] = {}
        params, names = self._global_params(env)
        for it in prog.initially.iters:
            v = Value(INT, ("param", it.name))
            params.append(v)
            names.append(it.name)
            env[it.name] = v
        ctx = ExprCtx(self, body, env)
        results = [ctx.eval(a) for a in prog.initially.args]
        result_names = [p.name for p in prog.strand.params]
        return Func("seed", params, names, body, results, result_names)

    def build_init(self, prog: ast.Program) -> Func:
        body = Body()
        env: dict[str, Value] = {}
        params, names = self._global_params(env)
        for p in prog.strand.params:
            info = self.typed.params[p.name]
            v = Value(info.ty, ("param", p.name))
            params.append(v)
            names.append(p.name)
            env[p.name] = v
        ctx = ExprCtx(self, body, env)
        results: list[Value] = []
        for sv in prog.strand.state:
            v = ctx.eval(sv.init)
            env[sv.name] = v
            results.append(v)
        # forward method-referenced parameters as hidden state
        results.extend(env[p] for p in self.extra_state)
        result_names = list(self.typed.state_order) + list(self.extra_state)
        return Func("init", params, names, body, results, result_names)

    def build_method(self, prog: ast.Program, mname: str) -> Func:
        method = prog.strand.method(mname)
        with self.obs.span("simplify", cat="pass", func=mname):
            body_ast = simplify_method(method.body, is_update=(mname == "update"))
        body = Body()
        env: dict[str, Value] = {}
        params, names = self._global_params(env)
        for sname in self.typed.state_order:
            info = self.typed.state[sname]
            v = Value(info.ty, ("param", sname))
            params.append(v)
            names.append(sname)
            env[sname] = v
        # Method-referenced strand parameters ride along as hidden immutable
        # state (the init function forwards their values).
        for pname in self.extra_state:
            info = self.typed.params[pname]
            v = Value(info.ty, ("param", pname))
            params.append(v)
            names.append(pname)
            env[pname] = v
        ctx = ExprCtx(self, body, env)
        if mname == "update":
            env[STATUS_VAR] = body.emit("const", [], INT, value=RUNNING)
        self.compile_block(ctx, body_ast)
        results = [env[s] for s in self.typed.state_order]
        result_names = list(self.typed.state_order)
        if mname == "update":
            results.append(env[STATUS_VAR])
            result_names.append(STATUS_VAR)
        return Func(mname, params, names, body, results, result_names)

    # -- statement compilation ------------------------------------------------

    def compile_block(self, ctx: "ExprCtx", block: ast.Block) -> None:
        # Locals declared in this block are scoped: we snapshot the name set
        # and drop new names afterwards (their SSA values simply become
        # unreferenced).
        outer_names = set(ctx.env.keys())
        for s in block.stmts:
            self.compile_stmt(ctx, s)
        for name in list(ctx.env.keys()):
            if name not in outer_names:
                del ctx.env[name]

    def compile_stmt(self, ctx: "ExprCtx", s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            self.compile_block(ctx, s)
            return
        if isinstance(s, ast.DeclStmt):
            if isinstance(s.init.ty, FieldTy):
                # field-typed local: symbolic only
                self.fields[s.name] = ctx.eval_field(s.init)
                return
            ctx.env[s.name] = ctx.eval(s.init)
            return
        if isinstance(s, ast.AssignStmt):
            if s.op == "=":
                ctx.env[s.name] = ctx.eval(s.value)
            else:
                cur = ctx.env[s.name]
                rhs = ctx.eval(s.value)
                ctx.env[s.name] = ctx.body.emit(_BINOPS[s.op[0]], [cur, rhs], cur.ty)
            return
        if isinstance(s, ast.IfStmt):
            cond = ctx.eval(s.cond)
            outer_env = ctx.env
            then_body = Body()
            then_env = dict(outer_env)
            self.compile_stmt(ExprCtx(self, then_body, then_env), s.then_s)
            else_body = Body()
            else_env = dict(outer_env)
            if s.else_s is not None:
                self.compile_stmt(ExprCtx(self, else_body, else_env), s.else_s)
            phis: list[Phi] = []
            for name, old in outer_env.items():
                tv = then_env.get(name, old)
                ev = else_env.get(name, old)
                if tv is not ev:
                    merged = Value(tv.ty)
                    phi = Phi(merged, tv, ev)
                    merged.producer = phi
                    phis.append(phi)
                    outer_env[name] = merged
            ctx.body.add(IfRegion(cond, then_body, else_body, phis))
            return
        raise CompileError(f"unexpected statement {type(s).__name__} after simplify")


@dataclass
class ExprCtx:
    """Expression compilation context: emits into one body with one env.

    ``global_ctx`` marks the global section: field scale factors computed
    there must be exported as synthetic globals (see ``add_scale_global``)
    rather than referenced as raw SSA values, since later functions cannot
    see the globals function's values.
    """

    builder: HighBuilder
    body: Body
    env: dict[str, Value]
    global_ctx: bool = False

    def _scale_atom(self, value: Value):
        if self.global_ctx:
            return self.builder.add_scale_global(value)
        return value

    def _resolve_scale(self, scale) -> Value:
        if isinstance(scale, Value):
            return scale
        return self.env[scale]

    # -- symbolic (compile-time) evaluation of abstract types ----------------

    def eval_kernel(self, e: ast.Expr) -> Kernel:
        if isinstance(e, ast.Var) and e.name in self.builder.kernels:
            return self.builder.kernels[e.name]
        raise CompileError("kernel expressions must name a kernel")

    def eval_field(self, e: ast.Expr) -> nf.SymField:
        if isinstance(e, ast.Var):
            try:
                return self.builder.fields[e.name]
            except KeyError:
                raise CompileError(f"{e.name!r} is not a known field") from None
        if isinstance(e, ast.BinOp):
            if e.op == "⊛":
                img_e, kern_e = e.left, e.right
                if isinstance(img_e.ty, KernelTy):
                    img_e, kern_e = kern_e, img_e
                slot = self._image_slot(img_e)
                kern = self.eval_kernel(kern_e)
                return nf.conv(slot.name, slot.dim, slot.shape, kern)
            if e.op == "+":
                return nf.add(self.eval_field(e.left), self.eval_field(e.right))
            if e.op == "-":
                right = self.eval_field(e.right)
                neg1 = self.body.emit("const", [], REAL, value=-1.0)
                return nf.add(self.eval_field(e.left), nf.scale(self._scale_atom(neg1), right))
            if e.op == "*":
                if isinstance(e.left.ty, FieldTy):
                    return nf.scale(self._scale_atom(self.eval(e.right)), self.eval_field(e.left))
                return nf.scale(self._scale_atom(self.eval(e.left)), self.eval_field(e.right))
            if e.op == "/":
                inv = self.body.emit("const", [], REAL, value=1.0)
                denom = self.eval(e.right)
                recip = self.body.emit("div", [inv, denom], REAL)
                return nf.scale(self._scale_atom(recip), self.eval_field(e.left))
        if isinstance(e, ast.UnOp):
            if e.op == "-":
                neg1 = self.body.emit("const", [], REAL, value=-1.0)
                return nf.scale(self._scale_atom(neg1), self.eval_field(e.operand))
            if e.op in ("∇", "∇⊗"):
                return nf.deriv(self.eval_field(e.operand))
            if e.op == "∇•":
                return nf.divergence(self.eval_field(e.operand))
            if e.op == "∇×":
                return nf.curl(self.eval_field(e.operand))
        raise CompileError(
            f"field expression {type(e).__name__} is not statically "
            "determined (simplification should have removed it)"
        )

    def _image_slot(self, e: ast.Expr) -> ImageSlot:
        if isinstance(e, ast.Var) and e.name in self.builder.images:
            return self.builder.images[e.name]
        if isinstance(e, ast.Load):
            # anonymous load in a convolution: synthesize a slot named
            # after the file stem so Program.bind_image can address it
            ity = e.ty
            stem = e.path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            name = "".join(c if c.isalnum() or c == "_" else "_" for c in stem)
            if not name or not (name[0].isalpha() or name[0] == "_"):
                name = f"img_{name}"
            base = name
            k = 1
            while name in self.builder.images:
                name = f"{base}_{k}"
                k += 1
            slot = ImageSlot(name, ity.dim, tuple(ity.shape), e.path)
            self.builder.images[name] = slot
            return slot
        raise CompileError("convolution operand must be an image")

    # -- probes ----------------------------------------------------------------

    def emit_probe(self, sym: nf.SymField, pos: Value) -> Value:
        """Figure 10's probe rules: lower a probe of a normalized field."""
        if isinstance(sym, nf.SymSum):
            left = self.emit_probe(sym.left, pos)
            right = self.emit_probe(sym.right, pos)
            return self.body.emit("add", [left, right], left.ty)
        if isinstance(sym, nf.SymScale):
            inner = self.emit_probe(sym.field, pos)
            scale = self._resolve_scale(sym.scale)
            return self.body.emit("mul", [scale, inner], inner.ty)
        if isinstance(sym, nf.SymConv):
            out_shape = sym.shape
            return self.body.emit(
                "probe",
                [pos],
                TensorTy(out_shape),
                image=sym.image,
                kernel=sym.kernel,
                deriv=sym.deriv,
                out_shape=out_shape,
            )
        if isinstance(sym, nf.SymContract):
            jac = self.emit_probe(sym.conv, pos)
            if sym.kind == "div":
                return self.body.emit("trace", [jac], REAL)
            if sym.kind == "curl2":
                a = self.body.emit("tensor_index", [jac], REAL, indices=(1, 0))
                b = self.body.emit("tensor_index", [jac], REAL, indices=(0, 1))
                return self.body.emit("sub", [a, b], REAL)
            comps = []
            for (i, j) in ((2, 1), (0, 2), (1, 0)):
                a = self.body.emit("tensor_index", [jac], REAL, indices=(i, j))
                b = self.body.emit("tensor_index", [jac], REAL, indices=(j, i))
                comps.append(self.body.emit("sub", [a, b], REAL))
            return self.body.emit("tensor_cons", comps, TensorTy((3,)))
        raise CompileError(f"cannot probe {type(sym).__name__}")

    def emit_inside(self, sym: nf.SymField, pos: Value) -> Value:
        """``inside(x, F)``: conjunction over the convolution leaves."""
        unique = {(leaf.image, leaf.kernel.support) for leaf in sym.leaves()}
        tests = [
            self.body.emit("inside", [pos], BOOL, image=image, support=support)
            for image, support in sorted(unique)
        ]
        out = tests[0]
        for t in tests[1:]:
            out = self.body.emit("and", [out, t], BOOL)
        return out

    # -- concrete expression evaluation -----------------------------------------

    def eval(self, e: ast.Expr) -> Value:
        if isinstance(e, ast.IntLit):
            return self.body.emit("const", [], INT, value=e.value)
        if isinstance(e, ast.RealLit):
            return self.body.emit("const", [], REAL, value=e.value)
        if isinstance(e, ast.BoolLit):
            return self.body.emit("const", [], BOOL, value=e.value)
        if isinstance(e, ast.Var):
            if e.name in self.env:
                return self.env[e.name]
            if e.name == "pi":
                return self.body.emit("const", [], REAL, value=math.pi)
            raise CompileError(f"no runtime value for {e.name!r}")
        if isinstance(e, ast.Identity):
            return self.body.emit("identity", [], TensorTy((e.n, e.n)), n=e.n)
        if isinstance(e, ast.Norm):
            inner = self.eval(e.operand)
            order = len(inner.ty.shape) if isinstance(inner.ty, TensorTy) else 0
            return self.body.emit("norm", [inner], REAL, order=order)
        if isinstance(e, ast.UnOp):
            if e.op == "-":
                v = self.eval(e.operand)
                return self.body.emit("neg", [v], v.ty)
            if e.op == "!":
                v = self.eval(e.operand)
                return self.body.emit("not", [v], BOOL)
            raise CompileError(f"unary {e.op!r} does not produce a concrete value")
        if isinstance(e, ast.BinOp):
            opname = _BINOPS.get(e.op)
            if opname is None:
                raise CompileError(f"operator {e.op!r} in concrete context")
            left = self.eval(e.left)
            right = self.eval(e.right)
            return self.body.emit(opname, [left, right], e.ty)
        if isinstance(e, ast.Cond):
            cond = self.eval(e.cond)
            a = self.eval(e.then_e)
            b = self.eval(e.else_e)
            return self.body.emit("select", [cond, a, b], e.ty)
        if isinstance(e, ast.Index):
            base = self.eval(e.base)
            indices = []
            for idx in e.indices:
                if not isinstance(idx, ast.IntLit):
                    raise CompileError(
                        "tensor indices must be integer literals",
                    )
                indices.append(idx.value)
            return self.body.emit(
                "tensor_index", [base], e.ty, indices=tuple(indices)
            )
        if isinstance(e, ast.TensorCons):
            elems = [self.eval(el) for el in e.elements]
            return self.body.emit("tensor_cons", elems, e.ty)
        if isinstance(e, ast.Probe):
            sym = self.eval_field(e.field)
            pos = self.eval(e.pos)
            return self.emit_probe(sym, pos)
        if isinstance(e, ast.Call):
            return self.eval_call(e)
        raise CompileError(f"cannot compile expression {type(e).__name__}")

    def eval_call(self, e: ast.Call) -> Value:
        name = e.func
        # field probe through a variable
        if name in self.builder.fields:
            sym = self.builder.fields[name]
            pos = self.eval(e.args[0])
            return self.emit_probe(sym, pos)
        if name == "inside":
            sym = self.eval_field(e.args[1])
            pos = self.eval(e.args[0])
            return self.emit_inside(sym, pos)
        if name == "real":
            arg = self.eval(e.args[0])
            if arg.ty == INT:
                return self.body.emit("int_to_real", [arg], REAL)
            return arg
        if name == "int":
            arg = self.eval(e.args[0])
            if arg.ty == INT:
                return arg
            return self.body.emit("real_to_int", [arg], INT)
        if name in _FUNCS:
            args = [self.eval(a) for a in e.args]
            return self.body.emit(_FUNCS[name], args, e.ty)
        raise CompileError(f"unknown function {name!r}")
