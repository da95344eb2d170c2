"""Differential fuzzing: random programs, N-way execution, shrinking.

:class:`ProgramGen` draws random well-typed programs from the op table: it
picks a type, an op whose signature produces it (``OpInfo.surface`` and
``sigs``, or a syntactic form of :data:`FORMS`) and recurses on the
argument types, inside a fixed strand template with branches, early exits,
state copies and swaps, and probes.  Each sample is executed by the
compiled pipeline under every requested scheduler (the process pool runs
NumPy only) and by the HighIR reference interpreter driven by a hand-rolled
BSP loop (bypassing probe synthesis, kernel expansion, and codegen), and all
results must agree to tight tolerance.  Any disagreement is a compiler or
runtime bug; the failing statement tree is then *shrunk* — statements
deleted and ``if`` arms hoisted while the reduced program still fails — to
a minimal reproducer.  :func:`op_programs` is the generator's deterministic
entry point: one program per op and signature instance.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from repro.core.ir import ops as irops
from repro.core.records import OptOptions
from repro.core.ty.types import (
    BOOL,
    D,
    INT,
    REAL,
    S,
    TENSOR_S,
    DimVar,
    ShapeVar,
    Sig,
    TensorTy,
    const,
    subst,
    substitute,
)
from repro.errors import DiderotError

#: strands / steps for generated programs; N_STRANDS differs from every
#: tensor axis length so lane-broadcast bugs cannot hide
N_STRANDS = 12
MAX_STEPS = 3


def default_schedulers(backend: str) -> tuple[str, ...]:
    """Every scheduler that runs ``backend``: the process pool runs NumPy
    only."""
    return ("seq", "thread") + (("process",) if backend == "numpy" else ())


def options(seed: int, fuse: bool = True) -> OptOptions:
    """What seed ``seed`` compiles with: every fourth seed skips
    contraction, so constant operands reach the emitters too (an
    ``identity[n]`` never does otherwise)."""
    return OptOptions(contraction=seed % 4 != 3, probe_fusion=fuse)


def _phantom():
    from repro.data import portrait_phantom

    return portrait_phantom(48)


# -- statement tree -----------------------------------------------------------
#
# A statement is either a plain source string or an ``("if", cond, then,
# els)`` node whose arms are statement lists (``els`` may be None).  The
# tree survives generation so the shrinker can delete and hoist nodes
# structurally instead of editing text.


def render_stmts(stmts: list, indent: str = "                    ") -> str:
    out = []
    for s in stmts:
        if isinstance(s, str):
            out.append(indent + s)
        else:
            _, cond, then, els = s
            out.append(indent + f"if ({cond}) {{")
            out.append(render_stmts(then, indent + "    "))
            if els is not None:
                out.append(indent + "} else {")
                out.append(render_stmts(els, indent + "    "))
            out.append(indent + "}")
    return "\n".join(out)


def render_program(stmts: list, state: tuple = ()) -> str:
    """Wrap a statement tree in the fixed strand/field template; ``state``
    adds strand-state declarations."""
    body = render_stmts(stmts)
    extra = "".join(f"\n            {decl}" for decl in state)
    return f"""
        image(2)[] img = load("p.nrrd");
        field#2(2)[] F = img ⊛ bspln3;
        strand S (int i) {{
            output real x = real(i) * 0.5;
            real y = 1.5 - real(i) * 0.25;
            output vec2 v = [0.1, real(i)];
            int n = 0;{extra}
            update {{
{body}
                n += 1;
                if (n >= {MAX_STEPS}) stabilize;
            }}
        }}
        initially [ S(i) | i in 0 .. {N_STRANDS - 1} ];
    """


# -- the generator ------------------------------------------------------------
#
# A *production* spells one op at one ground instance of one of its
# signatures.  The op table gives the operator symbols, builtin names and
# signatures; FORMS gives the syntactic forms; CONDITION keeps arguments
# where every leg computes the same thing.  Nothing else names an op.

VEC2 = TensorTy((2,))
DIMS = (2, 3)
#: the shapes of generated tensors: scalars, vectors and matrices over DIMS
SHAPES = ((), *((d,) for d in DIMS), *itertools.product(DIMS, DIMS))
TYPES = (INT, BOOL, *(TensorTy(s) for s in SHAPES))

#: ops written as a syntactic form, and the probes and domain test of the
#: template's field ``F``: op -> [(template, signatures or None for the
#: row's own)].  ``{0}``.. are the arguments, ``{k}`` a literal index.
FORMS = {
    "neg": [("(-{0})", None)],
    "not": [("(!{0})", None)],
    "norm": [("(|{0}|)", None)],
    "select": [("({1} if {0} else {2})", (
        Sig((BOOL, INT, INT), const(INT)),
        Sig((BOOL, TENSOR_S, TENSOR_S), subst(TENSOR_S))))],
    "tensor_index": [("({0})[{k}]", (
        Sig((TensorTy((D, S)),), subst(TENSOR_S)),))],
    "tensor_cons": [
        ("[{0}, {1}]", (Sig((TENSOR_S,) * 2, subst(TensorTy((2, S)))),)),
        ("[{0}, {1}, {2}]", (Sig((TENSOR_S,) * 3, subst(TensorTy((3, S)))),)),
    ],
    "identity": [(f"identity[{d}]", (Sig((), const(TensorTy((d, d)))),))
                 for d in DIMS],
    "probe": [(f"{nabla}F({{0}})", (Sig((VEC2,), const(ty)),)) for nabla, ty in
              (("", REAL), ("∇", VEC2), ("∇⊗∇", TensorTy((2, 2))))],
    "inside": [("inside({0}, F)", (Sig((VEC2,), const(BOOL)),))],
}

_POSITIVE = "(|{0}| + 0.5)"
_NONZERO = {"int": "(2 * {0} + 1)", "real": "(|{0}| + 1.5)"}
_NAN_LANE = {"real": "(sqrt(real(i) - 0.5) * 0.0 + {0})"}
#: argument conditioning, once per op: a wrapper per argument (``None``: as
#: generated; a dict picks by argument type).  It keeps every leg on one
#: side of a domain edge, pole, branch cut or zero divisor, inside int64,
#: off the zero vector (whose direction, like an out-of-domain probe's
#: derivative, is rounding noise) and, for ``evecs``, on eigenvalues at
#: least 1 apart (within 1 of 0, 3 [and 6]); strand 0's NaN (sqrt of a
#: negative) must propagate on every backend.
CONDITION = {
    "div": (None, _NONZERO), "mod": (None, _NONZERO), "fmod": (None, _NONZERO),
    "sqrt": (_POSITIVE,), "log": (_POSITIVE,),
    "atan2": (None, _POSITIVE),
    "asin": ("clamp(-0.9, 0.9, {0})",), "acos": ("clamp(-0.9, 0.9, {0})",),
    "tan": ("clamp(-1.2, 1.2, {0})",),
    "exp": ("clamp(-20.0, 20.0, {0})",),
    "pow": (_POSITIVE, {"int": "({0} % 4)", "real": "clamp(-3.0, 3.0, {0})"}),
    "real_to_int": ("({0} if (|{0}| < 1000.0) else 0.0)",),
    "normalize_v": ({"tensor[2]": "({0} + [1.5, 0.0])",
                     "tensor[3]": "({0} + [1.5, 0.0, 0.0])"},),
    "evecs": ({
        "tensor[2,2]": "({0} / (|{0}| + 1.0) + [[0.0, 0.0], [0.0, 3.0]])",
        "tensor[3,3]": "({0} / (|{0}| + 1.0) + "
                       "[[0.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 6.0]])",
    },),
    "min": (_NAN_LANE, None), "max": (_NAN_LANE, None),
    "clamp": (_NAN_LANE, None, None),
}

#: how much likelier than another op of its type an op is drawn: the
#: probes are what the compiler's middle end exists for
WEIGHT = {"probe": 2}


def instances(sigs) -> list[tuple[tuple, object]]:
    """Ground ``(param types, result type)`` instances of an overload list,
    over :data:`TYPES` (dimension variables at 2 and 3, shape variables at
    every shape of :data:`SHAPES`); a signature's first instance of a
    parameter tuple wins, as in :func:`repro.core.ty.types.resolve`."""
    seen: dict[tuple, object] = {}
    for sig in sigs:
        variables = {
            s.name: s
            for p in sig.params if isinstance(p, TensorTy)
            for s in p.shape if isinstance(s, (DimVar, ShapeVar))
        }
        domains = [DIMS if isinstance(v, DimVar) else SHAPES
                   for v in variables.values()]
        for combo in itertools.product(*domains):
            env = dict(zip(variables, combo))
            params = tuple(substitute(p, env) for p in sig.params)
            if params in seen or (sig.guard and sig.guard(env)):
                continue
            result = sig.result(env)
            if all(t in TYPES for t in (*params, result)):
                seen[params] = result
    return list(seen.items())


#: one op's spelling, a ``str.format`` template, at one ground instance
Production = namedtuple("Production", "op template params result")


def productions() -> list[Production]:
    """Every spelling of every op of the table, at every instance."""
    out = []
    for name, info in irops.OPS.items():
        if name in FORMS:
            spellings = [(t, sigs or info.sigs) for t, sigs in FORMS[name]]
        else:
            spellings = [(s, info.sigs) for s in info.surface]
        for spelling, sigs in spellings:
            for params, result in instances(sigs):
                args = [f"{{{k}}}" for k in range(len(params))]
                template = spelling if name in FORMS else (
                    f"{spelling}({', '.join(args)})" if spelling.isidentifier()
                    else f" {spelling} ".join(args).join("()"))
                out.append(Production(name, template, params, result))
    return out


class ProgramGen:
    """Seeded random well-typed program generator (statement-tree form).

    ``varying=True`` draws no literal and no nullary form, so every
    expression depends on the strand and no pass can fold it away.
    """

    def __init__(self, seed: int, varying: bool = False):
        self.rng = random.Random(seed)
        self.varying = varying
        self.makes: dict = {}  # type -> op -> productions of that type
        for prod in productions():
            self.makes.setdefault(prod.result, {}).setdefault(
                prod.op, []).append(prod)
        self.scope = {REAL: ["x", "y"], VEC2: ["v"], INT: ["i", "n"]}
        self.n_locals = 0

    def expr(self, ty, depth: int) -> str:
        r = self.rng
        names = self.scope.get(ty, [])
        if depth <= 0 or r.random() < 0.2:
            if names and (self.varying or r.random() < 0.7):
                return r.choice(names)
            if not self.varying and ty in (INT, REAL):
                text = str(r.randint(0, 5)) if ty == INT else \
                    f"{r.uniform(-3, 3):.3f}"
                return f"({text})" if text[0] == "-" else text
        makes = self.makes[ty]
        if depth <= 0 or self.varying:
            # no deeper: build from variables, tensors by rows; varying:
            # no nullary form (a constant)
            makes = {op: keep for op, prods in makes.items() if (keep := [
                p for p in prods if (p.params or not self.varying) and (
                    depth > 0 or op == "tensor_cons"
                    or all(t in self.scope for t in p.params))])}
        ops = list(makes)
        op = r.choices(ops, [WEIGHT.get(o, 1) for o in ops])[0]
        prod = r.choice(makes[op])
        return self.spell(prod, [self.expr(t, depth - 1) for t in prod.params])

    def spell(self, prod: Production, args: list) -> str:
        """``prod`` over ``args``, conditioned."""
        conditions = CONDITION.get(prod.op, (None,) * len(args))
        for k, (ty, wrap) in enumerate(zip(prod.params, conditions)):
            if isinstance(wrap, dict):
                wrap = wrap.get(str(ty))
            if wrap is not None:
                args[k] = wrap.format(args[k])
        return prod.template.format(*args, k=self.rng.randrange(2))

    def stmts(self, depth: int, budget: int) -> list:
        r = self.rng
        out: list = []
        for _ in range(r.randint(1, budget)):
            kind = r.random()
            if kind < 0.25 and depth > 0:
                # locals declared inside a branch are block-scoped; restore
                # a fresh copy around each arm
                saved = {t: list(names) for t, names in self.scope.items()}
                inner = self.stmts(depth - 1, 2)
                self.scope = {t: list(names) for t, names in saved.items()}
                els = self.stmts(depth - 1, 2) if r.random() < 0.5 else None
                self.scope = saved
                out.append(("if", self.expr(BOOL, 1), inner, els))
            elif kind < 0.40:
                ty = r.choice((REAL, REAL, REAL, INT, BOOL, *TYPES[3:]))
                out.append(f"{ty} t{self.n_locals} = {self.expr(ty, 2)};")
                self.scope.setdefault(ty, []).append(f"t{self.n_locals}")
                self.n_locals += 1
            elif kind < 0.55:
                out.append(f"v = {self.expr(VEC2, 2)};")
            elif kind < 0.62 and depth > 0:
                out.append(("if", self.expr(BOOL, 1), ["stabilize;"], None))
            elif kind < 0.67 and depth > 0:
                out.append(("if", self.expr(BOOL, 1), ["die;"], None))
            elif kind < 0.73:
                # state-to-state copy: update hands back an array it was
                # given, under another variable's name
                out.append(r.choice(["x = y;", "y = x;"]))
            elif kind < 0.79:
                out.append(f"real t{self.n_locals} = x; x = y; "
                           f"y = t{self.n_locals};")
                self.n_locals += 1
            else:
                op = r.choice(["=", "+=", "-=", "*="])
                out.append(f"{r.choice('xxy')} {op} {self.expr(REAL, 2)};")
        return out

    def program_tree(self) -> list:
        return self.stmts(2, 5)

    def program(self) -> str:
        return render_program(self.program_tree())


def op_programs(seed: int = 0) -> dict[str, dict[str, str]]:
    """op -> {instance label: program}: each production once, stored in the
    output ``out``.  Its arguments are strand-state variables ``a0``..,
    which no pass of the update method can see through or fold."""
    progs: dict[str, dict[str, str]] = {}
    for k, prod in enumerate(productions()):
        g = ProgramGen(seed + k, varying=True)
        args = [f"a{k}" for k in range(len(prod.params))]
        state = [f"{ty} {a} = {g.expr(ty, 1)};"
                 for a, ty in zip(args, prod.params)]
        expr, ty = g.spell(prod, args), prod.result
        if ty == BOOL:
            expr, ty = FORMS["select"][0][0].format(expr, "1.0", "0.0"), REAL
        label = f"{', '.join(map(str, prod.params))} -> {prod.result}"
        progs.setdefault(prod.op, {})[label] = render_program(
            [f"out = {expr};", "stabilize;"],
            (*state, f"output {ty} out = {g.expr(ty, 0)};"))
    return progs


# -- execution ----------------------------------------------------------------


def interpret_program(src: str, image) -> dict[str, np.ndarray]:
    """Execute via the HighIR interpreter with a hand-rolled BSP loop."""
    from repro.core.codegen.interp import HighInterpreter, compile_high

    hp = compile_high(src)
    interp = HighInterpreter(hp, {"img": image})
    g = list(interp.call(hp.globals_func, []))
    iters = [np.arange(N_STRANDS)]
    params = interp.call(hp.seed_func, g + iters)
    raw = [np.asarray(s) for s in interp.call(hp.init_func, g + list(params))]
    # broadcast constant initializers to full lanes (N_STRANDS differs from
    # every tensor axis length, so the shape test is unambiguous)
    state = [s.copy() if s.ndim and s.shape[0] == N_STRANDS else
             np.broadcast_to(s, (N_STRANDS,) + s.shape).copy() for s in raw]
    status = np.zeros(N_STRANDS, dtype=np.int64)
    for _ in range(100):
        active = np.flatnonzero(status == 0)
        if active.size == 0:
            break
        block = [s[active] for s in state]
        out = interp.call(hp.update_func, g + block)
        *new_state, block_status = out
        for arr, new in zip(state, new_state):
            arr[active] = new
        status[active] = block_status
    names = hp.init_func.result_names
    return {name: state[names.index(name)] for name in hp.outputs}


def _run(prog_src: str, image, scheduler: str, optimize, backend: str,
         precision: str, block_size: int = 5, **run_kw):
    from repro.core.driver import compile_program

    prog = compile_program(prog_src, precision=precision, optimize=optimize)
    prog.bind_image("img", image)
    workers = 1 if scheduler == "seq" else 2
    return prog.run(max_steps=100, scheduler=scheduler, workers=workers,
                    block_size=block_size, backend=backend, **run_kw)


def _run_scheduler(prog_src: str, image, scheduler: str,
                   optimize: OptOptions | None = None,
                   backend: str = "numpy",
                   precision: str = "double") -> dict[str, np.ndarray]:
    return _run(prog_src, image, scheduler, optimize, backend,
                precision).outputs


def step_tallies(res) -> tuple:
    """What a run did, whichever way its super-step loop was driven:
    step count, final stable/died, and each step's active/stable/died."""
    rows = res.metrics.snapshot()["series"].get("steps", [])
    return (res.steps, res.num_stable, res.num_died,
            [(r["step"], r["active"], r["stable"], r["died"]) for r in rows])


def driving_check(src: str, image=None, scheduler: str = "seq",
                  optimize: OptOptions | None = None,
                  precision: str = "double") -> str | None:
    """Run one program on the C backend under both loop drivings; None if
    they are bit-identical, tallies included, else a message.

    A C run keeps its super-step loop inside the native kernel unless
    something must see every step boundary (DESIGN.md "Parallel
    backends"); a no-op ``on_step`` hook is such a something.
    """
    if image is None:
        image = _phantom()
    kernel = _run(src, image, scheduler, optimize, "c", precision)
    stepped = _run(src, image, scheduler, optimize, "c", precision,
                   on_step=lambda ev: None)
    for name, a in kernel.outputs.items():
        b = stepped.outputs[name]
        if not np.array_equal(a, b, equal_nan=True):
            return (f"kernel-loop vs per-step ({scheduler}) disagree on "
                    f"{name!r}: {a} vs {b}")
    if step_tallies(kernel) != step_tallies(stepped):
        return (f"kernel-loop vs per-step ({scheduler}) tallies disagree: "
                f"{step_tallies(kernel)} vs {step_tallies(stepped)}")
    return None


def differential_check(
    src: str,
    image=None,
    schedulers: tuple[str, ...] | None = None,
    optimize: OptOptions | None = None,
    backend: str = "numpy",
    precision: str = "double",
) -> str | None:
    """Run one program every way; None if all agree, else a message.

    The sequential compiled run is the baseline; the other schedulers
    (default: every one that runs ``backend``) —
    and every scheduler again with one block covering every strand — must
    agree *exactly* (same generated code over the same strands) and the
    HighIR interpreter to numeric tolerance (it computes probes through a
    different engine).  Every compiled run uses ``optimize`` (default: all
    passes on), so the fuzzer exercises the fused and the unfused pipeline
    and the uncontracted one (:func:`options`).
    ``backend="c"`` runs the compiled legs through the native backend, with
    the interpreter still serving as the independent oracle; additionally
    the sequential NumPy run must match the native baseline to 1e-12, and
    each in-process scheduler's run must equal itself driven per-step
    (:func:`driving_check`).

    ``precision="single"`` compiles every leg in float32 while the HighIR
    interpreter stays float64, making it the independent higher-precision
    oracle; tolerances relax accordingly (see DESIGN.md "Native backend"):
    interpreter leg 1e-3, native-vs-NumPy leg 2e-5 relative.  Schedulers
    still agree to 1e-12 among themselves — they run the same float32
    kernel over the same blocks.
    """
    if image is None:
        image = _phantom()
    schedulers = schedulers or default_schedulers(backend)
    single = precision == "single"
    # float64 interpreter is the oracle in both modes
    ref = interpret_program(src, image)
    interp_tol = dict(rtol=1e-3, atol=1e-3) if single else \
        dict(rtol=1e-9, atol=1e-10)
    cross_tol = dict(rtol=2e-5, atol=1e-6) if single else \
        dict(rtol=1e-12, atol=1e-12)
    base = _run_scheduler(src, image, schedulers[0], optimize, backend,
                          precision)
    for name in base:
        a, c = base[name], ref[name]
        if not np.allclose(a, c, equal_nan=True, **interp_tol):
            return (f"compiled ({schedulers[0]}, {precision}) vs interpreter "
                    f"disagree on {name!r}: {a} vs {c}")
    def vs_base(out, who: str) -> str | None:
        for name in base:
            a, b = base[name], out[name]
            if not np.allclose(a, b, rtol=1e-12, atol=1e-12, equal_nan=True):
                return (f"scheduler {who} vs {schedulers[0]!r} disagree "
                        f"on {name!r}: {b} vs {a}")
        return None

    for sched in schedulers[1:]:
        msg = vs_base(_run_scheduler(src, image, sched, optimize, backend,
                                     precision), repr(sched))
        if msg is not None:
            return msg
    # the legs above cut the strands into blocks of 5; one block covering
    # every strand takes the kernel's in-place path instead
    for sched in schedulers:
        out = _run(src, image, sched, optimize, backend, precision,
                   block_size=N_STRANDS).outputs
        msg = vs_base(out, f"{sched!r} (one block)")
        if msg is not None:
            return msg
    if backend != "numpy":
        out = _run_scheduler(src, image, schedulers[0], optimize, "numpy",
                             precision)
        for name in base:
            a, b = base[name], out[name]
            if not np.allclose(a, b, equal_nan=True, **cross_tol):
                return (f"backend {backend!r} vs 'numpy' ({precision}) "
                        f"disagree on {name!r}: {a} vs {b}")
        # the legs above all kept the step loop in the kernel
        for sched in schedulers:
            msg = driving_check(src, image, sched, optimize, precision)
            if msg is not None:
                return msg
    return None


def incremental_check(
    src: str,
    image=None,
    seed: int = 0,
    n_updates: int = 4,
    backend: str = "numpy",
    scheduler: str = "seq",
) -> str | None:
    """Replay a random patch sequence; None if every update matches.

    One checkpointed cold run, then ``n_updates`` random box patches
    applied through ``Program.update_input`` + ``run_update``.  After
    each update the stitched result must be *bit-identical* to a
    freshly compiled cold run over the patched image with the same
    scheduler/backend configuration (the incremental contract; see
    DESIGN.md "Incremental execution").  Any divergence is a dependency
    -tracking or restore bug and is reported with the update index and
    region.
    """
    from repro.core.driver import compile_program
    from repro.image import Image

    if image is None:
        image = _phantom()
    rng = np.random.default_rng(seed)
    data = np.array(image.data, dtype=np.float64, copy=True)

    def fresh(arr):
        prog = compile_program(src)
        prog.bind_image("img", Image(arr.copy(), dim=2))
        return prog

    workers = 1 if scheduler == "seq" else 2
    kw = dict(max_steps=100, scheduler=scheduler, workers=workers,
              block_size=5, backend=backend)
    prog = fresh(data)
    prog.run(checkpoint=True, **kw)
    for u in range(n_updates):
        lo = [int(rng.integers(0, s)) for s in data.shape]
        hi = [min(int(l + rng.integers(1, max(2, s // 3))), s - 1)
              for l, s in zip(lo, data.shape)]
        region = [[l, h] for l, h in zip(lo, hi)]
        sl = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
        data[sl] += rng.normal(scale=0.5, size=data[sl].shape)
        prog.update_input("img", data, region=region)
        res = prog.run_update(workers=workers, block_size=5,
                              scheduler=scheduler, backend=backend)
        want = fresh(data).run(**kw)
        for name in want.outputs:
            a, b = res.outputs[name], want.outputs[name]
            if not np.array_equal(a, b, equal_nan=True):
                return (f"update {u} (region {region}, "
                        f"{res.dirty_strands} dirty) not bit-identical to "
                        f"a cold run on {name!r}: {a} vs {b}")
    return None


# -- shrinking ----------------------------------------------------------------


def _variants(stmts: list):
    """Single-step reductions of a statement tree.

    Yields new trees, each one node smaller: a statement deleted, or an
    ``if`` replaced by one of its arms (hoisting the arm's statements).
    """
    for i, s in enumerate(stmts):
        yield stmts[:i] + stmts[i + 1:]
        if not isinstance(s, str):
            _, cond, then, els = s
            yield stmts[:i] + then + stmts[i + 1:]
            if els is not None:
                yield stmts[:i] + els + stmts[i + 1:]
                yield stmts[:i] + [("if", cond, then, None)] + stmts[i + 1:]
            for sub in _variants(then):
                yield stmts[:i] + [("if", cond, sub, els)] + stmts[i + 1:]
            if els is not None:
                for sub in _variants(els):
                    yield stmts[:i] + [("if", cond, then, sub)] + stmts[i + 1:]


def shrink_failure(stmts: list, still_fails, max_attempts: int = 400) -> list:
    """Greedy structural minimization.

    ``still_fails(stmts) -> bool`` re-runs the differential check on a
    candidate; reductions that no longer fail (or no longer compile — a
    deleted declaration can orphan a use) are skipped.  Each accepted
    reduction strictly shrinks the tree, so this terminates.
    """
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for cand in _variants(stmts):
            attempts += 1
            if attempts >= max_attempts:
                break
            if still_fails(cand):
                stmts = cand
                progress = True
                break
    return stmts


# -- the fuzzing loop ---------------------------------------------------------


@dataclass
class FuzzFailure:
    seed: int
    message: str
    source: str
    minimized: str


@dataclass
class FuzzReport:
    n_programs: int
    schedulers: tuple[str, ...]
    failures: list[FuzzFailure] = field(default_factory=list)
    #: LowIR ops the generated programs' update methods contained — what
    #: the run asked the backends to emit, so it can say what it never did
    ops: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    n: int = 50,
    seed: int = 0,
    schedulers: tuple[str, ...] | None = None,
    shrink: bool = True,
    progress=None,
    fuse: bool = True,
    backend: str = "numpy",
    precision: str = "double",
    incremental: bool = False,
) -> FuzzReport:
    """Generate and differentially check ``n`` programs.

    Seeds are ``seed .. seed+n-1`` so a run is reproducible and a failure
    names its seed.  ``schedulers`` defaults to every one that runs
    ``backend`` (:func:`default_schedulers`).  ``progress`` (optional
    callable) receives ``(index, seed)`` before each sample.  Each seed
    compiles with :func:`options`; ``fuse=False`` fuzzes the unfused
    pipeline (``--no-fuse``); ``backend="c"`` fuzzes the native
    backend against both the interpreter and the NumPy oracle;
    ``precision="single"`` fuzzes the float32 pipeline against the
    float64 interpreter oracle at relaxed tolerance (``--single``).
    ``incremental=True`` (``--incremental``) replaces the N-way
    differential check with :func:`incremental_check`: each generated
    program gets a random patch sequence replayed through the
    dirty-region update path against fresh-compile cold oracles, under
    each of ``schedulers`` in turn and ``backend``.
    """
    from repro.core.driver import compile_program

    image = _phantom()
    schedulers = tuple(schedulers or default_schedulers(backend))
    report = FuzzReport(n_programs=n, schedulers=schedulers)

    def check(program_src: str, sample_seed: int) -> str | None:
        optimize = options(sample_seed, fuse)
        if incremental:
            for sched in schedulers:
                msg = incremental_check(program_src, image, seed=sample_seed,
                                        backend=backend, scheduler=sched)
                if msg is not None:
                    return f"scheduler {sched!r}: {msg}"
            return None
        return differential_check(program_src, image, schedulers, optimize,
                                  backend, precision)

    for k in range(n):
        s = seed + k
        if progress is not None:
            progress(k, s)
        tree = ProgramGen(s).program_tree()
        src = render_program(tree)
        lowered = compile_program(src, precision=precision,
                                  optimize=options(s, fuse))
        report.ops.update(
            ins.op for ins in lowered.high.update_func.body.instructions())
        msg = check(src, s)
        if msg is None:
            continue

        def still_fails(cand) -> bool:
            try:
                return check(render_program(cand), s) is not None
            except DiderotError:
                return False  # the reduction broke compilation; skip it

        minimized = src
        if shrink:
            minimized = render_program(shrink_failure(tree, still_fails))
        report.failures.append(FuzzFailure(s, msg, src, minimized))
    return report
