"""Differential fuzzing: random programs, N-way execution, shrinking.

:class:`ProgramGen` generates random well-typed Diderot programs over the
supported surface syntax — arithmetic, vectors, probes (``F(x)``,
``∇F(x)``), nested conditionals, early exits, copies and swaps between two
same-typed state variables.  Each sample is executed

* by the compiled pipeline under every requested scheduler
  (``seq``/``thread``/``process``; the process pool runs NumPy only), and
* by the HighIR reference interpreter driven by a hand-rolled BSP loop
  (bypassing probe synthesis, kernel expansion, and codegen entirely),

and all results must agree to tight tolerance.  Any disagreement is a
compiler or runtime bug; the failing program is then *shrunk* — the
generator keeps the statement tree, and the shrinker repeatedly deletes
statements and hoists ``if`` arms while the reduced program still fails —
to a minimal source snippet for the bug report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DiderotError

#: strands / steps for generated programs; N_STRANDS differs from every
#: tensor axis length so lane-broadcast bugs cannot hide
N_STRANDS = 12
MAX_STEPS = 3


def default_schedulers(backend: str) -> tuple[str, ...]:
    """Every scheduler that runs ``backend``: the process pool runs NumPy
    only."""
    return ("seq", "thread") + (("process",) if backend == "numpy" else ())


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


def render_program(stmts: list) -> str:
    """Wrap a statement tree in the fixed strand/field template."""
    body = render_stmts(stmts)
    return f"""
        image(2)[] img = load("p.nrrd");
        field#2(2)[] F = img ⊛ bspln3;
        strand S (int i) {{
            output real x = real(i) * 0.5;
            real y = 1.5 - real(i) * 0.25;
            output vec2 v = [0.1, real(i)];
            int n = 0;
            update {{
{body}
                n += 1;
                if (n >= {MAX_STEPS}) stabilize;
            }}
        }}
        initially [ S(i) | i in 0 .. {N_STRANDS - 1} ];
    """


class ProgramGen:
    """Seeded random well-typed program generator (statement-tree form)."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.locals_reals: list[str] = []
        self.n_locals = 0

    def real(self, depth: int) -> str:
        r = self.rng
        atoms = [
            lambda: f"{r.uniform(-3, 3):.3f}",
            lambda: "x",
            lambda: "y",
            lambda: "real(i)",
            lambda: "real(n)",
        ]
        if self.locals_reals:
            atoms.append(lambda: r.choice(self.locals_reals))
        if depth <= 0:
            return r.choice(atoms)()
        compound = [
            lambda: f"({self.real(depth - 1)} + {self.real(depth - 1)})",
            lambda: f"({self.real(depth - 1)} - {self.real(depth - 1)})",
            lambda: f"({self.real(depth - 1)} * {self.real(depth - 1)})",
            lambda: f"({self.real(depth - 1)} / (|({self.real(depth - 1)})| + 1.5))",
            # + 0.5: sqrt's slope is unbounded at 0, where it would amplify
            # rounding noise past the differential tolerance
            lambda: f"sqrt(|({self.real(depth - 1)})| + 0.5)",
            lambda: f"min({self.real(depth - 1)}, {self.real(depth - 1)})",
            lambda: f"max({self.real(depth - 1)}, {self.real(depth - 1)})",
            lambda: f"-{self.real(depth - 1)}",
            lambda: f"clamp(-2.0, 2.0, {self.real(depth - 1)})",
            lambda: f"real({self.int_expr(depth - 1)} / ({self.int_expr(depth - 1)} + 7))",
            lambda: f"F({self.vec2(depth - 1)})",
            lambda: f"|∇F({self.vec2(depth - 1)})|",
            lambda: f"(∇F({self.vec2(depth - 1)}))[{r.randint(0, 1)}]",
            lambda: f"({self.real(depth - 1)} if {self.cond(depth - 1)} "
                    f"else {self.real(depth - 1)})",
            lambda: f"({self.vec2(depth - 1)} • {self.vec2(depth - 1)})",
            lambda: f"|{self.vec2(depth - 1)}|",
            lambda: f"lerp({self.real(depth - 1)}, {self.real(depth - 1)}, 0.25)",
        ]
        return r.choice(atoms + compound)()

    def vec2(self, depth: int) -> str:
        r = self.rng
        base = f"[{self.real(max(0, depth - 1))}, {self.real(max(0, depth - 1))}]"
        if depth > 0 and r.random() < 0.3:
            return f"({base} + [{r.uniform(5, 40):.2f}, {r.uniform(5, 40):.2f}])"
        return base

    def int_expr(self, depth: int) -> str:
        r = self.rng
        atoms = [lambda: str(r.randint(0, 5)), lambda: "i", lambda: "n"]
        if depth <= 0:
            return r.choice(atoms)()
        compound = [
            lambda: f"({self.int_expr(depth - 1)} + {self.int_expr(depth - 1)})",
            lambda: f"({self.int_expr(depth - 1)} * {r.randint(1, 3)})",
            lambda: f"({self.int_expr(depth - 1)} % {r.randint(2, 5)})",
            lambda: f"({self.int_expr(depth - 1)} / {r.randint(2, 4)})",
        ]
        return r.choice(atoms + compound)()

    def cond(self, depth: int) -> str:
        r = self.rng
        base = [
            lambda: f"{self.real(max(0, depth - 1))} < {self.real(max(0, depth - 1))}",
            lambda: f"{self.int_expr(max(0, depth - 1))} == {self.int_expr(max(0, depth - 1))}",
            lambda: f"{self.int_expr(max(0, depth - 1))} >= {self.int_expr(max(0, depth - 1))}",
            lambda: f"inside({self.vec2(max(0, depth - 1))}, F)",
        ]
        if depth <= 0:
            return r.choice(base)()
        compound = [
            lambda: f"({self.cond(depth - 1)} && {self.cond(depth - 1)})",
            lambda: f"({self.cond(depth - 1)} || {self.cond(depth - 1)})",
            lambda: f"!({self.cond(depth - 1)})",
        ]
        return r.choice(base + compound)()

    def stmts(self, depth: int, budget: int) -> list:
        r = self.rng
        out: list = []
        for _ in range(r.randint(1, budget)):
            kind = r.random()
            if kind < 0.25 and depth > 0:
                # locals declared inside a branch are block-scoped; restore
                # a fresh copy around each arm
                saved = list(self.locals_reals)
                inner = self.stmts(depth - 1, 2)
                self.locals_reals = list(saved)
                els = self.stmts(depth - 1, 2) if r.random() < 0.5 else None
                self.locals_reals = list(saved)
                out.append(("if", self.cond(1), inner, els))
            elif kind < 0.40:
                name = f"t{self.n_locals}"
                self.n_locals += 1
                out.append(f"real {name} = {self.real(2)};")
                self.locals_reals.append(name)
            elif kind < 0.55:
                out.append(f"v = {self.vec2(2)};")
            elif kind < 0.62 and depth > 0:
                out.append(("if", self.cond(1), ["stabilize;"], None))
            elif kind < 0.67 and depth > 0:
                out.append(("if", self.cond(1), ["die;"], None))
            elif kind < 0.73:
                # state-to-state copy: update hands back an array it was
                # given, under another variable's name
                out.append(r.choice(["x = y;", "y = x;"]))
            elif kind < 0.79:
                name = f"t{self.n_locals}"
                self.n_locals += 1
                out.append(f"real {name} = x; x = y; y = {name};")
            else:
                op = r.choice(["=", "+=", "-=", "*="])
                out.append(f"{r.choice('xxy')} {op} {self.real(2)};")
        return out

    def program_tree(self) -> list:
        return self.stmts(2, 5)

    def program(self) -> str:
        return render_program(self.program_tree())


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
    state = []
    for s in raw:
        # broadcast constant initializers to full lanes (N_STRANDS differs
        # from every tensor axis length, so the shape test is unambiguous)
        if s.ndim == 0 or s.shape[0] != N_STRANDS:
            s = np.broadcast_to(s, (N_STRANDS,) + s.shape).copy()
        else:
            s = s.copy()
        state.append(s)
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
    outputs = {}
    state_names = hp.init_func.result_names
    for out_name in hp.outputs:
        outputs[out_name] = state[state_names.index(out_name)]
    return outputs


def _run(prog_src: str, image, scheduler: str, fuse: bool, backend: str,
         precision: str, block_size: int = 5, **run_kw):
    from repro.core.driver import OptOptions, compile_program

    prog = compile_program(prog_src, precision=precision,
                           optimize=OptOptions(probe_fusion=fuse))
    prog.bind_image("img", image)
    workers = 1 if scheduler == "seq" else 2
    return prog.run(max_steps=100, scheduler=scheduler, workers=workers,
                    block_size=block_size, backend=backend, **run_kw)


def _run_scheduler(prog_src: str, image, scheduler: str,
                   fuse: bool = True,
                   backend: str = "numpy",
                   precision: str = "double") -> dict[str, np.ndarray]:
    return _run(prog_src, image, scheduler, fuse, backend, precision).outputs


def step_tallies(res) -> tuple:
    """What a run did, whichever way its super-step loop was driven:
    step count, final stable/died, and each step's active/stable/died."""
    rows = res.metrics.snapshot()["series"].get("steps", [])
    return (res.steps, res.num_stable, res.num_died,
            [(r["step"], r["active"], r["stable"], r["died"]) for r in rows])


def driving_check(src: str, image=None, scheduler: str = "seq",
                  fuse: bool = True, precision: str = "double") -> str | None:
    """Run one program on the C backend under both loop drivings; None if
    they are bit-identical, tallies included, else a message.

    A C run keeps its super-step loop inside the native kernel unless
    something must see every step boundary (DESIGN.md "Parallel
    backends"); a no-op ``on_step`` hook is such a something.
    """
    if image is None:
        image = _phantom()
    kernel = _run(src, image, scheduler, fuse, "c", precision)
    stepped = _run(src, image, scheduler, fuse, "c", precision,
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
    fuse: bool = True,
    backend: str = "numpy",
    precision: str = "double",
) -> str | None:
    """Run one program every way; None if all agree, else a message.

    The sequential compiled run is the baseline; the other schedulers
    (default: every one that runs ``backend``) —
    and every scheduler again with one block covering every strand — must
    agree *exactly* (same generated code over the same strands) and the
    HighIR interpreter to numeric tolerance (it computes probes through a
    different engine).  ``fuse`` toggles probe fusion in every compiled
    run, so the fuzzer exercises both the fused and the unfused pipeline.
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
    base = _run_scheduler(src, image, schedulers[0], fuse, backend, precision)
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
        msg = vs_base(_run_scheduler(src, image, sched, fuse, backend,
                                     precision), repr(sched))
        if msg is not None:
            return msg
    # the legs above cut the strands into blocks of 5; one block covering
    # every strand takes the kernel's in-place path instead
    for sched in schedulers:
        out = _run(src, image, sched, fuse, backend, precision,
                   block_size=N_STRANDS).outputs
        msg = vs_base(out, f"{sched!r} (one block)")
        if msg is not None:
            return msg
    if backend != "numpy":
        out = _run_scheduler(src, image, schedulers[0], fuse, "numpy",
                             precision)
        for name in base:
            a, b = base[name], out[name]
            if not np.allclose(a, b, equal_nan=True, **cross_tol):
                return (f"backend {backend!r} vs 'numpy' ({precision}) "
                        f"disagree on {name!r}: {a} vs {b}")
        # the legs above all kept the step loop in the kernel
        for sched in schedulers:
            msg = driving_check(src, image, sched, fuse, precision)
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
    callable) receives ``(index, seed)`` before each sample.  ``fuse=False`` fuzzes the
    unfused pipeline (``--no-fuse``); ``backend="c"`` fuzzes the native
    backend against both the interpreter and the NumPy oracle;
    ``precision="single"`` fuzzes the float32 pipeline against the
    float64 interpreter oracle at relaxed tolerance (``--single``).
    ``incremental=True`` (``--incremental``) replaces the N-way
    differential check with :func:`incremental_check`: each generated
    program gets a random patch sequence replayed through the
    dirty-region update path against fresh-compile cold oracles, under
    each of ``schedulers`` in turn and ``backend``.
    """
    from repro.core.driver import OptOptions, compile_program

    image = _phantom()
    schedulers = tuple(schedulers or default_schedulers(backend))
    report = FuzzReport(n_programs=n, schedulers=schedulers)

    def check(program_src: str, sample_seed: int) -> str | None:
        if incremental:
            for sched in schedulers:
                msg = incremental_check(program_src, image, seed=sample_seed,
                                        backend=backend, scheduler=sched)
                if msg is not None:
                    return f"scheduler {sched!r}: {msg}"
            return None
        return differential_check(program_src, image, schedulers, fuse,
                                  backend, precision)

    for k in range(n):
        s = seed + k
        if progress is not None:
            progress(k, s)
        tree = ProgramGen(s).program_tree()
        src = render_program(tree)
        lowered = compile_program(src, precision=precision,
                                  optimize=OptOptions(probe_fusion=fuse))
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
