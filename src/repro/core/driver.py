"""The compiler driver: source text → generated code and lowered IR.

Mirrors the paper's pipeline (§5.1): parse → type check → simplify →
HighIR → field normalization (inside HighIR construction) → contraction +
value numbering → MidIR (probe synthesis) → contraction + value numbering
→ LowIR (kernel expansion) → contraction + value numbering → Python/NumPy
code generation.

Every stage is a span (one ``cat="pass"`` span per pass, carrying IR
instruction counts and value-numbering removal counts), so
:class:`CompileStats` is a *view* over the compile's events — pass the
:class:`repro.obs.Obs` you run with to see them alongside the runtime's.

Optimizations can be disabled individually (``optimize=...``) to support
the ablation benchmarks.  The entry points that make a runnable program,
:func:`compile_program` and :func:`compile_file`, live in
:mod:`repro.core.api` (re-exported here): a compile-cache hit never
imports this module.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

from repro.core.api import compile_file, compile_program
from repro.core.codegen.pygen import generate_module
from repro.core.ir import ops as irops
from repro.core.records import CompileStats, HighProgram, OptOptions
from repro.core.syntax import parse_program
from repro.core.ty import check_program
from repro.core.xform.contract import contract
from repro.core.xform.probe_fuse import probe_fuse
from repro.core.xform.to_high import HighBuilder
from repro.core.xform.to_low import to_low
from repro.core.xform.to_mid import to_mid
from repro.core.xform.value_numbering import value_number
from repro.errors import CompileError
from repro.obs import scope

__all__ = ["CompileStats", "OptOptions", "code_digests", "compile_file",
           "compile_program", "compile_to_source", "source_digest"]


def _count(func) -> int:
    return sum(1 for _ in func.body.instructions())


@contextmanager
def _blame(after: str, ir: str, func):
    """Name the pass (and IR level, function) a check failure follows."""
    try:
        yield
    except CompileError as exc:
        raise CompileError(
            f"IR validation failed after pass {after!r} "
            f"({ir} IR, function {func.name!r}): {exc}"
        ) from exc


def _optimize(func, vocab, opts: OptOptions, obs, ir: str, verify=None) -> None:
    def contraction() -> None:
        # checked, a contraction that leaves its loop on the round bound
        # fails like any other broken pass invariant
        with obs.span("contraction", cat="pass", func=func.name, ir=ir), \
                _blame("contraction", ir, func):
            contract(func, vocab, check=verify is not None)
        if verify is not None:
            verify(func, ir, "contraction")

    if opts.contraction:
        contraction()
    if opts.value_numbering:
        with obs.span("value-numbering", cat="pass", func=func.name, ir=ir) as sp:
            sp.set("removed", value_number(func))
        if verify is not None:
            verify(func, ir, "value-numbering")
    if opts.contraction:
        contraction()


def compile_to_source(
    source: str,
    optimize: OptOptions | None = None,
    obs=None,
    check: bool | None = None,
    cache: bool = False,
) -> tuple[str, HighProgram, CompileStats]:
    """Compile Diderot source to generated Python source + metadata.

    ``obs`` receives one span per compiler pass (and, derived from each,
    the ``pass.<name>.seconds`` / ``.calls`` counters); when omitted, a
    fresh child of the current ``Obs`` does, so the returned
    :class:`CompileStats` is always populated.

    ``check`` enables pass-boundary IR validation
    (:mod:`repro.core.verify`): after every pass the current function is
    re-validated (SSA well-formedness + per-op type/shape signatures),
    and a violation raises a :class:`~repro.errors.CompileError` naming
    the pass that broke the invariant.  Defaults to the ``REPRO_CHECK``
    environment variable.  Each check emits one ``cat="check"`` span.

    ``cache=True`` answers from the persistent compile cache, which holds
    whole programs: the triple is that of the double-precision entry
    :func:`compile_program` keeps.
    """
    if cache:
        prog = compile_program(source, optimize=optimize, obs=obs,
                               check=check, cache=True)
        return prog.generated_source, prog.high, prog.stats
    with scope(obs, "compile") as obs:
        return _compile(source, optimize or OptOptions(), obs, check)


def _compile(source, opts, obs, check):
    """The pipeline of :func:`compile_to_source`, recording into ``obs``."""
    from repro.core.verify import check_enabled, verify_func

    first = len(obs.events)  # a caller's Obs may hold earlier compiles
    if check is None:
        check = check_enabled()
    hp = None

    def _verify(fn, ir: str, after: str) -> None:
        if not check:
            return
        with obs.span("verify", cat="check", func=fn.name, ir=ir, after=after), \
                _blame(after, ir, fn):
            verify_func(fn, ir, images=hp.images if hp else None)

    verify = _verify if check else None
    with obs.span("parse", cat="pass"):
        prog = parse_program(source)
    with obs.span("typecheck", cat="pass"):
        typed = check_program(prog)
    with obs.span("highir", cat="pass"):
        hp = HighBuilder(typed, obs=obs).build()

    funcs = hp.funcs()
    for fn in funcs:
        obs.event("instr-count", cat="count", func=fn.name, ir="high", value=_count(fn))
        _verify(fn, "high", "highir")
        _optimize(fn, irops.HIGH, opts, obs, "high", verify=verify)
        with obs.span("midir", cat="pass", func=fn.name):
            to_mid(fn, hp.images)
        _verify(fn, "mid", "midir")
        obs.event("instr-count", cat="count", func=fn.name, ir="mid-unopt",
                  value=_count(fn))
        _optimize(fn, irops.MID, opts, obs, "mid", verify=verify)
        if opts.probe_fusion:
            with obs.span("probe-fuse", cat="pass", func=fn.name, ir="mid") as sp:
                fstats = probe_fuse(fn)
                for k, v in fstats.items():
                    sp.set(k, v)
            if verify is not None:
                verify(fn, "mid", "probe-fuse")
            if fstats["groups"] or fstats["chains"]:
                # clean up after the rewrite (fusion can strand dead
                # duplicates and VN may merge shared chain prefixes)
                _optimize(fn, irops.MID, opts, obs, "mid", verify=verify)
        obs.event("instr-count", cat="count", func=fn.name, ir="mid", value=_count(fn))
        with obs.span("lowir", cat="pass", func=fn.name):
            to_low(fn)
        _verify(fn, "low", "lowir")
        _optimize(fn, irops.LOW, opts, obs, "low", verify=verify)
        obs.event("instr-count", cat="count", func=fn.name, ir="low", value=_count(fn))
    with obs.span("codegen", cat="pass"):
        source_out = generate_module(funcs)
    return source_out, hp, CompileStats.from_trace(obs.events[first:])


def source_digest(text: str) -> str:
    """SHA-256 of one generated source text."""
    return hashlib.sha256(text.encode()).hexdigest()


def code_digests(prog) -> tuple[str, str]:
    """SHA-256 of a Program's generated Python and of its generated C.

    Both emitters are deterministic (``tests/test_codegen_determinism.py``),
    so the pair is a refactoring oracle: a compiler change that leaves it
    alone left the generated code byte-identical.  Raises
    :class:`~repro.errors.CodegenError` for a program the C backend cannot
    translate (such a program still runs on NumPy).
    """
    from repro.core.codegen.cgen import generate_c_module

    c_source, _plan = generate_c_module(prog.high)
    return source_digest(prog.generated_source), source_digest(c_source)
