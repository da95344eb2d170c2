"""The compiler driver: source text → runnable program.

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
the ablation benchmarks.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.codegen.pygen import generate_module, load_module
from repro.core.ir import ops as irops
from repro.core.syntax import parse_program
from repro.core.ty import check_program
from repro.core.xform.contract import contract
from repro.core.xform.probe_fuse import probe_fuse
from repro.core.xform.to_high import HighBuilder, HighProgram
from repro.core.xform.to_low import to_low
from repro.core.xform.to_mid import to_mid
from repro.core.xform.value_numbering import value_number
from repro.errors import CompileError, InputError
from repro.obs import scope


@dataclass
class OptOptions:
    """Optimization toggles (all on by default).

    ``contraction`` and ``value_numbering`` are the paper's §5.4 passes;
    ``probe_fusion`` is the shared-partial-contraction rewrite
    (:mod:`repro.core.xform.probe_fuse`), exposed separately so the fused
    and unfused pipelines can be A/B-compared (``--no-fuse``).
    """

    contraction: bool = True
    value_numbering: bool = True
    probe_fusion: bool = True


@dataclass
class CompileStats:
    """Per-function instruction counts across the pipeline, for the
    §5.4 optimization ablations.

    Built from the compile trace (:meth:`from_trace`); the driver emits
    an ``instr-count`` event after each IR stage and a ``removed`` count
    on every value-numbering pass span.
    """

    high_instrs: dict[str, int] = field(default_factory=dict)
    mid_instrs: dict[str, int] = field(default_factory=dict)
    mid_instrs_unopt: dict[str, int] = field(default_factory=dict)
    low_instrs: dict[str, int] = field(default_factory=dict)
    vn_removed: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, events) -> "CompileStats":
        """Aggregate a trace's compile events into the stats tables."""
        stats = cls()
        tables = {
            "high": stats.high_instrs,
            "mid": stats.mid_instrs,
            "mid-unopt": stats.mid_instrs_unopt,
            "low": stats.low_instrs,
        }
        for ev in events:
            if ev.cat == "count" and ev.name == "instr-count":
                table = tables.get(ev.args["ir"])
                if table is not None:
                    table[ev.args["func"]] = ev.args["value"]
            elif ev.cat == "pass" and ev.name == "value-numbering":
                fn = ev.args.get("func")
                if fn is not None:
                    stats.vn_removed[fn] = (
                        stats.vn_removed.get(fn, 0) + ev.args.get("removed", 0)
                    )
        return stats


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


def _resolve_cache(cache) -> bool:
    """Map a ``cache=`` argument to a concrete on/off decision.

    ``True``/``False`` are explicit; ``None`` defers to the
    ``REPRO_COMPILE_CACHE`` environment variable (off by default — the
    serving layer opts in explicitly, CLI users via the env var or
    ``--compile-cache``).
    """
    if cache is not None:
        return bool(cache)
    import os

    return os.environ.get("REPRO_COMPILE_CACHE", "").strip() not in ("", "0")


def compile_to_source(
    source: str,
    optimize: OptOptions | None = None,
    obs=None,
    check: bool | None = None,
    cache: bool | None = None,
    cache_extra: tuple = (),
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

    ``cache`` enables the persistent compile cache
    (:mod:`repro.serve.cache`): after the front end (parse → typecheck →
    HighIR normalization) the normalized HighIR is fingerprinted together
    with ``optimize`` and ``cache_extra`` (precision/backend tags from
    :func:`compile_program`), and on a hit the optimizer passes, lowering,
    and codegen are all skipped — the pickled entry supplies the lowered
    program, generated source, and stats.  A hit emits one
    ``cat="cache"`` event (and *no* optimizer-pass spans, which is how the
    tests verify nothing re-ran).  Defaults to ``REPRO_COMPILE_CACHE``.
    """
    with scope(obs, "compile") as obs:
        return _compile(source, optimize or OptOptions(), obs, check, cache,
                        cache_extra)


def _compile(source, opts, obs, check, cache, cache_extra):
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

    cache_key = None
    if _resolve_cache(cache):
        from repro.serve import cache as _cc

        cache_key = _cc.fingerprint(hp, opts, cache_extra)
        entry = _cc.load(cache_key, obs=obs)
        if entry is not None:
            return entry.gen_source, entry.high, entry.stats

    funcs = HighBuilder.all_funcs(hp)
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
    stats = CompileStats.from_trace(obs.events[first:])
    if cache_key is not None:
        from repro.serve import cache as _cc

        _cc.store(cache_key, source_out, hp, stats, obs=obs)
    return source_out, hp, stats


def compile_program(
    source: str,
    precision: str = "double",
    optimize: OptOptions | None = None,
    search_path: str = ".",
    obs=None,
    check: bool | None = None,
    cache: bool | None = None,
):
    """Compile Diderot source text into a runnable Program.

    Parameters
    ----------
    source:
        Diderot program text.
    precision:
        ``"single"`` or ``"double"`` — the representation of ``real``
        (paper §6.3: "the user must decide if reals are represented as
        single or double-precision floats").
    optimize:
        Optimization toggles; defaults to everything on.
    search_path:
        Directory against which ``load(...)`` paths resolve.
    obs:
        Optional :class:`repro.obs.Obs` that receives the compiler-pass
        spans (pass the same one to :meth:`Program.run
        <repro.runtime.program.Program.run>` for one unified timeline).
    check:
        Run the IR validators at every pass boundary (``--check``);
        defaults to the ``REPRO_CHECK`` environment variable.
    cache:
        Use the persistent compile cache (``--compile-cache``); defaults
        to the ``REPRO_COMPILE_CACHE`` environment variable.  Precision
        participates in the key (the generated NumPy source is
        precision-independent, but the lowered IR cached for the native
        backend is specialized downstream, and a conservative key is
        cheap).
    """
    from repro.runtime.program import Program

    if precision not in ("single", "double"):
        raise CompileError(f"precision must be 'single' or 'double', got {precision!r}")
    dtype = np.float32 if precision == "single" else np.float64
    gen_source, hp, stats = compile_to_source(source, optimize, obs=obs,
                                              check=check, cache=cache,
                                              cache_extra=("precision", precision))
    namespace = load_module(gen_source)
    return Program(
        high=hp,
        namespace=namespace,
        generated_source=gen_source,
        dtype=dtype,
        search_path=search_path,
        stats=stats,
    )


def compile_file(path: str, **kwargs):
    """Compile a ``.diderot`` file (load paths resolve next to it)."""
    import os

    try:
        with open(path, encoding="utf-8") as fp:
            src = fp.read()
    except UnicodeDecodeError:
        raise InputError(f"{path}: not a UTF-8 Diderot source") from None
    kwargs.setdefault("search_path", os.path.dirname(os.path.abspath(path)))
    return compile_program(src, **kwargs)


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
