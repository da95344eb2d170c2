"""The op table (``repro.core.ir.ops``): every consumer reads the same row.

Three table-driven suites, so a new row is covered the day it is added:

* completeness — every op has a type rule, a NumPy meaning and (in LowIR)
  exactly one C emitter; the typechecker's overload tables hold the
  table's own ``Sig`` objects;
* ``foldable`` tells the truth — a flagged op folds on constant arguments
  of each of its signatures, an unflagged one is left alone;
* op coverage — one single-update strand program per op and per ``Sig``
  instance (dimensions 2 and 3, rectangular matrices included), compiled
  with the validators on and run on NumPy, the native backend (at the
  default batch width and, bit-identically, as the scalar kernel) and the
  HighIR interpreter, which must agree to 1e-12.  The example programs
  and the fuzzer never emit a third of the LowIR ops, so the
  generated-code digests cannot see a wrong row there; this does.
"""

from __future__ import annotations

import ast
import functools
import inspect
import itertools

import numpy as np
import pytest

from repro.core.codegen import cbuild, cgen
from repro.core.codegen.cgen import _Emitter
from repro.core.driver import OptOptions, compile_program
from repro.core.ir import ops as irops
from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ty import builtins
from repro.core.ty.types import (
    BOOL,
    INT,
    REAL,
    STRING,
    DimVar,
    ShapeVar,
    TensorTy,
    resolve,
    substitute,
)
from repro.core.verify.fuzz import N_STRANDS, interpret_program
from repro.core.verify.validate import _TypeChecker
from repro.core.xform.contract import contract

VOCAB = {"high": irops.HIGH, "mid": irops.MID, "low": irops.LOW}
DIMS = (2, 3)
SHAPES = ((), (3,), (2, 3))


def instances(sigs) -> list[tuple[tuple, object]]:
    """Ground ``(param types, result type)`` instances of an overload list:
    every dimension variable at 2 and 3, every shape variable at a scalar,
    a vector and a rectangular matrix.  String instances have no runtime
    form and are left out."""
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
            if params in seen or STRING in params:
                continue
            result, _ = resolve(sigs, list(params))
            if result is not None:
                seen[params] = result
    return list(seen.items())


# -- completeness ---------------------------------------------------------------


class TestTable:
    def test_levels_are_views(self):
        assert set(irops.OPS) == set(irops.HIGH) | set(irops.MID) | set(irops.LOW)
        assert set(irops.HIGH) - set(irops.MID) == {"probe", "inside"}
        assert set(irops.MID) - set(irops.LOW) == {"weights"}
        assert set(irops.LOW) - set(irops.MID) == {"horner", "vec_cons"}
        for level, vocab in VOCAB.items():
            for name, info in vocab.items():
                assert info is irops.OPS[name] and level in info.levels

    @pytest.mark.parametrize("name", sorted(irops.OPS))
    def test_row_is_complete(self, name):
        info = irops.OPS[name]
        assert info.doc
        assert info.sigs or info.rule, "no type rule"
        if info.rule is not None:
            assert callable(getattr(_TypeChecker, info.rule))
        templates = info.py.values() if isinstance(info.py, dict) else [info.py]
        assert templates and all(isinstance(t, str) and t for t in templates)

    @pytest.mark.parametrize("name", sorted(irops.LOW))
    def test_lowir_op_has_one_c_emitter(self, name):
        """A hand-written ``_op_<name>`` exists exactly when some instance
        of the op has no ``c`` template: every instance has an emitter, and
        no row shadows a dead one."""
        info = irops.LOW[name]
        untemplated = info.c is None or any(
            irops.template(
                info.c,
                Instr(name, [Value(p) for p in params], {}, [Value(result)]),
            ) is None
            for params, result in instances(info.sigs)
        )
        assert hasattr(_Emitter, f"_op_{name}") == untemplated

    def test_op_emitters_go_through_the_printer(self):
        """No ``_op_<name>`` spells a loop header, the batch width, an
        indent or a reduction chain itself: ``loop``/``store``/``chain``
        and the rest of ``_Emitter``'s printer section own those."""
        banned = ("for (int", "DD_VB", "self.indent", '" + ".join')
        emitters = {n: f for n, f in vars(_Emitter).items()
                    if n.startswith("_op_")}
        assert len(emitters) >= 28
        for name, fn in emitters.items():
            source = inspect.getsource(fn)
            assert [b for b in banned if b in source] == [], name

    def test_one_function_records_representations(self):
        """``kinds[...]`` / ``sizes[...]`` have a single writer, fed by the
        one IR type -> C representation function."""
        writers = set()
        for fn in ast.walk(ast.parse(inspect.getsource(cgen))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    writers |= {
                        (fn.name, t.value.attr) for t in node.targets
                        if isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Attribute)
                        and t.value.attr in ("kinds", "sizes")}
        assert writers == {("bind", "kinds"), ("bind", "sizes")}

    def test_typechecker_tables_hold_the_tables_sigs(self):
        for functions, table in ((False, builtins.OPERATORS),
                                 (True, builtins.FUNCTIONS)):
            spellings = irops.surface(functions)
            assert spellings
            for spelling, op in spellings.items():
                sigs = irops.OPS[op].sigs
                assert len(table[spelling]) >= len(sigs) > 0
                assert all(a is b for a, b in zip(table[spelling], sigs))
        assert builtins.OPERATORS["•"] == list(irops.OPS["dot"].sigs)
        for form in ("neg", "norm"):
            sigs = irops.OPS[form].sigs
            assert all(a is b for a, b in zip(builtins.OPERATORS[form], sigs))


# -- foldable ---------------------------------------------------------------------

#: constant instances of the foldable ops whose rule reads attributes:
#: op -> (argument values, their types, attrs, result type)
_VEC3 = TensorTy((3,))
RULE_CASES = {
    "select": ([True, 1.0, 2.0], [BOOL, REAL, REAL], {}, REAL),
    "norm": ([np.array([3.0, 4.0, 12.0])], [_VEC3], {"order": 1}, REAL),
    "tensor_cons": ([1.0, 2.0], [REAL, REAL], {}, TensorTy((2,))),
    "tensor_index": ([np.array([1.0, 2.0, 3.0])], [_VEC3],
                     {"indices": (1,)}, REAL),
    "identity": ([], [], {"n": 2}, TensorTy((2, 2))),
    "horner": ([0.5], [REAL], {"coeffs": (1.0, 2.0, 3.0)}, REAL),
    "vec_cons": ([0.5, 0.25], [REAL, REAL], {}, ("weights", 2)),
}


def _constant(ty, k: int):
    """A constant of type ``ty`` for argument ``k``: non-zero (division),
    inside (0, 1) (the inverse trigonometric domains), distinct per ``k``."""
    if ty == INT:
        return (7, 2, 3)[k]
    if ty == BOOL:
        return (True, False, True)[k]
    if ty == STRING:
        return ("a", "b")[k]
    if ty.shape == ():
        return (0.75, 0.5, 0.25)[k]
    size = int(np.prod(ty.shape))
    return (0.2 + 0.1 * np.arange(size) + 0.05 * k).reshape(ty.shape)


def _contracted(name, values, tys, attrs, result_ty) -> list[str]:
    """Ops left after contracting ``name`` applied to constants."""
    body = Body()
    args = [body.emit("const", [], ty, value=v) for v, ty in zip(values, tys)]
    out = body.emit(name, args, result_ty, **attrs)
    fn = Func("f", [], [], body, [out], ["out"])
    contract(fn, VOCAB[irops.OPS[name].levels[0]], check=True)
    return [ins.op for ins in fn.body.instructions()]


def _all_instances(sigs):
    """:func:`instances` plus the string ones (contraction folds those)."""
    strings = [(sig.params, BOOL) for sig in sigs if STRING in sig.params]
    return instances(sigs) + strings


@pytest.mark.parametrize("name", sorted(set(irops.OPS) - {"const"}))
def test_foldable_flag_tells_the_truth(name):
    info = irops.OPS[name]
    if not info.foldable:
        vec = np.array([0.5, 1.5])
        assert name in _contracted(name, [vec], [TensorTy((2,))], {}, REAL)
        return
    if name in RULE_CASES:
        cases = [RULE_CASES[name]]
    else:
        assert info.rule is None, "a foldable rule op needs a RULE_CASES entry"
        cases = [
            ([_constant(p, k) for k, p in enumerate(params)], params, {}, result)
            for params, result in _all_instances(info.sigs)
        ]
    assert cases
    for values, tys, attrs, result in cases:
        assert _contracted(name, values, tys, attrs, result) == ["const"], tys


# -- op coverage ------------------------------------------------------------------

#: ops written as syntactic forms rather than operator symbols or calls
FORMS = {"neg": "-{0}", "norm": "|{0}|", "not": "!{0}"}
#: strand 0 feeds these a NaN as argument 0 (every backend has to
#: propagate it, whichever side it comes from)
NAN_LANE = ("min", "max", "clamp")


def _ty_name(ty) -> str:
    if ty in (INT, BOOL):
        return str(ty)
    if ty.shape == ():
        return "real"
    return f"tensor[{','.join(map(str, ty.shape))}]"


def _tensor_lit(shape, leaf) -> str:
    """Nested ``[..]`` literal; ``leaf(k)`` is the k-th scalar expression."""
    counter = itertools.count()

    def build(shape):
        if not shape:
            return leaf(next(counter))
        return "[" + ", ".join(build(shape[1:]) for _ in range(shape[0])) + "]"

    return build(tuple(shape))


def _arg_expr(ty, k: int, nan_lane: bool) -> str:
    """Argument ``k`` as a function of the strand index: ints span negative,
    zero and positive (argument 1 is odd, so never a zero divisor); reals
    stay inside (0, 1)."""
    if ty == INT:
        return ("(i * 3 - 7)", "(2 * i - 5)", "(i - 4)")[k]
    if ty == BOOL:
        return ("(i < 5)", "(i % 2 == 0)", "(i > 8)")[k]

    def leaf(e: int) -> str:
        x = (f"({0.15 + 0.05 * k + 0.02 * e:.2f} + "
             f"{0.055 - 0.01 * k + 0.004 * e:.3f} * real(i))")
        if nan_lane and k == 0 and e == 0:
            x = f"(sqrt(real(i) - 0.5) * 0.0 + {x})"  # NaN on strand 0 only
        return x

    return _tensor_lit(ty.shape, leaf)


def _program(params, result, expr: str, nan_lane: bool = False) -> str:
    decls = "\n".join(
        f"            {_ty_name(p)} a{k} = {_arg_expr(p, k, nan_lane)};"
        for k, p in enumerate(params)
    )
    if result == BOOL:
        result, expr = REAL, f"1.0 if {expr} else 0.0"
    zero = "0" if result == INT else _tensor_lit(result.shape, lambda e: "0.0")
    return f"""
    strand S (int i) {{
        output {_ty_name(result)} out = {zero};
        update {{
{decls}
            out = {expr};
            stabilize;
        }}
    }}
    initially [ S(i) | i in 0 .. {N_STRANDS - 1} ];
    """


def _coverage_programs() -> dict[str, dict[str, str]]:
    """op -> {instance label: source}, generated from the table."""
    progs: dict[str, dict[str, str]] = {}
    for name, info in irops.LOW.items():
        symbols = [s for s in info.surface if not s.isidentifier()]
        if not info.sigs or not (info.surface or name in FORMS):
            continue
        for params, result in instances(info.sigs):
            args = [f"a{k}" for k in range(len(params))]
            if name in FORMS:
                expr = FORMS[name].format(*args)
            elif symbols:
                expr = f"({args[0]} {symbols[0]} {args[1]})"
            else:
                expr = f"{info.surface[0]}({', '.join(args)})"
            label = ", ".join(map(_ty_name, params))
            progs.setdefault(name, {})[label] = _program(
                params, result, expr, name in NAN_LANE)
    # identity takes no arguments, so only unoptimized code keeps the op
    progs["identity"] = {
        str(n): _program((), TensorTy((n, n)), f"identity[{n}]") for n in DIMS
    }
    return progs


COVERAGE = _coverage_programs()


@functools.cache
def _compiled(op: str, label: str):
    optimize = OptOptions(contraction=op != "identity")
    prog = compile_program(COVERAGE[op][label], check=True, cache=False,
                           optimize=optimize)
    emitted = {ins.op for ins in prog.high.update_func.body.instructions()}
    assert op in emitted, f"{op}({label}) compiled to {sorted(emitted)}"
    return prog


def _agree(a, b) -> bool:
    return np.allclose(a, b, rtol=1e-12, atol=1e-12, equal_nan=True)


def test_coverage_reaches_every_surface_op():
    """Every LowIR op a source program can spell has generated programs —
    among them the twenty ops no example program or fuzz seed 0–999 emits."""
    unseen = ("abs acos asin atan atan2 ceil cos cross det exp floor fmod "
              "identity le log ne real_to_int sin tan transpose").split()
    assert set(unseen) <= set(COVERAGE)
    spelled = {n for n, i in irops.LOW.items() if i.sigs and i.surface}
    assert spelled <= set(COVERAGE)


@pytest.mark.parametrize("op", sorted(COVERAGE))
def test_numpy_agrees_with_interpreter(op):
    for label, src in COVERAGE[op].items():
        got = _compiled(op, label).run(max_steps=2, backend="numpy").outputs["out"]
        want = interpret_program(src, None)["out"]
        assert _agree(got, want), f"{op}({label}): {got} vs {want}"


@pytest.mark.skipif(not cbuild.compiler_available(),
                    reason="native backend needs cffi plus a C compiler on PATH")
@pytest.mark.parametrize("op", sorted(COVERAGE))
def test_native_agrees_with_numpy(op, monkeypatch):
    for label in COVERAGE[op]:
        prog = _compiled(op, label)
        want = prog.run(max_steps=2, backend="numpy").outputs["out"]
        got = prog.run(max_steps=2, backend="c").outputs["out"]
        assert _agree(got, want), f"{op}({label}): {got} vs {want}"
        # the scalar kernel is the same emission at DD_VB = 1, so both of
        # ``ref``'s address spellings (a folded ``k * vb``, a symbolic
        # ``(e) * DD_VB``) are exercised at the other width: same bits
        with monkeypatch.context() as width:
            width.setattr(cgen, "DEFAULT_VB_DOUBLE", 1)
            scalar = _compiled.__wrapped__(op, label)  # its own kernel
            vb1 = scalar.run(max_steps=2, backend="c").outputs["out"]
        assert vb1.tobytes() == got.tobytes(), f"{op}({label}) at batch 1"
