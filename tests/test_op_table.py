"""The op table (``repro.core.ir.ops``): every consumer reads the same row.

Three table-driven suites, so a new row is covered the day it is added:

* completeness — every op has a type rule, a NumPy meaning and (in LowIR)
  exactly one C emitter; the typechecker's overload tables hold the
  table's own ``Sig`` objects;
* ``foldable`` tells the truth — a flagged op folds on constant arguments
  of each of its signatures, to its result type's payload kind and to the
  bits its generated NumPy code computes; an unflagged one is left alone;
* op coverage — one single-update strand program per op and per ``Sig``
  instance (dimensions 2 and 3, rectangular matrices included), from the
  fuzzer's generator (:func:`repro.core.verify.fuzz.op_programs`),
  compiled with the validators on and run on NumPy, the native backend (at
  the default batch width and, bit-identically, as the scalar kernel) and
  the HighIR interpreter, which must agree to 1e-12.
"""

from __future__ import annotations

import ast
import functools
import inspect
import operator
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.codegen import cbuild, cgen
from repro.core.codegen.cgen import _Emitter
from repro.core.codegen.pygen import generate_func
from repro.core.driver import OptOptions, compile_program
from repro.core.ir import ops as irops
from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ty import builtins
from repro.core.ty.types import BOOL, INT, REAL, STRING, TensorTy
from repro.core.verify.fuzz import (
    FORMS,
    _phantom,
    instances,
    interpret_program,
    op_programs,
)
from repro.core.verify.validate import _TypeChecker
from repro.core.xform.contract import contract
from repro.runtime import ops as rt

VOCAB = {"high": irops.HIGH, "mid": irops.MID, "low": irops.LOW}


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


def _function(name, values, tys, attrs, result_ty) -> Func:
    """``name`` applied to constants, as a function returning it."""
    body = Body()
    args = [body.emit("const", [], ty, value=v) for v, ty in zip(values, tys)]
    out = body.emit(name, args, result_ty, **attrs)
    return Func("f", [], [], body, [out], ["out"])


def _contracted(name, values, tys, attrs, result_ty) -> list[Instr]:
    """Instructions left after contracting ``name`` applied to constants."""
    fn = _function(name, values, tys, attrs, result_ty)
    contract(fn, VOCAB[irops.OPS[name].levels[0]], check=True)
    return list(fn.body.instructions())


def _unfolded(name, values, tys, attrs, result_ty):
    """``name`` on the same constants, run by its generated NumPy code in
    double precision (string constants have no NumPy spelling: Python's
    comparison is their meaning)."""
    if STRING in tys:
        return {"eq": operator.eq, "ne": operator.ne}[name](*values)
    namespace = {"np": np, "rt": rt}
    exec(generate_func(_function(name, values, tys, attrs, result_ty)), namespace)
    (out,) = namespace["f"](SimpleNamespace(dtype=np.float64, images={}))
    return out


def _payload_kind(ty) -> type:
    return {BOOL: bool, INT: int, STRING: str, REAL: float}.get(ty, np.ndarray)


def _all_instances(sigs):
    """:func:`instances` plus the string ones (contraction folds those)."""
    strings = [(sig.params, BOOL) for sig in sigs if STRING in sig.params]
    return instances(sigs) + strings


@pytest.mark.parametrize("name", sorted(set(irops.OPS) - {"const"}))
def test_foldable_flag_tells_the_truth(name):
    info = irops.OPS[name]
    if not info.foldable:
        vec = np.array([0.5, 1.5])
        left = _contracted(name, [vec], [TensorTy((2,))], {}, REAL)
        assert name in [ins.op for ins in left]
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
    for case in cases:
        (folded,) = _contracted(name, *case)
        assert folded.op == "const", case[1]
        value, want = folded.attrs["value"], _unfolded(name, *case)
        assert type(value) is _payload_kind(case[-1]), (case[1], value)
        if isinstance(value, np.ndarray):
            assert value.dtype == np.float64, case[1]
        got, want = np.asarray(value), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == \
            (want.dtype, want.shape, want.tobytes()), (case[1], value, want)


# -- op coverage ------------------------------------------------------------------

COVERAGE = {op: progs for op, progs in op_programs().items() if op in irops.LOW}
IMAGE = _phantom()


@functools.cache
def _compiled(op: str, label: str):
    # identity takes no arguments, so only uncontracted code keeps the op
    optimize = OptOptions(contraction=op != "identity")
    prog = compile_program(COVERAGE[op][label], check=True, cache=False,
                           optimize=optimize)
    emitted = {ins.op for ins in prog.high.update_func.body.instructions()}
    assert op in emitted, f"{op}({label}) compiled to {sorted(emitted)}"
    prog.bind_image("img", IMAGE)
    return prog


def _agree(a, b) -> bool:
    return np.allclose(a, b, rtol=1e-12, atol=1e-12, equal_nan=True)


def test_coverage_reaches_every_surface_op():
    """Every LowIR op a source program can spell has generated programs."""
    spelled = {n for n, i in irops.LOW.items() if i.sigs and i.surface}
    assert spelled | (set(FORMS) & set(irops.LOW)) <= set(COVERAGE)


@pytest.mark.parametrize("op", sorted(COVERAGE))
def test_numpy_agrees_with_interpreter(op):
    for label, src in COVERAGE[op].items():
        got = _compiled(op, label).run(max_steps=2, backend="numpy").outputs["out"]
        want = interpret_program(src, IMAGE)["out"]
        assert _agree(got, want), f"{op}({label}): {got} vs {want}"


@pytest.mark.skipif(not cbuild.compiler_available(),
                    reason="native backend needs a C compiler on PATH")
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
