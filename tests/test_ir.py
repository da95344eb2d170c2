"""Tests for the structured-SSA infrastructure and op vocabularies."""

import pytest

from repro.core.ir import ops as irops
from repro.core.ir.base import Body, Func, IfRegion, Instr, Phi, Value, format_func, validate
from repro.core.ty.types import BOOL, INT, REAL
from repro.errors import CompileError


def make_func(body: Body, params=(), results=()):
    return Func("f", list(params), [f"p{i}" for i in range(len(params))],
                body, list(results), [f"r{i}" for i in range(len(results))])


class TestConstruction:
    def test_emit_returns_value(self):
        body = Body()
        v = body.emit("const", [], REAL, value=1.0)
        assert isinstance(v, Value)
        assert v.producer.op == "const"

    def test_instructions_iterates_nested(self):
        body = Body()
        c = body.emit("const", [], BOOL, value=True)
        inner = Body()
        inner.emit("const", [], REAL, value=2.0)
        body.add(IfRegion(c, inner, Body(), []))
        assert len(list(body.instructions())) == 2

    def test_single_result_accessor(self):
        i = Instr("const", [], {"value": 1})
        i.new_result(INT)
        assert i.result.ty == INT
        i.new_result(INT)
        with pytest.raises(CompileError, match="results"):
            _ = i.result

    def test_values_hash_by_identity(self):
        # passes key their tables by the value itself; a value carries no
        # number that could leak process history into emitted code
        a = Value(REAL)
        b = Value(REAL)
        assert a != b and len({a: 0, b: 1}) == 2
        assert not hasattr(a, "id")


class TestValidation:
    def test_valid_function(self):
        body = Body()
        p = Value(REAL)
        v = body.emit("neg", [p], REAL)
        fn = Func("f", [p], ["x"], body, [v], ["y"])
        validate(fn, irops.HIGH, "HighIR")

    def test_unknown_op_rejected(self):
        body = Body()
        v = body.emit("frobnicate", [], REAL)
        fn = make_func(body, results=[v])
        with pytest.raises(CompileError, match="vocabulary"):
            validate(fn, irops.HIGH, "HighIR")

    def test_use_before_def_rejected(self):
        body = Body()
        ghost = Value(REAL)
        v = body.emit("neg", [ghost], REAL)
        fn = make_func(body, results=[v])
        with pytest.raises(CompileError, match="undefined"):
            validate(fn, irops.HIGH, "HighIR")

    def test_branch_values_not_visible_outside(self):
        body = Body()
        c = body.emit("const", [], BOOL, value=True)
        then_b = Body()
        inner = then_b.emit("const", [], REAL, value=1.0)
        body.add(IfRegion(c, then_b, Body(), []))
        leak = body.emit("neg", [inner], REAL)  # illegal use
        fn = make_func(body, results=[leak])
        with pytest.raises(CompileError, match="undefined"):
            validate(fn, irops.HIGH, "HighIR")

    def test_phi_makes_branch_value_visible(self):
        body = Body()
        c = body.emit("const", [], BOOL, value=True)
        then_b = Body()
        t = then_b.emit("const", [], REAL, value=1.0)
        else_b = Body()
        e = else_b.emit("const", [], REAL, value=2.0)
        merged = Value(REAL)
        body.add(IfRegion(c, then_b, else_b, [Phi(merged, t, e)]))
        out = body.emit("neg", [merged], REAL)
        fn = make_func(body, results=[out])
        validate(fn, irops.HIGH, "HighIR")

    def test_double_definition_rejected(self):
        body = Body()
        v = body.emit("const", [], REAL, value=1.0)
        dup = Instr("const", [], {"value": 2.0}, results=[v])
        body.add(dup)
        fn = make_func(body, results=[v])
        with pytest.raises(CompileError, match="twice"):
            validate(fn, irops.HIGH, "HighIR")

    def test_mid_vocab_rejects_high_probe(self):
        body = Body()
        p = Value(REAL)
        v = body.emit("probe", [p], REAL, image="i", kernel=None, deriv=0, out_shape=())
        fn = Func("f", [p], ["x"], body, [v], ["y"])
        with pytest.raises(CompileError, match="vocabulary"):
            validate(fn, irops.MID, "MidIR")

    def test_low_vocab_rejects_weights(self):
        assert "weights" in irops.MID
        assert "weights" not in irops.LOW
        assert "horner" in irops.LOW
        assert "horner" not in irops.MID


class TestFormat:
    def test_format_func_shows_structure(self):
        body = Body()
        c = body.emit("const", [], BOOL, value=True)
        then_b = Body()
        t = then_b.emit("const", [], REAL, value=1.0)
        else_b = Body()
        e = else_b.emit("const", [], REAL, value=2.0)
        merged = Value(REAL)
        body.add(IfRegion(c, then_b, else_b, [Phi(merged, t, e)]))
        fn = make_func(body, results=[merged])
        text = format_func(fn)
        assert "if " in text and "φ" in text and "return" in text


class TestVocabularies:
    def test_common_core_shared(self):
        for op in ("add", "mul", "dot", "select", "tensor_cons"):
            assert op in irops.HIGH
            assert op in irops.MID
            assert op in irops.LOW

    def test_probe_only_in_high(self):
        assert "probe" in irops.HIGH
        assert "probe" not in irops.MID

    def test_gather_only_mid_and_low(self):
        assert "gather" not in irops.HIGH
        assert "gather" in irops.MID
        assert "gather" in irops.LOW

    def test_probe_not_foldable(self):
        assert not irops.HIGH["probe"].foldable
        assert irops.HIGH["add"].foldable
