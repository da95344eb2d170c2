"""Tests for contraction (constant folding + DCE, paper §5.4)."""

import numpy as np
import pytest

from repro.core.codegen import cbuild
from repro.core.driver import compile_program
from repro.core.ir import ops as irops
from repro.core.ir.base import Body, Func, IfRegion, Phi, Value
from repro.core.ty.types import BOOL, INT, REAL, TensorTy
from repro.core.xform.contract import contract


def instr_count(fn):
    return sum(1 for _ in fn.body.instructions())


def fold(build):
    """Build a function, contract it, return it."""
    body = Body()
    results = build(body)
    fn = Func("t", [], [], body, list(results), ["r"] * len(results))
    return contract(fn, irops.HIGH)


def final_const(fn):
    assert len(fn.results) == 1
    producer = fn.results[0].producer
    assert producer.op == "const", f"result not folded: {producer}"
    return producer.attrs["value"]


class TestFolding:
    def test_arithmetic(self):
        fn = fold(lambda b: [b.emit("add", [
            b.emit("const", [], INT, value=2),
            b.emit("mul", [b.emit("const", [], INT, value=3),
                           b.emit("const", [], INT, value=4)], INT),
        ], INT)])
        assert final_const(fn) == 14

    def test_int_division_truncates_toward_zero(self):
        fn = fold(lambda b: [b.emit("div", [
            b.emit("const", [], INT, value=-7),
            b.emit("const", [], INT, value=2),
        ], INT)])
        assert final_const(fn) == -3  # C semantics, not floor (-4)

    def test_div_by_zero_not_folded(self):
        fn = fold(lambda b: [b.emit("div", [
            b.emit("const", [], INT, value=1),
            b.emit("const", [], INT, value=0),
        ], INT)])
        assert fn.results[0].producer.op == "div"

    def test_real_math(self):
        fn = fold(lambda b: [b.emit("sqrt", [
            b.emit("const", [], REAL, value=16.0)], REAL)])
        assert final_const(fn) == 4.0

    def test_tensor_cons_and_index(self):
        def build(b):
            v = b.emit("tensor_cons", [
                b.emit("const", [], REAL, value=1.0),
                b.emit("const", [], REAL, value=2.0),
            ], TensorTy((2,)))
            return [b.emit("tensor_index", [v], REAL, indices=(1,))]
        assert final_const(fold(build)) == 2.0

    def test_dot_of_constants(self):
        def build(b):
            u = b.emit("const", [], TensorTy((2,)), value=np.array([1.0, 2.0]))
            v = b.emit("const", [], TensorTy((2,)), value=np.array([3.0, 4.0]))
            return [b.emit("dot", [u, v], REAL)]
        assert final_const(fold(build)) == 11.0

    def test_vector_dot_matrix_contracts_the_leading_axis(self):
        # u • M is Σᵢ uᵢ Mᵢⱼ; a shape-guessing fold once computed M • u
        def build(b):
            u = b.emit("const", [], TensorTy((3,)), value=np.array([1.0, 2.0, 3.0]))
            m = b.emit("const", [], TensorTy((3, 3)),
                       value=np.arange(9.0).reshape(3, 3))
            return [b.emit("dot", [u, m], TensorTy((3,)))]
        assert final_const(fold(build)).tolist() == [24.0, 30.0, 36.0]

    def test_comparison(self):
        fn = fold(lambda b: [b.emit("lt", [
            b.emit("const", [], REAL, value=1.0),
            b.emit("const", [], REAL, value=2.0)], BOOL)])
        assert final_const(fn) is True

    def test_select_folds_on_const_cond(self):
        def build(b):
            c = b.emit("const", [], BOOL, value=False)
            return [b.emit("select", [
                c,
                b.emit("const", [], INT, value=1),
                b.emit("const", [], INT, value=2)], INT)]
        assert final_const(fold(build)) == 2


    def test_real_floor_folds_to_a_real(self):
        fn = fold(lambda b: [b.emit("floor", [
            b.emit("const", [], REAL, value=2.5)], REAL)])
        value = final_const(fn)
        assert type(value) is float and value == 2.0

    def test_real_div_by_zero_not_folded(self):
        fn = fold(lambda b: [b.emit("div", [
            b.emit("const", [], REAL, value=1.0),
            b.emit("const", [], REAL, value=0.0)], REAL)])
        assert fn.results[0].producer.op == "div"

    def test_nan_operand_propagates_through_min(self):
        fn = fold(lambda b: [b.emit("min", [
            b.emit("const", [], REAL, value=1.0),
            b.emit("const", [], REAL, value=float("nan"))], REAL)])
        assert np.isnan(final_const(fn))


class TestNonFiniteConstants:
    """A folded inf or NaN, scalar or tensor element, is spelled so the
    generated NumPy module parses it, and both backends print it."""

    SRC = """
    strand S (int i) {{
        output real o = 0.0;
        output vec2 w = [0.0, 0.0];
        update {{ o = {0}; w = [{0}, 1.0]; stabilize; }}
    }}
    initially [ S(i) | i in 0 .. 1 ];
    """
    CASES = {
        "1e308*10.0 - 1e308*10.0": np.nan,
        "1e308*10.0": np.inf,
        "-(1e308*10.0)": -np.inf,
    }

    @pytest.mark.parametrize("backend", [
        "numpy",
        pytest.param("c", marks=pytest.mark.skipif(
            not cbuild.compiler_available(),
            reason="native backend needs a C compiler on PATH")),
    ])
    def test_both_backends(self, backend):
        for expr, want in self.CASES.items():
            prog = compile_program(self.SRC.format(expr), check=True)
            out = prog.run(backend=backend).outputs
            np.testing.assert_array_equal(out["o"], [want] * 2)
            np.testing.assert_array_equal(out["w"], [[want, 1.0]] * 2)


class TestAlgebraic:
    def test_and_with_true_propagates_other(self):
        body = Body()
        p = Value(BOOL)
        t = body.emit("const", [], BOOL, value=True)
        v = body.emit("and", [p, t], BOOL)
        fn = Func("t", [p], ["p"], body, [v], ["r"])
        contract(fn, irops.HIGH)
        assert fn.results[0] is p

    def test_or_with_true_is_true(self):
        body = Body()
        p = Value(BOOL)
        t = body.emit("const", [], BOOL, value=True)
        v = body.emit("or", [p, t], BOOL)
        fn = Func("t", [p], ["p"], body, [v], ["r"])
        contract(fn, irops.HIGH)
        assert final_const(fn) is True

    def test_select_same_branches(self):
        body = Body()
        c = Value(BOOL)
        x = Value(REAL)
        v = body.emit("select", [c, x, x], REAL)
        fn = Func("t", [c, x], ["c", "x"], body, [v], ["r"])
        contract(fn, irops.HIGH)
        assert fn.results[0] is x


class TestBranchSplicing:
    def _if_func(self, cond_value):
        body = Body()
        c = body.emit("const", [], BOOL, value=cond_value)
        then_b = Body()
        t = then_b.emit("const", [], REAL, value=1.0)
        else_b = Body()
        e = else_b.emit("const", [], REAL, value=2.0)
        merged = Value(REAL)
        body.add(IfRegion(c, then_b, else_b, [Phi(merged, t, e)]))
        return Func("t", [], [], body, [merged], ["r"])

    def test_true_branch_taken(self):
        fn = contract(self._if_func(True), irops.HIGH)
        assert final_const(fn) == 1.0
        assert not any(isinstance(i, IfRegion) for i in fn.body.items)

    def test_false_branch_taken(self):
        fn = contract(self._if_func(False), irops.HIGH)
        assert final_const(fn) == 2.0

    def test_phi_with_equal_operands_removed(self):
        body = Body()
        c = Value(BOOL)
        x = body.emit("const", [], REAL, value=5.0)
        merged = Value(REAL)
        body.add(IfRegion(c, Body(), Body(), [Phi(merged, x, x)]))
        fn = Func("t", [c], ["c"], body, [merged], ["r"])
        contract(fn, irops.HIGH)
        assert final_const(fn) == 5.0
        assert not any(isinstance(i, IfRegion) for i in fn.body.items)


class TestDeadCode:
    def test_unused_instruction_removed(self):
        body = Body()
        body.emit("const", [], REAL, value=3.0)  # dead
        live = body.emit("const", [], REAL, value=4.0)
        fn = Func("t", [], [], body, [live], ["r"])
        contract(fn, irops.HIGH)
        assert instr_count(fn) == 1

    def test_dead_probe_chain_removed(self):
        body = Body()
        p = Value(TensorTy((3,)))
        from repro.kernels import bspln3

        body.emit("probe", [p], REAL, image="img", kernel=bspln3, deriv=0,
                  out_shape=())  # dead
        live = body.emit("const", [], REAL, value=1.0)
        fn = Func("t", [p], ["p"], body, [live], ["r"])
        contract(fn, irops.HIGH)
        assert instr_count(fn) == 1

    def test_empty_if_removed(self):
        body = Body()
        body.emit("const", [], BOOL, value=True)  # becomes dead too
        inner = Body()
        inner.emit("const", [], REAL, value=1.0)  # dead
        body.add(IfRegion(Value(BOOL), inner, Body(), []))
        live = body.emit("const", [], REAL, value=2.0)
        fn = Func("t", [], [], body, [live], ["r"])
        contract(fn, irops.HIGH)
        assert instr_count(fn) == 1
        assert not any(isinstance(i, IfRegion) for i in fn.body.items)

    def test_live_if_cond_kept(self):
        c = Value(BOOL)
        body2 = Body()
        x = Value(REAL)
        then_b2 = Body()
        t2 = then_b2.emit("neg", [x], REAL)
        else_b2 = Body()
        merged = Value(REAL)
        body2.add(IfRegion(c, then_b2, else_b2, [Phi(merged, t2, x)]))
        fn = Func("t", [c, x], ["c", "x"], body2, [merged], ["r"])
        contract(fn, irops.HIGH)
        assert any(isinstance(i, IfRegion) for i in fn.body.items)


class TestFixpoint:
    def test_cascading_folds(self):
        """Folding exposes more folding; contract iterates to a fixpoint."""
        def build(b):
            one = b.emit("const", [], INT, value=1)
            two = b.emit("add", [one, one], INT)
            four = b.emit("mul", [two, two], INT)
            cmp = b.emit("gt", [four, one], BOOL)
            return [b.emit("select", [
                cmp, four, b.emit("const", [], INT, value=0)], INT)]
        assert final_const(fold(build)) == 4
