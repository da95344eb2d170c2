"""Tests for value numbering (paper §5.4's domain-specific CSE)."""

import numpy as np

from repro.core.driver import OptOptions
from repro.core.ir import ops as irops
from repro.core.ir.base import Body, Func, IfRegion, Phi, Value
from repro.core.ty.types import BOOL, REAL
from repro.core.xform.value_numbering import value_number


def count_ops(fn, name):
    return sum(1 for i in fn.body.instructions() if i.op == name)


class TestBasicMerging:
    def test_identical_instructions_merge(self):
        body = Body()
        x = Value(REAL)
        a = body.emit("neg", [x], REAL)
        b = body.emit("neg", [x], REAL)
        out = body.emit("add", [a, b], REAL)
        fn = Func("t", [x], ["x"], body, [out], ["r"])
        removed = value_number(fn)
        assert removed == 1
        assert count_ops(fn, "neg") == 1

    def test_equal_constants_merge(self):
        body = Body()
        a = body.emit("const", [], REAL, value=2.0)
        b = body.emit("const", [], REAL, value=2.0)
        out = body.emit("add", [a, b], REAL)
        fn = Func("t", [], [], body, [out], ["r"])
        value_number(fn)
        assert count_ops(fn, "const") == 1

    def test_nan_constants_do_not_merge(self):
        body = Body()
        a = body.emit("const", [], REAL, value=float("nan"))
        b = body.emit("const", [], REAL, value=float("nan"))
        out = body.emit("add", [a, b], REAL)
        fn = Func("t", [], [], body, [out], ["r"])
        value_number(fn)
        assert count_ops(fn, "const") == 2

    def test_commutative_ops_merge_swapped(self):
        body = Body()
        x, y = Value(REAL), Value(REAL)
        a = body.emit("add", [x, y], REAL)
        b = body.emit("add", [y, x], REAL)
        out = body.emit("mul", [a, b], REAL)
        fn = Func("t", [x, y], ["x", "y"], body, [out], ["r"])
        assert value_number(fn) == 1

    def test_noncommutative_not_merged_swapped(self):
        body = Body()
        x, y = Value(REAL), Value(REAL)
        a = body.emit("sub", [x, y], REAL)
        b = body.emit("sub", [y, x], REAL)
        out = body.emit("mul", [a, b], REAL)
        fn = Func("t", [x, y], ["x", "y"], body, [out], ["r"])
        assert value_number(fn) == 0

    def test_different_attrs_not_merged(self):
        body = Body()
        from repro.core.ty.types import TensorTy

        v = Value(TensorTy((2, 2)))
        a = body.emit("tensor_index", [v], REAL, indices=(0, 0))
        b = body.emit("tensor_index", [v], REAL, indices=(1, 1))
        out = body.emit("add", [a, b], REAL)
        fn = Func("t", [v], ["v"], body, [out], ["r"])
        assert value_number(fn) == 0

    def test_transitive_merging(self):
        """Merging args makes downstream expressions merge too."""
        body = Body()
        x = Value(REAL)
        a1 = body.emit("neg", [x], REAL)
        a2 = body.emit("neg", [x], REAL)
        b1 = body.emit("sqrt", [a1], REAL)
        b2 = body.emit("sqrt", [a2], REAL)
        out = body.emit("add", [b1, b2], REAL)
        fn = Func("t", [x], ["x"], body, [out], ["r"])
        assert value_number(fn) == 2


class TestScoping:
    def test_branch_values_not_shared_across_siblings(self):
        body = Body()
        c = Value(BOOL)
        x = Value(REAL)
        then_b = Body()
        t = then_b.emit("neg", [x], REAL)
        else_b = Body()
        e = else_b.emit("neg", [x], REAL)  # same expr, other branch
        merged = Value(REAL)
        body.add(IfRegion(c, then_b, else_b, [Phi(merged, t, e)]))
        fn = Func("t", [c, x], ["c", "x"], body, [merged], ["r"])
        assert value_number(fn) == 0  # neither branch dominates the other

    def test_outer_value_reused_in_branch(self):
        body = Body()
        c = Value(BOOL)
        x = Value(REAL)
        outer = body.emit("neg", [x], REAL)
        then_b = Body()
        t = then_b.emit("neg", [x], REAL)  # redundant with outer
        merged = Value(REAL)
        body.add(IfRegion(c, then_b, Body(), [Phi(merged, t, outer)]))
        fn = Func("t", [c, x], ["c", "x"], body, [merged], ["r"])
        value_number(fn)
        # phi collapsed to outer, region emptied
        assert fn.results[0] is outer


SHARED_PROBE_SRC = """
image(3)[] img = load("a.nrrd");
field#2(3)[] F = img ⊛ bspln3;
strand S (int i) {
    vec3 pos = [real(i), 0.0, 0.0];
    output real v = 0.0;
    output vec3 g = [0.0, 0.0, 0.0];
    update {
        v = F(pos);
        g = ∇F(pos);
        stabilize;
    }
}
initially [ S(i) | i in 0 .. 9 ];
"""

HESSIAN_SRC = """
image(3)[] img = load("a.nrrd");
field#2(3)[] F = img ⊛ bspln3;
strand S (int i) {
    vec3 pos = [real(i), 0.0, 0.0];
    output tensor[3,3] H = identity[3];
    update { H = ∇⊗∇F(pos); stabilize; }
}
initially [ S(i) | i in 0 .. 9 ];
"""


def mid_update_op_counts(src, vn: bool):
    """Compile to MidIR (optimized per flags) and count update-func ops."""
    from repro.core.driver import _optimize
    from repro.core.codegen.interp import compile_high
    from repro.core.xform.to_mid import to_mid
    from repro.obs import Obs

    opts = OptOptions(value_numbering=vn)
    hp = compile_high(src, optimize=opts)
    fn = hp.update_func
    to_mid(fn, hp.images)
    _optimize(fn, irops.MID, opts, Obs(parent=None), "mid")
    return {
        op: count_ops(fn, op)
        for op in ("gather", "to_index", "conv_contract", "weights")
    }


class TestDomainSpecific:
    """The two §5.4 examples, reproduced as stated in the paper."""

    def test_shared_convolution_between_value_and_gradient(self):
        with_vn = mid_update_op_counts(SHARED_PROBE_SRC, vn=True)
        without = mid_update_op_counts(SHARED_PROBE_SRC, vn=False)
        # probing F and ∇F at the same position shares the gather and the
        # index computation
        assert with_vn["gather"] == 1
        assert without["gather"] == 2
        assert with_vn["to_index"] == 1

    def test_hessian_symmetry_detected(self):
        with_vn = mid_update_op_counts(HESSIAN_SRC, vn=True)
        without = mid_update_op_counts(HESSIAN_SRC, vn=False)
        # 3x3 Hessian: 9 combos, 6 unique by symmetry
        assert without["conv_contract"] == 9
        assert with_vn["conv_contract"] == 6

    def test_weight_sharing_across_hessian_components(self):
        with_vn = mid_update_op_counts(HESSIAN_SRC, vn=True)
        # per axis: order-0, order-1, order-2 weights = 9 weight vectors
        assert with_vn["weights"] == 9

    def test_outputs_identical_with_and_without_vn(self):
        """VN is semantics-preserving end to end."""
        from repro.core.driver import compile_program
        from repro.data import hand_phantom

        img = hand_phantom(24)
        outs = []
        for vn in (True, False):
            prog = compile_program(
                SHARED_PROBE_SRC, optimize=OptOptions(value_numbering=vn)
            )
            prog.bind_image("img", img)
            res = prog.run()
            outs.append((res.outputs["v"], res.outputs["g"]))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])


class TestKernelAttrKeys:
    """Kernels hash by structure, not identity (the `id(v)` latent bug)."""

    def test_structurally_equal_kernels_merge(self):
        from repro.kernels.library import KERNELS, bspline

        # bspline(3) builds a fresh Kernel structurally identical to the
        # interned bspln3; weight computations over the two must merge
        k1, k2 = bspline(3), KERNELS["bspln3"]
        assert k1 is not k2
        body = Body()
        x = Value(REAL)
        a = body.emit("weights", [x], ("weights", 4), kernel=k1, deriv=0, axis=0)
        b = body.emit("weights", [x], ("weights", 4), kernel=k2, deriv=0, axis=0)
        out = body.emit("conv_contract", [a, b], REAL)
        fn = Func("t", [x], ["x"], body, [out], ["r"])
        assert value_number(fn) == 1
        assert count_ops(fn, "weights") == 1

    def test_different_kernels_do_not_merge(self):
        from repro.kernels.library import KERNELS

        body = Body()
        x = Value(REAL)
        a = body.emit("weights", [x], ("weights", 4),
                      kernel=KERNELS["bspln3"], deriv=0, axis=0)
        b = body.emit("weights", [x], ("weights", 4),
                      kernel=KERNELS["ctmr"], deriv=0, axis=0)
        out = body.emit("conv_contract", [a, b], REAL)
        fn = Func("t", [x], ["x"], body, [out], ["r"])
        assert value_number(fn) == 0
        assert count_ops(fn, "weights") == 2

    def test_same_kernel_different_deriv_do_not_merge(self):
        from repro.kernels.library import KERNELS

        body = Body()
        x = Value(REAL)
        a = body.emit("weights", [x], ("weights", 4),
                      kernel=KERNELS["bspln3"], deriv=0, axis=0)
        b = body.emit("weights", [x], ("weights", 4),
                      kernel=KERNELS["bspln3"], deriv=1, axis=0)
        out = body.emit("conv_contract", [a, b], REAL)
        fn = Func("t", [x], ["x"], body, [out], ["r"])
        assert value_number(fn) == 0
