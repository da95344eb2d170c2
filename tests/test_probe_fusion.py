"""Probe fusion: golden equivalence, A/B vs the unfused pipeline, validator
rules for the new MidIR/LowIR ops, and pass blaming.

The fused pipeline reassociates the separable contraction (one axis at a
time, partial sums shared across derivative combos), so agreement is
checked numerically at 1e-12 — both against the unfused compiled pipeline
and against :func:`repro.fields.probe.probe_convolution`, the reference
engine that never goes through probe synthesis at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.driver import OptOptions, compile_program, compile_to_source
from repro.core.ir import ops as irops
from repro.core.ir.base import Body, Func, Instr, Value
from repro.core.ty.types import REAL, TensorTy
from repro.core.verify import verify_func
from repro.core.xform.probe_fuse import probe_fuse
from repro.core.xform.to_high import ImageSlot
from repro.errors import CompileError
from repro.fields.probe import probe_convolution
from repro.image import Image
from repro.kernels import KERNELS

N_STRANDS = 8

#: every (dim, deriv, kernel) the language supports at that derivative level
COMBOS = [
    (dim, deriv, kname)
    for dim in (1, 2, 3)
    for kname in ("tent", "ctmr", "bspln3")
    for deriv in range(KERNELS[kname].continuity + 1)
    if deriv <= 2
]


def smooth_image(dim: int, n: int = 16) -> Image:
    axes = np.meshgrid(*[np.linspace(0.0, 3.0, n)] * dim, indexing="ij")
    data = np.sin(1.3 * axes[0])
    for a, x in enumerate(axes[1:], start=2):
        data = data + np.cos(0.7 * a * x) * (1.0 + 0.1 * axes[0])
    return Image(data, dim=dim)


def positions(dim: int) -> np.ndarray:
    i = np.arange(N_STRANDS, dtype=np.float64)
    return np.stack([2.5 + 0.35 * i + 0.2 * a for a in range(dim)], axis=-1)


def probe_source(dim: int, deriv: int, kname: str) -> str:
    k = KERNELS[kname].continuity
    if dim == 1:
        pos = "real p = 2.5 + real(i) * 0.35;"
    else:
        comps = ", ".join(
            f"2.5 + real(i) * 0.35 + {0.2 * a:.1f}" for a in range(dim)
        )
        pos = f"vec{dim} p = [{comps}];"
    outs, assigns = ["output real o0 = 0.0;"], ["o0 = F(p);"]
    if deriv >= 1:
        if dim == 1:
            outs.append("output real o1 = 0.0;")
            assigns.append("o1 = (∇F(p))[0];")
        else:
            zero = ", ".join(["0.0"] * dim)
            outs.append(f"output vec{dim} o1 = [{zero}];")
            assigns.append("o1 = ∇F(p);")
    if deriv >= 2:
        if dim == 1:
            outs.append("output real o2 = 0.0;")
            assigns.append("o2 = (∇⊗∇F(p))[0][0];")
        else:
            outs.append(f"output tensor[{dim},{dim}] o2 = identity[{dim}];")
            assigns.append("o2 = ∇⊗∇F(p);")
    nl = "\n                "
    return f"""
        image({dim})[] img = load("p.nrrd");
        field#{k}({dim})[] F = img ⊛ {kname};
        strand S (int i) {{
            {nl.join(outs)}
            update {{
                {pos}
                {nl.join(assigns)}
                stabilize;
            }}
        }}
        initially [ S(i) | i in 0 .. {N_STRANDS - 1} ];
    """


def run_compiled(src: str, image: Image, fuse: bool, **kw):
    prog = compile_program(src, optimize=OptOptions(probe_fusion=fuse),
                           check=True)
    prog.bind_image("img", image)
    return prog, prog.run(max_steps=3, **kw).outputs


class TestGoldenEquivalence:
    @pytest.mark.parametrize("dim,deriv,kname", COMBOS)
    def test_fused_matches_reference_and_unfused(self, dim, deriv, kname):
        image = smooth_image(dim)
        src = probe_source(dim, deriv, kname)
        _, fused = run_compiled(src, image, fuse=True)
        _, unfused = run_compiled(src, image, fuse=False)
        for name in fused:
            assert np.allclose(fused[name], unfused[name],
                               rtol=1e-12, atol=1e-12), name

        kernel = KERNELS[kname]
        pos = positions(dim)
        for r in range(deriv + 1):
            ref = probe_convolution(image, kernel, pos, deriv=r)
            if dim == 1:
                for _ in range(r):
                    ref = ref[..., 0]
            got = fused[f"o{r}"]
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12), (
                f"o{r}: max diff {np.max(np.abs(got - ref))}"
            )

    def test_constant_position_probe_unbatched(self):
        image = smooth_image(2)
        src = """
            image(2)[] img = load("p.nrrd");
            field#2(2)[] F = img ⊛ bspln3;
            strand S (int i) {
                output real x = 0.0;
                output real h = 0.0;
                update {
                    tensor[2,2] H = ∇⊗∇F([4.2, 5.9]);
                    x = F([4.2, 5.9]);
                    h = H[0][0] + H[1][1] + H[0][1];
                    stabilize;
                }
            }
            initially [ S(i) | i in 0 .. 3 ];
        """
        _, fused = run_compiled(src, image, fuse=True)
        _, unfused = run_compiled(src, image, fuse=False)
        for name in fused:
            assert np.allclose(fused[name], unfused[name],
                               rtol=1e-12, atol=1e-12), name

    @pytest.mark.parametrize("scheduler", ["seq", "thread", "process"])
    def test_schedulers_agree_fused(self, scheduler):
        image = smooth_image(3)
        src = probe_source(3, 2, "bspln3")
        _, base = run_compiled(src, image, fuse=True)
        _, out = run_compiled(src, image, fuse=True, scheduler=scheduler,
                              workers=1 if scheduler == "seq" else 2,
                              block_size=3)
        for name in base:
            assert np.allclose(base[name], out[name],
                               rtol=1e-12, atol=1e-12), name


class TestDriverAB:
    def test_no_fuse_removes_probe_parts(self):
        src = probe_source(3, 2, "bspln3")
        fused_src, _, _ = compile_to_source(
            src, optimize=OptOptions(probe_fusion=True))
        unfused_src, _, _ = compile_to_source(
            src, optimize=OptOptions(probe_fusion=False))
        assert "rt.probe_parts" in fused_src
        assert "rt.probe_parts" not in unfused_src
        assert "rt.contract_axis" not in unfused_src

    def test_colocated_probes_share_one_fusion(self):
        """F, ∇F, and ∇⊗∇F at one position fuse into a single probe_parts
        (value numbering shares the gather; fusion shares the partials)."""
        src = probe_source(3, 2, "bspln3")
        fused_src, _, _ = compile_to_source(
            src, optimize=OptOptions(probe_fusion=True))
        calls = [ln for ln in fused_src.splitlines() if "rt.probe_parts" in ln]
        assert len(calls) == 1
        # 1 (value) + 3 (gradient) + 6 (symmetric Hessian) shared specs
        results = calls[0].split("=")[0].split(",")
        assert len([r for r in results if r.strip()]) == 10

    def test_fusion_pass_is_traced(self):
        from repro.obs import Obs

        tr = Obs()
        compile_to_source(probe_source(2, 2, "bspln3"), obs=tr)
        spans = [e for e in tr.events if e.cat == "pass"
                 and e.name == "probe-fuse"]
        assert spans
        assert any(e.args.get("groups", 0) >= 1 for e in spans)

    def test_lone_order0_probe_becomes_chain(self):
        src = probe_source(3, 0, "bspln3")
        fused_src, _, _ = compile_to_source(
            src, optimize=OptOptions(probe_fusion=True))
        assert "rt.contract_axis" in fused_src
        assert "rt.conv_contract" not in fused_src


class TestCostModel:
    """The per-group profitability decision (1-D groups lose when fused)."""

    def test_one_d_rejected(self):
        from repro.core.xform.probe_fuse import _fusion_profitable

        assert not _fusion_profitable(1, 2, [(0,), (1,)])
        assert not _fusion_profitable(1, 1, [(0,)])

    def test_multi_d_accepted(self):
        from repro.core.xform.probe_fuse import _fusion_profitable

        assert _fusion_profitable(2, 2, [(0, 0), (0, 1), (1, 0)])
        assert _fusion_profitable(3, 2, [(0, 0, 0)])  # lone chain

    @pytest.mark.parametrize("deriv,kname",
                             [(d, k) for (dim, d, k) in COMBOS if dim == 1])
    def test_one_d_generates_unfused_code(self, deriv, kname):
        """1-D groups are left alone: fused output == unfused output.

        SSA value ids are process-global, so the sources are compared
        after canonical renumbering.
        """
        import re

        def canon(src: str) -> str:
            names: dict[str, str] = {}
            return re.sub(
                r"\bv\d+\b",
                lambda m: names.setdefault(m.group(0), f"x{len(names)}"),
                src,
            )

        src = probe_source(1, deriv, kname)
        fused_src, _, _ = compile_to_source(
            src, optimize=OptOptions(probe_fusion=True))
        unfused_src, _, _ = compile_to_source(
            src, optimize=OptOptions(probe_fusion=False))
        assert canon(fused_src) == canon(unfused_src)
        assert "rt.probe_parts" not in fused_src
        assert "rt.contract_axis" not in fused_src

    def test_rejection_counted_in_stats(self):
        from repro.core.driver import compile_to_source as cts
        from repro.obs import Obs

        tr = Obs()
        cts(probe_source(1, 1, "bspln3"), obs=tr,
            optimize=OptOptions(probe_fusion=True))
        spans = [e for e in tr.events if e.cat == "pass"
                 and e.name == "probe-fuse"]
        assert any(e.args.get("rejected", 0) >= 1 for e in spans)
        assert all(e.args.get("groups", 0) == 0 for e in spans)


def _func(body: Body, results: list[Value]) -> Func:
    return Func("f", [], [], body, results,
                [f"r{i}" for i in range(len(results))])


IMAGES = {"img": ImageSlot("img", 2, (), None)}


def _probe_prefix(body: Body):
    """Emit pos → index → gather + two weight vectors (2-D, bspln3)."""
    p = body.emit("const", [], TensorTy((2,)), value=np.array([4.5, 5.5]))
    pidx = body.emit("to_index", [p], TensorTy((2,)), image="img")
    n = body.emit("floor_i", [pidx], ("ivec", 2))
    vox = body.emit("gather", [n], ("vox", "img", 2), image="img", support=2)
    f = body.emit("fract", [pidx], TensorTy((2,)))
    ws = []
    for a in range(2):
        fa = body.emit("tensor_index", [f], TensorTy(()), indices=(a,))
        ws.append(body.emit("weights", [fa], ("weights", 4),
                            kernel=KERNELS["bspln3"], deriv=0))
    return vox, ws


def _probe_parts(body: Body, vox, ws, specs, n_results):
    pp = Instr("probe_parts", [vox] + ws,
               {"image": "img", "support": 2, "dim": 2, "specs": specs})
    return [pp.new_result(TensorTy(())) for _ in range(n_results)], pp


class TestValidatorNewOps:
    def test_valid_probe_parts_accepted(self):
        body = Body()
        vox, ws = _probe_prefix(body)
        rs, pp = _probe_parts(body, vox, ws, ((0, 1), (1, 0)), 2)
        body.add(pp)
        verify_func(_func(body, rs), "mid", images=IMAGES)

    def test_valid_contract_axis_chain_accepted(self):
        body = Body()
        vox, ws = _probe_prefix(body)
        part = body.emit("contract_axis", [vox, ws[0]], ("part", "img", 2, 1),
                         image="img", support=2, axes=2)
        r = body.emit("contract_axis", [part, ws[1]], TensorTy(()),
                      image="img", support=2, axes=1)
        verify_func(_func(body, [r]), "mid", images=IMAGES)

    def test_new_ops_are_in_low_vocabulary(self):
        for op in ("probe_parts", "contract_axis"):
            assert op in irops.MID
            assert op in irops.LOW

    def test_spec_arity_mismatch_rejected(self):
        body = Body()
        vox, ws = _probe_prefix(body)
        rs, pp = _probe_parts(body, vox, ws, ((0,),), 1)  # 1 entry, dim 2
        body.add(pp)
        with pytest.raises(CompileError, match="entries for a 2-D probe"):
            verify_func(_func(body, rs), "mid", images=IMAGES)

    def test_spec_weight_index_out_of_range(self):
        body = Body()
        vox, ws = _probe_prefix(body)
        rs, pp = _probe_parts(body, vox, ws, ((0, 2),), 1)  # only 2 weights
        body.add(pp)
        with pytest.raises(CompileError, match="out of range"):
            verify_func(_func(body, rs), "mid", images=IMAGES)

    def test_result_count_mismatch_rejected(self):
        body = Body()
        vox, ws = _probe_prefix(body)
        rs, pp = _probe_parts(body, vox, ws, ((0, 1), (1, 0)), 1)
        body.add(pp)
        with pytest.raises(CompileError, match="results for 2 specs"):
            verify_func(_func(body, rs), "mid", images=IMAGES)

    def test_contract_axis_axes_mismatch_rejected(self):
        body = Body()
        vox, ws = _probe_prefix(body)
        r = body.emit("contract_axis", [vox, ws[0]], ("part", "img", 2, 1),
                      image="img", support=2, axes=1)  # first must be dim=2
        with pytest.raises(CompileError, match="axes"):
            verify_func(_func(body, [r]), "mid", images=IMAGES)

    def test_contract_axis_weight_support_mismatch(self):
        body = Body()
        vox, ws = _probe_prefix(body)
        f0 = body.emit("const", [], REAL, value=0.5)
        bad = body.emit("weights", [f0], ("weights", 2),
                        kernel=KERNELS["tent"], deriv=0)  # support 1, not 2
        r = body.emit("contract_axis", [vox, bad], ("part", "img", 2, 1),
                      image="img", support=2, axes=2)
        with pytest.raises(CompileError, match="does not match support"):
            verify_func(_func(body, [r]), "mid", images=IMAGES)

    def test_probe_parts_wrong_result_type_rejected(self):
        body = Body()
        vox, ws = _probe_prefix(body)
        pp = Instr("probe_parts", [vox] + ws,
                   {"image": "img", "support": 2, "dim": 2,
                    "specs": ((0, 1),)})
        r = pp.new_result(TensorTy((3,)))  # scalar image ⇒ scalar result
        body.add(pp)
        with pytest.raises(CompileError, match="does not match the op"):
            verify_func(_func(body, [r]), "mid", images=IMAGES)


class TestPassBlame:
    def test_probe_fuse_blamed_for_corruption(self, monkeypatch):
        from repro.core import driver

        def corrupting_fuse(func):
            stats = probe_fuse(func)
            if func.name == "update":
                func.body.emit("neg", [Value(REAL)], REAL)  # undefined arg
            return stats

        monkeypatch.setattr(driver, "probe_fuse", corrupting_fuse)
        with pytest.raises(CompileError, match="after pass 'probe-fuse'"):
            compile_to_source(probe_source(2, 1, "bspln3"), check=True)


class TestFuzzBothModes:
    @pytest.mark.parametrize("fuse", [True, False])
    def test_short_fuzz_agrees(self, fuse):
        from repro.core.verify.fuzz import fuzz

        report = fuzz(n=2, seed=7, schedulers=("seq", "thread"),
                      shrink=False, fuse=fuse)
        assert report.ok, report.failures[0].message
