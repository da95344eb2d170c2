"""The IR validator: unit signatures, corrupted-IR fixtures, pass naming.

The validator has to thread a needle: strict enough that every corrupted
fixture below is rejected, permissive enough that every program the
typechecker accepts still validates after every pass (the whole-pipeline
tests at the bottom).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.driver import compile_to_source
from repro.core.ir.base import Body, Func, IfRegion, Instr, Phi, Value
from repro.core.ty.types import BOOL, INT, REAL, TensorTy
from repro.core.verify import check_enabled, verify_func
from repro.core.xform.to_high import ImageSlot
from repro.errors import CompileError
from repro.kernels import KERNELS

VEC2 = TensorTy((2,))

MINIMAL = """
    strand S (int i) {
        output real x = real(i);
        update { x += 1.0; stabilize; }
    }
    initially [ S(i) | i in 0 .. 3 ];
"""

FIELD_PROG = """
    image(2)[] img = load("p.nrrd");
    field#2(2)[] F = img ⊛ bspln3;
    strand S (int i) {
        output real x = 0.0;
        update {
            vec2 p = [real(i) + 8.0, 9.5];
            if (inside(p, F)) x = F(p) + |∇F(p)|;
            stabilize;
        }
    }
    initially [ S(i) | i in 0 .. 3 ];
"""


def _func(body: Body, results: list[Value], params: list[Value] | None = None,
          name: str = "f") -> Func:
    params = params or []
    return Func(name, params, [f"p{i}" for i in range(len(params))],
                body, results, [f"r{i}" for i in range(len(results))])


def _const(body: Body, value, ty) -> Value:
    return body.emit("const", [], ty, value=value)


class TestValidatorAccepts:
    def test_arithmetic_func(self):
        body = Body()
        a = _const(body, 1.5, REAL)
        b = _const(body, 2.0, REAL)
        c = body.emit("add", [a, b], REAL)
        d = body.emit("mul", [c, c], REAL)
        verify_func(_func(body, [d]), "high")

    def test_numpy_scalar_constants(self):
        # contraction stores raw fold results: NumPy scalars and arrays
        body = Body()
        a = _const(body, np.float64(1.5), REAL)
        b = _const(body, np.int64(2), INT)
        c = _const(body, np.bool_(True), BOOL)
        d = _const(body, np.array([1.0, 2.0]), VEC2)
        e = body.emit("select", [c, d, d], VEC2)
        f = body.emit("mul", [a, a], REAL)
        g = body.emit("mul", [b, b], INT)
        verify_func(_func(body, [e, f, g]), "high")

    def test_if_region_with_phi(self):
        body = Body()
        c = _const(body, True, BOOL)
        then_b, else_b = Body(), Body()
        t = _const(then_b, 1.0, REAL)
        e = _const(else_b, 2.0, REAL)
        r = Value(REAL)
        body.add(IfRegion(c, then_b, else_b, [Phi(r, t, e)]))
        verify_func(_func(body, [r]), "high")

    def test_all_levels_share_core_ops(self):
        for level in ("high", "mid", "low"):
            body = Body()
            a = _const(body, 3, INT)
            b = body.emit("int_to_real", [a], REAL)
            c = body.emit("sqrt", [b], REAL)
            verify_func(_func(body, [c]), level)


class TestCorruptedIR:
    """Hand-corrupted fixtures: each must be rejected with a clear message."""

    def test_use_before_def(self):
        body = Body()
        ghost = Value(REAL)  # never defined by any instruction
        r = body.emit("neg", [ghost], REAL)
        with pytest.raises(CompileError, match="undefined"):
            verify_func(_func(body, [r]), "high")

    def test_double_definition(self):
        body = Body()
        a = _const(body, 1.0, REAL)
        dup = Instr("const", [], {"value": 2.0}, [a])  # redefines %a
        body.add(dup)
        with pytest.raises(CompileError, match="defined twice"):
            verify_func(_func(body, [a]), "high")

    def test_shape_mismatch_add(self):
        body = Body()
        a = _const(body, np.zeros(2), VEC2)
        b = _const(body, np.zeros(3), TensorTy((3,)))
        r = body.emit("add", [a, b], VEC2)
        with pytest.raises(CompileError, match="add/subtract"):
            verify_func(_func(body, [r]), "high")

    def test_result_type_inconsistent(self):
        body = Body()
        a = _const(body, 1.0, REAL)
        r = body.emit("add", [a, a], INT)  # signature says real
        with pytest.raises(CompileError, match="does not match the"):
            verify_func(_func(body, [r]), "high")

    def test_tensor_index_out_of_bounds(self):
        body = Body()
        a = _const(body, np.zeros(2), VEC2)
        r = body.emit("tensor_index", [a], REAL, indices=(2,))
        with pytest.raises(CompileError, match="out of range"):
            verify_func(_func(body, [r]), "high")

    def test_phi_type_mismatch(self):
        body = Body()
        c = _const(body, True, BOOL)
        then_b, else_b = Body(), Body()
        t = _const(then_b, 1.0, REAL)
        e = _const(else_b, 2, INT)
        r = Value(REAL)
        body.add(IfRegion(c, then_b, else_b, [Phi(r, t, e)]))
        with pytest.raises(CompileError, match="phi"):
            verify_func(_func(body, [r]), "high")

    def test_if_condition_not_bool(self):
        body = Body()
        c = _const(body, 1, INT)
        body.add(IfRegion(c, Body(), Body(), []))
        with pytest.raises(CompileError, match="if-condition"):
            verify_func(_func(body, []), "high")

    def test_non_square_trace(self):
        body = Body()
        a = _const(body, np.zeros((2, 3)), TensorTy((2, 3)))
        r = body.emit("trace", [a], REAL)
        with pytest.raises(CompileError, match="square"):
            verify_func(_func(body, [r]), "high")

    def test_probe_below_highir_is_vocabulary_error(self):
        # a field op surviving normalization/probe synthesis is exactly an
        # op outside the lower level's vocabulary
        body = Body()
        p = _const(body, np.zeros(2), VEC2)
        r = body.emit("probe", [p], REAL, image="img",
                      kernel=KERNELS["bspln3"], deriv=0, out_shape=())
        fixture = _func(body, [r])
        verify_func(fixture, "high", images={
            "img": ImageSlot("img", 2, (), None)})
        for level in ("mid", "low"):
            with pytest.raises(CompileError, match="vocabulary"):
                verify_func(fixture, level)

    def test_weights_below_midir(self):
        body = Body()
        x = _const(body, 0.5, REAL)
        r = body.emit("weights", [x], ("weights", 4),
                      kernel=KERNELS["bspln3"], deriv=0, axis=0)
        with pytest.raises(CompileError, match="vocabulary"):
            verify_func(_func(body, [r]), "low")

    def test_probe_overdifferentiates_kernel(self):
        body = Body()
        p = _const(body, np.zeros(2), VEC2)
        kernel = KERNELS["tent"]  # C0: no derivatives available
        r = body.emit("probe", [p], VEC2, image="img", kernel=kernel,
                      deriv=1, out_shape=(2,))
        with pytest.raises(CompileError, match="C0 kernel"):
            verify_func(_func(body, [r]), "high")

    def test_probe_out_shape_mismatch(self):
        body = Body()
        p = _const(body, np.zeros(2), VEC2)
        r = body.emit("probe", [p], VEC2, image="img",
                      kernel=KERNELS["bspln3"], deriv=1, out_shape=(3,))
        with pytest.raises(CompileError, match="out_shape"):
            verify_func(_func(body, [r]), "high",
                        images={"img": ImageSlot("img", 2, (), None)})

    def test_return_of_undefined_value(self):
        body = Body()
        _const(body, 1.0, REAL)
        with pytest.raises(CompileError, match="return"):
            verify_func(_func(body, [Value(REAL)]), "high")


class TestPassNaming:
    """A corruption injected mid-pipeline is blamed on the right pass."""

    def test_value_numbering_blamed(self, monkeypatch):
        from repro.core import driver

        real_vn = driver.value_number

        def corrupting_vn(func):
            removed = real_vn(func)
            if func.name == "update":
                func.body.emit("neg", [Value(REAL)], REAL)  # undefined arg
            return removed

        monkeypatch.setattr(driver, "value_number", corrupting_vn)
        with pytest.raises(CompileError, match="after pass 'value-numbering'"):
            compile_to_source(MINIMAL, check=True)

    def test_midir_blamed_when_probe_survives(self, monkeypatch):
        from repro.core import driver

        monkeypatch.setattr(driver, "to_mid", lambda fn, images: None)
        with pytest.raises(CompileError) as err:
            compile_to_source(FIELD_PROG, check=True)
        assert "after pass 'midir'" in str(err.value)
        assert "vocabulary" in str(err.value)

    def test_contraction_blamed(self, monkeypatch):
        from repro.core import driver

        real_contract = driver.contract

        def corrupting_contract(func, vocab, **kw):
            real_contract(func, vocab, **kw)
            if func.name == "update":
                for instr in func.body.instructions():
                    if instr.op == "add":
                        instr.results[0].ty = INT  # now inconsistent
                        return

        monkeypatch.setattr(driver, "contract", corrupting_contract)
        with pytest.raises(CompileError, match="after pass 'contraction'"):
            compile_to_source(MINIMAL, check=True)

    def test_contraction_round_bound_is_checked(self, monkeypatch):
        """Leaving contraction's loop on the round bound, not at a
        fixpoint, is a blamed failure when checking and silent otherwise."""
        from functools import partial

        from repro.core import driver

        # round one changes MINIMAL's update, so a bound of one round is hit
        monkeypatch.setattr(driver, "contract",
                            partial(driver.contract, max_rounds=1))
        with pytest.raises(CompileError, match="after pass 'contraction'") as err:
            compile_to_source(MINIMAL, check=True)
        assert "after 1 rounds" in str(err.value)
        compile_to_source(MINIMAL, check=False)

    def test_uncorrupted_pipeline_is_silent(self):
        compile_to_source(MINIMAL, check=True)
        compile_to_source(FIELD_PROG, check=True)


class TestDriverIntegration:
    def test_check_emits_spans(self):
        from repro.obs import Obs

        tr = Obs()
        compile_to_source(MINIMAL, obs=tr, check=True)
        checks = [e for e in tr.events if e.cat == "check"]
        assert checks, "check=True must emit cat='check' spans"
        afters = {e.args["after"] for e in checks}
        assert {"highir", "midir", "lowir"} <= afters

    def test_check_off_emits_no_spans(self):
        from repro.obs import Obs

        tr = Obs()
        compile_to_source(MINIMAL, obs=tr, check=False)
        assert not [e for e in tr.events if e.cat == "check"]

    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert not check_enabled()
        for val in ("1", "true", "YES", "on"):
            monkeypatch.setenv("REPRO_CHECK", val)
            assert check_enabled()
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not check_enabled()

    def test_runner_check_flag(self):
        from repro.core.driver import compile_program
        from repro.data import portrait_phantom

        prog = compile_program(FIELD_PROG, check=True)
        prog.bind_image("img", portrait_phantom(32))
        res = prog.cli(["--check"])
        assert res.num_strands == 4


@pytest.mark.parametrize(
    "module", ["isocontour", "vr_lite", "illust_vr", "lic2d", "ridge3d"]
)
def test_paper_programs_validate_every_pass(module):
    import importlib

    mod = importlib.import_module(f"repro.programs.{module}")
    compile_to_source(mod.SOURCE, check=True)


class TestCheckCli:
    """``python -m repro.core.verify check``: validation plus the digests."""

    def _check(self, *paths):
        from repro.core.verify.__main__ import main

        return main(["check", *map(str, paths)])

    def test_prints_the_digests_the_determinism_test_pins(self, tmp_path, capsys):
        from repro.core.driver import code_digests, compile_file

        src = tmp_path / "minimal.diderot"
        src.write_text(MINIMAL, encoding="utf-8")
        assert self._check(src, src) == 0
        out = capsys.readouterr().out
        assert out.count(f"{src}: ok") == 2
        py, c = code_digests(compile_file(str(src), cache=False))
        assert re.findall(r"python sha256 ([0-9a-f]{64})", out) == [py, py]
        assert re.findall(r"c +sha256 ([0-9a-f]{64})", out) == [c, c]

    def test_program_without_a_c_translation_still_passes(
            self, tmp_path, capsys, monkeypatch):
        """C emission is optional, as in a run (warn and fall back to NumPy)."""
        from repro.core.codegen import cgen
        from repro.errors import CodegenError

        def no_translation(*_a, **_k):
            raise CodegenError("cgen: unsupported state type string")

        monkeypatch.setattr(cgen, "generate_c_module", no_translation)
        src = tmp_path / "minimal.diderot"
        src.write_text(MINIMAL, encoding="utf-8")
        assert self._check(src) == 0
        out = capsys.readouterr().out
        assert f"{src}: ok" in out and "FAIL" not in out
        assert re.search(r"python sha256 [0-9a-f]{64}\n", out)
        assert "c      not translatable (cgen: unsupported state type string)" in out

    def test_non_utf8_file_is_a_clean_failure(self, tmp_path, capsys):
        blob = tmp_path / "blob.diderot"
        blob.write_bytes(b"strand \xff\xfe\x80")
        assert self._check(blob) == 1
        out = capsys.readouterr().out
        assert f"{blob}: FAIL" in out and "not a UTF-8 Diderot source" in out
