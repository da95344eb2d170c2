"""Tests for the compiler driver: stats, files, options, diagnostics."""

import functools

import numpy as np
import pytest

from repro.core.driver import OptOptions, compile_file, compile_program, compile_to_source
from repro.core.verify.fuzz import ProgramGen, _phantom
from repro.errors import SyntaxErrorD, TypeErrorD
from repro.image import Image

SRC = """
image(2)[] img = load("d.nrrd");
field#2(2)[] F = img ⊛ bspln3;
strand S (int i) {
    vec2 pos = [real(i), 4.0];
    output real v = 0.0;
    output vec2 g = [0.0, 0.0];
    update {
        if (inside(pos, F)) { v = F(pos); g = ∇F(pos); }
        stabilize;
    }
}
initially [ S(i) | i in 0 .. 7 ];
"""


class TestCompileStats:
    def test_pipeline_counts_populated(self):
        _, _, stats = compile_to_source(SRC)
        for table in (stats.high_instrs, stats.mid_instrs, stats.low_instrs):
            assert "update" in table and table["update"] > 0

    def test_lowering_grows_instruction_count(self):
        _, _, stats = compile_to_source(SRC)
        # kernel expansion adds Horner arithmetic
        assert stats.low_instrs["update"] > stats.mid_instrs["update"]

    def test_vn_removes_shared_probe_work(self):
        _, _, stats = compile_to_source(SRC)
        assert stats.vn_removed["update"] > 0

    def test_unoptimized_mid_larger(self):
        _, _, opt = compile_to_source(SRC)
        _, _, unopt = compile_to_source(
            SRC, OptOptions(contraction=False, value_numbering=False)
        )
        assert unopt.mid_instrs["update"] > opt.mid_instrs["update"]


def _scalar_program(decls: str, state: str, update: str) -> str:
    return f"""
{decls}
strand S (int i) {{
    {state}
    update {{ {update} stabilize; }}
}}
initially [ S(i) | i in 0 .. 3 ];
"""


_SIGNED_ZEROS = "input real a = 0.0; input real b = -0.0;"
#: programs whose NumPy answer an optimizer switch once changed
OPT_CASES = {
    "src": SRC,
    # a real floor folded to an int payload (rejected under check=True)
    "floor": _scalar_program("input real a = 1.5;",
                             "output real o = 0.0; output int k = 0;",
                             "o = floor(2.5) * a; k = i * 2;"),
    # folded by Python's min, NaN lost
    "min-nan": _scalar_program("", "output real o = 0.0;",
                               "o = min(1.0, 1e308*10.0 - 1e308*10.0);"),
    # folded by libm's exp, one ulp off NumPy's
    "exp": _scalar_program("", "output real o = 0.0;",
                           "o = exp(0.9872657370734268);"),
    # value numbering merged the constants 0.0 and -0.0
    "signed-zero": _scalar_program(_SIGNED_ZEROS, "output real u = 0.0;",
                                   "u = 1.0 / min(a, b);"),
    # ... and took min(b, a) for min(a, b)
    "min-order": _scalar_program(
        _SIGNED_ZEROS, "output real u = 0.0; output real v = 0.0;",
        "u = 1.0 / min(a, b); v = 1.0 / min(b, a);"),
    **{f"fuzz{seed}": ProgramGen(seed).program() for seed in range(25)},
}


def _bits(a) -> tuple:
    """An output's bits, NaN payloads aside."""
    a = np.asarray(a)
    if a.dtype.kind == "f":
        a = np.where(np.isnan(a), np.nan, a)
    return a.dtype.str, a.shape, a.tobytes()


@functools.cache
def _opt_outputs(case: str, contraction: bool, vn: bool) -> dict:
    """NumPy double-precision outputs of ``case``; probe fusion stays off
    (fused probes sum in another order by design)."""
    prog = compile_program(OPT_CASES[case], check=True, optimize=OptOptions(
        contraction=contraction, value_numbering=vn, probe_fusion=False))
    if case == "src":
        img = np.random.default_rng(12345).standard_normal((12, 12))
        prog.bind_image("img", Image(img, dim=2))
    elif case.startswith("fuzz"):
        prog.bind_image("img", _phantom())
    res = prog.run(max_steps=100, backend="numpy")
    return {name: _bits(out) for name, out in res.outputs.items()}


class TestOptOptionCombinations:
    @pytest.mark.parametrize(
        "contraction,vn", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_all_combinations_run_identically(self, contraction, vn):
        """Contraction and value numbering change no NumPy answer, to the
        bit."""
        for case in OPT_CASES:
            assert (_opt_outputs(case, contraction, vn)
                    == _opt_outputs(case, False, False)), case


class TestCompileFile:
    def test_search_path_defaults_to_file_dir(self, tmp_path, rng):
        from repro.nrrd import write_nrrd

        (tmp_path / "p.diderot").write_text(SRC, encoding="utf-8")
        write_nrrd(str(tmp_path / "d.nrrd"), Image(rng.standard_normal((12, 12)), dim=2))
        prog = compile_file(str(tmp_path / "p.diderot"))
        res = prog.run()
        assert res.num_stable == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            compile_file(str(tmp_path / "nope.diderot"))


class TestDiagnostics:
    def test_syntax_error_carries_position(self):
        with pytest.raises(SyntaxErrorD) as exc:
            compile_program("strand S (int i) {\n    update { x = ; }\n}")
        assert "2:" in str(exc.value)

    def test_type_error_carries_position(self):
        src = SRC.replace("v = F(pos);", "v = F(1.0);")
        with pytest.raises(TypeErrorD) as exc:
            compile_program(src)
        assert "probe position" in str(exc.value)
        assert ":" in str(exc.value)


class TestSaveOutputs:
    def test_grid_save(self, tmp_path, rng):
        from repro.nrrd import read_nrrd

        img = Image(rng.standard_normal((12, 12)), dim=2)
        prog = compile_program(SRC)
        prog.bind_image("img", img)
        res = prog.run()
        paths = res.save(str(tmp_path / "out"))
        assert len(paths) == 2
        back = read_nrrd(str(tmp_path / "out-v.nrrd"))
        assert np.allclose(back.data, res.outputs["v"])
        vec = read_nrrd(str(tmp_path / "out-g.nrrd"))
        assert vec.tensor_shape == (2,)

    def test_collection_save(self, tmp_path, rng):
        from repro.nrrd import read_nrrd

        src = SRC.replace("initially [ S(i) | i in 0 .. 7 ];",
                          "initially { S(i) | i in 0 .. 7 };")
        prog = compile_program(src)
        prog.bind_image("img", Image(rng.standard_normal((12, 12)), dim=2))
        res = prog.run()
        res.save(str(tmp_path / "c"))
        back = read_nrrd(str(tmp_path / "c-g.nrrd"))
        assert back.dim == 1 and back.tensor_shape == (2,)
