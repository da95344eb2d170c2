"""Tests for the ``python -m repro`` command-line driver."""

import os

import numpy as np
import pytest

from repro.__main__ import main
from repro.image import Image
from repro.nrrd import read_nrrd, write_nrrd

PROGRAM = """
input int res = 8;
input real scale = 1.0;
image(2)[] img = load("data.nrrd");
field#0(2)[] F = img ⊛ tent;
strand S (int i, int j) {
    output real v = 0.0;
    update {
        vec2 p = [real(i), real(j)];
        if (inside(p, F)) v = scale * F(p);
        stabilize;
    }
}
initially [ S(i, j) | i in 0 .. res-1, j in 0 .. res-1 ];
"""


@pytest.fixture
def workspace(tmp_path):
    src = tmp_path / "prog.diderot"
    src.write_text(PROGRAM, encoding="utf-8")
    data = Image(np.arange(64.0).reshape(8, 8), dim=2)
    write_nrrd(str(tmp_path / "data.nrrd"), data)
    return tmp_path


class TestCli:
    def test_run_and_write_nrrd(self, workspace, capsys):
        out_prefix = str(workspace / "res")
        code = main([str(workspace / "prog.diderot"), "--out", out_prefix])
        assert code == 0
        captured = capsys.readouterr().out
        assert "64 strands" in captured
        img = read_nrrd(f"{out_prefix}-v.nrrd")
        assert img.sizes == (8, 8)
        assert img.data[3, 4] == pytest.approx(3 * 8 + 4)

    def test_inputs_from_flags(self, workspace):
        out_prefix = str(workspace / "res2")
        code = main([
            str(workspace / "prog.diderot"),
            "--input", "scale=2.0",
            "--input", "res=4",
            "--out", out_prefix,
        ])
        assert code == 0
        img = read_nrrd(f"{out_prefix}-v.nrrd")
        assert img.sizes == (4, 4)
        assert img.data[1, 1] == pytest.approx(2.0 * 9.0)

    def test_text_output(self, workspace):
        out_prefix = str(workspace / "txt")
        code = main([str(workspace / "prog.diderot"), "--text", "--out", out_prefix])
        assert code == 0
        vals = np.loadtxt(f"{out_prefix}-v.txt")
        assert vals.shape == (8, 8)

    def test_emit_python(self, workspace, capsys):
        code = main([str(workspace / "prog.diderot"), "--emit-python"])
        assert code == 0
        out = capsys.readouterr().out
        assert "def update(" in out
        assert "rt.gather" in out

    def test_stats(self, workspace, capsys):
        code = main([str(workspace / "prog.diderot"), "--stats",
                     "--out", str(workspace / "s")])
        assert code == 0
        assert "instruction counts" in capsys.readouterr().out

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.diderot"
        bad.write_text("strand S (int i) { update { } }", encoding="utf-8")
        code = main([str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main([str(tmp_path / "nope.diderot")])
        assert code == 1

    def test_non_utf8_program_is_a_clean_error(self, workspace, capsys):
        # a binary file handed over as the program (here: its own data)
        (workspace / "blob.nrrd").write_bytes(b"NRRD0004\n\xff\xfe\x80 data")
        code = main([str(workspace / "blob.nrrd")])
        assert code == 1
        assert "blob.nrrd: not a UTF-8 Diderot source" in capsys.readouterr().err

    def test_bad_input_syntax(self, workspace, capsys):
        code = main([str(workspace / "prog.diderot"), "--input", "scale"])
        assert code == 1
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_unknown_input_name(self, workspace, capsys):
        code = main([str(workspace / "prog.diderot"), "--input", "nope=1"])
        assert code == 1

    def test_precision_flag(self, workspace):
        out_prefix = str(workspace / "f32")
        code = main([str(workspace / "prog.diderot"), "--precision", "single",
                     "--out", out_prefix])
        assert code == 0
        img = read_nrrd(f"{out_prefix}-v.nrrd")
        assert img.sizes == (8, 8)

    def test_unparseable_input_value(self, workspace, capsys):
        code = main([str(workspace / "prog.diderot"), "--input", "scale=zork"])
        assert code == 1
        assert "cannot parse" in capsys.readouterr().err

    def test_trace_flag_writes_chrome_json(self, workspace):
        import json

        trace_path = workspace / "t.json"
        code = main([str(workspace / "prog.diderot"),
                     "--trace", str(trace_path),
                     "--out", str(workspace / "tr")])
        assert code == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        names = {e["name"] for e in doc["traceEvents"]}
        # compiler-pass spans and runtime spans share one timeline
        assert {"parse", "typecheck", "codegen", "superstep", "block"} <= names

    def test_profile_flag_prints_summary(self, workspace, capsys):
        code = main([str(workspace / "prog.diderot"), "--profile",
                     "--out", str(workspace / "pf")])
        assert code == 0
        out = capsys.readouterr().out
        assert "compiler passes" in out
        assert "super-steps" in out
        assert "workers" in out

    def test_repro_trace_env_var(self, workspace, monkeypatch):
        import json

        trace_path = workspace / "env.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace_path))
        code = main([str(workspace / "prog.diderot"),
                     "--out", str(workspace / "ev")])
        assert code == 0
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert any(e["name"] == "superstep" for e in doc["traceEvents"])


class TestParseValue:
    """The shared input-value parser (used by ``--input`` and
    ``Program.cli``)."""

    def test_forms(self):
        from repro.inputs import parse_value

        assert parse_value("true") is True
        assert parse_value("false") is False
        assert parse_value("42") == 42 and isinstance(parse_value("42"), int)
        assert parse_value("1.5") == 1.5
        assert parse_value("1e-3") == pytest.approx(1e-3)
        assert parse_value("[1, 2.5, 3]") == [1.0, 2.5, 3.0]
        assert parse_value("  7 ") == 7

    def test_errors(self):
        from repro.errors import InputError
        from repro.inputs import parse_value

        for bad in ("zork", "[1, 2", "[]", "[a,b]"):
            with pytest.raises(InputError):
                parse_value(bad)

    def test_program_cli_uses_shared_parser(self, workspace, monkeypatch):
        from repro.core.driver import compile_file

        monkeypatch.chdir(workspace)
        prog = compile_file(str(workspace / "prog.diderot"))
        res = prog.cli(["--scale", "2.0", "--res", "4"])
        assert res.num_strands == 16
        assert res.outputs["v"][1, 1] == pytest.approx(2.0 * 9.0)

    def test_both_command_lines_declare_the_same_run_flags(self, workspace,
                                                           monkeypatch, capsys):
        """``add_run_arguments`` is the one declaration: ``python -m repro``
        and the synthesized ``Program.cli`` print the same help for the
        seven flags that configure a run."""
        import argparse

        from repro.core.driver import compile_file
        from repro.inputs import add_run_arguments

        ref = argparse.ArgumentParser(prog="x")
        add_run_arguments(ref)
        flags = [a for a in ref._actions if a.dest != "help"]
        assert [a.option_strings[0] for a in flags] == [
            "--workers", "--scheduler", "--backend", "--block-size",
            "--trace", "--profile", "--metrics-out"]
        monkeypatch.chdir(workspace)
        prog = compile_file(str(workspace / "prog.diderot"))
        helps = []
        for show in (lambda: main(["--help"]), lambda: prog.cli(["--help"])):
            with pytest.raises(SystemExit):
                show()
            # argparse re-wraps help (at hyphens too): compare sans blanks
            helps.append("".join(capsys.readouterr().out.split()))
        for a in flags:
            text = "".join((a.help % {"default": a.default}).split())
            assert text in helps[0] and text in helps[1], a.dest
        res = prog.cli(["--res", "4", "--backend", "numpy", "--scheduler",
                        "thread", "--workers", "2", "--block-size", "3"])
        assert res.num_strands == 16
        assert res.metrics.counters["run.count"] == 1

    def test_program_cli_trace_and_profile(self, workspace, capsys, monkeypatch):
        import json

        from repro.core.driver import compile_file

        monkeypatch.chdir(workspace)
        prog = compile_file(str(workspace / "prog.diderot"))
        trace_path = workspace / "cli.json"
        prog.cli(["--res", "4", "--trace", str(trace_path), "--profile"])
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        assert any(e["name"] == "superstep" for e in doc["traceEvents"])
        assert "super-steps" in capsys.readouterr().out


class TestStandalonePrograms:
    """The .diderot files under examples/programs/ compile via the CLI."""

    @pytest.fixture(scope="class")
    def progdir(self):
        import repro

        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        d = os.path.join(os.path.dirname(root), "examples", "programs")
        if not os.path.exists(os.path.join(d, "hand.nrrd")):
            pytest.skip("run examples/make_data.py first")
        return d

    def test_isocontour_via_cli(self, progdir, tmp_path):
        code = main([
            os.path.join(progdir, "isocontour.diderot"),
            "--input", "resU=20", "--input", "resV=20",
            "--out", str(tmp_path / "iso"),
        ])
        assert code == 0
        img = read_nrrd(str(tmp_path / "iso-pos.nrrd"))
        assert img.tensor_shape == (2,)
