"""The configuration matrix (DESIGN.md "Configuration matrix") stays true.

Every settable value in ``src/`` — each ``REPRO_*`` environment value,
each ``add_argument`` flag, each ``OptOptions`` field — has a row, a row
kept is still settable, and every test the matrix cites as a row's
justification is collected.  A knob added without a row, or a reason
deleted from under one, fails tier-1.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.core.records import OptOptions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _matrix() -> str:
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    start = text.index("## Configuration matrix")
    return text[start:text.index("\n## ", start)]


def _settable_rows() -> dict[tuple[str, str], str]:
    """``(where, value) -> decision`` for the settable-value table: the
    rows whose second cell is ``env`` or a module path."""
    rows = {}
    for line in _matrix().splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and (cells[1] == "env" or cells[1].endswith(".py")):
            rows[(cells[1], cells[0])] = cells[4]
    return rows


def _settable() -> set[tuple[str, str]]:
    """``(where, value)`` for every settable value in ``src/``."""
    found = {("core/records.py", f"OptOptions.{f.name}")
             for f in dataclasses.fields(OptOptions)}
    for path in SRC.rglob("*.py"):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)):
                found.add(("env", node.value))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                flag = node.args[0]
                # f"--{name}": one flag per program input
                found.add((where, ast.unparse(flag)[2:-1]
                           if isinstance(flag, ast.JoinedStr) else flag.value))
    return found


def test_every_settable_value_has_a_row():
    missing = sorted(_settable() - set(_settable_rows()))
    assert not missing, "settable values with no configuration-matrix row"


def test_every_kept_row_is_still_settable():
    kept = {k for k, decision in _settable_rows().items()
            if not decision.startswith("deleted")}
    assert sorted(kept - _settable()) == []


def test_cited_tests_are_collected():
    cited = sorted(set(re.findall(r"`(tests/test_\w+\.py::[^`\s]+)`", _matrix())))
    assert cited
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-o", "addopts=-q",
         "-p", "no:cacheprovider", *cited],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    collected = proc.stdout.splitlines()
    missing = [t for t in cited
               if not any(c == t or c.startswith(t + "[") for c in collected)]
    assert proc.returncode == 0 and not missing, (missing, proc.stdout[-2000:])
