"""The ledger is ruff-clean under the repo's configuration."""

import shutil
import subprocess
import sys

import pytest

from ledger import spec


def test_ruff_clean():
    ruff = shutil.which("ruff")
    cmd = [ruff] if ruff else [sys.executable, "-m", "ruff"]
    probe = subprocess.run([*cmd, "--version"], capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip("ruff is not installed here")
    proc = subprocess.run([*cmd, "check", str(spec.LEDGER_DIR)], cwd=spec.ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout


def test_no_bench_file_names():
    # tier-1 collects bench_*.py; nothing here may look like one
    assert not list(spec.LEDGER_DIR.rglob("bench_*.py"))
