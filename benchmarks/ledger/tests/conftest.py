"""Self-tests of the perf ledger: ``python -m pytest benchmarks/ledger/tests``.

Not part of the repo's tier-1 suite (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parents[1]
ROOT = LEDGER_DIR.parents[1]
for path in (ROOT / "src", LEDGER_DIR.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
