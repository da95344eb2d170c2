"""The perf ledger: the repo's one benchmark (see README.md beside this file).

``python benchmarks/ledger/run.py`` is the single entry point; everything
else in this package is imported by it or by the per-workload child
process it spawns (``python -m ledger.child``).
"""
