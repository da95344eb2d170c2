"""Lazy package exports (PEP 562).

A package's ``__init__`` names each public attribute and the submodule
that defines it; the submodule is imported on first access.  Importing a
package therefore costs only the package itself, which is what lets
``python -m repro --help`` (and a compile-cache hit) skip NumPy or the
compiler until they are used.
"""

from __future__ import annotations

import importlib


def exports(package: str, table: dict[str, str]):
    """The module ``__getattr__`` of ``package``: ``table`` maps each
    public name to the module that defines it."""

    def __getattr__(name: str):
        where = table.get(name)
        if where is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(where), name)

    return __getattr__
