"""PEP 562 re-exports: a package's public names import on first access."""

from __future__ import annotations

import sys
from importlib import import_module


def attach(package: str, table: dict[str, str]) -> tuple:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``{name: defining module}``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # Cached in the package namespace: the next access bypasses this hook.
        value = namespace[name] = getattr(import_module(table[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__, list(table)
