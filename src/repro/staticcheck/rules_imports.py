"""REP-I: optional-dependency import hygiene.

``import repro`` must work on a numpy-less install (the ``tests-no-numpy``
CI leg) and must not pay for numpy or scipy on a run that never computes
with them.  The contract this rule encodes: outside the dedicated
``*/soa.py`` backend modules, which only load behind a registry closure,
no ``import numpy`` / ``import scipy`` executes at import time — they
live in the function bodies that compute, or under ``if TYPE_CHECKING:``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.engine import Finding, ModuleUnit, Rule
from repro.staticcheck.rules_determinism import dotted

#: Top-level distributions that are optional dependencies of the core.
OPTIONAL_MODULES = frozenset({"numpy", "scipy"})

#: Modules allowed to import numpy/scipy unconditionally: the dedicated
#: structure-of-arrays backends, which only ever load behind
#: ``soa_available()``.
SOA_EXEMPT = ("**/soa.py",)


def _optional_targets(node: ast.AST) -> list[str]:
    """The numpy/scipy module names imported by ``node`` (if any)."""
    names: list[str] = []
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        names = [node.module]
    return [
        name for name in names
        if name.split(".")[0] in OPTIONAL_MODULES
    ]


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted(test)
    return name is not None and name.endswith("TYPE_CHECKING")


def _runs_at_import(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and what under it executes when the module is imported:
    function bodies run later, ``if TYPE_CHECKING:`` bodies never."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    yield node
    if isinstance(node, ast.If) and _is_type_checking_test(node.test):
        children = node.orelse
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _runs_at_import(child)


class ModuleLevelOptionalImportRule(Rule):
    """REP-I001: no module-level numpy/scipy import outside ``*/soa.py``."""

    rule_id = "REP-I001"
    summary = (
        "no module-level import of numpy/scipy outside */soa.py: import "
        "inside the function that computes (or under TYPE_CHECKING)"
    )
    exclude = SOA_EXEMPT

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in _runs_at_import(unit.tree):
            targets = _optional_targets(node)
            if targets:
                yield unit.finding(
                    self.rule_id, node,
                    f"module-level import of {', '.join(targets)}: every "
                    "importer pays for it and numpy-less installs cannot "
                    "import the module; move it into the function that "
                    "computes (or under TYPE_CHECKING)",
                )


IMPORT_RULES = (ModuleLevelOptionalImportRule(),)
