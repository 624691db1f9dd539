"""``repro check``: the AST-based invariant linter.

The codebase's core contracts — seed-determinism of every result, a
numpy-free ``import repro``, a deadlock-free service layer, and
registry/spec/docs agreement — are enforced dynamically by the test
suite; this package makes them *statically* checkable so a violating
line fails at diff time instead of whenever a test happens to exercise
it.  See ``docs/staticcheck.md`` for the rule catalogue and the
suppression policy.

Usage::

    from repro.staticcheck import all_rules, run_check, DEFAULT_CONFIG
    result = run_check(["src"], all_rules(), DEFAULT_CONFIG)
    assert result.ok, [f.render() for f in result.findings]

or, from the command line: ``repro check src/ benchmarks/ examples/``.
"""

from __future__ import annotations

from repro.staticcheck.config import DEFAULT_CONFIG
from repro.staticcheck.engine import Rule, run_check
from repro.staticcheck.rules_concurrency import CONCURRENCY_RULES
from repro.staticcheck.rules_determinism import DETERMINISM_RULES
from repro.staticcheck.rules_imports import IMPORT_RULES
from repro.staticcheck.rules_registry import REGISTRY_RULES


def all_rules() -> tuple[Rule, ...]:
    """The shipped rule pack, in catalogue order."""
    return (
        DETERMINISM_RULES + IMPORT_RULES + CONCURRENCY_RULES + REGISTRY_RULES
    )


__all__ = ["DEFAULT_CONFIG", "Rule", "all_rules", "run_check"]
