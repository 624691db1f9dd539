"""Path-scoped rule configuration for ``repro check``.

A :class:`CheckConfig` maps rule ids to include/exclude glob scopes
(``**`` spans directories; a single ``*`` never crosses ``/`` — see
:func:`~repro.staticcheck.engine.glob_match`).  Rules carry their own
default scope; the config overrides per rule id, which is how the
project pins its invariants — e.g. the wall-clock-stats allowlist of
``REP-D004`` — in one reviewable place instead of inline suppressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.staticcheck.rules_determinism import (
    RESULT_SCOPE,
    TOLERANCE_SCOPE,
    WALLCLOCK_STATS_ALLOWLIST,
)


@dataclass(frozen=True)
class RuleScope:
    """One rule's path scope: checked iff include matches and exclude
    does not."""

    include: tuple[str, ...] = ("**",)
    exclude: tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckConfig:
    """Per-rule scope overrides handed to the engine."""

    scopes: Mapping[str, RuleScope] = field(default_factory=dict)

    def scope_for(
        self, rule_id: str
    ) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
        scope = self.scopes.get(rule_id)
        if scope is None:
            return None
        return scope.include, scope.exclude


#: The project's invariants, spelled out: REP-D confined to the
#: result-producing packages with the wall-clock-stats allowlist on the
#: monotonic-timer rule (the tolerance rule REP-D007 swaps ``apps/`` and
#: ``faults.py`` for ``dps/``); REP-I exempting the dedicated ``*/soa.py``
#: numpy backends; REP-C and REP-R everywhere.  (Scopes match the rule
#: classes' own defaults today; the config exists so the project can
#: narrow or widen them without touching rule code.)
DEFAULT_CONFIG = CheckConfig(scopes={
    "REP-D001": RuleScope(include=RESULT_SCOPE),
    "REP-D002": RuleScope(include=RESULT_SCOPE),
    "REP-D003": RuleScope(include=RESULT_SCOPE),
    "REP-D004": RuleScope(
        include=RESULT_SCOPE, exclude=WALLCLOCK_STATS_ALLOWLIST
    ),
    "REP-D005": RuleScope(include=RESULT_SCOPE),
    "REP-D007": RuleScope(include=TOLERANCE_SCOPE),
    "REP-I001": RuleScope(exclude=("**/soa.py",)),
})
