"""The ``repro check`` rule engine: discovery, dispatch, suppressions.

The engine is deliberately small and stdlib-only: it discovers files
under the requested paths, parses each Python module once, dispatches
every enabled rule whose path scope (its own ``include``/``exclude``)
matches, and post-processes the findings against inline suppression
markers.

Two rule families plug in:

* **module rules** (:class:`Rule`) see one parsed file at a time — an
  AST plus its source — and yield :class:`Finding`s;
* **project rules** (:class:`ProjectRule`) run once per invocation over
  the whole :class:`Project` (discovered files + repository root) and
  encode cross-file contracts: registry/docs/spec agreement.

Suppressions are inline comments naming the rule they silence::

    t0 = time.time()  # repro: noqa REP-D003

A marker must name at least one rule id; a marker whose rules never
fired on its line is itself reported (``REP-X001``), so stale
suppressions cannot accumulate.  Malformed or unknown-id markers report
as ``REP-X002``.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

#: Engine-level pseudo-rules (reported by the engine, not a rule class).
UNUSED_SUPPRESSION = "REP-X001"
BAD_SUPPRESSION = "REP-X002"
SYNTAX_ERROR = "REP-X003"

#: The marker shape: ``repro: noqa <RULE-ID>`` after a hash (ids comma-
#: or space-separated).
_MARKER_RE = re.compile(r"#\s*repro:\s*noqa\b(?P<ids>[^#]*)")
_RULE_ID_RE = re.compile(r"[A-Z]+-[A-Z0-9]+")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where it is and what contract it breaks."""

    path: str
    line: int
    rule_id: str
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        """The human one-liner: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"

    def render_github(self) -> str:
        """A GitHub Actions ``::error`` annotation for this finding."""
        return (
            f"::error file={self.path},line={self.line},"
            f"title={self.rule_id}::{self.message}"
        )


class ModuleUnit:
    """One parsed Python file handed to module rules."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.tree: ast.Module = ast.parse(source)

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``'s line."""
        return Finding(self.rel, getattr(node, "lineno", 1), rule_id, message)


class Project:
    """The whole checked tree, handed to project rules.

    ``files`` is every discovered file (Python or not) as
    ``(absolute path, relative path)``; ``root`` anchors repo-level
    resources (``docs/``) that cross-file rules consult even when the
    invocation only named ``src/``.
    """

    def __init__(self, root: Path, files: Sequence[tuple[Path, str]]) -> None:
        self.root = root
        self.files = tuple(files)

    def matching(self, pattern: str) -> list[tuple[Path, str]]:
        """Discovered files whose relative path matches ``pattern``."""
        return [(p, rel) for p, rel in self.files if glob_match(rel, pattern)]


class Rule:
    """One statically checkable contract, dispatched per parsed module."""

    rule_id: str = "REP-000"
    summary: str = ""
    #: Path scope: checked iff ``include`` matches and ``exclude`` does not.
    include: tuple[str, ...] = ("**",)
    exclude: tuple[str, ...] = ()

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A cross-file contract, dispatched once over the whole project."""

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# path scoping
# --------------------------------------------------------------------------


def glob_match(rel: str, pattern: str) -> bool:
    """Segment-wise glob match; ``**`` spans any number of segments.

    Unlike :func:`fnmatch.fnmatch` on the whole string, a single ``*``
    never crosses a ``/`` — ``**/des/*`` matches ``src/repro/des/a.py``
    but not ``modes/a.py``.
    """
    return _match_segments(rel.split("/"), pattern.split("/"))


def _match_segments(parts: Sequence[str], pats: Sequence[str]) -> bool:
    if not pats:
        return not parts
    head, rest = pats[0], pats[1:]
    if head == "**":
        return any(
            _match_segments(parts[i:], rest) for i in range(len(parts) + 1)
        )
    if not parts:
        return False
    return fnmatch.fnmatchcase(parts[0], head) and _match_segments(
        parts[1:], rest
    )


def in_scope(rel: str, include: Iterable[str], exclude: Iterable[str]) -> bool:
    """Whether a relative path falls inside an include/exclude scope."""
    if not any(glob_match(rel, pat) for pat in include):
        return False
    return not any(glob_match(rel, pat) for pat in exclude)


# --------------------------------------------------------------------------
# suppressions
# --------------------------------------------------------------------------


class _Suppressions:
    """Inline ``# repro: noqa RULE-ID`` markers of one module."""

    def __init__(self, unit: ModuleUnit, known_ids: set[str]) -> None:
        self.by_line: dict[int, set[str]] = {}
        self.bad: list[Finding] = []
        self._used: set[tuple[int, str]] = set()
        for lineno, text in _comments(unit.source):
            match = _MARKER_RE.search(text)
            if match is None:
                continue
            ids = set(_RULE_ID_RE.findall(match.group("ids")))
            if not ids:
                self.bad.append(Finding(
                    unit.rel, lineno, BAD_SUPPRESSION,
                    "suppression names no rule: write "
                    "'# repro: noqa RULE-ID[, RULE-ID...]'",
                ))
                continue
            unknown = sorted(ids - known_ids)
            if unknown:
                self.bad.append(Finding(
                    unit.rel, lineno, BAD_SUPPRESSION,
                    f"suppression names unknown rule(s) {unknown}",
                ))
            known = ids & known_ids
            if known:
                self.by_line[lineno] = known

    def absorbs(self, finding: Finding) -> bool:
        """True (and marks the marker used) when ``finding`` is silenced."""
        if finding.rule_id in self.by_line.get(finding.line, ()):
            self._used.add((finding.line, finding.rule_id))
            return True
        return False

    def unused(self, rel: str, enabled_ids: set[str]) -> Iterator[Finding]:
        """Markers that silenced nothing (only for rules actually run)."""
        for lineno, ids in sorted(self.by_line.items()):
            for rule_id in sorted(ids & enabled_ids):
                if (lineno, rule_id) not in self._used:
                    yield Finding(
                        rel, lineno, UNUSED_SUPPRESSION,
                        f"unused suppression: {rule_id} did not fire on "
                        "this line — remove the marker",
                    )


def _comments(source: str) -> Iterator[tuple[int, str]]:
    """``(lineno, text)`` of each real comment token in ``source``.

    Tokenizing (rather than scanning raw lines) keeps marker-shaped text
    inside strings and docstrings from registering as suppressions.
    """
    readline = io.StringIO(source).readline
    try:
        for tok in tokenize.generate_tokens(readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return  # unparsable tail; the file already failed SYNTAX_ERROR


# --------------------------------------------------------------------------
# discovery + the run
# --------------------------------------------------------------------------

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def discover(paths: Sequence[Path]) -> list[Path]:
    """Files under ``paths``: explicit files verbatim, directories walked."""
    found: list[Path] = []
    for path in paths:
        if path.is_file():
            found.append(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for sub in sorted(path.rglob("*")):
            if sub.is_dir():
                continue
            rel_parts = sub.relative_to(path).parts
            if any(
                part in _SKIP_DIRS or part.startswith(".")
                for part in rel_parts
            ):
                continue
            found.append(sub)
    return found


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class CheckResult:
    """Outcome of one engine run."""

    findings: list[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )


def run_check(
    paths: Sequence["str | Path"],
    rules: Sequence[Rule],
    root: Optional["str | Path"] = None,
    only: Optional[Sequence[str]] = None,
) -> CheckResult:
    """Run ``rules`` over ``paths``; returns sorted, suppression-filtered
    findings.

    Each rule sees only the files its ``include``/``exclude`` scope
    admits; ``root`` anchors relative paths and repo-level resources
    (default: the current directory); ``only`` restricts to rules whose
    id matches one of the given ids or id prefixes (``REP-D`` selects
    the whole determinism pack).
    """
    root = Path(root) if root is not None else Path.cwd()
    enabled = _select(rules, only)
    enabled_ids = {rule.rule_id for rule in enabled}
    known_ids = {rule.rule_id for rule in rules} | {
        UNUSED_SUPPRESSION, BAD_SUPPRESSION, SYNTAX_ERROR
    }
    files = discover([Path(p) for p in paths])
    rel_files = [(path, _relative(path, root)) for path in files]

    findings: list[Finding] = []
    py_files = [(p, rel) for p, rel in rel_files if rel.endswith(".py")]
    for path, rel in py_files:
        try:
            unit = ModuleUnit(path, rel, path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            findings.append(Finding(
                rel, exc.lineno or 1, SYNTAX_ERROR,
                f"file does not parse: {exc.msg}",
            ))
            continue
        suppressions = _Suppressions(unit, known_ids)
        findings.extend(suppressions.bad)
        for rule in enabled:
            if isinstance(rule, ProjectRule):
                continue
            if not in_scope(rel, rule.include, rule.exclude):
                continue
            for finding in rule.check(unit):
                if not suppressions.absorbs(finding):
                    findings.append(finding)
        findings.extend(suppressions.unused(rel, enabled_ids))

    project = Project(root, rel_files)
    for rule in enabled:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(project))

    return CheckResult(sorted(findings), len(rel_files))


def _select(rules: Sequence[Rule], only: Optional[Sequence[str]]) -> list[Rule]:
    if not only:
        return list(rules)
    selected = [
        rule
        for rule in rules
        if any(rule.rule_id == o or rule.rule_id.startswith(o) for o in only)
    ]
    if not selected:
        known = sorted(rule.rule_id for rule in rules)
        raise ValueError(f"no rule matches {list(only)}; known rules: {known}")
    return selected
