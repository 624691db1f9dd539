"""REP-R: registry / spec / docs cross-consistency.

Project-wide rules (they run once per invocation, not per file) that
keep the three descriptions of the scenario vocabulary — the live
:class:`~repro.scenario.registry.Registry`, the
:class:`~repro.scenario.spec.ScenarioSpec` dataclasses, and the
documentation — from drifting apart:

* every plugin registered in the default registry is mentioned in some
  ``docs/*.md`` page (the inventory comes from the *live* registry —
  ``repro check --list-plugins`` prints the same list);
* every ``examples/*.toml|json`` spec parses through the unknown-key-
  rejecting :class:`~repro.scenario.spec.ScenarioSpec` loaders and
  names only plugins the live registry has (no engine runs: parse and
  look up only);
* every spec-section dataclass field appears in ``docs/scenarios.md``,
  and every ``[section]`` table the doc's schema example shows is a
  real spec section;
* every name a package re-exports (its lazy ``attach`` table or its
  ``__all__``) is imported or named through that package by some
  caller outside the tests, so each public name has one import path.

Constructor arguments exist only for the rule-pack's own tests (a fake
registry, a fake docs tree); production use takes the defaults.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.staticcheck.engine import Finding, Project, ProjectRule


def _word_pattern(name: str) -> "re.Pattern[str]":
    """``name`` as a standalone word (dashes/underscores kept intact)."""
    return re.compile(rf"(?<![\w-]){re.escape(name)}(?![\w-])")


def _docs_corpus(root: Path) -> Optional[str]:
    docs = root / "docs"
    if not docs.is_dir():
        return None
    pages = sorted(docs.glob("*.md"))
    if not pages:
        return None
    return "\n".join(p.read_text(encoding="utf-8") for p in pages)


class RegistryDocsRule(ProjectRule):
    """REP-R001: every registered plugin is mentioned in a docs page."""

    rule_id = "REP-R001"
    summary = (
        "every plugin in the live default registry must be mentioned "
        "in a docs/*.md page"
    )

    def __init__(
        self, registry_factory: Optional[Callable[[], Any]] = None
    ) -> None:
        self._registry_factory = registry_factory

    def _registry(self) -> Any:
        if self._registry_factory is not None:
            return self._registry_factory()
        from repro.scenario import default_registry

        return default_registry()

    def check_project(self, project: Project) -> Iterator[Finding]:
        corpus = _docs_corpus(project.root)
        if corpus is None:
            return  # no docs tree to check against (fixture trees)
        registry = self._registry()
        for kind in registry.kinds():
            for name in registry.names(kind):
                if not _word_pattern(name).search(corpus):
                    yield Finding(
                        "docs/index.md", 1, self.rule_id,
                        f"registered {kind} plugin {name!r} is not "
                        "mentioned in any docs/*.md page; document it "
                        "(registry inventory: repro check --list-plugins)",
                    )


def _plugin_names(spec: Any) -> Iterator[tuple[str, str]]:
    """``(kind, name)`` of every registry lookup running ``spec`` makes."""
    yield "engine", spec.engine.name
    yield "netmodel", spec.netmodel.name
    yield "cpumodel", spec.cpumodel.name
    if spec.provider.name != "auto":  # derived from the mode at run time
        yield "provider", spec.provider.name
    if spec.engine.name != "server":
        yield "app", spec.app.name
        return
    cluster = spec.cluster
    yield "policy", cluster.policy
    if "inner" in cluster.policy_options:
        yield "policy", str(cluster.policy_options["inner"])
    # Open system: the arrival process; closed: the app names the job mix.
    yield "workload", str(cluster.arrivals.get("process", spec.app.name))


class ExampleSpecsParseRule(ProjectRule):
    """REP-R002: every example spec loads and names registered plugins.

    Parsing a spec and looking its names up never executes an engine,
    so this is safe (and fast) to run on every check: a drifted key or
    type, or a plugin name that was since removed, fails here instead
    of in the scenario-matrix CI job that actually runs engines.
    """

    rule_id = "REP-R002"
    summary = (
        "examples/*.toml|json must load via ScenarioSpec.from_file and "
        "name only registered plugins (unknown keys reject; engines "
        "never run)"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        specs = project.matching("**/examples/*.toml") + project.matching(
            "**/examples/*.json"
        )
        if not specs:
            return
        from repro.errors import ConfigurationError
        from repro.scenario import default_registry
        from repro.scenario.spec import ScenarioSpec, tomllib

        registry = default_registry()
        for path, rel in sorted(specs):
            if path.suffix == ".toml" and tomllib is None:
                continue  # Python 3.10: TOML parsing unavailable
            try:
                spec = ScenarioSpec.from_file(path)
            except ConfigurationError as exc:
                yield Finding(
                    rel, 1, self.rule_id,
                    f"example spec does not load: {exc}",
                )
                continue
            for kind, name in _plugin_names(spec):
                try:
                    registry.resolve(kind, name)
                except ConfigurationError as exc:
                    yield Finding(
                        rel, 1, self.rule_id,
                        f"example spec names a plugin nobody registered: {exc}",
                    )


#: ``[section]`` / ``[section.sub]`` / ``[[section.array]]`` headers in
#: the schema example of docs/scenarios.md.
_TOML_HEADER_RE = re.compile(r"^\[\[?(\w+)[\w.]*\]\]?", re.MULTILINE)


class SpecDocsAgreementRule(ProjectRule):
    """REP-R003: spec dataclass fields and documented keys agree."""

    rule_id = "REP-R003"
    summary = (
        "docs/scenarios.md must mention every spec-section field, and "
        "every [section] it documents must exist on ScenarioSpec"
    )

    def __init__(
        self,
        section_types: Optional[Mapping[str, type]] = None,
        doc_path: str = "docs/scenarios.md",
    ) -> None:
        self._section_types = section_types
        self._doc_path = doc_path

    def _sections(self) -> Mapping[str, type]:
        if self._section_types is not None:
            return self._section_types
        from repro.scenario.spec import _SECTION_TYPES

        return _SECTION_TYPES

    def check_project(self, project: Project) -> Iterator[Finding]:
        import dataclasses

        doc = project.root / self._doc_path
        if not doc.is_file():
            return  # no schema page to check against (fixture trees)
        text = doc.read_text(encoding="utf-8")
        sections = self._sections()
        for section, cls in sorted(sections.items()):
            for f in dataclasses.fields(cls):
                if not _word_pattern(f.name).search(text):
                    yield Finding(
                        self._doc_path, 1, self.rule_id,
                        f"spec field {section}.{f.name} is not documented "
                        f"in {self._doc_path}",
                    )
        for fence in re.finditer(r"```toml\n(.*?)```", text, re.DOTALL):
            for match in _TOML_HEADER_RE.finditer(fence.group(1)):
                if match.group(1) not in sections:
                    line = text.count(
                        "\n", 0, fence.start(1) + match.start()
                    ) + 1
                    yield Finding(
                        self._doc_path, line, self.rule_id,
                        f"documented section [{match.group(1)}] is not a "
                        "ScenarioSpec section; the schema drifted",
                    )


#: Where a re-export's callers live: code, then prose.  Tests are no
#: caller — a name only tests import belongs in its defining module.
_CALLER_CODE = ("src", "examples", "benchmarks")
_CALLER_PROSE = ("docs/*.md", "README.md")
_DOTTED_RE = re.compile(r"\b[A-Za-z_]\w*(?:\.\w+)+")
_PROSE_IMPORT_RE = re.compile(
    r"^\s*from\s+([\w.]+)\s+import\s+(\([^)]*\)|[^\n]*)", re.MULTILINE
)


def _module_name(path: Path) -> str:
    """Dotted import name of ``path``, walking up through package dirs."""
    parts = [] if path.stem == "__init__" else [path.stem]
    folder = path.parent
    while (folder / "__init__.py").is_file():
        parts.insert(0, folder.name)
        folder = folder.parent
    return ".".join(parts)


def _export_entries(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """``(name, line)`` of every ``attach`` table key and ``__all__`` item."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            value = node.value
            if any(getattr(t, "id", "") == "__all__" for t in node.targets):
                items = getattr(value, "elts", ())
            elif (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", "") == "attach"
                and len(value.args) == 2
                and isinstance(value.args[1], ast.Dict)
            ):
                items = value.args[1].keys
            else:
                continue
            for item in items:
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value, item.lineno


def _split_uses(dotted: str) -> Iterator[tuple[str, str]]:
    """Every ``(owner, name)`` reading of ``a.b.c``: ``(a, b)``, ``(a.b, c)``."""
    parts = dotted.split(".")
    for cut in range(1, len(parts)):
        yield ".".join(parts[:cut]), parts[cut]


def _code_uses(tree: ast.Module, module: str) -> Iterator[tuple[str, str]]:
    """``(owner, name)`` pairs a module imports or names through ``owner``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            owner = node.module or ""
            if node.level:
                base = module.split(".")[: -node.level]
                owner = ".".join(base + ([owner] if owner else []))
            for alias in node.names:
                yield owner, alias.name
                aliases[alias.asname or alias.name] = f"{owner}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in aliases:
                yield from _split_uses(
                    ".".join([aliases[node.id], *reversed(chain)])
                )


def _prose_uses(text: str) -> Iterator[tuple[str, str]]:
    """``(owner, name)`` pairs a page imports (``from … import``) or names."""
    for match in _PROSE_IMPORT_RE.finditer(text):
        for name in re.findall(r"\w+", match.group(2)):
            yield match.group(1), name
    for dotted in _DOTTED_RE.findall(text):
        yield from _split_uses(dotted)


def _is_test(rel: Path) -> bool:
    return "tests" in rel.parts or rel.name.startswith(("test_", "conftest"))


class ExportsUsedRule(ProjectRule):
    """REP-R004: a package re-exports only what some caller imports from it.

    Every name has one import path: its defining module.  A package
    ``attach`` table or ``__all__`` entry must be imported or named
    *through that package* by a module under ``src/``, ``examples/`` or
    ``benchmarks/``, or by ``docs/*.md`` / ``README.md``; tests do not
    count.  The tables are those of the checked files; the callers are
    read from the repository root whatever paths were named.
    """

    rule_id = "REP-R004"
    summary = (
        "every attach-table / __all__ entry must be imported or named "
        "through its package by src/, examples/, benchmarks/ or the docs "
        "(tests do not count)"
    )

    def _uses(self, root: Path) -> set[tuple[str, str]]:
        uses: set[tuple[str, str]] = set()
        for top in _CALLER_CODE:
            for path in sorted((root / top).rglob("*.py")):
                if _is_test(path.relative_to(root)):
                    continue
                try:
                    tree = ast.parse(path.read_text(encoding="utf-8"))
                except SyntaxError:
                    continue  # reported once as REP-X003
                uses.update(_code_uses(tree, _module_name(path)))
        for pattern in _CALLER_PROSE:
            for path in sorted(root.glob(pattern)):
                uses.update(_prose_uses(path.read_text(encoding="utf-8")))
        return uses

    def check_project(self, project: Project) -> Iterator[Finding]:
        uses: Optional[set[tuple[str, str]]] = None
        for path, rel in project.matching("**/*.py"):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError:
                continue
            entries = list(_export_entries(tree))
            if not entries:
                continue
            if uses is None:
                uses = self._uses(project.root)
            owner = _module_name(path)
            for name, line in entries:
                if (owner, name) not in uses:
                    yield Finding(
                        rel, line, self.rule_id,
                        f"{owner} exports {name!r} but nothing outside "
                        "the tests imports it from there; import it from "
                        "its defining module and drop the entry",
                    )


REGISTRY_RULES = (
    RegistryDocsRule(),
    ExampleSpecsParseRule(),
    SpecDocsAgreementRule(),
    ExportsUsedRule(),
)
