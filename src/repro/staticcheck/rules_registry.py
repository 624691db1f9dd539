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
  real spec section.

Constructor arguments exist only for the rule-pack's own tests (a fake
registry, a fake docs tree); production use takes the defaults.
"""

from __future__ import annotations

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


REGISTRY_RULES = (
    RegistryDocsRule(),
    ExampleSpecsParseRule(),
    SpecDocsAgreementRule(),
)
