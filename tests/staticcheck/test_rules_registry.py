"""REP-R: registry/spec/docs cross-consistency rules on fixture trees."""

import dataclasses
import json

import pytest

from repro.scenario.spec import tomllib
from repro.staticcheck.engine import Project, run_check
from repro.staticcheck.rules_registry import (
    ExampleSpecsParseRule,
    ExportsUsedRule,
    RegistryDocsRule,
    SpecDocsAgreementRule,
)


class FakeRegistry:
    def __init__(self, plugins):
        self._plugins = plugins  # {kind: [names]}

    def kinds(self):
        return tuple(self._plugins)

    def names(self, kind):
        return list(self._plugins[kind])


def project_for(tmp_path, files):
    pairs = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        pairs.append((path, rel))
    return Project(tmp_path, sorted(pairs))


class TestRegistryDocs:
    def rule(self):
        return RegistryDocsRule(
            registry_factory=lambda: FakeRegistry(
                {"app": ["lu", "stencil"], "policy": ["static"]}
            )
        )

    def test_undocumented_plugin_fires(self, tmp_path):
        project = project_for(tmp_path, {
            "docs/index.md": "The `lu` app and the `static` policy.\n"
        })
        found = list(self.rule().check_project(project))
        assert len(found) == 1
        assert "stencil" in found[0].message
        assert found[0].rule_id == "REP-R001"

    def test_fully_documented_registry_is_fine(self, tmp_path):
        project = project_for(tmp_path, {
            "docs/index.md": "Apps: `lu`, `stencil`. Policies: `static`.\n"
        })
        assert list(self.rule().check_project(project)) == []

    def test_word_boundary_no_substring_credit(self, tmp_path):
        # 'lustrous' must not count as documenting the 'lu' app.
        project = project_for(tmp_path, {
            "docs/index.md": "lustrous stencil static\n"
        })
        found = list(self.rule().check_project(project))
        assert ["lu"] == [f.message.split("'")[1] for f in found]


class TestExampleSpecsParse:
    def test_valid_json_spec_is_fine(self, tmp_path):
        spec = {
            "name": "ok",
            "app": {"name": "lu", "options": {"n": 8, "r": 4}},
            "engine": {"name": "sim", "mode": "noalloc"},
        }
        project = project_for(tmp_path, {
            "examples/ok.json": json.dumps(spec)
        })
        assert list(ExampleSpecsParseRule().check_project(project)) == []

    def test_unknown_key_fires(self, tmp_path):
        spec = {
            "name": "bad",
            "app": {"name": "lu"},
            "engine": {"name": "sim", "mode": "noalloc"},
            "napp": {"name": "typo"},
        }
        project = project_for(tmp_path, {
            "examples/bad.json": json.dumps(spec)
        })
        found = list(ExampleSpecsParseRule().check_project(project))
        assert [f.rule_id for f in found] == ["REP-R002"]
        assert found[0].path == "examples/bad.json"

    @pytest.mark.skipif(tomllib is None, reason="TOML needs Python 3.11+")
    def test_broken_toml_fires(self, tmp_path):
        project = project_for(tmp_path, {
            "examples/bad.toml": 'name = "x"\n[engine]\nmode = 3\n'
        })
        found = list(ExampleSpecsParseRule().check_project(project))
        assert [f.rule_id for f in found] == ["REP-R002"]

    @pytest.mark.parametrize(
        "changes, unknown",
        [
            ({"netmodel": {"name": "hypercube"}}, "unknown netmodel 'hypercube'"),
            ({"cpumodel": {"name": "gang"}}, "unknown cpumodel 'gang'"),
            ({"provider": {"name": "oracle"}}, "unknown provider 'oracle'"),
            ({"app": {"name": "fft"}}, "unknown app 'fft'"),
            ({"engine": {"name": "emulator"}}, "unknown engine 'emulator'"),
            ({"engine": {"name": "server"}, "cluster": {"policy": "lottery"}},
             "unknown policy 'lottery'"),
            ({"engine": {"name": "server"},
              "cluster": {"policy": "admission",
                          "policy_options": {"inner": "lottery"}}},
             "unknown policy 'lottery'"),
            ({"engine": {"name": "server"}, "app": {"name": "stencil"}},
             "unknown workload 'stencil'"),
            ({"engine": {"name": "server"},
              "cluster": {"arrivals": {"process": "weibull", "jobs": 5}}},
             "unknown workload 'weibull'"),
        ],
    )
    def test_unregistered_plugin_name_fires(self, tmp_path, changes, unknown):
        """The spec parses; only the live registry knows the name is gone."""
        spec = {"name": "stale", "app": {"name": "lu"}, **changes}
        project = project_for(tmp_path, {
            "examples/stale.json": json.dumps(spec)
        })
        found = list(ExampleSpecsParseRule().check_project(project))
        assert [f.rule_id for f in found] == ["REP-R002"]
        assert unknown in found[0].message

    def test_open_server_spec_resolves_its_process_not_its_shape(self, tmp_path):
        # 'stencil' is a job shape here, not a workload plugin.
        spec = {
            "name": "open",
            "app": {"name": "stencil"},
            "engine": {"name": "server"},
            "cluster": {"arrivals": {"process": "poisson", "jobs": 5}},
        }
        project = project_for(tmp_path, {
            "examples/open.json": json.dumps(spec)
        })
        assert list(ExampleSpecsParseRule().check_project(project)) == []

    def test_non_example_files_ignored(self, tmp_path):
        project = project_for(tmp_path, {"scenarios/bad.json": "{]"})
        assert list(ExampleSpecsParseRule().check_project(project)) == []


@dataclasses.dataclass
class FakeSection:
    name: str
    budget: int = 0


class TestSpecDocsAgreement:
    def rule(self):
        return SpecDocsAgreementRule(
            section_types={"app": FakeSection}, doc_path="docs/scenarios.md"
        )

    def test_undocumented_field_fires(self, tmp_path):
        project = project_for(tmp_path, {
            "docs/scenarios.md": "The app `name` key picks the plugin.\n"
        })
        found = list(self.rule().check_project(project))
        assert [f.rule_id for f in found] == ["REP-R003"]
        assert "app.budget" in found[0].message

    def test_unknown_documented_section_fires(self, tmp_path):
        project = project_for(tmp_path, {
            "docs/scenarios.md": (
                "Keys: name, budget.\n\n```toml\n[app]\nname = 'x'\n"
                "[warp]\nname = 'y'\n```\n"
            )
        })
        found = list(self.rule().check_project(project))
        assert [f.rule_id for f in found] == ["REP-R003"]
        assert "[warp]" in found[0].message

    def test_headers_outside_toml_fences_ignored(self, tmp_path):
        # A markdown link at line start is not a schema section header.
        project = project_for(tmp_path, {
            "docs/scenarios.md": "Keys: name, budget.\n[warp](warp.md)\n"
        })
        assert list(self.rule().check_project(project)) == []

    def test_agreeing_doc_is_fine(self, tmp_path):
        project = project_for(tmp_path, {
            "docs/scenarios.md": (
                "Keys: name, budget.\n\n```toml\n[app]\nname = 'x'\n```\n"
            )
        })
        assert list(self.rule().check_project(project)) == []


class TestExportsUsed:
    PACKAGE = {
        "src/pkg/__init__.py": (
            "from repro._lazy import attach\n"
            "__getattr__, __dir__, __all__ = attach(__name__, {\n"
            "    'Used': 'pkg.mod',\n"
            "    'TestOnly': 'pkg.mod',\n"
            "})\n"
        ),
        "src/pkg/mod.py": "class Used: ...\nclass TestOnly: ...\n",
        "src/pkg/plain.py": "__all__ = ['helper']\ndef helper(): ...\n",
        "tests/test_pkg.py": (
            "from pkg import TestOnly\nfrom pkg.plain import helper\n"
        ),
    }

    def findings(self, tmp_path, callers):
        project = project_for(tmp_path, {**self.PACKAGE, **callers})
        return [
            (f.path, f.line, f.message.split("'")[1])
            for f in ExportsUsedRule().check_project(project)
        ]

    def test_entries_only_tests_import_fire(self, tmp_path):
        found = self.findings(tmp_path, {
            "examples/demo.py": "from pkg import Used\n",
        })
        assert found == [
            ("src/pkg/__init__.py", 4, "TestOnly"),
            ("src/pkg/plain.py", 1, "helper"),
        ]

    def test_imports_attributes_and_docs_count_as_callers(self, tmp_path):
        found = self.findings(tmp_path, {
            "src/pkg/user.py": "from . import Used\n",
            "benchmarks/bench.py": "import pkg.plain\npkg.plain.helper()\n",
            "docs/api.md": "Subclass `pkg.TestOnly` to ...\n",
        })
        assert found == []

    def test_aliased_imports_and_multiline_doc_imports_count(self, tmp_path):
        found = self.findings(tmp_path, {
            "examples/demo.py": "import pkg as p\np.Used()\n",
            "docs/guide.md": "```python\nfrom pkg import TestOnly\n```\n",
            "README.md": "from pkg.plain import (\n    helper,\n)\n",
        })
        assert found == []

    def test_test_modules_outside_tests_do_not_count(self, tmp_path):
        found = self.findings(tmp_path, {
            "benchmarks/test_bench.py": (
                "from pkg import TestOnly\nfrom pkg.plain import helper\n"
            ),
            "benchmarks/conftest.py": "import pkg\npkg.Used\n",
        })
        assert found == [
            ("src/pkg/__init__.py", 3, "Used"),
            ("src/pkg/__init__.py", 4, "TestOnly"),
            ("src/pkg/plain.py", 1, "helper"),
        ]

    def test_defining_module_import_does_not_credit_the_package(self, tmp_path):
        found = self.findings(tmp_path, {
            "examples/demo.py": (
                "from pkg.mod import Used, TestOnly\nfrom pkg.plain import helper\n"
            ),
        })
        assert [name for _, _, name in found] == ["Used", "TestOnly"]


def test_project_rules_run_through_engine(tmp_path):
    """run_check dispatches ProjectRules once over the whole tree."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "index.md").write_text("only lu\n", encoding="utf-8")
    rule = RegistryDocsRule(
        registry_factory=lambda: FakeRegistry({"app": ["lu", "ghost"]})
    )
    result = run_check([tmp_path], [rule], root=tmp_path)
    assert [f.rule_id for f in result.findings] == ["REP-R001"]
