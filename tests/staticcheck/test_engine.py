"""Engine mechanics: globs, discovery, suppressions, output shapes."""

import json

import pytest

from repro.staticcheck import run_check
from repro.staticcheck.engine import (
    BAD_SUPPRESSION,
    SYNTAX_ERROR,
    UNUSED_SUPPRESSION,
    Finding,
    glob_match,
)
from repro.staticcheck.rules_determinism import WallClockRule

RULES = (WallClockRule(),)


def check_tree(tmp_path, files, **kwargs):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return run_check([tmp_path], kwargs.pop("rules", RULES),
                     root=tmp_path, **kwargs)


class TestGlobMatch:
    def test_doublestar_spans_segments(self):
        assert glob_match("src/repro/des/kernel.py", "**/des/**")
        assert glob_match("des/kernel.py", "**/des/**")

    def test_single_star_stays_in_segment(self):
        # fnmatch on the whole string would let '*des/*' match 'modes/x.py'
        assert not glob_match("modes/x.py", "**/des/**")
        assert not glob_match("src/modes/x.py", "*/des/*")

    def test_suffix_pattern(self):
        assert glob_match("src/repro/faults.py", "**/faults.py")
        assert not glob_match("src/repro/faults_test.py", "**/faults.py")


class TestDiscovery:
    def test_directories_walked_and_caches_skipped(self, tmp_path):
        result = check_tree(tmp_path, {
            "pkg/des/a.py": "x = 1\n",
            "pkg/des/__pycache__/a.cpython-311.pyc": "junk",
            "pkg/.hidden/b.py": "x = 1\n",
            "notes.md": "hello\n",
        })
        assert result.files_checked == 2  # a.py + notes.md
        assert result.ok

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_check([tmp_path / "nope"], RULES, root=tmp_path)

    def test_syntax_error_reported_not_raised(self, tmp_path):
        result = check_tree(tmp_path, {"des/bad.py": "def broken(:\n"})
        assert [f.rule_id for f in result.findings] == [SYNTAX_ERROR]


class TestSuppressions:
    VIOLATION = "import time\n\ndef f():\n    return time.time(){marker}\n"

    def test_finding_without_marker(self, tmp_path):
        result = check_tree(
            tmp_path, {"des/a.py": self.VIOLATION.format(marker="")}
        )
        assert [f.rule_id for f in result.findings] == ["REP-D003"]

    def test_marker_absorbs_finding(self, tmp_path):
        source = self.VIOLATION.format(marker="  # repro: noqa REP-D003")
        result = check_tree(tmp_path, {"des/a.py": source})
        assert result.ok

    def test_unused_marker_is_itself_a_finding(self, tmp_path):
        result = check_tree(tmp_path, {
            "des/a.py": "x = 1  # repro: noqa REP-D003\n"
        })
        assert [f.rule_id for f in result.findings] == [UNUSED_SUPPRESSION]

    def test_marker_without_rule_id_is_malformed(self, tmp_path):
        result = check_tree(tmp_path, {"des/a.py": "x = 1  # repro: noqa\n"})
        assert [f.rule_id for f in result.findings] == [BAD_SUPPRESSION]

    def test_marker_with_unknown_rule_id_is_malformed(self, tmp_path):
        result = check_tree(tmp_path, {
            "des/a.py": "x = 1  # repro: noqa REP-Z999\n"
        })
        assert [f.rule_id for f in result.findings] == [BAD_SUPPRESSION]

    def test_marker_inside_string_is_ignored(self, tmp_path):
        # Docstrings and string literals are not comments: no marker, and
        # no unused-suppression noise either.
        result = check_tree(tmp_path, {
            "des/a.py": 'DOC = "example:  # repro: noqa REP-D003"\n'
        })
        assert result.ok


class TestRuleSelection:
    def test_only_prefix_selects_pack(self, tmp_path):
        result = check_tree(
            tmp_path,
            {"des/a.py": "import time\nt = time.time()\n"},
            only=["REP-D"],
        )
        assert not result.ok

    def test_unknown_selector_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no rule matches"):
            check_tree(tmp_path, {"des/a.py": "x = 1\n"}, only=["REP-NOPE"])


class TestOutput:
    def test_json_roundtrip(self, tmp_path):
        result = check_tree(
            tmp_path, {"des/a.py": "import time\nt = time.time()\n"}
        )
        doc = json.loads(result.to_json())
        assert doc["files_checked"] == 1
        assert doc["findings"][0]["rule"] == "REP-D003"
        assert doc["findings"][0]["path"] == "des/a.py"
        assert doc["findings"][0]["line"] == 2

    def test_render_formats(self):
        f = Finding("src/a.py", 7, "REP-D003", "msg")
        assert f.render() == "src/a.py:7: [REP-D003] msg"
        assert f.render_github() == (
            "::error file=src/a.py,line=7,title=REP-D003::msg"
        )

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        result = check_tree(tmp_path, {
            "des/b.py": "import time\nt = time.time()\n",
            "des/a.py": "import time\nt = time.time()\nu = time.time()\n",
        })
        keys = [(f.path, f.line) for f in result.findings]
        assert keys == sorted(keys)
