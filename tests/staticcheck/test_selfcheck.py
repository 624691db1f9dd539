"""The tree ships clean: ``repro check`` over the repo finds nothing.

This is the linter's own regression gate — a rule change that starts
flagging existing code, or a code change that violates a contract, fails
here before CI's dedicated static-analysis job sees it.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.staticcheck import all_rules, run_check

REPO = Path(__file__).resolve().parents[2]
CHECKED = [REPO / p for p in ("src", "benchmarks", "examples")]


def test_repo_tree_is_clean():
    result = run_check(
        [p for p in CHECKED if p.exists()],
        all_rules(),
        root=REPO,
    )
    assert result.ok, "\n" + "\n".join(f.render() for f in result.findings)


def test_no_determinism_or_import_suppressions():
    """Shipped contract: zero REP-D/REP-I inline suppressions in src/.

    Scans real comment tokens (docstrings documenting the marker shape
    are not suppressions).
    """
    from repro.staticcheck.engine import _comments

    offenders = []
    for path in (REPO / "src").rglob("*.py"):
        for lineno, text in _comments(path.read_text(encoding="utf-8")):
            if "repro: noqa" in text and (
                "REP-D" in text or "REP-I" in text
            ):
                offenders.append(f"{path}:{lineno}")
    assert not offenders, offenders


class TestCli:
    def test_check_clean_exit_zero(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        assert main(["check", "src/repro/staticcheck"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_check_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "des" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "des"]) == 1
        assert "REP-D003" in capsys.readouterr().out

    def test_check_github_annotations(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "des" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--github", "des"]) == 1
        out = capsys.readouterr().out
        assert "::error file=des/bad.py,line=2,title=REP-D003::" in out

    def test_check_json_output(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "des" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--json", "des"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "REP-D003"

    def test_unknown_rule_selector_exits_two(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        assert main(["check", "--rule", "REP-NOPE", "src"]) == 2
        assert "no rule matches" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        assert main(["check", "definitely/not/here"]) == 2

    def test_list_rules_covers_every_pack(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out
        for pack in ("REP-D", "REP-I", "REP-C", "REP-R"):
            assert pack in out

    def test_list_plugins_matches_live_registry(self, capsys):
        from repro.scenario import default_registry

        assert main(["check", "--list-plugins"]) == 0
        out = capsys.readouterr().out
        registry = default_registry()
        for kind in registry.kinds():
            for name in registry.names(kind):
                assert f"{kind}/{name}" in out


@pytest.mark.parametrize("rule", all_rules(), ids=lambda r: r.rule_id)
def test_every_rule_has_id_and_summary(rule):
    assert rule.rule_id.startswith("REP-")
    assert rule.summary
