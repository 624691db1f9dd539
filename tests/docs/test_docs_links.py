"""Documentation link and reference integrity.

Walks every markdown file under ``docs/`` plus the repo-level ``README.md``
and fails on drift:

* **intra-repo links** — ``[text](relative/path)`` targets must exist
  (anchors are checked against the target's headings);
* **file references** — backticked paths like ``benchmarks/foo.py`` must
  exist relative to the repo root;
* **symbol references** — backticked dotted names like
  ``repro.netmodel.waterfill.maxmin_solve`` must import/resolve;
* **bench scripts named in source** — a ``benchmarks/*.py`` path in a
  ``src/`` docstring or comment must exist.

Keeping this in the tier-1 suite (and as a dedicated CI job) means a
rename or deletion cannot silently orphan the documentation.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

#: [text](target) — excluding images and absolute URLs.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
#: Backticked repo-relative file path (contains a slash, known suffix).
_FILE_REF_RE = re.compile(r"`([\w./-]+/[\w.-]+\.(?:py|md|yml|yaml|json))`")
#: Backticked dotted repro symbol, optionally with a trailing call/attr.
_SYMBOL_RE = re.compile(r"`(repro(?:\.\w+)+)`")
#: A bench script path as source files cite it (prose, not only backticks).
_BENCH_REF_RE = re.compile(r"\bbenchmarks/[\w./-]+\.py\b")


def _headings(path: Path) -> set[str]:
    """GitHub-style anchor slugs of a markdown file's headings."""
    anchors = set()
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip().lower()
            slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
            anchors.add(slug)
    return anchors


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_docs_exist(doc):
    assert doc.is_file(), f"expected documentation file {doc} is missing"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(doc):
    broken = []
    for target in _LINK_RE.findall(doc.read_text()):
        if "://" in target or target.startswith("mailto:"):
            continue
        path_part, _, anchor = target.partition("#")
        resolved = (
            (doc.parent / path_part).resolve() if path_part else doc.resolve()
        )
        if not resolved.exists():
            broken.append(f"{target} -> {resolved} (missing)")
            continue
        if anchor and resolved.suffix == ".md":
            if anchor not in _headings(resolved):
                broken.append(f"{target} (no heading for #{anchor})")
    assert not broken, f"{doc.name}: broken links:\n  " + "\n  ".join(broken)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_referenced_files_exist(doc):
    missing = []
    for ref in _FILE_REF_RE.findall(doc.read_text()):
        # Example/home paths in command output transcripts are not repo
        # references.
        if ref.startswith(("~", "/")):
            continue
        if not (REPO_ROOT / ref).exists():
            missing.append(ref)
    assert not missing, (
        f"{doc.name}: referenced files missing from the repo:\n  "
        + "\n  ".join(missing)
    )


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_referenced_symbols_resolve(doc):
    dead = []
    for dotted in set(_SYMBOL_RE.findall(doc.read_text())):
        parts = dotted.split(".")
        obj = None
        # Longest importable module prefix, then attribute walk.
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                for attr in parts[cut:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                obj = None
            break
        if obj is None:
            dead.append(dotted)
    assert not dead, (
        f"{doc.name}: documented symbols that no longer resolve:\n  "
        + "\n  ".join(sorted(dead))
    )


def test_bench_scripts_named_in_source_exist():
    missing = sorted(
        f"{source.relative_to(REPO_ROOT)}: {ref}"
        for source in (REPO_ROOT / "src").rglob("*.py")
        for ref in _BENCH_REF_RE.findall(source.read_text(encoding="utf-8"))
        if not (REPO_ROOT / ref).exists()
    )
    assert not missing, "source cites bench scripts that do not exist:\n  " + (
        "\n  ".join(missing)
    )
