"""``repro check`` — run the static invariant linter.

Checks the named paths (default: whichever of ``src``, ``benchmarks``,
``examples`` exist) against the rule pack in
:mod:`repro.staticcheck`.  Exit codes: 0 clean, 1 findings, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.errors import ConfigurationError

DEFAULT_PATHS = ("src", "benchmarks", "examples")


def add_check_parser(sub) -> None:
    """Register the ``check`` subcommand."""
    p = sub.add_parser(
        "check",
        help="statically check the tree against the project's invariants",
        description=(
            "AST-based invariant linter: determinism (REP-D), optional-"
            "import hygiene (REP-I), concurrency (REP-C) and registry/"
            "spec/docs consistency (REP-R). See docs/staticcheck.md."
        ),
    )
    p.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=(
            "files or directories to check (default: those of "
            f"{', '.join(DEFAULT_PATHS)} that exist)"
        ),
    )
    p.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help=(
            "only run rules matching this id or id prefix (repeatable; "
            "e.g. --rule REP-D selects the determinism pack)"
        ),
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit findings as a JSON document instead of one-liners",
    )
    p.add_argument(
        "--github", action="store_true",
        help="emit findings as GitHub Actions ::error annotations",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="list every rule id and summary, then exit",
    )
    p.add_argument(
        "--list-plugins", action="store_true",
        help=(
            "list the live default-registry plugin inventory REP-R001 "
            "checks against, then exit"
        ),
    )
    p.set_defaults(func=cmd_check)


def cmd_check(args: argparse.Namespace) -> int:
    """Entry point for ``repro check``."""
    from repro.staticcheck import all_rules, run_check

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.summary}")
        return 0
    if args.list_plugins:
        from repro.scenario import default_registry

        registry = default_registry()
        for kind in registry.kinds():
            for name in registry.names(kind):
                print(f"{kind}/{name}")
        return 0

    if args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [str(p) for p in paths if not p.exists()]
        if missing:
            raise ConfigurationError(
                f"no such file or directory: {', '.join(missing)}"
            )
    else:
        paths = [Path(p) for p in DEFAULT_PATHS if Path(p).exists()]
        if not paths:
            raise ConfigurationError(
                "none of the default paths "
                f"({', '.join(DEFAULT_PATHS)}) exist here; name paths "
                "explicitly"
            )

    try:
        result = run_check(paths, rules, only=args.rule)
    except ValueError as exc:  # unknown --rule selector
        raise ConfigurationError(str(exc)) from exc

    if args.json:
        print(result.to_json())
    else:
        for finding in result.findings:
            print(
                finding.render_github() if args.github else finding.render()
            )
        noun = "file" if result.files_checked == 1 else "files"
        print(
            f"repro check: {result.files_checked} {noun}, "
            f"{len(result.findings)} finding(s)"
        )
    return 0 if result.ok else 1
