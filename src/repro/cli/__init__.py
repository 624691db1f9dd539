"""Command-line interface: ``python -m repro <command>``.

Commands
--------

* ``run`` — execute a declarative scenario spec (TOML/JSON) under its
  declared engine — the simulator (prediction), the virtual cluster
  (measurement) or the cluster server — and print the record with its
  per-phase dynamic efficiency (Fig. 11); the only way to run a scenario.
* ``scenarios list`` — show every registered app, model, provider,
  engine, workload and policy a spec may name.
* ``calibrate`` — characterize a network model's latency and bandwidth.
* ``cache`` — manage the on-disk calibration and kernel-benchmark caches
  (``clear`` / ``info [--json]``).
* ``graph SPEC`` — dump the flow graph a spec's ``[app]`` section builds.
* ``serve`` — long-lived scenario service: HTTP/JSON daemon over a
  resident worker pool with in-flight dedup and 429 backpressure.
* ``check`` — AST-based invariant linter enforcing the project's
  determinism, import-hygiene, concurrency and registry/spec/docs
  contracts (see ``docs/staticcheck.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cli.check import add_check_parser
from repro.cli.scenarios import add_run_parser, add_scenarios_parser
from repro.cli.service import add_serve_parser
from repro.cli.tools import (
    add_cache_parser,
    add_calibrate_parser,
    add_graph_parser,
)
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Simulator for parallel applications with dynamically varying "
            "compute node allocation (Schaeli, Gerlach, Hersch; IPPS 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_run_parser(sub)
    add_scenarios_parser(sub)
    add_calibrate_parser(sub)
    add_cache_parser(sub)
    add_graph_parser(sub)
    add_serve_parser(sub)
    add_check_parser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = ["main"]
