"""Scenario subcommands: ``repro run SPEC`` and ``repro scenarios list``.

``repro run`` executes one declarative scenario file (TOML or JSON, see
``docs/scenarios.md``) through :func:`~repro.scenario.runner.run_scenario`
and prints the normalized :class:`~repro.scenario.runner.RunRecord`;
``repro scenarios list`` shows every plugin the registry can resolve, so
a spec never has to be written blind.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis.tables import ascii_table
from repro.scenario import RunRecord, ScenarioSpec, default_registry, run_scenario


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------


def add_run_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``run`` subcommand."""
    p = sub.add_parser(
        "run",
        help="run a declarative scenario spec (TOML or JSON)",
        description=(
            "Load a scenario spec, execute it under its declared engine "
            "(simulator, testbed, or cluster server), and print the "
            "normalized run record with its per-phase dynamic efficiency."
        ),
    )
    p.add_argument("spec", help="path to a .toml or .json scenario spec")
    p.add_argument(
        "--json",
        action="store_true",
        help="print the run record as JSON instead of the report",
    )
    p.add_argument(
        "--record-json",
        metavar="PATH",
        default=None,
        help="also write the normalized RunRecord as a JSON list",
    )
    p.set_defaults(func=cmd_run)


def _print_record(record: RunRecord) -> None:
    """Human-readable report of one normalized run record."""
    print(
        f"scenario {record.scenario!r}: app={record.app} "
        f"engine={record.engine}"
    )
    print(f"makespan               : {record.makespan:.4f} s")
    print(f"wall time              : {record.wall_time_s:.4f} s")
    print(f"events                 : {record.events}")
    if record.verified is not None:
        print(f"verification           : {'OK' if record.verified else 'FAILED'}")
    if record.phases:
        rows = [
            (
                p.label,
                f"{p.duration:.4f} s",
                f"{p.mean_nodes:.2f}",
                f"{p.efficiency:.1%}",
            )
            for p in record.phases
        ]
        print()
        print(ascii_table(
            ("phase", "duration", "mean nodes", "efficiency"),
            rows,
            title="per-phase dynamic efficiency",
        ))
    if record.metrics:
        print()
        width = max(len(k) for k in record.metrics)
        for key in sorted(record.metrics):
            value = record.metrics[key]
            rendered = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {key:<{width}} : {rendered}")


def cmd_run(args: argparse.Namespace) -> int:
    """Load, execute and report one scenario spec."""
    spec = ScenarioSpec.from_file(args.spec)
    record = run_scenario(spec)
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:
        _print_record(record)
    if args.record_json:
        Path(args.record_json).write_text(
            json.dumps([record.to_dict()], indent=2, sort_keys=True),
            encoding="utf-8",
        )
    return 0


# --------------------------------------------------------------------------
# scenarios
# --------------------------------------------------------------------------


def add_scenarios_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``scenarios`` subcommand."""
    p = sub.add_parser(
        "scenarios",
        help="inspect the scenario plugin registry",
        description=(
            "Discovery for the declarative scenario API: list every "
            "registered app, model, provider, engine, workload and "
            "scheduling policy a spec may name."
        ),
    )
    scen_sub = p.add_subparsers(dest="scenarios_command", required=True)
    list_p = scen_sub.add_parser(
        "list", help="list registered plugins, one line per kind"
    )
    list_p.add_argument(
        "--kind",
        choices=None,
        default=None,
        help="restrict to one plugin kind (e.g. app, netmodel, engine)",
    )
    list_p.set_defaults(func=cmd_scenarios_list)


def cmd_scenarios_list(args: argparse.Namespace) -> int:
    """Print the registry contents, one ``kind : names`` line each.

    Plugins registered with a description (the arrival processes and
    scheduling policies, notably) get an indented ``name - summary``
    line under their kind.
    """
    registry = default_registry()
    kinds = registry.kinds()
    if args.kind is not None:
        # Validate through the registry so the error lists valid kinds.
        registry.names(args.kind)
        kinds = (args.kind,)
    for kind in kinds:
        names = registry.names(kind)
        print(f"{kind:<9}: {', '.join(names)}")
        described = [
            (name, registry.describe(kind, name))
            for name in names
            if registry.describe(kind, name)
        ]
        if described:
            width = max(len(name) for name, _ in described)
            for name, description in described:
                print(f"    {name:<{width}} - {description}")
    return 0
