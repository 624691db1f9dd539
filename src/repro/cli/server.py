"""The ``server`` subcommand: cluster-level scheduling comparison (paper §9).

Each requested policy becomes one
:class:`~repro.scenario.spec.ScenarioSpec` with the ``server`` engine
(sharded when ``--shards > 1``) executed through
:func:`~repro.scenario.runner.run_scenario`; the table is assembled from
the normalized :class:`~repro.scenario.runner.RunRecord` metrics.
"""

from __future__ import annotations

import argparse

from repro.analysis.tables import ascii_table
from repro.cli.common import write_records
from repro.errors import ConfigurationError
from repro.scenario import (
    AppSection,
    ClusterSection,
    EngineSection,
    ScenarioSpec,
    default_registry,
    run_scenario,
)


def add_server_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``server`` subcommand."""
    p = sub.add_parser(
        "server",
        help="cluster server with malleable jobs (the paper's future work)",
        description=(
            "Simulate a cluster serving a stream of malleable jobs under "
            "one or more scheduling policies, and compare turnaround, "
            "cluster efficiency and service rate."
        ),
    )
    p.add_argument("--nodes", type=int, default=16, help="cluster size")
    p.add_argument("--jobs", type=int, default=16, help="workload length")
    p.add_argument(
        "--interarrival", type=float, default=25.0,
        help="mean seconds between job arrivals",
    )
    p.add_argument(
        "--workload", choices=("lu", "mixed"), default="lu",
        help="lu: LU-like decaying jobs; mixed: adds stencil and ramp-up shapes",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME",
        help="policy to run (repeatable); default: all of "
             "static, fcfs, backfill, equipartition, adaptive",
    )
    p.add_argument(
        "--nodes-per-job", type=int, default=8,
        help="static policy's fixed per-job allocation",
    )
    p.add_argument(
        "--efficiency-floor", type=float, default=0.5,
        help="adaptive policy's marginal-efficiency threshold",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="partition the scenario over K shard kernels (sharded "
             "simulation; 1 = classic single-kernel run)",
    )
    p.add_argument(
        "--record-json",
        metavar="PATH",
        default=None,
        help="also write the normalized RunRecord(s) as a JSON list",
    )
    p.set_defaults(func=cmd_server)


def cmd_server(args: argparse.Namespace) -> int:
    """Simulate the workload under each requested policy and print a table."""
    if args.shards < 1:
        raise ConfigurationError("--shards must be >= 1")
    registry = default_registry()
    names = args.policy or [
        "static", "fcfs", "backfill", "equipartition", "adaptive"
    ]
    known = registry.names("policy")
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown policies {unknown}; choose from {known}"
        )
    shard_note = f", {args.shards} shards" if args.shards > 1 else ""
    print(
        f"{args.jobs} {args.workload} jobs on {args.nodes} nodes, "
        f"mean interarrival {args.interarrival:.0f} s, seed {args.seed}"
        f"{shard_note}\n"
    )
    records = []
    rows = []
    for name in names:
        spec = ScenarioSpec(
            name=f"server-{name}",
            app=AppSection(args.workload),
            engine=EngineSection(
                name="server",
                seed=args.seed,
                shards=args.shards,
            ),
            cluster=ClusterSection(
                nodes=args.nodes,
                arrivals={
                    "process": "poisson",
                    "mean_interarrival": args.interarrival,
                    "jobs": args.jobs,
                },
                policy=name,
                nodes_per_job=args.nodes_per_job,
                efficiency_floor=args.efficiency_floor,
            ),
        )
        record = run_scenario(spec, registry)
        records.append(record)
        result = record.raw["result"]
        stats = record.raw.get("stats")
        decisions = (
            f"{result.allocations} reallocations "
            f"({result.allocations_elided} elided)"
        )
        if stats is None:
            print(f"[{result.scheduler}] {result.events} events, {decisions}")
        else:
            print(
                f"[{result.scheduler}] {stats.epochs} epochs, {decisions}, "
                f"events/shard {list(stats.shard_events)}, "
                f"shard advance {stats.barrier_wait_s * 1e3:.1f} ms"
            )
        rows.append(
            (
                result.scheduler,
                f"{record.makespan:.1f}",
                f"{record.metrics['mean_turnaround']:.1f}",
                f"{record.metrics['mean_wait']:.1f}",
                f"{record.metrics['mean_slowdown']:.2f}",
                f"{record.metrics['cluster_efficiency'] * 100:.1f}%",
                f"{record.metrics['service_rate']:.3f}",
            )
        )
    print(
        ascii_table(
            (
                "policy",
                "makespan [s]",
                "turnaround [s]",
                "wait [s]",
                "slowdown",
                "cluster eff.",
                "service rate",
            ),
            rows,
        )
    )
    if args.record_json:
        write_records(args.record_json, records)
    return 0
