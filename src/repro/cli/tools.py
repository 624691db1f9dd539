"""Tool subcommands: calibration, caches, trend pages, graph dump."""

from __future__ import annotations

import argparse

from repro.analysis.tables import ascii_table


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------


def add_calibrate_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``calibrate`` subcommand."""
    p = sub.add_parser(
        "calibrate",
        help="measure latency/bandwidth of a network model",
        description=(
            "Run the standard characterization experiment (t = l + s/b fit "
            "over single transfers) against a network model — the per-machine "
            "measurement the paper requires before simulating."
        ),
    )
    p.add_argument(
        "--target",
        choices=("testbed", "star"),
        default="testbed",
        help="testbed: the packet-level ground truth; star: the paper model",
    )
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--seed", type=int, default=99)
    p.set_defaults(func=cmd_calibrate)


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit (latency, bandwidth) of the chosen network model and print them."""
    from repro.netmodel.calibration import calibrate
    from repro.netmodel.packet import PacketNetwork
    from repro.netmodel.star import EqualShareStarNetwork
    from repro.sim.platform import PAPER_CLUSTER
    from repro.testbed.cluster import VirtualCluster

    if args.target == "testbed":
        cluster = VirtualCluster(num_nodes=args.nodes, seed=args.seed)
        factory = lambda kernel: PacketNetwork(  # noqa: E731
            kernel, cluster.network, cluster.packet_params, seed=args.seed
        )
    else:
        factory = lambda kernel: EqualShareStarNetwork(  # noqa: E731
            kernel, PAPER_CLUSTER.network
        )
    result = calibrate(factory)
    rows = [
        (size, f"{time * 1e3:.3f} ms")
        for size, time in zip(result.sizes, result.times)
    ]
    print(ascii_table(("size [B]", "transfer time"), rows,
                      title=f"calibration probes ({args.target})"))
    print(f"fitted latency   : {result.latency * 1e6:.1f} us")
    print(f"fitted bandwidth : {result.bandwidth / 1e6:.2f} MB/s")
    print(f"fit residual rms : {result.residual_rms * 1e6:.1f} us")
    return 0


# --------------------------------------------------------------------------
# cache
# --------------------------------------------------------------------------


def add_cache_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``cache`` subcommand."""
    p = sub.add_parser(
        "cache",
        help="manage the on-disk calibration and kernel-benchmark caches",
        description=(
            "Platform calibrations and kernel-benchmark sample tables are "
            "persisted under a user-cache directory (REPRO_CACHE_DIR, else "
            "~/.cache/repro-schaeli06) so repeated invocations skip the "
            "characterization experiment and the direct-execution warm-up."
        ),
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    clear_p = cache_sub.add_parser(
        "clear", help="delete every cached calibration and benchmark table"
    )
    clear_p.set_defaults(func=cmd_cache_clear)
    info_p = cache_sub.add_parser(
        "info", help="show the cache location, entries and on-disk sizes"
    )
    info_p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (families, entries, byte totals)",
    )
    info_p.set_defaults(func=cmd_cache_info)


def cmd_cache_clear(args: argparse.Namespace) -> int:
    """Delete every cached calibration and kernel-benchmark entry."""
    from repro.analysis import benchcache, calibcache

    removed = calibcache.clear()
    removed_bench = benchcache.clear()
    print(
        f"removed {removed} cached calibration(s) and {removed_bench} "
        f"kernel benchmark table(s) from {calibcache.cache_dir()}"
    )
    return 0


def _cache_family(paths) -> dict:
    """Entry names and byte sizes of one cache family.

    Sizes of entries that vanish mid-listing (a concurrent ``clear``)
    count as 0; the cache contract makes concurrent access harmless.
    """
    entries = []
    total = 0
    for path in paths:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        entries.append({"name": path.name, "bytes": size})
        total += size
    return {"entries": entries, "count": len(entries), "bytes": total}


def cmd_cache_info(args: argparse.Namespace) -> int:
    """Show both cache families' entries and on-disk sizes."""
    import json

    from repro.analysis import benchcache, calibcache

    families = {
        "calibrations": _cache_family(calibcache.entries()),
        "kernel_benches": _cache_family(benchcache.entries()),
    }
    if args.json:
        payload = {"directory": str(calibcache.cache_dir()), **families}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"cache directory : {calibcache.cache_dir()}")
    print(
        f"calibrations    : {families['calibrations']['count']} "
        f"({families['calibrations']['bytes']} B)"
    )
    print(
        f"kernel benches  : {families['kernel_benches']['count']} "
        f"({families['kernel_benches']['bytes']} B)"
    )
    for family in families.values():
        for entry in family["entries"]:
            print(f"  {entry['name']}  ({entry['bytes']} B)")
    return 0


# --------------------------------------------------------------------------
# trend
# --------------------------------------------------------------------------


def add_trend_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``trend`` subcommand."""
    p = sub.add_parser(
        "trend",
        help="render benchmark-history JSON into a static trend page",
        description=(
            "Read a directory of nightly benchmark artifacts "
            "(pytest-benchmark JSON files, one subdirectory or file per "
            "run) and write trend.md plus a self-contained trend.html "
            "with per-bench sparklines."
        ),
    )
    p.add_argument(
        "history", help="directory of bench-result JSON files (one run per "
        "subdirectory or per top-level file)",
    )
    p.add_argument(
        "--out", default="bench-trend",
        help="output directory for trend.md / trend.html",
    )
    p.add_argument(
        "--alert-threshold", type=float, default=None, metavar="PCT",
        help="fail (exit 3) when any bench's first→last median delta "
        "exceeds PCT percent; regressions are printed as GitHub "
        "::error annotations",
    )
    p.set_defaults(func=cmd_trend)


def cmd_trend(args: argparse.Namespace) -> int:
    """Render the trend pages; optionally gate on first→last regressions."""
    from pathlib import Path

    from repro.analysis.trend import load_history, regressions, write_trend_pages

    history = load_history(Path(args.history))
    labels, series = history
    md_path, html_path = write_trend_pages(
        Path(args.history), Path(args.out), history=history
    )
    print(f"{len(series)} benches over {len(labels)} run(s)")
    print(f"wrote {md_path}")
    print(f"wrote {html_path}")
    if args.alert_threshold is not None:
        flagged = regressions(labels, series, args.alert_threshold / 100.0)
        for name, delta in flagged:
            # GitHub Actions annotation syntax; plain noise elsewhere.
            print(
                f"::error title=bench regression::{name} is {delta:+.1%} "
                f"vs the first run (threshold {args.alert_threshold:.0f}%)"
            )
        if flagged:
            print(
                f"{len(flagged)} bench(es) regressed beyond "
                f"{args.alert_threshold:.0f}%"
            )
            return 3
        print(f"no regressions beyond {args.alert_threshold:.0f}%")
    return 0


# --------------------------------------------------------------------------
# graph
# --------------------------------------------------------------------------


def add_graph_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``graph`` subcommand."""
    p = sub.add_parser(
        "graph",
        help="dump an application's flow-graph structure",
        description="Print the vertices and edges of an application's flow graph.",
    )
    p.add_argument(
        "app",
        choices=("lu", "lu-pipelined", "stencil", "stencil-barrier", "sort", "matmul"),
    )
    p.set_defaults(func=cmd_graph)


def cmd_graph(args: argparse.Namespace) -> int:
    """Print the vertices and edges of the chosen application's flow graph."""
    from repro.apps.lu.app import LUApplication
    from repro.apps.lu.config import LUConfig
    from repro.apps.matmul import MatmulApplication, MatmulConfig
    from repro.apps.sort import SampleSortApplication, SampleSortConfig
    from repro.apps.stencil import StencilApplication, StencilConfig
    from repro.sim.modes import SimulationMode

    noalloc = SimulationMode.PDEXEC_NOALLOC
    builders = {
        "lu": lambda: LUApplication(LUConfig(n=648, r=216, mode=noalloc)),
        "lu-pipelined": lambda: LUApplication(
            LUConfig(n=648, r=216, pipelined=True, mode=noalloc)
        ),
        "stencil": lambda: StencilApplication(
            StencilConfig(n=16, stripes=2, iterations=2, num_threads=2,
                          num_nodes=2, mode=noalloc)
        ),
        "stencil-barrier": lambda: StencilApplication(
            StencilConfig(n=16, stripes=2, iterations=2, num_threads=2,
                          num_nodes=2, barrier=True, mode=noalloc)
        ),
        "sort": lambda: SampleSortApplication(
            SampleSortConfig(m=64, num_threads=2, num_nodes=2, mode=noalloc)
        ),
        "matmul": lambda: MatmulApplication(
            MatmulConfig(n=64, s=32, num_threads=2, num_nodes=2, mode=noalloc)
        ),
    }
    graph = builders[args.app]().build_graph()
    rows = [
        (v.name, v.kind.value, v.group,
         v.closes or "", v.max_in_flight or "")
        for v in graph.vertices.values()
    ]
    print(ascii_table(
        ("vertex", "kind", "group", "closes", "credits"),
        rows,
        title=f"flow graph {graph.name!r}",
    ))
    print()
    edge_rows = [
        (e.src, "->", e.dst, type(e.routing).__name__) for e in graph.edges
    ]
    print(ascii_table(("from", "", "to", "routing"), edge_rows, title="edges"))
    return 0
