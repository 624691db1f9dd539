#!/usr/bin/env python
"""What-if studies with the parametric model (paper section 4).

"One may modify the bandwidth and latency parameters to evaluate the
benefits of a faster network, or reduce the duration of various operations
to identify the ones that should be optimized.  The simulator then becomes
a powerful tool for the optimization of parallel applications."

Every network below is one scenario spec: the same pipelined LU
prediction on the paper platform, with ``platform.options`` overriding the
interconnect's latency and bandwidth.  The list runs through
``run_records`` like any sweep; the same rows are pinned as the ``whatif``
section of ``benchmarks/fidelity.py``.  No spec key scales one kernel's
duration, so the kernel speed-up study is not offered.

Run:  python examples/whatif_network.py
"""

from repro.analysis.parallel import run_records
from repro.analysis.tables import ascii_table
from repro.netmodel.params import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.scenario import ScenarioSpec

LU = {"n": 2592, "r": 162, "num_threads": 8, "num_nodes": 8, "pipelined": True}

NETWORKS = {
    "Fast Ethernet (paper)": (FAST_ETHERNET.latency, FAST_ETHERNET.bandwidth),
    "Gigabit Ethernet": (GIGABIT_ETHERNET.latency, GIGABIT_ETHERNET.bandwidth),
    "Gigabit, zero latency": (0.0, GIGABIT_ETHERNET.bandwidth),
}
LATENCIES = (0.0, 80e-6, 500e-6)
BANDWIDTHS = (FAST_ETHERNET.bandwidth, GIGABIT_ETHERNET.bandwidth)


def spec(name: str, latency: float, bandwidth: float) -> ScenarioSpec:
    """The LU prediction on an interconnect with this latency and bandwidth."""
    return ScenarioSpec.from_dict({
        "name": name,
        "app": {"name": "lu", "options": LU},
        "engine": {"name": "sim", "mode": "noalloc"},
        "platform": {"options": {"latency": latency, "bandwidth": bandwidth}},
    })


def main() -> None:
    print(f"pipelined LU {LU['n']}x{LU['n']}, r={LU['r']}, 8 nodes\n")
    grid = [(l, b) for l in LATENCIES for b in BANDWIDTHS]
    specs = [spec(name, *network) for name, network in NETWORKS.items()]
    specs += [spec(f"l={l}, b={b}", l, b) for l, b in grid]
    times = [record.makespan for record in run_records(specs, jobs=1)]

    sweep, surface = times[: len(NETWORKS)], dict(zip(grid, times[len(NETWORKS):]))
    rows = [
        (name, f"{l * 1e6:.0f} us", f"{b / 1e6:.1f} MB/s", f"{t:.2f} s",
         f"{sweep[0] / t:.2f}x")
        for (name, (l, b)), t in zip(NETWORKS.items(), sweep)
    ]
    print(ascii_table(
        ("network", "latency", "bandwidth", "predicted", "speedup"),
        rows, title="what-if: interconnect sweep",
    ))
    print()
    print(ascii_table(
        ["lat \\ bw"] + [f"{b / 1e6:.1f} MB/s" for b in BANDWIDTHS],
        [[f"{l * 1e6:.0f} us"] + [f"{surface[l, b]:.2f} s" for b in BANDWIDTHS]
         for l in LATENCIES],
        title="what-if: (latency, bandwidth) grid",
    ))
    print()
    print("Reading: bandwidth, not latency, bounds this run — the network")
    print("sweep values a hardware upgrade before buying it.")


if __name__ == "__main__":
    main()
