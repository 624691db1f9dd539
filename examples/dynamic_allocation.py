#!/usr/bin/env python
"""Dynamic node allocation: the paper's headline experiment (Figs. 11-12).

The LU factorization's per-iteration work decays cubically, so late
iterations waste most of an 8-node allocation.  This example reproduces
the paper's strategy comparison: keep 8 nodes, keep 4, or *remove* nodes
mid-run ("kill 4 after iteration 1"), printing running time, per-iteration
dynamic efficiency and the allocation timeline.

Run:  python examples/dynamic_allocation.py
"""

from repro import (
    AllocationEvent,
    AllocationSchedule,
    CostModelProvider,
    DPSSimulator,
    LUApplication,
    LUConfig,
    LUCostModel,
    SimulationMode,
    dynamic_efficiency,
    mean_efficiency,
)
from repro.analysis.calibcache import calibrated_platform
from repro.testbed.cluster import VirtualCluster

N, R = 2592, 324

STRATEGIES = {
    "8 nodes, static": dict(num_threads=8, num_nodes=8),
    "4 nodes, static": dict(num_threads=4, num_nodes=4),
    "kill 4 after it. 1": dict(
        num_threads=8,
        num_nodes=8,
        schedule=AllocationSchedule(
            events=(AllocationEvent("iter1", "workers", (4, 5, 6, 7)),),
            name="kill4@1",
        ),
    ),
    "kill 2@2 + 2@3": dict(
        num_threads=8,
        num_nodes=8,
        schedule=AllocationSchedule(
            events=(
                AllocationEvent("iter2", "workers", (6, 7)),
                AllocationEvent("iter3", "workers", (4, 5)),
            ),
            name="kill2+2",
        ),
    ),
}


def main() -> None:
    platform = calibrated_platform(VirtualCluster(num_nodes=8, seed=1))
    print(f"LU {N}x{N}, r={R}, basic flow graph (simulator predictions)\n")
    for name, kw in STRATEGIES.items():
        cfg = LUConfig(n=N, r=R, mode=SimulationMode.PDEXEC_NOALLOC, **kw)
        sim = DPSSimulator(
            platform, CostModelProvider(LUCostModel(platform.machine, cfg.r))
        )
        result = sim.run(LUApplication(cfg))
        print(f"{name}")
        print(f"  running time    : {result.predicted_time:7.1f} s")
        print(f"  mean efficiency : {mean_efficiency(result.run) * 100:6.1f}%")
        timeline = " -> ".join(
            f"{len(nodes)} nodes @ {t:.1f}s"
            for t, nodes in result.run.allocation_timeline
        )
        print(f"  allocation      : {timeline}")
        effs = dynamic_efficiency(result.run)
        series = "  ".join(f"{pe.efficiency * 100:4.1f}" for pe in effs)
        print(f"  efficiency/iter : {series}")
        print()
    print(
        "Reading: removing half the nodes after iteration 1 costs little\n"
        "time but returns 4 nodes to the cluster for ~75% of the run —\n"
        "the service-rate argument of the paper's section 8."
    )


if __name__ == "__main__":
    main()
