#!/usr/bin/env python
"""The paper's test application: parallel block LU factorization.

Runs the LU application in every flow-graph variant of section 6 — basic,
pipelined (P), flow-controlled (FC) and parallel sub-block multiplication
(PM) — under both execution engines:

* the **testbed** (the stand-in for the paper's real cluster) produces
  *measured* running times,
* the **simulator** produces *predictions* using network parameters
  calibrated against that testbed,

then verifies the numerical result (P @ A == L @ U) of one allocating run.

Run:  python examples/lu_factorization.py
"""

from repro import (
    CostModelProvider,
    DPSSimulator,
    LUApplication,
    LUConfig,
    LUCostModel,
    SimulationMode,
    TestbedExecutor,
    VirtualCluster,
)
from repro.analysis.calibcache import calibrated_platform

N, R, NODES = 1296, 162, 4


def run_variant(name: str, platform, **variant) -> None:
    cfg = LUConfig(
        n=N, r=R, num_threads=NODES, num_nodes=NODES,
        mode=SimulationMode.PDEXEC_NOALLOC, **variant,
    )
    measured = TestbedExecutor(
        VirtualCluster(num_nodes=NODES, seed=1), run_kernels=False
    ).run(LUApplication(cfg))
    predicted = DPSSimulator(
        platform, CostModelProvider(LUCostModel(platform.machine, cfg.r))
    ).run(LUApplication(cfg))
    err = (predicted.predicted_time - measured.measured_time) / measured.measured_time
    print(
        f"  {name:10s} measured {measured.measured_time:7.2f} s   "
        f"predicted {predicted.predicted_time:7.2f} s   error {err * 100:+5.1f}%"
    )


def main() -> None:
    print(f"LU factorization of a {N}x{N} matrix, r={R}, {NODES} nodes")
    print("calibrating the simulator's network parameters on the testbed...")
    platform = calibrated_platform(VirtualCluster(num_nodes=NODES, seed=1))
    print(
        f"  -> latency {platform.network.latency * 1e6:.0f} us, "
        f"bandwidth {platform.network.bandwidth / 1e6:.2f} MB/s"
    )
    print()
    run_variant("basic", platform)
    run_variant("P", platform, pipelined=True)
    run_variant("P+FC", platform, pipelined=True, flow_control=8)
    run_variant("PM", platform, pm_subblock=R // 3)
    run_variant("P+PM+FC", platform, pipelined=True, pm_subblock=R // 3, flow_control=8)

    print()
    print("verifying numerics (smaller allocating run)...")
    cfg = LUConfig(
        n=240, r=48, num_threads=4, num_nodes=4, mode=SimulationMode.PDEXEC
    )
    app = LUApplication(cfg)
    sim = DPSSimulator(
        platform, CostModelProvider(LUCostModel(platform.machine, cfg.r), run_kernels=True)
    )
    result = sim.run(app)
    residual = app.verify(result.runtime)
    print(f"  P @ A == L @ U, relative residual {residual:.2e}  (OK)")


if __name__ == "__main__":
    main()
