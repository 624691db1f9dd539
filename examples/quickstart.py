#!/usr/bin/env python
"""Quickstart: define a DPS application, simulate it, read the prediction.

Builds the flow graph of an iterative Jacobi relaxation (stripes of the
grid trade halo rows with their neighbours every iteration), runs it
under the DPS simulator on the paper's cluster profile (440 MHz
UltraSparc II nodes on Fast Ethernet), and prints the predicted running
time plus the per-iteration dynamic efficiency.

Run:  python examples/quickstart.py
"""

from repro import (
    CostModelProvider,
    DPSSimulator,
    MachineCostModel,
    PAPER_CLUSTER,
    SimulationMode,
    StencilApplication,
    StencilConfig,
    dynamic_efficiency,
    mean_efficiency,
)


def main() -> None:
    # An application object carries everything an execution engine needs:
    # flow graph, deployment and initial data objects.  PDEXEC_NOALLOC
    # elides the grid itself: only sizes and durations are simulated.
    config = StencilConfig(
        n=1296,
        stripes=8,
        iterations=12,
        num_threads=8,
        num_nodes=4,
        mode=SimulationMode.PDEXEC_NOALLOC,
    )
    app = StencilApplication(config)

    # Partial direct execution: operation durations come from a cost model
    # over the target machine profile — the simulation runs in milliseconds
    # on this machine while predicting seconds on the 1996 cluster.
    simulator = DPSSimulator(
        PAPER_CLUSTER,
        CostModelProvider(MachineCostModel(PAPER_CLUSTER.machine)),
    )
    result = simulator.run(app)

    print(f"flow graph        : {app.build_graph().name}")
    print(f"deployment        : {config.num_threads} worker threads on "
          f"{config.num_nodes} nodes")
    print(f"predicted time    : {result.predicted_time:.2f} s "
          f"for {config.iterations} iterations")
    print(f"simulation cost   : {result.simulation_wall_time * 1e3:.1f} ms wall, "
          f"{result.events} events")
    print(f"mean efficiency   : {mean_efficiency(result.run) * 100:.1f}%")
    print()
    print("dynamic efficiency (per completed iteration):")
    for pe in dynamic_efficiency(result.run):
        bar = "#" * int(pe.efficiency * 40)
        print(f"  {pe.label:8s} {bar} {pe.efficiency * 100:5.1f}%")


if __name__ == "__main__":
    main()
