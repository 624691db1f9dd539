"""repro — reproduction of *"A simulator for parallel applications with
dynamically varying compute node allocation"* (Schaeli, Gerlach, Hersch;
IPPS 2006).

Layers (bottom-up):

* :mod:`repro.des` — discrete-event kernel and fluid resource pools;
* :mod:`repro.netmodel`, :mod:`repro.cpumodel` — the paper's network and
  processing-power models plus their ground-truth counterparts;
* :mod:`repro.dps` — the DPS parallelization framework: flow graphs,
  split/merge/stream operations, routing functions, DPS threads, flow
  control and dynamic allocation;
* :mod:`repro.sim` — **the paper's contribution**: the direct-execution
  simulator with partial direct execution and dynamic efficiency;
* :mod:`repro.testbed` — the virtual cluster standing in for the paper's
  real testbed ("measurements");
* :mod:`repro.apps` — block LU factorization (the paper's test
  application), matrix multiplication, an image pipeline;
* :mod:`repro.clusterserver` — the paper's future work: a cluster serving
  multiple malleable applications;
* :mod:`repro.analysis` — metrics, prediction-error studies, sweeps.

``import repro`` itself loads nothing: the names below import their
defining module on first access (PEP 562), so a process pays for the
layers its run touches — numpy on the first seeded draw, scipy only under
direct execution or verification.  They are the names some caller outside
the tests imports from here; everything else is imported from its defining
module (``from repro.des.kernel import Kernel``).

Quickstart::

    from repro import (
        LUApplication, LUConfig, DPSSimulator, PAPER_CLUSTER,
        CostModelProvider, LUCostModel,
    )

    cfg = LUConfig(n=1296, r=162, num_threads=4, num_nodes=4)
    sim = DPSSimulator(
        PAPER_CLUSTER,
        CostModelProvider(LUCostModel(PAPER_CLUSTER.machine, cfg.r)),
    )
    result = sim.run(LUApplication(cfg))
    print(f"predicted running time: {result.predicted_time:.1f} s")
"""

from repro._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        # DPS
        "TraceLevel": "repro.dps.trace",
        "AllocationEvent": "repro.dps.malleability",
        "AllocationSchedule": "repro.dps.malleability",
        # simulator
        "DPSSimulator": "repro.sim.simulator",
        "SimulationMode": "repro.sim.modes",
        "PAPER_CLUSTER": "repro.sim.platform",
        "CostModelProvider": "repro.sim.providers",
        "MachineCostModel": "repro.sim.providers",
        "dynamic_efficiency": "repro.sim.efficiency",
        "mean_efficiency": "repro.sim.efficiency",
        # testbed
        "TestbedExecutor": "repro.testbed.executor",
        "VirtualCluster": "repro.testbed.cluster",
        # apps
        "LUApplication": "repro.apps.lu.app",
        "LUConfig": "repro.apps.lu.config",
        "LUCostModel": "repro.apps.lu.costs",
        "StencilApplication": "repro.apps.stencil.app",
        "StencilConfig": "repro.apps.stencil.app",
        "StencilCostModel": "repro.apps.stencil.kernels",
        "SampleSortApplication": "repro.apps.sort.app",
        "SampleSortConfig": "repro.apps.sort.app",
        "SampleSortCostModel": "repro.apps.sort.kernels",
        # cluster server
        "ClusterServer": "repro.clusterserver.server",
        "StaticScheduler": "repro.clusterserver.scheduler",
        "EquipartitionScheduler": "repro.clusterserver.scheduler",
        "AdaptiveEfficiencyScheduler": "repro.clusterserver.scheduler",
        "synthetic_workload": "repro.clusterserver.workload",
    },
)
