"""Cluster server simulation — the paper's future work, implemented.

"In the future, we intend to extend the simulation framework in order to
simulate a cluster server running concurrently multiple, possibly
different applications whose allocations of compute nodes vary dynamically
over time." — paper, section 9.

This subpackage simulates such a server: malleable jobs characterized by
their **dynamic efficiency profiles** (as produced by the DPS simulator for
the LU application) arrive over time, and a scheduler decides how many
nodes each running job holds, reallocating on arrivals and departures.
The benches compare static allocation against dynamic-efficiency-aware
policies, quantifying the service-rate gains the paper argues for.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "JobSpec": "repro.clusterserver.workload",
        "amdahl_efficiency": "repro.clusterserver.workload",
        "synthetic_workload": "repro.clusterserver.workload",
        "StaticScheduler": "repro.clusterserver.scheduler",
        "FcfsScheduler": "repro.clusterserver.scheduler",
        "EquipartitionScheduler": "repro.clusterserver.scheduler",
        "AdaptiveEfficiencyScheduler": "repro.clusterserver.scheduler",
        "ClusterServer": "repro.clusterserver.server",
        "ShardedServer": "repro.clusterserver.sharded",
    },
)
