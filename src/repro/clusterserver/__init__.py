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
        "MalleableJob": "repro.clusterserver.workload",
        "amdahl_efficiency": "repro.clusterserver.workload",
        "lu_like_job": "repro.clusterserver.workload",
        "stencil_like_job": "repro.clusterserver.workload",
        "rampup_job": "repro.clusterserver.workload",
        "synthetic_workload": "repro.clusterserver.workload",
        "mixed_workload": "repro.clusterserver.workload",
        "ArrivalProcess": "repro.clusterserver.arrivals",
        "poisson_arrivals": "repro.clusterserver.arrivals",
        "bursty_arrivals": "repro.clusterserver.arrivals",
        "diurnal_arrivals": "repro.clusterserver.arrivals",
        "trace_arrivals": "repro.clusterserver.arrivals",
        "closed_stream": "repro.clusterserver.arrivals",
        "SloAggregator": "repro.clusterserver.metrics",
        "SloSummary": "repro.clusterserver.metrics",
        "Scheduler": "repro.clusterserver.scheduler",
        "StaticScheduler": "repro.clusterserver.scheduler",
        "FcfsScheduler": "repro.clusterserver.scheduler",
        "EquipartitionScheduler": "repro.clusterserver.scheduler",
        "AdaptiveEfficiencyScheduler": "repro.clusterserver.scheduler",
        "AdmissionControlScheduler": "repro.clusterserver.scheduler",
        "AutoscalingScheduler": "repro.clusterserver.scheduler",
        "ClusterServer": "repro.clusterserver.server",
        "ServerResult": "repro.clusterserver.server",
        "JobShard": "repro.clusterserver.sharded",
        "ShardedServer": "repro.clusterserver.sharded",
        "ShardStats": "repro.clusterserver.sharded",
    },
)
