"""The Dynamic Parallel Schedules (DPS) framework, reimplemented in Python.

DPS (Gerlach & Hersch, IPDPS 2003) describes parallel applications as
directed acyclic flow graphs of *operations* — leaf, split, merge and
stream — exchanging strongly typed *data objects* routed onto *DPS threads*
by user-defined routing functions.  Execution is macro-dataflow: fully
pipelined and asynchronous, with per-thread data-object queues and an
optional credit-based flow-control mechanism.

This reimplementation preserves the concepts the paper's simulator relies
on:

* operations are **generators**; every ``yield`` is an atomic-step boundary
  (the paper suspends OS threads at the same points),
* the runtime executes real application and framework code during
  simulation (routing functions, instance creation, flow control,
  malleability), which is what "direct execution" means,
* execution is backend-pluggable: the paper's simulator
  (:mod:`repro.sim`) and the ground-truth testbed (:mod:`repro.testbed`)
  drive the *same* runtime.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "DataObject": "repro.dps.data_objects",
        "Frame": "repro.dps.data_objects",
        "CountingSerializer": "repro.dps.serializer",
        "SerializedSizeInfo": "repro.dps.serializer",
        "payload_nbytes": "repro.dps.serializer",
        "Compute": "repro.dps.operations",
        "KernelSpec": "repro.dps.operations",
        "LeafOperation": "repro.dps.operations",
        "MergeOperation": "repro.dps.operations",
        "OperationContext": "repro.dps.operations",
        "Post": "repro.dps.operations",
        "RemoveThreads": "repro.dps.operations",
        "SplitOperation": "repro.dps.operations",
        "StreamOperation": "repro.dps.operations",
        "RoutingFunction": "repro.dps.routing",
        "RoundRobin": "repro.dps.routing",
        "Modulo": "repro.dps.routing",
        "Constant": "repro.dps.routing",
        "Broadcast": "repro.dps.routing",
        "ByMetaKey": "repro.dps.routing",
        "FlowGraph": "repro.dps.flowgraph",
        "VertexKind": "repro.dps.flowgraph",
        "Deployment": "repro.dps.deployment",
        "ThreadId": "repro.dps.deployment",
        "FlowControlConfig": "repro.dps.flow_control",
        "ExecutionBackend": "repro.dps.backend",
        "Runtime": "repro.dps.runtime",
        "RunResult": "repro.dps.runtime",
        "AllocationEvent": "repro.dps.malleability",
        "AllocationSchedule": "repro.dps.malleability",
        "Migration": "repro.dps.malleability",
        "MigrationPlanner": "repro.dps.malleability",
    },
)
