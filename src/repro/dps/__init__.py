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
