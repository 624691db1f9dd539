"""Parallel sample sort: an all-to-all exchange application for DPS.

A fourth application domain: sorting ``m`` keys across ``w`` worker
threads with the classic sample-sort structure —

1. *scatter*: the main thread cuts the input into ``w`` blocks;
2. *local sort*: each worker sorts its block and reports a regular sample
   (frame-paired split/merge: the sample merge closes the scatter split);
3. *splitter broadcast*: the main thread picks ``w - 1`` splitters and
   broadcasts them (the runtime's :class:`~repro.dps.routing.Broadcast`
   fan-out);
4. *all-to-all*: every worker partitions its sorted block and sends run
   ``j`` to worker ``j`` — the densest communication pattern of the apps
   in this repository, a deliberate stress of the star-contention model;
5. *merge*: each worker merges the ``w`` runs it received and the main
   thread concatenates the results.

Content dependence: the sizes of the all-to-all runs depend on the data.
Under ``PDEXEC_NOALLOC`` the application charges the *expected* uniform
run size instead — the paper restricts partial direct execution to
"programs whose parallel execution pattern does not depend on the content
of the computed data", and sample sort with regular sampling is close to
uniform, so the approximation stays honest (see the accuracy tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.apps.sort.kernels import (
    choose_splitters,
    local_sort_spec,
    merge_runs_spec,
    partition_by_splitters,
    partition_spec,
    sort_handling_spec,
)
from repro.dps.data_objects import DataObject
from repro.dps.deployment import Deployment
from repro.dps.flowgraph import FlowGraph
from repro.dps.operations import (
    Compute,
    LeafOperation,
    MergeOperation,
    Post,
    SplitOperation,
    StreamOperation,
)
from repro.dps.routing import Broadcast, Constant, Modulo
from repro.dps.runtime import Runtime
from repro.errors import ConfigurationError, VerificationError
from repro.sim.modes import SimulationMode


@dataclass(frozen=True)
class SampleSortConfig:
    """One parallel sample-sort run.

    ``m`` keys are distributed over ``num_threads`` workers;
    ``oversample`` controls how many samples each worker contributes
    (``oversample * (num_threads - 1)``, regularly spaced).
    """

    m: int = 1 << 14
    num_threads: int = 4
    num_nodes: int = 2
    oversample: int = 4
    mode: SimulationMode = SimulationMode.PDEXEC
    seed: int = 13

    def __post_init__(self) -> None:
        if self.m < self.num_threads:
            raise ConfigurationError(
                f"need at least one key per worker ({self.m} keys, "
                f"{self.num_threads} workers)"
            )
        if self.num_nodes < 1 or self.num_threads < self.num_nodes:
            raise ConfigurationError(
                "need >= 1 node and at least one worker thread per node"
            )
        if self.oversample < 1:
            raise ConfigurationError("oversample must be >= 1")

    @property
    def block(self) -> int:
        """Keys per worker block (the last block absorbs the remainder)."""
        return self.m // self.num_threads

    def block_size(self, i: int) -> int:
        """Keys in worker ``i``'s initial block."""
        if i == self.num_threads - 1:
            return self.m - self.block * (self.num_threads - 1)
        return self.block

    def node_of_worker(self, t: int) -> int:
        """Deployment rule: worker thread ``t`` lives on this node."""
        return t % self.num_nodes


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


class _Scatter(SplitOperation):
    """Cut the input into one block per worker."""

    def __init__(self, app: "SampleSortApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        """Cut the input into per-worker blocks and post them."""
        cfg = self.app.cfg
        data = self.app.data
        offset = 0
        for i in range(cfg.num_threads):
            size = cfg.block_size(i)
            payload = None
            if data is not None:
                payload = data[offset : offset + size].copy()
            offset += size
            yield Compute(sort_handling_spec(), None)
            yield Post(
                DataObject(
                    "block",
                    payload=payload,
                    meta={"i": i, "size": size},
                    declared_size=8.0 * size,
                )
            )


class _LocalSort(LeafOperation):
    """Sort the local block, keep it, report a regular sample."""

    def __init__(self, app: "SampleSortApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        """Sort the block locally, keep it, report a regular sample."""
        import numpy as np

        cfg = self.app.cfg
        i = obj.get("i")
        size = obj.get("size")
        block = obj.payload

        def kernel():
            return np.sort(block)

        sorted_block = yield Compute(
            local_sort_spec(size), kernel if block is not None else None
        )
        ctx.thread_state[("sorted", i)] = sorted_block
        count = cfg.oversample * max(cfg.num_threads - 1, 1)
        sample = None
        if sorted_block is not None and sorted_block.size:
            positions = (np.arange(1, count + 1) * sorted_block.size) // (count + 1)
            sample = sorted_block[np.minimum(positions, sorted_block.size - 1)].copy()
        yield Post(
            DataObject(
                "sample",
                payload=sample,
                meta={"i": i},
                declared_size=8.0 * count,
            )
        )


class _Splitters(MergeOperation):
    """Gather samples, choose splitters, broadcast them to all workers."""

    def __init__(self, app: "SampleSortApplication") -> None:
        self.app = app

    def initial_state(self, ctx) -> list:
        """Sample accumulator."""
        return []

    def combine(self, ctx, state, obj):
        """Collect one worker's sample."""
        yield Compute(sort_handling_spec(), None)
        if obj.payload is not None:
            state.append(obj.payload)

    def finalize(self, ctx, state):
        """Choose the splitters and broadcast them to every worker."""
        cfg = self.app.cfg
        splitters = None
        if state:
            import numpy as np

            pool = np.concatenate(state)

            def kernel():
                return choose_splitters(pool, cfg.num_threads)

            splitters = yield Compute(
                local_sort_spec(int(pool.size)), kernel
            )
        else:
            yield Compute(sort_handling_spec(), None)
        yield Post(
            DataObject(
                "splitters",
                payload=splitters,
                declared_size=8.0 * max(cfg.num_threads - 1, 0),
            )
        )


class _Partition(LeafOperation):
    """Cut the sorted local block and send run ``j`` to worker ``j``."""

    def __init__(self, app: "SampleSortApplication") -> None:
        self.app = app

    def run(self, ctx, obj):
        """Partition the sorted block; send run ``j`` to worker ``j``."""
        cfg = self.app.cfg
        i = ctx.thread_index
        block = None
        for key, value in list(ctx.thread_state.items()):
            if isinstance(key, tuple) and key[0] == "sorted":
                block = value
                i = key[1]
        splitters = obj.payload
        size = cfg.block_size(i)

        def kernel():
            return partition_by_splitters(block, splitters)

        runs = yield Compute(
            partition_spec(size, cfg.num_threads),
            kernel if (block is not None and splitters is not None) else None,
        )
        uniform = 8.0 * size / cfg.num_threads
        for j in range(cfg.num_threads):
            payload = None
            declared = uniform
            if runs is not None:
                payload = runs[j]
                declared = 8.0 * float(runs[j].size)
            yield Post(
                DataObject(
                    "run",
                    payload=payload,
                    meta={"src": i, "dest": j},
                    declared_size=declared,
                )
            )


class _Exchange(StreamOperation):
    """Per-destination gate: merge the ``w`` runs arriving at this worker."""

    def __init__(self, app: "SampleSortApplication") -> None:
        self.app = app

    def instance_key(self, obj: DataObject) -> Any:
        """One exchange instance per destination worker."""
        return obj.get("dest")

    def initial_state(self, ctx) -> dict:
        """Run accumulator for this destination."""
        return {"runs": [], "count": 0}

    def combine(self, ctx, state, obj):
        """Collect runs; merge and forward once all workers reported."""
        cfg = self.app.cfg
        yield Compute(sort_handling_spec(), None)
        state["count"] += 1
        if obj.payload is not None:
            state["runs"].append(obj.payload)
        if state["count"] != cfg.num_threads:
            return
        dest = obj.get("dest")
        runs = state["runs"]
        total = int(sum(run.size for run in runs)) if runs else 0

        def kernel():
            import numpy as np

            merged = np.concatenate([r for r in runs if r.size]) if total else np.empty(0)
            merged.sort(kind="mergesort")
            return merged

        expected = cfg.block_size(dest)
        merged = yield Compute(
            merge_runs_spec(total if runs else expected, cfg.num_threads),
            kernel if runs else None,
        )
        declared = 8.0 * (float(total) if runs else float(expected))
        yield Post(
            DataObject(
                "sorted_run",
                payload=merged,
                meta={"dest": dest},
                declared_size=declared,
            )
        )
        ctx.finish_instance()


class _Gather(StreamOperation):
    """Concatenate the per-worker sorted runs in destination order."""

    def __init__(self, app: "SampleSortApplication") -> None:
        self.app = app

    def instance_key(self, obj: DataObject) -> Any:
        """A single global gather instance."""
        return "gather"

    def initial_state(self, ctx) -> dict:
        """Sorted-run accumulator keyed by destination index."""
        return {}

    def combine(self, ctx, state, obj):
        """Assemble the final array once every run has arrived."""
        cfg = self.app.cfg
        yield Compute(sort_handling_spec(), None)
        state[obj.get("dest")] = obj.payload
        if len(state) != cfg.num_threads:
            return
        if all(v is not None for v in state.values()):
            import numpy as np

            self.app.result = np.concatenate(
                [state[j] for j in range(cfg.num_threads)]
            )
        ctx.finish_instance()


# --------------------------------------------------------------------------
# the application object
# --------------------------------------------------------------------------


class SampleSortApplication:
    """Parallel sample sort, runnable on any execution engine."""

    def __init__(self, cfg: SampleSortConfig) -> None:
        self.cfg = cfg
        self.data: Optional[np.ndarray] = None
        if cfg.mode.allocates:
            import numpy as np

            rng = np.random.default_rng(cfg.seed)
            self.data = rng.standard_normal(cfg.m)
        self.result: Optional[np.ndarray] = None
        self._runtime: Optional[Runtime] = None

    # --------------------------------------------------- Application proto
    def build_graph(self) -> FlowGraph:
        cfg = self.cfg
        g = FlowGraph(f"samplesort-m{cfg.m}-w{cfg.num_threads}")
        g.add_split("scatter", lambda: _Scatter(self), group="main")
        g.add_leaf("localsort", lambda: _LocalSort(self), group="workers")
        g.add_merge(
            "splitters", lambda: _Splitters(self), group="main", closes="scatter"
        )
        g.add_leaf("partition", lambda: _Partition(self), group="workers")
        g.add_keyed_stream("exchange", lambda: _Exchange(self), group="workers")
        g.add_keyed_stream("gather", lambda: _Gather(self), group="main")
        g.connect("scatter", "localsort", Modulo("i"))
        g.connect("localsort", "splitters", Constant(0))
        g.connect("splitters", "partition", Broadcast())
        g.connect("partition", "exchange", Modulo("dest"))
        g.connect("exchange", "gather", Constant(0))
        return g

    def build_deployment(self) -> Deployment:
        cfg = self.cfg
        dep = Deployment(cfg.num_nodes)
        dep.add_singleton("main", 0)
        dep.add_group(
            "workers",
            [cfg.node_of_worker(t) for t in range(cfg.num_threads)],
        )
        return dep

    def bootstrap(self, runtime: Runtime) -> None:
        self._runtime = runtime
        runtime.inject("scatter", DataObject("sort_job", meta={"m": self.cfg.m}))

    def migration_planner(self):
        return None

    # -------------------------------------------------------- verification
    def verify(self) -> None:
        """Check the distributed sort against ``np.sort``."""
        if self.data is None or self.result is None:
            raise VerificationError(
                "sample sort ran without payloads; nothing to verify"
            )
        if self.result.size != self.data.size:
            raise VerificationError(
                f"result has {self.result.size} keys, expected {self.data.size}"
            )
        import numpy as np

        expected = np.sort(self.data)
        if not np.array_equal(self.result, expected):
            raise VerificationError("sample sort produced an unsorted result")
