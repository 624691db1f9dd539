"""The testbed executor: produces "measured" running times.

Runs the *same* application object as the simulator, over the richer
ground-truth models.  The resulting makespan plays the role of the paper's
measurements on the real cluster; the simulator's prediction is compared
against it in every validation bench (Figs. 8-13).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.apps.base import Application
from repro.cpumodel.timeslice import TimesliceCpuModel
from repro.des.kernel import Kernel
from repro.dps.backend import ExecutionBackend
from repro.dps.operations import Compute, OperationContext
from repro.dps.runtime import DurationProvider, Runtime, RunResult
from repro.dps.trace import TraceLevel
from repro.netmodel.packet import PacketNetwork
from repro.testbed.cluster import VirtualCluster
from repro.testbed.noise import DEFAULT_KERNEL_BIAS, KernelBias, NoisySampler


class GroundTruthProvider(DurationProvider):
    """Atomic-step durations as the "real machine" produces them.

    Duration = profile prediction x systematic kernel bias x seeded
    per-invocation noise.  Kernels optionally really execute (payload
    correctness); their wall time is irrelevant — the virtual cluster is
    the timing authority.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        bias: Optional[KernelBias] = None,
        run_kernels: bool = True,
    ) -> None:
        self.cluster = cluster
        self.bias = bias or DEFAULT_KERNEL_BIAS
        self.run_kernels = run_kernels
        self._noise = NoisySampler(cluster.seed, self.bias.sigma)
        self.evaluations = 0

    def evaluate(self, compute: Compute, ctx: OperationContext) -> tuple[float, Any]:
        self.evaluations += 1
        spec = compute.spec
        base = self.cluster.machine.seconds_for(spec.flops, spec.working_set)
        duration = base * self.bias.factor(spec.name) * self._noise.sample()
        result = None
        if self.run_kernels and compute.fn is not None:
            result = compute.fn(*compute.args)
        return duration, result


@dataclass
class Measurement:
    """One "real execution" of an application on the virtual cluster."""

    #: the measured running time of the application [s]
    measured_time: float
    run: RunResult
    wall_time: float
    #: the runtime that executed the app (thread states, for verification)
    runtime: Optional[Runtime] = None


class TestbedExecutor:
    """Executes applications on the ground-truth virtual cluster."""

    __test__ = False  # starts with "Test" but is not a pytest class

    def __init__(
        self,
        cluster: VirtualCluster,
        bias: Optional[KernelBias] = None,
        run_kernels: bool = True,
        trace_level: TraceLevel = TraceLevel.SUMMARY,
        verify_incremental: bool = False,
    ) -> None:
        self.cluster = cluster
        self.bias = bias or DEFAULT_KERNEL_BIAS
        self.run_kernels = run_kernels
        self.trace_level = trace_level
        self.verify_incremental = verify_incremental

    def build_backend(self) -> ExecutionBackend:
        """Fresh kernel + ground-truth models for one measurement run."""
        kernel = Kernel()
        network = PacketNetwork(
            kernel,
            self.cluster.network,
            self.cluster.packet_params,
            seed=self.cluster.seed,
            verify_incremental=self.verify_incremental,
        )
        cpu = TimesliceCpuModel(
            kernel,
            self.cluster.timeslice_params,
            seed=self.cluster.seed,
            verify_incremental=self.verify_incremental,
        )
        return ExecutionBackend(kernel, cpu, network)

    def run(self, app: Application) -> Measurement:
        """Measure one execution of ``app`` on the virtual cluster."""
        wall_start = time.perf_counter()
        backend = self.build_backend()
        provider = GroundTruthProvider(
            self.cluster, self.bias, run_kernels=self.run_kernels
        )
        runtime = Runtime(
            app.build_graph(),
            app.build_deployment(),
            backend,
            provider,
            trace_level=self.trace_level,
            migration_planner=app.migration_planner(),
        )
        app.bootstrap(runtime)
        run_result = runtime.run()
        return Measurement(
            measured_time=run_result.makespan,
            run=run_result,
            wall_time=time.perf_counter() - wall_start,
            runtime=runtime,
        )
