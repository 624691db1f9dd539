"""The DPS simulator facade.

Assembles the paper's models — equal-share star network, even-share CPU
with communication costs — around the DPS runtime, runs an application,
and reports both the **predicted running time** of the application and the
**cost of the simulation itself** (wall time, events, memory), the
quantities contrasted in Table 1.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

from repro.apps.base import Application
from repro.cpumodel.base import CpuModel
from repro.cpumodel.shared import SharedCpuModel
from repro.cpumodel.commcost import CommCostModel
from repro.des.kernel import Kernel
from repro.dps.backend import ExecutionBackend
from repro.dps.runtime import DurationProvider, Runtime, RunResult
from repro.dps.trace import TraceLevel
from repro.netmodel.base import NetworkModel
from repro.netmodel.star import EqualShareStarNetwork
from repro.sim.platform import PlatformSpec
from repro.util.units import MB


@dataclass
class SimulationResult:
    """Prediction plus simulation-cost metrics for one simulated run."""

    #: the simulator's prediction of the application's running time [s]
    predicted_time: float
    #: full runtime result (trace, phases, allocation timeline)
    run: RunResult
    #: wall-clock time the simulation itself took on the host [s]
    simulation_wall_time: float
    #: peak traced memory during the simulation [bytes]; None if not measured
    simulation_peak_memory: Optional[float]
    #: number of kernel events dispatched (simulation cost proxy)
    events: int
    #: the runtime that executed the app (thread states, for verification)
    runtime: Optional["Runtime"] = None

    @property
    def simulation_peak_memory_mb(self) -> Optional[float]:
        """Peak traced memory in MB (None when not measured)."""
        if self.simulation_peak_memory is None:
            return None
        return self.simulation_peak_memory / MB


class DPSSimulator:
    """Runs DPS applications under the paper's performance models.

    Parameters
    ----------
    platform:
        Target machine characterization (network, CPU, comm costs).
    provider:
        Duration provider — direct execution or PDEXEC (see
        :mod:`repro.sim.providers`).
    trace_level:
        Execution detail to retain.
    network_factory:
        Override the network model class (ablation studies, scenario
        specs); defaults to the paper's :class:`EqualShareStarNetwork`.
    cpu_factory:
        Override the CPU model: a ``kernel -> CpuModel`` callable
        (scenario specs bind their registry entry here); defaults to the
        paper's :class:`SharedCpuModel` over the platform's
        communication costs.
    measure_memory:
        Track peak memory with :mod:`tracemalloc` (adds host overhead;
        used by the Table 1 bench).
    verify_incremental:
        Shadow every incremental update with a full recompute and raise on
        divergence (the equivalence-test mode; slow).  Applied to the
        default network and CPU models; a custom factory manages its own.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        provider: DurationProvider,
        trace_level: TraceLevel = TraceLevel.SUMMARY,
        network_factory: Optional[type] = None,
        measure_memory: bool = False,
        verify_incremental: bool = False,
        cpu_factory: Optional[Callable[[Kernel], "CpuModel"]] = None,
    ) -> None:
        self.platform = platform
        self.provider = provider
        self.trace_level = trace_level
        self.network_factory = network_factory
        self.cpu_factory = cpu_factory
        self.measure_memory = measure_memory
        self.verify_incremental = verify_incremental

    # ------------------------------------------------------------------ run
    def build_backend(self) -> ExecutionBackend:
        """Assemble kernel + models for one run (fresh every time)."""
        kernel = Kernel()
        if self.network_factory is not None:
            network: NetworkModel = self.network_factory(kernel, self.platform.network)
        else:
            network = EqualShareStarNetwork(
                kernel,
                self.platform.network,
                verify_incremental=self.verify_incremental,
            )
        if self.cpu_factory is not None:
            cpu: CpuModel = self.cpu_factory(kernel)
        else:
            cpu = SharedCpuModel(
                kernel,
                CommCostModel(self.platform.comm_cost),
                verify_incremental=self.verify_incremental,
            )
        return ExecutionBackend(
            kernel,
            cpu,
            network,
            local_delivery_delay=self.platform.local_delivery_delay,
        )

    def run(self, app: Application) -> SimulationResult:
        """Simulate ``app`` to completion."""
        if self.measure_memory:
            tracemalloc.start()
        wall_start = time.perf_counter()
        backend = self.build_backend()
        runtime = Runtime(
            app.build_graph(),
            app.build_deployment(),
            backend,
            self.provider,
            trace_level=self.trace_level,
            migration_planner=app.migration_planner(),
        )
        app.bootstrap(runtime)
        run_result = runtime.run()
        wall = time.perf_counter() - wall_start
        peak: Optional[float] = None
        if self.measure_memory:
            _, peak_traced = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak = float(peak_traced)
        return SimulationResult(
            predicted_time=run_result.makespan,
            run=run_result,
            simulation_wall_time=wall,
            simulation_peak_memory=peak,
            events=run_result.events_executed,
            runtime=runtime,
        )
