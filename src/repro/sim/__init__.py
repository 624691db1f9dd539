"""The paper's contribution: a direct-execution simulator for DPS applications.

The simulator executes the real DPS runtime (:mod:`repro.dps`) over the
paper's performance models — the equal-share star network and the
even-share CPU model with communication costs — and derives atomic-step
durations by

* **direct execution** (:class:`~repro.sim.providers.DirectExecutionProvider`):
  actually running the kernels and measuring them, scaled to the target
  machine, or
* **partial direct execution**
  (:class:`~repro.sim.providers.CostModelProvider`,
  :class:`~repro.sim.providers.MeasureFirstNProvider`): replacing
  computations by duration estimates, optionally eliding payload
  allocation entirely (NOALLOC).

:class:`~repro.sim.simulator.DPSSimulator` packages all of this behind the
"activate a compilation flag" experience of the paper: the same application
object runs under the simulator or under the ground-truth testbed.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "PlatformSpec": "repro.sim.platform",
        "PAPER_CLUSTER": "repro.sim.platform",
        "SimulationMode": "repro.sim.modes",
        "CostModel": "repro.sim.providers",
        "MachineCostModel": "repro.sim.providers",
        "TableCostModel": "repro.sim.providers",
        "CostModelProvider": "repro.sim.providers",
        "DirectExecutionProvider": "repro.sim.providers",
        "MeasureFirstNProvider": "repro.sim.providers",
        "DPSSimulator": "repro.sim.simulator",
        "SimulationResult": "repro.sim.simulator",
        "PhaseEfficiency": "repro.sim.efficiency",
        "dynamic_efficiency": "repro.sim.efficiency",
        "mean_efficiency": "repro.sim.efficiency",
        "utilization_timeline": "repro.sim.efficiency",
    },
)
