"""Processing-power models.

Section 4 of the paper: "Receiving data objects induces more interrupts and
more memory copies than sending data objects, and is thus more costly.
Moreover, the consumed processing power depends on the number of outgoing
and incoming communications. [...] The processing power not used for
communications is shared evenly among all running operations."

This subpackage provides

* :class:`~repro.cpumodel.machines.MachineProfile` — flops-to-seconds
  conversion with a cache-dependent efficiency curve,
* :class:`~repro.cpumodel.commcost.CommCostModel` — processing power
  consumed by concurrent communications,
* :class:`~repro.cpumodel.shared.SharedCpuModel` — the paper's even-sharing
  model, and
* :class:`~repro.cpumodel.timeslice.TimesliceCpuModel` — the testbed's
  finer model with context-switch overhead and seeded OS noise.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "MachineProfile": "repro.cpumodel.machines",
        "ULTRASPARC_II_440": "repro.cpumodel.machines",
        "PENTIUM4_2800": "repro.cpumodel.machines",
        "MODERN_XEON": "repro.cpumodel.machines",
        "CommCostModel": "repro.cpumodel.commcost",
        "CommCostParams": "repro.cpumodel.commcost",
        "CpuModel": "repro.cpumodel.base",
        "CpuTaskHandle": "repro.cpumodel.base",
        "NodeSlicedAllocator": "repro.cpumodel.base",
        "SharedCpuModel": "repro.cpumodel.shared",
        "TimesliceCpuModel": "repro.cpumodel.timeslice",
        "TimesliceParams": "repro.cpumodel.timeslice",
    },
)
