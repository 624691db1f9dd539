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
