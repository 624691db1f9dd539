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
