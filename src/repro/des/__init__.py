"""Discrete-event simulation kernel.

This subpackage is the shared substrate for both the paper's simulator
(:mod:`repro.sim`) and the ground-truth virtual cluster
(:mod:`repro.testbed`).  It provides

* :class:`~repro.des.event_queue.EventQueue` — a cancellable binary-heap
  event queue with stable FIFO tie-breaking,
* :class:`~repro.des.kernel.Kernel` — the simulation clock and run loop, and
* fluid (rate-based) task pools (:mod:`repro.des.fluid`) used by the
  contention-aware network and CPU models.
"""
