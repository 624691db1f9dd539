"""The ground-truth virtual cluster: the stand-in for the paper's testbed.

The paper validates its simulator against measurements on a real cluster
of Sun workstations.  Without that hardware, this subpackage provides the
"reality" being predicted: the same DPS runtime executed under strictly
richer models — max-min-fair chunked networking with seeded jitter
(:class:`~repro.netmodel.packet.PacketNetwork`), timesliced CPUs with
context-switch overhead and OS noise
(:class:`~repro.cpumodel.timeslice.TimesliceCpuModel`), and per-kernel
systematic speed deviations from the machine profile
(:class:`~repro.testbed.executor.GroundTruthProvider`).

Prediction error in the reproduction therefore has the same character as
in the paper: genuine model mismatch plus run-to-run noise, not a model
compared against itself.
"""
