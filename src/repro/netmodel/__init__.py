"""Network models.

The paper estimates an uncontended transfer as ``t = l + s/b`` and resolves
contention with a star-topology fluid model in which every concurrent
incoming (resp. outgoing) transfer of a node receives an equal share of the
node's full-duplex link bandwidth; the central crossbar is never a
bottleneck.  This subpackage provides that model
(:class:`~repro.netmodel.star.EqualShareStarNetwork`), the contention-free
analytic baseline (:class:`~repro.netmodel.analytic.AnalyticNetwork`), a
max-min fair variant used for ablations
(:class:`~repro.netmodel.maxmin.MaxMinStarNetwork`), a finite-backplane
switch that relaxes the never-a-bottleneck assumption
(:class:`~repro.netmodel.backplane.BackplaneStarNetwork`), and the
finer-grained noisy model used by the ground-truth testbed
(:class:`~repro.netmodel.packet.PacketNetwork`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "Link": "repro.netmodel.waterfill",
        "MaxMinSolution": "repro.netmodel.waterfill",
        "maxmin_solve": "repro.netmodel.waterfill",
        "NetworkParams": "repro.netmodel.params",
        "NetworkModel": "repro.netmodel.base",
        "StarFlowAllocator": "repro.netmodel.base",
        "LinkComponentAllocator": "repro.netmodel.base",
        "Transfer": "repro.netmodel.base",
        "AnalyticNetwork": "repro.netmodel.analytic",
        "BackplaneStarNetwork": "repro.netmodel.backplane",
        "EqualShareStarNetwork": "repro.netmodel.star",
        "MaxMinStarNetwork": "repro.netmodel.maxmin",
        "PacketNetwork": "repro.netmodel.packet",
        "PacketNetworkParams": "repro.netmodel.packet",
        "CalibrationResult": "repro.netmodel.calibration",
        "calibrate": "repro.netmodel.calibration",
    },
)
