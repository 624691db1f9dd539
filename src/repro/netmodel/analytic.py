"""Contention-free analytic network model.

Every transfer completes after exactly ``l + s/b`` regardless of what else
is in flight.  This is the assumption of the simulators the paper contrasts
itself with ("assume that network contention is inexistent" — MPI-SIM,
COMPASS) and serves as the ablation baseline for the contention benches.
"""

from __future__ import annotations

from repro.netmodel.base import NetworkModel, Transfer


class AnalyticNetwork(NetworkModel):
    """``t = l + s/b`` with no interaction between concurrent transfers."""

    def _start(self, transfer: Transfer) -> None:
        duration = self.params.uncontended_time(transfer.size)
        self.kernel.schedule_at(
            transfer.submitted_at + duration, self._finish, transfer
        )
