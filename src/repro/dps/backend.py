"""Execution backends: where atomic steps actually take time.

The runtime produces two kinds of atomic steps — compute steps and data
transfers — and is agnostic about how long they take.  A backend binds them
to a kernel, a CPU model and a network model.  The paper's simulator and
the ground-truth testbed are both backends over the same runtime, which is
the reproduction of "the real and simulated applications may be run
identically" (section 3).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cpumodel.base import CpuModel
from repro.des.kernel import Kernel
from repro.netmodel.base import NetworkModel
from repro.util.validation import check_non_negative


class ExecutionBackend:
    """Binds runtime atomic steps to concrete CPU and network models.

    Parameters
    ----------
    kernel:
        The discrete-event kernel (owns the clock).
    cpu:
        CPU model executing compute steps.
    network:
        Network model carrying inter-node transfers.
    local_delivery_delay:
        Fixed cost of delivering a data object between threads of the same
        node (queue management, no serialization), in seconds.
    """

    def __init__(
        self,
        kernel: Kernel,
        cpu: CpuModel,
        network: NetworkModel,
        local_delivery_delay: float = 2e-6,
    ) -> None:
        self.kernel = kernel
        self.cpu = cpu
        self.network = network
        self.local_delivery_delay = check_non_negative(
            "local_delivery_delay", local_delivery_delay
        )
        cpu.attach_network(network)

    # ------------------------------------------------------------------ api
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.kernel._now

    def submit_compute(
        self,
        node: int,
        seconds: float,
        on_complete: Callable[[Any], None],
        tag: Any = None,
    ) -> None:
        """Run a compute step of uncontended duration ``seconds`` on ``node``.

        ``on_complete`` receives the CPU model's
        :class:`~repro.cpumodel.base.CpuTaskHandle`.
        """
        self.cpu.submit(node, seconds, on_complete, tag)

    def submit_transfer(
        self,
        src: int,
        dst: int,
        size: float,
        on_complete: Callable[[Any], None],
        tag: Any = None,
    ) -> None:
        """Move ``size`` bytes ``src -> dst``; same-node moves are local.

        ``on_complete`` receives the network's
        :class:`~repro.netmodel.base.Transfer`, or ``None`` for a local
        delivery.
        """
        if src == dst:
            kernel = self.kernel
            kernel.schedule_at(
                kernel._now + self.local_delivery_delay, on_complete, None
            )
        else:
            self.network.submit(src, dst, size, on_complete, tag)
