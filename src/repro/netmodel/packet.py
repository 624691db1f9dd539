"""Ground-truth network model for the virtual-cluster testbed.

The paper validates its simulator against *measurements on a real cluster*.
We do not have that cluster, so the testbed stands in for it (see DESIGN.md,
substitution table).  To make the comparison meaningful, this model must be
*richer* than the simulator's: it layers, on top of max-min fair sharing,

* **chunking** — messages are cut into MTU-sized chunks, each paying a
  per-chunk processing cost (interrupts, checksums), so the effective
  per-byte cost is slightly super-linear, as on real TCP/IP stacks;
* **ramp-up** — the first ``ramp_bytes`` of every connection drain at a
  reduced rate, a coarse stand-in for TCP slow start;
* **seeded noise** — latency jitter and a per-transfer throughput factor,
  representing cross traffic and OS scheduling of the network stack.

Everything stochastic derives from an explicit seed, so testbed
"measurements" are reproducible.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass

from repro.des.fluid import FluidPool, FluidTask
from repro.des.kernel import Kernel
from repro.netmodel.base import LinkComponentAllocator, NetworkModel, Transfer
from repro.errors import ConfigurationError
from repro.netmodel.params import NetworkParams
from repro.util.rng import SeedSequenceFactory
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class PacketNetworkParams:
    """Extra fidelity knobs of the testbed network.

    Parameters
    ----------
    mtu:
        Chunk size in bytes (Ethernet payload).
    per_chunk_cost:
        Extra fixed cost per chunk, expressed in *equivalent bytes* added to
        the transfer's drain work (models per-packet processing).
    ramp_bytes:
        Number of leading bytes drained at ``ramp_factor`` of the fair rate.
    ramp_factor:
        Rate multiplier during ramp-up, in (0, 1].
    latency_jitter:
        Standard deviation of multiplicative latency noise (lognormal-ish,
        implemented as ``1 + sigma * N(0,1)`` clipped to >= 0.2).
    rate_jitter:
        Standard deviation of the per-transfer throughput factor.
    """

    mtu: int = 1460
    per_chunk_cost: float = 18.0
    ramp_bytes: int = 16 * 1024
    ramp_factor: float = 0.55
    latency_jitter: float = 0.08
    rate_jitter: float = 0.03

    def __post_init__(self) -> None:
        check_positive("mtu", self.mtu)
        check_non_negative("per_chunk_cost", self.per_chunk_cost)
        check_non_negative("ramp_bytes", self.ramp_bytes)
        if not 0.0 < self.ramp_factor <= 1.0:
            raise ConfigurationError(
                f"ramp_factor must be in (0, 1], got {self.ramp_factor!r}"
            )
        check_non_negative("latency_jitter", self.latency_jitter)
        check_non_negative("rate_jitter", self.rate_jitter)


class IncrementalPacketAllocator(LinkComponentAllocator):
    """Dirty-set-bounded water-filling with per-transfer throughput jitter.

    Tasks are tagged ``(transfer, throughput_factor)``.  The fair rates are
    exactly the max-min water-filling solution of the flow/link graph —
    which decomposes over connected components — and the seeded throughput
    factor is a per-task multiplier applied afterwards, so both the
    component-restricted re-solve and the warm-started cascade re-solve
    inherited from :class:`~repro.netmodel.base.LinkComponentAllocator`
    stay exact (prefix flows keep ``fair_share * factor`` untouched).
    """

    def _flow(self, task: FluidTask) -> tuple[int, int, float]:
        transfer, throughput = task.tag
        return transfer.src, transfer.dst, throughput


class PacketLaw(NetworkModel):
    """The testbed's stochastic transfer law, written once for both backends.

    One seeded stream, two draws per transfer in a fixed order (latency
    jitter at submission, throughput factor at drain start), so the same
    seed yields the same "measurements" whether :meth:`_admit` hands the
    flow to a :class:`~repro.des.fluid.FluidPool` or to the SoA engine.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: NetworkParams,
        packet_params: PacketNetworkParams | None,
        seed: int,
    ) -> None:
        super().__init__(kernel, params)
        self.packet_params = packet_params or PacketNetworkParams()
        self._rng = SeedSequenceFactory(seed).rng("packet-network")

    def _start(self, transfer: Transfer) -> None:
        pp = self.packet_params
        jitter = 1.0 + pp.latency_jitter * float(self._rng.standard_normal())
        delay = self.params.effective_latency * max(0.2, jitter)
        # Armed even at zero latency: the hop is in the pinned event count.
        self.kernel.schedule_at(
            transfer.submitted_at + delay, self._begin_drain, transfer
        )

    def _begin_drain(self, transfer: Transfer) -> None:
        pp = self.packet_params
        chunks = max(1, -(-int(transfer.size) // pp.mtu)) if transfer.size else 0
        # Chunk processing inflates the work; ramp-up inflates the *leading*
        # work by draining it at a reduced rate, which we fold into extra
        # equivalent bytes so a single fluid task suffices.
        work = transfer.size + chunks * pp.per_chunk_cost
        ramped = min(work, float(pp.ramp_bytes))
        work += ramped * (1.0 / pp.ramp_factor - 1.0)
        throughput = 1.0 + pp.rate_jitter * float(self._rng.standard_normal())
        throughput = min(1.0, max(0.5, throughput))
        self._admit(transfer, work, throughput)

    @abstractmethod
    def _admit(self, transfer: Transfer, work: float, throughput: float) -> None:
        """Start draining ``work`` equivalent bytes at ``throughput`` × fair."""


class PacketNetwork(PacketLaw):
    """Chunked, noisy, max-min-fair star network (testbed ground truth).

    ``verify_incremental=True`` shadows every incremental update with a
    full solve and raises on divergence.
    """

    def __init__(
        self,
        kernel: Kernel,
        params: NetworkParams,
        packet_params: PacketNetworkParams | None = None,
        seed: int = 0,
        verify_incremental: bool = False,
        cascade_threshold: float = 0.5,
    ) -> None:
        super().__init__(kernel, params, packet_params, seed)
        self.allocator = IncrementalPacketAllocator(
            params.bandwidth,
            cascade_threshold=cascade_threshold,
            verify=verify_incremental,
        )
        self._pool = FluidPool(kernel, self.allocator, name="packet-network")

    def _admit(self, transfer: Transfer, work: float, throughput: float) -> None:
        self._pool.add(
            FluidTask(work, self._drain_done, tag=(transfer, throughput))
        )

    def _drain_done(self, task: FluidTask) -> None:
        self._finish(task.tag[0])
