"""Processing power consumed by communication handling.

Paper, section 4: "Receiving data objects induces more interrupts and more
memory copies than sending data objects, and is thus more costly.  Moreover,
we noticed that the consumed processing power depends on the number of
outgoing and incoming communications."  And: "the required processing power
for communications must be measured separately and provided to the
simulator" — i.e. these are platform parameters characterized once.

The model charges a fraction of the node's processing power per concurrent
transfer, different for the incoming and outgoing directions, with
diminishing marginal cost (the k-th concurrent transfer costs
``fraction * decay^(k-1)``) and a hard saturation so communications can
never consume the whole CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_in_range


@dataclass(frozen=True)
class CommCostParams:
    """Platform parameters of the communication CPU-cost model.

    Defaults are representative of a late-90s TCP/IP stack on a 100 Mb/s
    NIC without interrupt coalescing, where sustaining a full-rate receive
    stream costs on the order of 10-20% of the CPU and sends roughly half
    of that.
    """

    recv_fraction: float = 0.12
    send_fraction: float = 0.05
    marginal_decay: float = 0.92
    max_fraction: float = 0.55

    def __post_init__(self) -> None:
        check_in_range("recv_fraction", self.recv_fraction, 0.0, 1.0)
        check_in_range("send_fraction", self.send_fraction, 0.0, 1.0)
        check_in_range("marginal_decay", self.marginal_decay, 0.0, 1.0)
        check_in_range("max_fraction", self.max_fraction, 0.0, 1.0)


#: Zero-cost parameters: communications are free (ablation switch).
FREE_COMMUNICATION = CommCostParams(
    recv_fraction=0.0, send_fraction=0.0, marginal_decay=1.0, max_fraction=0.0
)


class CommCostModel:
    """Maps concurrent transfer counts to consumed processing power.

    The law is a pure function of two small integers that the CPU model
    evaluates at every network refresh, so :meth:`available_power`
    computes each ``(incoming, outgoing)`` pair once.  ``params`` is
    read-only so the memo cannot go stale.
    """

    def __init__(self, params: CommCostParams | None = None) -> None:
        self._params = params or CommCostParams()
        self._available: dict[tuple[int, int], float] = {}

    @property
    def params(self) -> CommCostParams:
        """The platform parameters the law was built with."""
        return self._params

    def _direction_cost(self, count: int, fraction: float) -> float:
        """Sum of geometrically decaying per-transfer costs."""
        count = max(0, int(count))
        decay = self.params.marginal_decay
        if count == 0 or fraction == 0.0:
            return 0.0
        if decay == 1.0:
            return fraction * count
        return fraction * (1.0 - decay**count) / (1.0 - decay)

    def consumed_power(self, incoming: int, outgoing: int) -> float:
        """Fraction of the node's power consumed handling communications.

        ``incoming``/``outgoing`` are the numbers of concurrent transfers in
        each direction; the result saturates at ``max_fraction``.
        """
        cost = self._direction_cost(
            incoming, self.params.recv_fraction
        ) + self._direction_cost(outgoing, self.params.send_fraction)
        return min(self.params.max_fraction, cost)

    def available_power(self, incoming: int, outgoing: int) -> float:
        """Fraction of the node's power left for running operations."""
        key = (incoming, outgoing)
        power = self._available.get(key)
        if power is None:
            power = self._available[key] = 1.0 - self.consumed_power(
                incoming, outgoing
            )
        return power
