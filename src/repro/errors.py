"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch any failure from this package with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event kernel or a model reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The simulation cannot make progress but processes are still waiting.

    Raised when the event queue drains while runtime operations (merge or
    stream operations waiting for data objects, flow-control-blocked splits)
    are still suspended.  This usually indicates a malformed flow graph or a
    routing function that sends data objects to the wrong thread.
    """


class FlowGraphError(ReproError):
    """A flow graph is structurally invalid (cycles, dangling edges...)."""


class RoutingError(ReproError):
    """A routing function produced an out-of-range or invalid thread index."""


class SerializationError(ReproError):
    """A data object could not be serialized or sized."""


class DeploymentError(ReproError):
    """Thread-to-node deployment is invalid or inconsistent."""


class MalleabilityError(ReproError):
    """An invalid dynamic allocation change was requested.

    Examples: removing a node that hosts no threads, removing more nodes
    than are allocated, or changing the allocation while a migration is
    already in flight.
    """


class CostModelError(ReproError):
    """A duration provider could not produce an estimate for an atomic step."""


class VerificationError(ReproError):
    """A numerical result failed verification (e.g. P@A != L@U)."""


class WorkerCrashError(ReproError):
    """A resident-pool worker process died while running a job.

    Raised as a ticket's failure once the pool's bounded retry budget is
    exhausted; ``attempts`` counts how many times the job was dispatched.
    """

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__(message)
        self.attempts = attempts


class DeadlineExceededError(ReproError):
    """A job overran its per-job deadline and was killed by the pool."""

    def __init__(self, message: str, deadline: float | None = None) -> None:
        super().__init__(message)
        self.deadline = deadline


class ServiceError(ReproError):
    """An HTTP error response from the scenario service (``repro serve``).

    Raised by :class:`repro.service.client.ServiceClient` for any non-2xx
    response; ``status`` is the HTTP status code and ``message`` the
    server's ``error`` text (the configuration loader's message for 400s).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
