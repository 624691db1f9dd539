"""The scenario service: ``repro serve`` as a long-lived daemon.

A stdlib-only asyncio HTTP/JSON front end
(:class:`~repro.service.server.ScenarioService`) over a resident worker
pool (:class:`~repro.service.pool.ResidentPool`): clients POST canonical
:class:`~repro.scenario.spec.ScenarioSpec` dicts and receive normalized
:class:`~repro.scenario.runner.RunRecord` JSON, with in-flight
deduplication by canonical spec key, bounded-queue backpressure (429),
priorities, queued-job cancellation, and warm shared caches across
requests.  See ``docs/service.md`` for the HTTP contract.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ServiceClient": "repro.service.client",
        "ServiceThread": "repro.service.server",
    },
)
