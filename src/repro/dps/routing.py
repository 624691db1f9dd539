"""Routing functions: mapping data objects onto DPS threads.

"The selection of the DPS thread on which an operation is to be executed is
accomplished by evaluating at runtime a user defined routing function
attached to the corresponding directed edge of the flow graph." — paper,
section 2.

A routing function receives the data object and the *current* size of the
destination thread group (which shrinks under dynamic allocation) and
returns a thread index in ``[0, group_size)``.  Returning an out-of-range
index raises :class:`~repro.errors.RoutingError` at evaluation time.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod

from repro.dps.data_objects import DataObject
from repro.errors import RoutingError


class RoutingFunction(ABC):
    """Base class: maps (data object, group size) to a thread index."""

    @abstractmethod
    def route(self, obj: DataObject, group_size: int) -> int:
        """Return the destination thread index in ``[0, group_size)``."""

    def __call__(self, obj: DataObject, group_size: int) -> int:
        if group_size <= 0:
            raise RoutingError("routing into an empty thread group")
        index = int(self.route(obj, group_size))
        if not 0 <= index < group_size:
            raise RoutingError(
                f"{type(self).__name__} produced index {index} outside "
                f"[0, {group_size})"
            )
        return index


class Constant(RoutingFunction):
    """Always route to a fixed index (clamped into the live group)."""

    def __init__(self, index: int = 0) -> None:
        self.index = int(index)

    def route(self, obj: DataObject, group_size: int) -> int:
        return self.index % group_size


class RoundRobin(RoutingFunction):
    """Cycle through the group's threads, one object at a time.

    The cycle counter is per routing-function instance, matching a DPS
    routing function holding its own distribution state.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()

    def route(self, obj: DataObject, group_size: int) -> int:
        return next(self._counter) % group_size


class Modulo(RoutingFunction):
    """Route by ``meta[key] % group_size`` — block-cyclic data ownership.

    This is the LU application's owner function: column block ``j`` lives
    on thread ``j % P``, and keeps living on thread ``j % P'`` after the
    group shrinks to ``P'`` threads (the migration plan moves the blocks).
    """

    def __init__(self, key: str, offset: int = 0) -> None:
        self.key = key
        self.offset = int(offset)

    def route(self, obj: DataObject, group_size: int) -> int:
        value = obj.get(self.key)
        if value is None:
            raise RoutingError(
                f"Modulo routing needs meta[{self.key!r}] on {obj.kind!r}"
            )
        return (int(value) + self.offset) % group_size


class Broadcast(RoutingFunction):
    """Marker routing: deliver a copy to every live thread of the group.

    The runtime recognises this type and fans the post out; ``route`` is
    never consulted for a single index.
    """

    def route(self, obj: DataObject, group_size: int) -> int:  # pragma: no cover
        raise RoutingError("Broadcast routing is expanded by the runtime")
