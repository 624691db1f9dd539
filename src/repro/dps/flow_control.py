"""Credit-based flow control.

"A flow control mechanism can be used to limit the number of data objects
in circulation between a split and the corresponding merge operation.  This
prevents split and stream operations from filling the data object queue of
the destination threads." — paper, section 2.

An emitting instance (split or stream) with ``max_in_flight = L`` may have
at most ``L`` posted objects that have not yet been *consumed* — i.e. whose
processing at the destination operation has not completed.  A post beyond
the limit suspends the emitting generator; completing the processing of one
of its objects returns a credit and resumes it.  Section 6 of the paper
applies exactly this to the streams generating multiplication requests,
enabling iterations to interleave (Fig. 6).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import ConfigurationError


class CreditAccount:
    """Outstanding-object accounting for one emitting instance."""

    __slots__ = ("limit", "outstanding", "_blocked")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(f"credit limit must be >= 1, got {limit}")
        self.limit = limit
        self.outstanding = 0
        self._blocked: deque[Callable[[], None]] = deque()

    @property
    def blocked_count(self) -> int:
        """Number of suspended emitters waiting for credits."""
        return len(self._blocked)

    def acquire(self) -> bool:
        """Take a credit if available; returns False when exhausted."""
        if self.outstanding < self.limit:
            self.outstanding += 1
            return True
        return False

    def wait(self, resume: Callable[[], None]) -> None:
        """Register a resume callback to run when a credit returns."""
        self._blocked.append(resume)

    def release(self) -> Optional[Callable[[], None]]:
        """Return a credit; hand back a resume callback to run, if any.

        The caller (runtime) is responsible for invoking the callback —
        returning it rather than calling it keeps lock-step control over
        when generators resume relative to the simulation clock.  The
        released credit is immediately re-acquired on behalf of the resumed
        emitter's pending post.
        """
        if self.outstanding <= 0:
            raise ConfigurationError("credit released but none outstanding")
        if self._blocked:
            # Credit transfers directly to the blocked emitter.
            return self._blocked.popleft()
        self.outstanding -= 1
        return None
