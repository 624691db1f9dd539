"""Span recorder for the ledger's traced repetition.

Spans are recorded from the benchmark's side of each layer boundary: a
callable of the program is replaced, by attribute assignment on the class
or module that owns it, with a wrapper that notes name, start, end and the
span that was open when it started.  Nothing under
``src/`` changes; spans inside the program are a later change (ROADMAP
item 4).  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional

# A span is a list so the wrapper can fill in the end time in place:
# [name, start, end, parent span or None, probe delta].
NAME, START, END, PARENT, COUNT = range(5)


def defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose body defines ``attr``."""
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: Optional[list] = None
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def traced(
        self,
        name: str,
        fn: Callable,
        probe: Optional[Callable[[tuple], float]] = None,
        adapt: Optional[Callable[[tuple], tuple]] = None,
    ) -> Callable:
        """``fn`` wrapped so that every call records one span.

        ``probe(args)`` is read before and after the call and the
        difference stored with the span (an event counter, say);
        ``adapt(args)`` may substitute the positional arguments.
        """
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if adapt is not None:
                args = adapt(args)
            parent = self._open
            before = probe(args) if probe is not None else 0
            span = [name, clock(), 0.0, parent, 0]
            self._open = span
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                if probe is not None:
                    span[COUNT] = probe(args) - before
                self._open = parent
                spans.append(span)

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (class or module attribute) with a traced twin."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            twin: Any = classmethod(self.traced(name, raw.__func__, **hooks))
        else:
            twin = self.traced(name, raw, **hooks)
        setattr(owner, attr, twin)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def iterate(self, name: str, iterable) -> "_SpanIterator":
        """``iterable`` with one span per item pulled from it."""
        return _SpanIterator(self.traced(name, iter(iterable).__next__))

    # ---------------------------------------------------------- aggregation
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, probe sum.

        Self time is a span's duration minus its direct children's; a span
        nested inside one of the same name adds to ``calls`` and ``self_s``
        but not again to ``total_s``.
        """
        self_s = {id(s): s[END] - s[START] for s in self.spans}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                self_s[id(parent)] -= span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(
                span[NAME],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0},
            )
            row["calls"] += 1
            row["self_s"] += self_s[id(span)]
            row["count"] += span[COUNT]
            ancestor = span[PARENT]
            while ancestor is not None and ancestor[NAME] != span[NAME]:
                ancestor = ancestor[PARENT]
            if ancestor is None:
                row["total_s"] += span[END] - span[START]
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: id, name, start, end, parent id."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = span[PARENT]
                json.dump(
                    [
                        ids[id(span)],
                        span[NAME],
                        span[START],
                        span[END],
                        # A parent still open when the run ended was never
                        # appended; it has no id.
                        ids.get(id(parent)) if parent is not None else None,
                    ],
                    handle,
                )
                handle.write("\n")


class _SpanIterator:
    def __init__(self, step: Callable[[], Any]) -> None:
        self._step = step

    def __iter__(self) -> "_SpanIterator":
        return self

    def __next__(self) -> Any:
        return self._step()
