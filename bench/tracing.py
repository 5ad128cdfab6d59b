"""Spans recorded around the benchmark's calls into the library's layers.

A span has a name (``layer.function``), a start and end from
``time.perf_counter``, the index of the span that was open when it began,
and counts taken at the same boundary.  Everything stays in memory until
the run ends.  ``NullTracer`` has the same interface and records nothing,
so the untraced pipeline runs the same code with no bookkeeping.
"""

from __future__ import annotations

import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def count(self, key: str, value) -> None:
        self.counts[key] = value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
        }


class _OpenSpan:
    __slots__ = ("tracer", "span", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._open
        self.span = Span(name, stack[-1] if stack else None)
        self.index = len(tracer.spans)
        tracer.spans.append(self.span)

    def __enter__(self) -> Span:
        self.tracer._open.append(self.index)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    """In-memory span recorder; ``with tracer.span(name) as s:`` times a call."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def descendants(self, index: int) -> list[Span]:
        return [s for s in self.spans if self.is_under(s, index)]

    def total(self, name: str, within: int | None = None) -> float:
        """Seconds spent in spans called ``name`` (under span ``within``)."""
        return sum(
            s.seconds
            for s in self.spans
            if s.name == name and (within is None or self.is_under(s, within))
        )

    def is_under(self, span: Span, index: int) -> bool:
        p = span.parent
        while p is not None:
            if p == index:
                return True
            p = self.spans[p].parent
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, key, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in for untraced runs: no clock reads, nothing recorded."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN
