"""In-memory span recorder and self-time arithmetic for the traced run.

A span is one timed call into a layer: ``name``, ``start``, ``end``, the
span that caused it (``parent``) and the ``trace_id`` of the step, batch
or request it belongs to.  Spans stay in memory while the workload runs
and are summarized (or dumped) when it ends.

Nesting follows a :mod:`contextvars` variable, so each thread nests its
own spans.  A span may also be started on one thread and finished on
another, or parented explicitly to a span owned by another thread (the
router's supervisor thread resolving a request the load generator
submitted); self-time arithmetic only looks at intervals and parent ids,
so such spans need no special casing.

A span's **self time** is its duration minus the part of its interval
that its children cover.  Children may overlap each other (two threads
working for the same parent); the covered part is the length of the
union of the children's intervals, clipped to the parent's.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: object
    parent: int | None
    start: float
    end: float | None = None
    thread: int = 0

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} ({self.span_id}) never finished")
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; nothing leaves memory until asked."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_current_span", default=None
        )

    def current(self) -> Span | None:
        return self._current.get()

    def start(self, name: str, trace_id=None, parent: Span | None = None,
              at: float | None = None) -> Span:
        """Open a span; parent defaults to this thread's current span."""
        if parent is None:
            parent = self._current.get()
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        with self._lock:
            span = Span(
                span_id=next(self._ids),
                name=name,
                trace_id=trace_id,
                parent=None if parent is None else parent.span_id,
                start=self.clock() if at is None else at,
                thread=threading.get_ident(),
            )
            self.spans.append(span)
        return span

    def finish(self, span: Span, at: float | None = None) -> None:
        span.end = self.clock() if at is None else at

    def activate(self, span: Span | None):
        """Make ``span`` this thread's current span; returns a reset token."""
        return self._current.set(span)

    def deactivate(self, token) -> None:
        self._current.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, trace_id=None, parent: Span | None = None):
        """Time the block as a span and make it the thread's current span."""
        opened = self.start(name, trace_id=trace_id, parent=parent)
        token = self.activate(opened)
        try:
            yield opened
        finally:
            self.deactivate(token)
            self.finish(opened)

    def finished(self) -> list[Span]:
        with self._lock:
            return [span for span in self.spans if span.end is not None]

    def dump(self) -> list[dict]:
        """Plain records of every finished span, for writing out."""
        return [
            {
                "id": s.span_id, "name": s.name, "trace": s.trace_id,
                "parent": s.parent, "start": s.start, "end": s.end,
                "thread": s.thread,
            }
            for s in self.finished()
        ]


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """``span_id -> self time``: duration minus the union of child intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        result[span.span_id] = span.duration - covered
    return result


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds ``s``, ``self_s`` and ``calls``.

    Inclusive time counts only the outermost span of a name on each
    ancestor chain, so a layer that calls itself is not counted twice;
    self time and calls count every span.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
    )
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["self_s"] += selfs[span.span_id]
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            row["s"] += span.duration
    return dict(table)


def coverage(spans, root_names) -> float:
    """Share of the root spans' wall time covered by their descendants."""
    spans = list(spans)
    selfs = self_times(spans)
    roots = [span for span in spans if span.name in root_names]
    wall = sum(span.duration for span in roots)
    if wall <= 0:
        return 0.0
    return 1.0 - sum(selfs[span.span_id] for span in roots) / wall
