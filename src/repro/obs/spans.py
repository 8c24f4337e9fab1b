"""Hierarchical wall-clock spans for the verify pipeline.

A :class:`Span` is one timed region of the pipeline — ``batch``,
``execute``, ``prove_piece`` — opened with :meth:`Tracer.span` as a context
manager and closed on exit.  Spans nest: each tracer keeps a per-thread
stack of open spans, so a span opened while another is active becomes its
child automatically.  Work handed to a thread pool loses the dispatcher's
stack, so cross-thread children (a ``prove_piece`` job running on a prover
worker) pass ``parent=`` explicitly.

Clocks are ``time.perf_counter()`` — monotonic, high resolution, and the
same clock the pre-existing ``measured_*`` fields of ``TimingReport`` used,
so durations derived from spans are directly comparable with (and now the
source of) those fields.

The tracer's buffer of finished spans is bounded (``maxlen``); overflow
drops the *oldest* records and counts them in :attr:`Tracer.dropped`.  The
process-default tracer is a small ring (:data:`DEFAULT_TRACER_SPANS`), so
a long-lived server holds the same span memory after its millionth flush
as after its first; a caller that wants a whole trace (``--trace-out``, a
test) installs or passes a larger :class:`Tracer`.  A
per-root index, kept in step with the buffer on every append and eviction,
answers :meth:`Tracer.spans_in` in time proportional to one tree rather
than to the whole buffer.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, Mapping

__all__ = ["Span", "SpanRecord", "Tracer", "get_tracer", "set_tracer"]

_span_ids = itertools.count(1)


@dataclass(frozen=True)
class SpanRecord:
    """An immutable finished span, as exporters and tests consume it.

    ``start``/``end`` are ``perf_counter`` timestamps (seconds, arbitrary
    epoch — only differences are meaningful); ``root_id`` identifies the
    outermost ancestor, so one batch's whole tree shares a ``root_id``.
    """

    name: str
    span_id: int
    parent_id: int | None
    root_id: int
    start: float
    end: float
    attrs: Mapping[str, Any]
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "root_id": self.root_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "thread": self.thread,
        }


@dataclass
class Span:
    """A live (open) span; becomes a :class:`SpanRecord` when it exits."""

    name: str
    span_id: int
    parent_id: int | None
    root_id: int
    start: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes while the span is open."""
        self.attrs.update(attrs)
        return self


class _SpanContext:
    """Context manager that pushes/pops one span on the tracer."""

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self.span, error=exc is not None)


class Tracer:
    """Collects spans; thread-safe; one per process by default.

    Usage::

        with tracer.span("prove_piece", piece=i) as sp:
            ...
            sp.set(constraints=circuit.total_constraints)

    ``parent=`` overrides the per-thread stack, which is how spans created
    on pool worker threads stay attached to the dispatching batch span.
    """

    def __init__(self, maxlen: int = 100_000):
        if maxlen < 1:
            raise ValueError("tracer buffer must hold at least one span")
        self.maxlen = maxlen
        self.dropped = 0
        self._records: deque[SpanRecord] = deque()
        # root_id -> that tree's records, oldest first.  Eviction always
        # takes the buffer's oldest record, which is the oldest of its tree.
        self._by_root: dict[int, deque[SpanRecord]] = {}
        # span_id -> the list that also receives its record (see collect).
        self._sinks: dict[int, list[SpanRecord]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, parent: Span | None = None, **attrs: Any) -> _SpanContext:
        """Open a span named *name*; context manager yielding the live span."""
        effective_parent = parent if parent is not None else self.current()
        span_id = next(_span_ids)
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=effective_parent.span_id if effective_parent else None,
            root_id=effective_parent.root_id if effective_parent else span_id,
            start=perf_counter(),
            attrs=dict(attrs),
        )
        return _SpanContext(self, span)

    def current(self) -> Span | None:
        """The innermost open span on *this* thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def collect(self, span: Span) -> list[SpanRecord]:
        """Keep every record of *span*'s subtree, whatever the buffer drops.

        Call it on an open *span* before it has children.  The returned
        list receives each descendant's record as it finishes, and
        *span*'s own record last; a batch reads its whole tree from it
        even when the tree is larger than ``maxlen``.
        """
        sink: list[SpanRecord] = []
        self._sinks[span.span_id] = sink
        return sink

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)
        sink = self._sinks.get(span.parent_id)
        if sink is not None:
            self._sinks[span.span_id] = sink

    def _pop(self, span: Span, error: bool = False) -> None:
        stack = getattr(self._local, "stack", [])
        if stack and stack[-1] is span:
            stack.pop()
        if error:
            span.attrs.setdefault("error", True)
        record = SpanRecord(
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            root_id=span.root_id,
            start=span.start,
            end=perf_counter(),
            attrs=dict(span.attrs),
            thread=threading.current_thread().name,
        )
        with self._lock:
            sink = self._sinks.pop(span.span_id, None)
            if sink is not None:
                sink.append(record)
            self._records.append(record)
            self._by_root.setdefault(record.root_id, deque()).append(record)
            while len(self._records) > self.maxlen:
                evicted = self._records.popleft()
                tree = self._by_root[evicted.root_id]
                tree.popleft()
                if not tree:
                    del self._by_root[evicted.root_id]
                self.dropped += 1

    # -- queries --------------------------------------------------------------

    def finished(self) -> tuple[SpanRecord, ...]:
        """Every finished span, oldest first."""
        with self._lock:
            return tuple(self._records)

    def spans_in(self, root_id: int) -> tuple[SpanRecord, ...]:
        """The finished spans of one tree (e.g. one verification batch)."""
        with self._lock:
            return tuple(self._by_root.get(root_id, ()))

    def by_name(self, name: str) -> tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(r for r in self._records if r.name == name)

    def names(self) -> set[str]:
        with self._lock:
            return {r.name for r in self._records}

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._by_root.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.finished())


def stage_totals(spans: Iterator[SpanRecord] | tuple[SpanRecord, ...]) -> dict[str, float]:
    """Sum of span durations per span name (the measured per-stage view)."""
    totals: dict[str, float] = {}
    for record in spans:
        totals[record.name] = totals.get(record.name, 0.0) + record.duration
    return totals


__all__.append("stage_totals")


# -- the process-local default tracer -----------------------------------------

# Spans the process-default tracer keeps: the last few flushes.  A batch's
# TimingReport does not depend on it; the batch collects its own tree.
DEFAULT_TRACER_SPANS = 2_048

_TRACER = Tracer(maxlen=DEFAULT_TRACER_SPANS)


def get_tracer() -> Tracer:
    """The process-local default tracer (what servers use unless told else)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-local default tracer; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous
