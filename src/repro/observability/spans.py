"""Hierarchical spans with workflow-wide trace propagation.

A *span* is a named, timed operation; spans form a tree via
``parent_id`` and share one ``trace_id`` per workflow run, so a single
trace correlates PyCOMPSs task submission, scheduler queueing, worker
execution, shared-filesystem I/O, Ophidia operators and HPCWaaS
lifecycle steps.

Propagation uses a :mod:`contextvars` variable, which follows the
caller within a thread.  The runtimes in this repo hand work to
long-lived worker threads, where the submitting context is *not*
inherited automatically — instrumented layers therefore capture
:func:`current_context` at submission and re-enter it on the worker via
:func:`activate` (the COMPSs runtime, the LSF scheduler and the Ophidia
executor all do this).

Two entry points create spans:

* :func:`span` — always records; starts a new trace when no parent is
  active.  Used at workflow roots (``workflow.run``, HPCWaaS invoke).
* :func:`maybe_span` — records only when a trace is already active.
  Used by high-frequency layers (filesystem ops, Ophidia operators,
  per-task execution) so unit tests and ad-hoc calls don't flood the
  collector.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "SpanContext",
    "SpanHandle",
    "TraceCollector",
    "activate",
    "current_context",
    "get_collector",
    "set_collector",
    "maybe_span",
    "new_context",
    "record_span",
    "span",
]


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class SpanContext:
    """The (trace, span) coordinates propagated to child operations."""

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One finished operation in a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    layer: str
    start: float                 # time.monotonic()
    end: float
    status: str = "OK"
    attrs: Dict[str, Any] = field(default_factory=dict)
    thread_id: int = 0
    thread_name: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanHandle:
    """Mutable view of an in-flight span, yielded by :func:`span`."""

    __slots__ = ("context", "_attrs", "_status", "recording")

    def __init__(self, context: SpanContext, attrs: Dict[str, Any],
                 recording: bool = True) -> None:
        self.context = context
        self._attrs = attrs
        self._status = "OK"
        self.recording = recording

    def set_attr(self, key: str, value: Any) -> None:
        self._attrs[key] = value

    def set_status(self, status: str) -> None:
        self._status = status


class TraceCollector:
    """Thread-safe store of finished spans.

    Bounded: beyond *max_spans* new spans are counted but dropped, so a
    long-lived process cannot grow without limit.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.max_spans = max_spans
        self._spans: List[Span] = []
        self._dropped = 0
        self._lock = threading.Lock()

    def record(self, span_: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self._dropped += 1
                first_drop = self._dropped == 1
            else:
                self._spans.append(span_)
                return
        self._on_drop(first_drop)

    def _on_drop(self, first_drop: bool) -> None:
        # Outside the collector lock: the metrics registry and event log
        # take their own locks (and event subscribers run arbitrary
        # code).  Lazy imports avoid a module cycle — events.py imports
        # this module at load time.  Best-effort: telemetry about lost
        # telemetry must never break the traced workload.
        try:
            from repro.observability.metrics import get_registry

            get_registry().counter(
                "trace_spans_dropped_total",
                "Spans discarded past TraceCollector.max_spans",
            ).inc()
        except Exception:
            pass
        if not first_drop:
            return
        try:
            from repro.observability.events import emit_event

            emit_event(
                "WARNING", "observability", "trace_spans_dropped",
                message=(
                    f"trace collector full (max_spans={self.max_spans}); "
                    "dropping further spans"
                ),
                max_spans=self.max_spans,
            )
        except Exception:
            pass

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def for_trace(self, trace_id: str) -> List[Span]:
        return [s for s in self.spans() if s.trace_id == trace_id]

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ---------------------------------------------------------------------------
# Context propagation
# ---------------------------------------------------------------------------

_context: "contextvars.ContextVar[Optional[SpanContext]]" = contextvars.ContextVar(
    "repro_observability_context", default=None
)


def current_context() -> Optional[SpanContext]:
    """The active span context of this thread of execution (or None)."""
    return _context.get()


def new_context() -> SpanContext:
    """A fresh root context (new trace) without recording a span."""
    return SpanContext(_new_id(), _new_id())


@contextmanager
def activate(context: Optional[SpanContext]) -> Iterator[Optional[SpanContext]]:
    """Re-enter *context* on this thread (cross-thread propagation).

    ``activate(None)`` explicitly clears the context, which detaches the
    enclosed work from any trace.
    """
    token = _context.set(context)
    try:
        yield context
    finally:
        _context.reset(token)


# ---------------------------------------------------------------------------
# Span creation
# ---------------------------------------------------------------------------

@contextmanager
def span(
    name: str,
    layer: str = "app",
    attrs: Optional[Dict[str, Any]] = None,
    new_trace: bool = False,
    collector: Optional[TraceCollector] = None,
) -> Iterator[SpanHandle]:
    """Record a span around the enclosed block; propagates context.

    The span parents to the active context unless *new_trace* forces a
    fresh trace; with no active context a new trace starts either way.
    An exception escaping the block marks the span ``ERROR`` (and
    propagates).
    """
    parent = None if new_trace else _context.get()
    if parent is None:
        trace_id, parent_id = _new_id(), None
    else:
        trace_id, parent_id = parent.trace_id, parent.span_id
    context = SpanContext(trace_id, _new_id())
    handle = SpanHandle(context, dict(attrs or {}))
    token = _context.set(context)
    thread = threading.current_thread()
    start = time.monotonic()
    try:
        yield handle
    except BaseException:
        handle.set_status("ERROR")
        raise
    finally:
        end = time.monotonic()
        _context.reset(token)
        # Not ``or``: an empty TraceCollector is falsy via __len__.
        sink = collector if collector is not None else get_collector()
        sink.record(Span(
            name=name, trace_id=trace_id, span_id=context.span_id,
            parent_id=parent_id, layer=layer, start=start, end=end,
            status=handle._status, attrs=handle._attrs,
            thread_id=thread.ident or 0, thread_name=thread.name,
        ))


@contextmanager
def maybe_span(
    name: str,
    layer: str = "app",
    attrs: Optional[Dict[str, Any]] = None,
) -> Iterator[SpanHandle]:
    """Like :func:`span`, but a no-op when no trace is active.

    Instrumented hot paths use this so only correlated (in-trace) work
    is recorded.
    """
    if _context.get() is None:
        yield SpanHandle(SpanContext("", ""), {}, recording=False)
        return
    with span(name, layer=layer, attrs=attrs) as handle:
        yield handle


def record_span(
    name: str,
    layer: str,
    start: float,
    end: float,
    parent: Optional[SpanContext] = None,
    attrs: Optional[Dict[str, Any]] = None,
    status: str = "OK",
    collector: Optional[TraceCollector] = None,
) -> Optional[Span]:
    """Record a retroactive span from already-measured timestamps.

    Used for phases observed after the fact (e.g. ready-queue waiting
    time, which is only known once the task is dispatched).  Returns
    ``None`` — and records nothing — when no parent context is given,
    keeping uncorrelated noise out of the collector.
    """
    if parent is None:
        return None
    thread = threading.current_thread()
    span_ = Span(
        name=name, trace_id=parent.trace_id, span_id=_new_id(),
        parent_id=parent.span_id, layer=layer, start=start, end=end,
        status=status, attrs=dict(attrs or {}),
        thread_id=thread.ident or 0, thread_name=thread.name,
    )
    sink = collector if collector is not None else get_collector()
    sink.record(span_)
    return span_


# ---------------------------------------------------------------------------
# Process-wide default collector
# ---------------------------------------------------------------------------

_default_collector = TraceCollector()
_collector_lock = threading.Lock()


def get_collector() -> TraceCollector:
    """The process-wide collector all instrumented layers record into."""
    return _default_collector


def set_collector(collector: Optional[TraceCollector] = None) -> TraceCollector:
    """Swap the process-wide collector (tests); returns the new one."""
    global _default_collector
    with _collector_lock:
        _default_collector = collector if collector is not None else TraceCollector()
        return _default_collector
