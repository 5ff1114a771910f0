"""Dependency-free end-to-end request tracing.

One :class:`Trace` is born per request (the daemon mints it from the
client's propagated trace id; in-process submissions mint their own) and
collects an ordered tree of :class:`Span` records — monotonic start
offsets and durations, a parent link, and a small attribute dict.  The
whole request path reports into it through two module-level helpers:

``span(name, **attrs)``
    Context manager recording one timed span under the currently active
    trace.  When no trace is active it is a cheap no-op (one
    ``ContextVar`` read), so instrumented hot paths cost nothing for
    untraced traffic.

``activate(trace)``
    Makes a trace the active one for a ``with`` body.  A request runs on
    one thread from decode to encode, so the ``ContextVar`` carries it.

Finished traces land in a :class:`Tracer` ring buffer (bounded deque)
that ``GET /v1/trace`` serves.  Nothing here touches accounting, RNG
state, or lock order: tracing observes the request path, it never
steers it — replays stay bit-identical with tracing on or off.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextvars import ContextVar

#: Most spans one trace retains; later spans are counted in
#: :attr:`Trace.dropped` instead of recorded (a runaway batch must not
#: hold unbounded span lists alive in the ring buffer).
MAX_SPANS_PER_TRACE = 256

#: How many finished traces a :class:`Tracer` ring retains by default.
DEFAULT_TRACE_CAPACITY = 128

#: Default sampling stride: self-minted traces record one submission in
#: every N.  Explicitly propagated trace ids (a client asking to be
#: traced) always record.  The memoized serving path answers a query in
#: tens of microseconds, so tracing every request would tax the hot
#: path a measurable few percent; 1-in-N keeps ``/v1/trace`` populated
#: at negligible cost, and ``sample=1`` restores exhaustive tracing.
DEFAULT_TRACE_SAMPLE = 8

#: (trace, parent_span_id) of the currently active trace context.
_CURRENT: ContextVar[tuple | None] = ContextVar("repro_trace", default=None)


class Span:
    """One timed operation inside a trace (offsets are seconds from the
    trace's monotonic origin)."""

    __slots__ = ("span_id", "parent_id", "name", "start", "duration",
                 "attrs")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 start: float) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = 0.0
        self.attrs: dict | None = None

    def set(self, **attrs) -> None:
        """Attach attributes (view name, outcome, ...)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": round(self.start * 1e3, 6),
            "duration_ms": round(self.duration * 1e3, 6),
            "attrs": dict(self.attrs) if self.attrs else {},
        }


class Trace:
    """One request's span tree.  Spans append under a small lock, so a
    trace stays consistent whichever thread records into it."""

    __slots__ = ("trace_id", "started_at", "_t0", "_lock", "spans",
                 "dropped")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.dropped = 0

    # -- recording -------------------------------------------------------------
    def begin_span(self, name: str, parent_id: int | None) -> Span | None:
        start = time.perf_counter() - self._t0
        with self._lock:
            if len(self.spans) >= MAX_SPANS_PER_TRACE:
                self.dropped += 1
                return None
            span = Span(len(self.spans), parent_id, name, start)
            self.spans.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.duration = (time.perf_counter() - self._t0) - span.start

    def add_span(self, name: str, start: float, end: float,
                 parent_id: int | None = None, **attrs) -> Span | None:
        """Retroactively record a span from two ``perf_counter`` readings
        (the body-read span is measured before the trace exists; a
        negative offset is honest, not an error)."""
        with self._lock:
            if len(self.spans) >= MAX_SPANS_PER_TRACE:
                self.dropped += 1
                return None
            span = Span(len(self.spans), parent_id, name, start - self._t0)
            span.duration = max(0.0, end - start)
            if attrs:
                span.attrs = dict(attrs)
            self.spans.append(span)
        return span

    # -- reporting -------------------------------------------------------------
    def as_dict(self) -> dict:
        with self._lock:
            spans = [span.as_dict() for span in self.spans]
            dropped = self.dropped
        return {
            "trace_id": self.trace_id,
            "started_at": self.started_at,
            "spans": spans,
            "dropped": dropped,
        }


class _SpanContext:
    """Class-based context manager for :func:`span` — cheaper than a
    generator-based one, and the serving path enters one per query."""

    __slots__ = ("_name", "_attrs", "_span", "_trace", "_token")

    def __init__(self, name: str, attrs: dict | None) -> None:
        self._name = name
        self._attrs = attrs
        self._span = None
        self._trace = None
        self._token = None

    def __enter__(self) -> Span | None:
        current = _CURRENT.get()
        if current is None:
            return None
        trace, parent_id = current
        span = trace.begin_span(self._name, parent_id)
        if span is None:
            return None
        if self._attrs:
            # The kwargs dict minted in span() is ours alone — take it.
            span.attrs = self._attrs
        self._span = span
        self._trace = trace
        self._token = _CURRENT.set((trace, span.span_id))
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is None:
            return
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self._span.set(error=exc_type.__name__)
        self._trace.end_span(self._span)


def span(name: str, **attrs) -> _SpanContext:
    """Record one timed span under the active trace (no-op without one)."""
    return _SpanContext(name, attrs or None)


def event(name: str, **attrs) -> None:
    """Record an instantaneous (zero-duration) span — the decision-point
    marker for paths too hot to wrap in a context manager."""
    current = _CURRENT.get()
    if current is None:
        return
    trace, parent_id = current
    marker = trace.begin_span(name, parent_id)
    if marker is not None and attrs:
        marker.attrs = attrs


def record_span(name: str, start: float, **attrs) -> None:
    """Retroactively record a finished span from an absolute
    ``perf_counter`` start reading (no-op without an active trace).

    The pattern for paths that only deserve a span on their rare
    expensive branch: read ``perf_counter()`` unconditionally (tens of
    nanoseconds), decide, and record after the fact only when it
    mattered — the common branch pays no span machinery at all.
    """
    current = _CURRENT.get()
    if current is None:
        return
    trace, parent_id = current
    trace.add_span(name, start, time.perf_counter(), parent_id, **attrs)


class _Activation:
    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: tuple | None) -> None:
        self._ctx = ctx
        self._token = None

    def __enter__(self):
        self._token = _CURRENT.set(self._ctx)
        return self._ctx[0] if self._ctx is not None else None

    def __exit__(self, *exc_info) -> None:
        _CURRENT.reset(self._token)


def activate(trace: Trace | None, parent_id: int | None = None) -> _Activation:
    """Make ``trace`` the active trace for the ``with`` body
    (``activate(None)`` deactivates — useful to shield untraced work)."""
    return _Activation((trace, parent_id) if trace is not None else None)


def current_trace() -> Trace | None:
    current = _CURRENT.get()
    return current[0] if current is not None else None


class Tracer:
    """Mints trace ids, owns the bounded ring of finished traces.

    ``enabled=False`` turns the whole facility off: :meth:`start`
    returns ``None``, ``activate(None)`` keeps the context empty, and
    every ``span()`` call degrades to a single ``ContextVar`` read —
    the control arm of ``perf/``'s ``metrics.observer_overhead_ratio``.

    ``sample`` is the self-minted stride: :meth:`start` records one
    request in every ``sample`` when it has to mint the id itself, but
    *always* records when the caller propagates an explicit trace id
    (a client that asked to be traced must get its trace).  The first
    self-minted request is always recorded, so short sessions still
    populate ``/v1/trace``.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY,
                 enabled: bool = True,
                 sample: int = DEFAULT_TRACE_SAMPLE) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        self.sample = int(sample)
        self._lock = threading.Lock()
        self._ring: deque[Trace] = deque(maxlen=self.capacity)
        # Cheap unique ids: one random process prefix + a counter (a
        # fresh token per trace would cost more than the trace itself).
        self._prefix = os.urandom(4).hex()
        self._ids = itertools.count(1)
        # itertools.count.__next__ is a single C call, so the sampling
        # tick needs no lock of its own.
        self._tick = itertools.count()
        self.started = 0
        self.finished = 0

    def new_trace_id(self) -> str:
        return f"{self._prefix}-{next(self._ids):08x}"

    def start(self, trace_id: str | None = None) -> Trace | None:
        """A fresh :class:`Trace`, or ``None`` when disabled / when the
        sampler skips this request.  ``trace_id`` propagates a
        client-minted id (never sampled out); otherwise one is minted
        here, subject to the 1-in-``sample`` stride."""
        if not self.enabled:
            return None
        if trace_id is None and self.sample > 1 \
                and next(self._tick) % self.sample:
            return None
        with self._lock:
            self.started += 1
        return Trace(trace_id if trace_id else self.new_trace_id())

    def finish(self, trace: Trace | None) -> None:
        """File a completed trace into the ring (``None`` is a no-op, so
        callers need not branch on the disabled case)."""
        if trace is None:
            return
        with self._lock:
            self.finished += 1
            self._ring.append(trace)

    def recent(self, limit: int | None = None) -> list[dict]:
        """Finished traces, newest first, as JSON-native dicts."""
        with self._lock:
            traces = list(self._ring)
        traces.reverse()
        if limit is not None:
            traces = traces[:max(0, int(limit))]
        return [trace.as_dict() for trace in traces]

    def counters(self) -> dict:
        with self._lock:
            return {"enabled": self.enabled, "capacity": self.capacity,
                    "sample": self.sample,
                    "started": self.started, "finished": self.finished,
                    "retained": len(self._ring)}


__all__ = ["DEFAULT_TRACE_CAPACITY", "DEFAULT_TRACE_SAMPLE",
           "MAX_SPANS_PER_TRACE", "Span",
           "Trace", "Tracer", "activate",
           "current_trace", "event", "record_span",
           "span"]
