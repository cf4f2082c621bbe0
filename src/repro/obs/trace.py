"""Span-based tracing over the virtual clock.

A :class:`Tracer` records *spans* — named, attributed intervals of
virtual time — organized as a tree: every span opened while another is
open becomes its child.  Span timestamps come from a ``now_fn`` supplied
by the owner (the :class:`~repro.sim.meter.Meter` passes a *pure* clock
read that never flushes pending charges), so tracing can never move the
virtual clock: with tracing on or off, every metered output is
bit-identical.

Two span kinds:

* ``span`` — strictly nested: opened and closed on a stack (the usual
  ``with tracer.span(...)`` bracket).  Children lie entirely within
  their parent's interval.
* ``stream`` — detached: brackets *lazy* work (a query plan producing
  rows on demand) whose lifetime interleaves with other spans.  A stream
  span records its parent at creation but is not pushed on the stack, so
  its interval may overlap later siblings; validators check only that it
  closed.

The tracer is disabled by default and, when disabled, does no work
beyond one attribute check — hot paths stay hot.  Enable it per-world
with :meth:`Tracer.enable` or globally with ``REPRO_TRACE=1``.

:meth:`Tracer.phase` is the one timer of low-frequency work (a recovery
phase, a persist step): it always yields a timed span, so the code reads
a phase's duration off the same two clock readings whether or not the
span is kept.  The per-request sites (``server.handle``/``resume``,
``engine.execute``, ``phoenix.exec_direct``, the executor's stream) time
nothing and keep an ``if tracer.enabled`` fork around :meth:`Tracer.span`
instead: untraced, a ``with`` over the no-op span cost 0.38 µs a call
against 0.14 µs for the fork, and a ``phase`` 2.5 µs (CPython 3.11.7,
Intel Xeon, ``timeit``).
"""

from __future__ import annotations

import contextlib
from collections import deque


class Span:
    """One traced interval of virtual time."""

    __slots__ = ("span_id", "parent_id", "name", "layer", "kind",
                 "start", "end", "attrs", "status")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 layer: str, kind: str, start: float,
                 attrs: dict | None = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.kind = kind
        self.start = start
        self.end = start
        self.attrs = attrs if attrs is not None else {}
        self.status = "open"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set_attr(self, name: str, value) -> None:
        self.attrs[name] = value

    def to_dict(self) -> dict:
        return {"type": "span", "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "layer": self.layer, "kind": self.kind,
                "start": self.start, "end": self.end,
                "status": self.status, "attrs": self.attrs}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, layer={self.layer!r}, "
                f"{self.start:.6f}..{self.end:.6f}, {self.status})")


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set_attr(self, name: str, value) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager bracketing one stack-nested span."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.end_span(
            self.span, status="error" if exc_type is not None else "ok")


class Tracer:
    """Collects spans into a bounded ring of finished spans."""

    def __init__(self, now_fn, enabled: bool = False,
                 max_spans: int = 20000):
        self._now = now_fn
        self.enabled = enabled
        #: Finished spans, oldest first; bounded so long-running worlds
        #: cannot grow without limit.
        self.finished: deque[Span] = deque(maxlen=max_spans)
        #: Finished spans evicted from the ring (exports report this so
        #: validators know parents may legitimately be missing).
        self.dropped = 0
        self._stack: list[Span] = []
        self._open_streams: set[int] = set()
        self._seq = 0

    # -- switches -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, layer: str = "", **attrs):
        """Open a nested span; use as ``with tracer.span(...) as s:``."""
        if not self.enabled:
            return NOOP_SPAN
        span = self._new_span(name, layer, "span", attrs, self._now())
        self._stack.append(span)
        return _SpanContext(self, span)

    def end_span(self, span: Span, status: str = "ok") -> None:
        """Close a stack-nested span (innermost-first)."""
        span.end = self._now()
        self._unstack(span)
        self._finish(span, status)

    @contextlib.contextmanager
    def phase(self, name: str, layer: str, clock=None, **attrs):
        """Time one phase of low-frequency work; use as
        ``with tracer.phase(...) as span:`` and read ``span.start`` /
        ``span.end`` / ``span.duration`` afterwards.

        Unlike :meth:`span` it always yields a real :class:`Span`, its
        ``start`` and ``end`` read from ``clock`` (default: the tracer's
        own pure clock read).  While tracing is on the span is nested and
        kept like any other; while it is off it is kept by nobody.  A
        phase that raises ends at the tracer's pure read instead: nobody
        books a failed phase, so an error path never gains a reading of
        ``clock`` (a flushing one would move a flush point).
        """
        clock = clock if clock is not None else self._now
        traced = self.enabled
        if traced:
            span = self._new_span(name, layer, "span", attrs, clock())
            self._stack.append(span)
        else:
            span = Span(0, 0, name, layer, "span", clock(), attrs or None)
        try:
            yield span
        except BaseException:
            span.end = self._now()
            status = "error"
            raise
        else:
            span.end = clock()
            status = "ok"
        finally:
            if traced:
                self._unstack(span)
                self._finish(span, status)

    def start_stream(self, name: str, layer: str = "", **attrs) -> Span:
        """Open a detached span for lazy/streaming work.

        The parent is whatever span is innermost *now*; the stream span
        itself never becomes a parent and may outlive its siblings.
        Close it with :meth:`end_stream` (a ``finally`` in the producer).
        """
        span = self._new_span(name, layer, "stream", attrs, self._now())
        self._open_streams.add(span.span_id)
        return span

    def end_stream(self, span: Span, status: str = "ok") -> None:
        span.end = self._now()
        self._open_streams.discard(span.span_id)
        self._finish(span, status)

    # -- reading ------------------------------------------------------------

    @property
    def open_span_count(self) -> int:
        """Spans opened but not yet closed (stacked + streaming)."""
        return len(self._stack) + len(self._open_streams)

    # -- internals ----------------------------------------------------------

    def _new_span(self, name: str, layer: str, kind: str, attrs: dict,
                  start: float) -> Span:
        self._seq += 1
        parent_id = self._stack[-1].span_id if self._stack else 0
        return Span(self._seq, parent_id, name, layer, kind, start,
                    attrs or None)

    def _unstack(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misuse guard
            try:
                self._stack.remove(span)
            except ValueError:
                pass

    def _finish(self, span: Span, status: str) -> None:
        span.status = status
        if len(self.finished) == self.finished.maxlen:
            self.dropped += 1
        self.finished.append(span)
