"""Cross-process trace propagation and the ring-buffer span log.

A cross-shard request leaves the client as a frame, rides a multiplexed channel,
runs an op inside a worker process and maybe an engine update inside
that — and before this module, it went dark at the first hop.  Tracing
makes the whole path one story:

* a **trace** is one logical client operation (an RPC, a 2PC batch, a
  supervised recovery).  All spans of a trace share ``trace_id``.
* a **span** is one timed step with a parent: the client-side attempt
  span is the root, the worker's op handler opens a *child* span (its
  ``parent_id`` is the client span's ``span_id``), and deeper phases
  may nest further.  Retry attempts and 2PC prepare/commit legs share
  the trace but each get a fresh span — tail latency is attributable
  to the exact attempt/leg/worker that produced it.

Propagation is plain data: :func:`inject` adds a ``_trace`` key —
``{"t": trace_id, "s": span_id}`` — to the request dict before it is
encoded, and :func:`extract` pops it on the worker.  It rides in the
frame's JSON header untouched, and the mux protocol's ``mux_id``
tagging composes with it: out-of-order replies re-match by mux id while
the span ids keep the causal story straight.

The :class:`SpanLog` is a bounded ring (old spans fall off; a serving
process must never grow without bound for observability's sake).
Spans slower than the ``REPRO_SLOW_OP_MS`` threshold are *also* kept
in a dedicated slow ring, so the interesting tail survives long after
the torrent of fast spans has rotated the main ring.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "SpanLog",
    "NULL_SPANLOG",
    "inject",
    "extract",
    "new_trace_id",
    "new_span_id",
    "default_slow_ms",
]

#: The wire key a trace context travels under inside request dicts.
TRACE_KEY = "_trace"


def new_trace_id() -> str:
    return os.urandom(8).hex()


def new_span_id() -> str:
    return os.urandom(4).hex()


def default_slow_ms() -> float:
    """Slow-op threshold in milliseconds (``REPRO_SLOW_OP_MS``, 100)."""
    raw = os.environ.get("REPRO_SLOW_OP_MS")
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return 100.0


class Span:
    """One timed step of a trace.  Finish via :meth:`SpanLog.finish`."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "error",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, object],
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attrs = attrs
        self.error: Optional[str] = None

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end is None:
            return None
        return (self.end - self.start) * 1000.0

    def context(self) -> Dict[str, str]:
        """The propagable trace context of this span (for ``inject``)."""
        return {"t": self.trace_id, "s": self.span_id}

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_ms": self.duration_ms,
            "attrs": dict(self.attrs),
            "error": self.error,
        }

    def __repr__(self) -> str:
        duration = (
            f"{self.duration_ms:.3f}ms" if self.end is not None else "open"
        )
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id}, {duration})"
        )


class SpanLog:
    """A bounded ring of finished spans plus a slow-span side ring."""

    enabled = True

    def __init__(
        self, capacity: int = 2048, slow_ms: Optional[float] = None
    ):
        self.slow_ms = default_slow_ms() if slow_ms is None else slow_ms
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._slow: deque = deque(maxlen=max(64, capacity // 8))

    # -- span lifecycle -------------------------------------------------

    def start(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attrs,
    ) -> Span:
        """Open a span; a missing ``trace_id`` starts a fresh trace."""
        return Span(
            name,
            trace_id or new_trace_id(),
            new_span_id(),
            parent_id,
            attrs,
        )

    def child(self, name: str, context: Optional[Dict[str, str]], **attrs) -> Span:
        """Open a child span under an extracted wire context (or a
        fresh root when the caller sent no context)."""
        if context:
            return self.start(
                name,
                trace_id=context.get("t"),
                parent_id=context.get("s"),
                **attrs,
            )
        return self.start(name, **attrs)

    def finish(self, span: Span, error: Optional[str] = None) -> Span:
        span.end = time.perf_counter()
        if error is not None:
            span.error = error
        with self._lock:
            self._ring.append(span)
            if span.duration_ms is not None and span.duration_ms >= self.slow_ms:
                self._slow.append(span)
        return span

    # -- introspection --------------------------------------------------

    def snapshot(self) -> List[Dict[str, object]]:
        with self._lock:
            return [span.to_dict() for span in self._ring]

    def slow_snapshot(self) -> List[Dict[str, object]]:
        with self._lock:
            return [span.to_dict() for span in self._slow]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"SpanLog({len(self._ring)} spans, {len(self._slow)} slow, "
                f"slow_ms={self.slow_ms})"
            )


class _NullSpan:
    """Shared do-nothing span for the ``observe=False`` fast path."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    duration_ms = None
    error = None
    attrs: Dict[str, object] = {}

    def context(self) -> None:  # inject(message, None) is a no-op
        return None

    def to_dict(self) -> Dict[str, object]:
        return {}


_NULL_SPAN = _NullSpan()


class _NullSpanLog:
    enabled = False
    slow_ms = float("inf")

    def start(self, name, trace_id=None, parent_id=None, **attrs):
        return _NULL_SPAN

    def child(self, name, context, **attrs):
        return _NULL_SPAN

    def finish(self, span, error=None):
        return span

    def snapshot(self) -> List[Dict[str, object]]:
        return []

    def slow_snapshot(self) -> List[Dict[str, object]]:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullSpanLog()"


NULL_SPANLOG = _NullSpanLog()


# ---------------------------------------------------------------------------
# wire propagation
# ---------------------------------------------------------------------------


def inject(message: Dict[str, object], context: Optional[Dict[str, str]]) -> Dict[str, object]:
    """A copy of ``message`` carrying ``context`` under ``_trace``.

    ``None`` context returns the message unchanged (the no-op path),
    so untraced callers pay nothing and untouched tests see identical
    frames.
    """
    if not context:
        return message
    traced = dict(message)
    traced[TRACE_KEY] = context
    return traced


def extract(message: Dict[str, object]) -> Optional[Dict[str, str]]:
    """Pop the wire trace context off a received request (worker side).

    Popping — not reading — keeps the op dispatchers' request dicts
    exactly as un-traced clients send them.
    """
    context = message.pop(TRACE_KEY, None)
    if isinstance(context, dict) and "t" in context and "s" in context:
        return context
    return None
