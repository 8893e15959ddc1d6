"""Span tracing with Chrome trace-event JSON export (Perfetto-loadable).

Trace IDs are minted where a request enters the system — the wire
protocol's ``open`` message (the client may supply its own ``trace``
field, which wins, so loadgen request IDs join server-side spans) — and
ride along as plain strings: through the ``_FeedItem`` tuples of the
micro-batching executor, the shard hop, and the ``trace_id`` field of
engine :class:`~repro.eval.engine.Job` specs.  IDs are
``t<pid hex>-<counter hex>``: deterministic per process, unique across
the shard fleet, and free of wall-clock or RNG reads.

A :class:`Tracer` collects *completed* spans in a bounded ring (newest
win; a long-lived server never grows without bound) and exports them in
the Chrome trace-event format — ``{"traceEvents": [{"ph": "X", ...}]}``
with microsecond ``ts``/``dur`` — which ``chrome://tracing`` and
Perfetto load directly.  The export shape is a checked-in contract
(``trace_event.schema.json``) validated by tests, the admin endpoint's
consumers, and CI.

Disabled path: ``Tracer(enabled=False).span(...)`` returns a shared
no-op span; the cost of an instrumented call site is one method call and
one ``if``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from .schema import load_schema, validate

__all__ = [
    "TRACE_EVENT_SCHEMA_PATH",
    "Span",
    "Tracer",
    "mint_trace_id",
    "validate_trace_export",
]

#: The checked-in schema for the Chrome trace-event export.
TRACE_EVENT_SCHEMA_PATH = Path(__file__).with_name(
    "trace_event.schema.json"
)

_TRACE_COUNTER = itertools.count(1)


def mint_trace_id() -> str:
    """A process-unique trace id with no clock or RNG dependence."""
    return f"t{os.getpid():x}-{next(_TRACE_COUNTER):x}"


def _now_us() -> float:
    """Monotonic microseconds (observability only; obs/ is allowlisted)."""
    return time.perf_counter() * 1e6


class Span:
    """One in-progress span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "name", "trace", "args", "_start_us")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace: Optional[str],
        args: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace = trace
        self.args = args
        self._start_us = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach one argument to the span (visible in the export)."""
        self.args[key] = value

    def __enter__(self) -> "Span":
        self._start_us = _now_us()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer.record(
            self.name,
            start_us=self._start_us,
            dur_us=_now_us() - self._start_us,
            trace=self.trace,
            args=self.args,
        )


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """A bounded ring of completed spans, exportable as Chrome JSON."""

    def __init__(self, enabled: bool = True, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._dropped = 0

    def span(
        self, name: str, trace: Optional[str] = None, **args: Any
    ) -> Any:
        """A context manager timing one span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, trace, args)

    def record(
        self,
        name: str,
        *,
        start_us: float,
        dur_us: float,
        trace: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one completed span (also the non-context-manager path)."""
        if not self.enabled:
            return
        event_args: Dict[str, Any] = dict(args or {})
        if trace is not None:
            event_args["trace"] = trace
        if len(self._events) == self.capacity:
            self._dropped += 1
        self._events.append({
            "ph": "X",
            "name": name,
            "cat": "repro",
            "ts": start_us,
            "dur": max(0.0, dur_us),
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": event_args,
        })

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring since the tracer was created."""
        return self._dropped

    def events(self, clear: bool = False) -> List[Dict[str, Any]]:
        """The buffered trace events, oldest first."""
        out = list(self._events)
        if clear:
            self._events.clear()
        return out

    def export(self) -> Dict[str, Any]:
        """The Chrome trace-event document for the current buffer."""
        return {
            "displayTimeUnit": "ms",
            "traceEvents": self.events(),
        }


def validate_trace_export(document: Any) -> List[str]:
    """Violations of the checked-in trace-event schema (empty = valid)."""
    return validate(document, load_schema(TRACE_EVENT_SCHEMA_PATH))
