"""Distributed tracing plane for the serving stack.

The pool is a distributed system (router process -> N spawned worker
processes -> engine), so a request's history cannot be reconstructed from
any single sequential log.  This module gives every request a trace id that
is propagated across process hops via HTTP headers (``X-Trace-Id``,
``X-Parent-Span``, ``X-Attempt``, ``X-Lamport``) or a ``trace_id`` body
field, and records per-hop **spans** into a bounded per-process ring
buffer with an optional otel-style JSONL export.

Causal ordering is established with a per-process Lamport clock rather
than wall clocks: every span records ``lamport.start``/``lamport.end``
ticks, and each cross-process message carries the sender's clock so the
receiver can merge it (``observe``).  A child span therefore always has
``lamport.start`` strictly greater than its parent's, no matter how the
processes' wall clocks drift.

The module is stdlib-only and safe to import from the client.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import OrderedDict, deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.serve.metrics import percentile

__all__ = [
    "ATTEMPT_HEADER",
    "LAMPORT_HEADER",
    "PARENT_SPAN_HEADER",
    "TRACE_HEADER",
    "LamportClock",
    "Span",
    "TraceContext",
    "Tracer",
    "causal_sort",
    "current_context",
    "group_by_trace",
    "new_span_id",
    "new_trace_id",
    "parse_trace_context",
    "read_trace_dir",
    "slowest_traces",
    "summarize_spans",
    "use_context",
]

TRACE_HEADER = "X-Trace-Id"
PARENT_SPAN_HEADER = "X-Parent-Span"
ATTEMPT_HEADER = "X-Attempt"
LAMPORT_HEADER = "X-Lamport"

#: body field mirroring ``TRACE_HEADER`` (body wins over header, like QoS).
TRACE_FIELD = "trace_id"


def new_trace_id() -> str:
    """Return a fresh 128-bit trace id as 32 lowercase hex chars."""

    return uuid.uuid4().hex


def new_span_id() -> str:
    """Return a fresh 64-bit span id as 16 lowercase hex chars."""

    return uuid.uuid4().hex[:16]


class LamportClock:
    """A lock-guarded per-process Lamport clock.

    ``tick`` advances the clock for a local event; ``observe`` merges a
    remote clock value carried on an incoming message so that causally
    later events always read a larger value.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, start: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = int(start)

    def tick(self) -> int:
        with self._lock:
            self._value += 1
            return self._value

    def observe(self, remote: Optional[int]) -> int:
        with self._lock:
            if remote is not None:
                self._value = max(self._value, int(remote))
            self._value += 1
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


@dataclass
class TraceContext:
    """Parsed per-request trace propagation state."""

    trace_id: Optional[str] = None
    parent_span: Optional[str] = None
    attempt: int = 0
    lamport: Optional[int] = None
    supplied: bool = False

    def ensure_trace_id(self) -> str:
        if not self.trace_id:
            self.trace_id = new_trace_id()
        return self.trace_id


def parse_trace_context(
    payload: Optional[Mapping[str, Any]] = None,
    headers: Optional[Mapping[str, str]] = None,
) -> TraceContext:
    """Extract the trace context from request headers and/or body.

    Mirrors :func:`repro.serve.qos.parse_qos`: headers are read first and a
    ``trace_id`` body field wins over the header.  Malformed attempt or
    lamport values are ignored rather than rejected — tracing must never
    fail a request.
    """

    ctx = TraceContext()
    if headers is not None:
        raw = headers.get(TRACE_HEADER)
        if raw:
            ctx.trace_id = str(raw).strip()
            ctx.supplied = True
        parent = headers.get(PARENT_SPAN_HEADER)
        if parent:
            ctx.parent_span = str(parent).strip()
        for name, attr in ((ATTEMPT_HEADER, "attempt"), (LAMPORT_HEADER, "lamport")):
            raw = headers.get(name)
            if raw is None:
                continue
            try:
                setattr(ctx, attr, int(raw))
            except (TypeError, ValueError):
                continue
    if payload is not None:
        raw = payload.get(TRACE_FIELD)
        if raw:
            ctx.trace_id = str(raw).strip()
            ctx.supplied = True
    return ctx


@dataclass
class Span:
    """A single operation within a trace.

    Wall-clock times are advisory (per-process clocks drift); ordering
    guarantees come from the Lamport fields only.
    """

    trace_id: str
    span_id: str
    name: str
    service: str
    parent_id: Optional[str] = None
    start_time: float = 0.0
    end_time: Optional[float] = None
    lamport_start: int = 0
    lamport_end: Optional[int] = None
    status: str = "unset"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        duration_ms: Optional[float] = None
        if self.end_time is not None:
            duration_ms = max(0.0, (self.end_time - self.start_time) * 1e3)
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "service": self.service,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration_ms": duration_ms,
            "lamport": {"start": self.lamport_start, "end": self.lamport_end},
            "status": self.status,
            "attrs": dict(self.attrs),
        }


# --------------------------------------------------------------------------
# The current span context (per thread: a new thread starts with an empty
# context), so deep layers (``BundleEngine``) can attach child spans without
# every call signature growing trace arguments.

_context: ContextVar[Optional[Tuple[str, str]]] = ContextVar(
    "repro_trace_context", default=None)


def current_context() -> Optional[Tuple[str, str]]:
    """Return ``(trace_id, span_id)`` of the active span, if any."""

    return _context.get()


@contextmanager
def use_context(trace_id: str, span_id: str) -> Iterator[None]:
    token = _context.set((trace_id, span_id))
    try:
        yield
    finally:
        _context.reset(token)


class Tracer:
    """Per-process span recorder with a bounded ring and JSONL export.

    Finished spans land in a ``deque(maxlen=ring_size)`` (oldest evicted
    first, eviction counted) and, when ``trace_dir`` is set, are appended
    as one JSON object per line to ``trace-<service>-<pid>.jsonl``.  The
    export file is opened lazily and line-buffered so a crashed worker
    loses at most the span being written.
    """

    def __init__(
        self,
        service: str,
        *,
        ring_size: int = 2048,
        trace_dir: Optional[str] = None,
        enabled: bool = True,
    ) -> None:
        self.service = service
        self.enabled = bool(enabled)
        self.trace_dir = str(trace_dir) if trace_dir else None
        self.clock = LamportClock()
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=max(1, int(ring_size)))
        self._started = 0
        self._finished = 0
        self._evicted = 0
        self._export_errors = 0
        self._file = None
        self._export_path: Optional[str] = None

    # -- span lifecycle ----------------------------------------------------

    def start_span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        *,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        if not self.enabled:
            return None
        span = Span(
            trace_id=trace_id or new_trace_id(),
            span_id=new_span_id(),
            name=name,
            service=self.service,
            parent_id=parent_id,
            start_time=time.time(),
            lamport_start=self.clock.tick(),
            attrs=dict(attrs) if attrs else {},
        )
        with self._lock:
            self._started += 1
        return span

    def finish_span(
        self,
        span: Optional[Span],
        status: str = "ok",
        **attrs: Any,
    ) -> Optional[Span]:
        if span is None or not self.enabled:
            return None
        if span.end_time is not None:  # already finished — keep first verdict
            return span
        span.end_time = time.time()
        span.lamport_end = self.clock.tick()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        with self._lock:
            self._finished += 1
            if len(self._ring) == self._ring.maxlen:
                self._evicted += 1
            self._ring.append(span)
        self._export(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        *,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Optional[Span]]:
        span = self.start_span(name, trace_id, parent_id=parent_id, attrs=attrs)
        try:
            yield span
        except BaseException:
            self.finish_span(span, status="error")
            raise
        else:
            self.finish_span(span)

    def event(
        self,
        name: str,
        trace_id: Optional[str] = None,
        *,
        parent_id: Optional[str] = None,
        status: str = "ok",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Record a zero-duration span (a point event such as a violation)."""

        span = self.start_span(name, trace_id, parent_id=parent_id, attrs=attrs)
        return self.finish_span(span, status=status)

    # -- clock plumbing ----------------------------------------------------

    def observe_remote(self, remote: Optional[int]) -> int:
        """Merge a remote Lamport value from an incoming/returning message."""

        return self.clock.observe(remote)

    # -- export ------------------------------------------------------------

    def _export(self, span: Span) -> None:
        if self.trace_dir is None:
            return
        try:
            with self._lock:
                if self._file is None:
                    directory = Path(self.trace_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    path = directory / f"trace-{self.service}-{os.getpid()}.jsonl"
                    self._export_path = str(path)
                    self._file = open(path, "a", buffering=1, encoding="utf-8")
                self._file.write(json.dumps(span.to_dict()) + "\n")
        except OSError:
            with self._lock:
                self._export_errors += 1

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.flush()
                except OSError:
                    self._export_errors += 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None

    # -- introspection -----------------------------------------------------

    def find(self, trace_id: str) -> List[Dict[str, Any]]:
        """Return buffered spans of one trace, in causal (Lamport) order."""

        with self._lock:
            spans = [span.to_dict() for span in self._ring if span.trace_id == trace_id]
        return causal_sort(spans)

    def recent_traces(self, limit: int = 20) -> List[Dict[str, Any]]:
        """Summarize the most recent distinct traces in the ring."""

        with self._lock:
            spans = [span for span in self._ring]
        traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        for span in spans:
            entry = traces.setdefault(
                span.trace_id,
                {"trace_id": span.trace_id, "spans": 0, "status": "ok", "root": None},
            )
            entry["spans"] += 1
            if span.status not in ("ok", "unset"):
                entry["status"] = span.status
            if span.parent_id is None:
                entry["root"] = span.name
        ordered = list(traces.values())[-max(1, int(limit)) :]
        ordered.reverse()
        return ordered

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "service": self.service,
                "lamport": self.clock.value,
                "spans_started": self._started,
                "spans_finished": self._finished,
                "buffered": len(self._ring),
                "ring_size": self._ring.maxlen,
                "ring_evictions": self._evicted,
                "export_path": self._export_path,
                "export_errors": self._export_errors,
            }


# --------------------------------------------------------------------------
# Offline analysis over exported JSONL (used by ``repro-pecan trace`` and
# the causal-order invariant).


def read_trace_dir(trace_dir: str) -> List[Dict[str, Any]]:
    """Load every span from all ``*.jsonl`` files under ``trace_dir``.

    A torn final line (a worker killed mid-write) is skipped; a malformed
    line elsewhere raises, because it means the exporter is broken.
    """

    spans: List[Dict[str, Any]] = []
    directory = Path(trace_dir)
    if not directory.is_dir():
        return spans
    for path in sorted(directory.glob("*.jsonl")):
        lines = path.read_text(encoding="utf-8").split("\n")
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError:
                if index >= len(lines) - 2:
                    continue  # torn tail write from a crashed process
                raise
    return spans


def group_by_trace(spans: Sequence[Mapping[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    traces: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        traces.setdefault(str(span.get("trace_id")), []).append(dict(span))
    return {trace_id: causal_sort(members) for trace_id, members in traces.items()}


def _lamport_start(span: Mapping[str, Any]) -> int:
    lamport = span.get("lamport") or {}
    try:
        return int(lamport.get("start") or 0)
    except (TypeError, ValueError):
        return 0


def causal_sort(spans: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Order spans so parents precede children.

    Sorts by ``(depth in the parent tree, lamport.start, service)`` —
    Lamport ticks alone are only a partial order across processes, but a
    child's tick is always greater than its parent's, so this ordering is
    consistent with causality.
    """

    by_id = {str(span.get("span_id")): span for span in spans}

    def depth(span: Mapping[str, Any]) -> int:
        steps = 0
        current: Optional[Mapping[str, Any]] = span
        while current is not None and steps < len(by_id) + 1:
            parent = current.get("parent_id")
            current = by_id.get(str(parent)) if parent else None
            steps += 1
        return steps

    return [
        dict(span)
        for span in sorted(
            spans,
            key=lambda s: (depth(s), _lamport_start(s), str(s.get("service"))),
        )
    ]


def summarize_spans(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per span-name duration percentiles — the per-stage breakdown."""

    by_name: Dict[str, List[float]] = {}
    for span in spans:
        duration = span.get("duration_ms")
        if duration is None:
            continue
        by_name.setdefault(str(span.get("name")), []).append(float(duration))
    summary: Dict[str, Dict[str, Any]] = {}
    for name, durations in sorted(by_name.items()):
        summary[name] = {
            "count": len(durations),
            "p50_ms": round(percentile(durations, 0.50), 3),
            "p95_ms": round(percentile(durations, 0.95), 3),
            "p99_ms": round(percentile(durations, 0.99), 3),
            "max_ms": round(max(durations), 3),
        }
    return summary


def slowest_traces(
    spans: Sequence[Mapping[str, Any]], limit: int = 5
) -> List[Dict[str, Any]]:
    """Rank traces by root-span duration (falling back to max span)."""

    ranked: List[Dict[str, Any]] = []
    for trace_id, members in group_by_trace(spans).items():
        roots = [s for s in members if not s.get("parent_id")]
        anchor = roots[0] if roots else max(members, key=lambda s: s.get("duration_ms") or 0.0)
        duration = anchor.get("duration_ms") or 0.0
        statuses = {str(s.get("status")) for s in members}
        ranked.append(
            {
                "trace_id": trace_id,
                "duration_ms": round(float(duration), 3),
                "root": anchor.get("name"),
                "spans": len(members),
                "status": "ok" if statuses <= {"ok", "unset"} else ",".join(
                    sorted(statuses - {"ok", "unset"})
                ),
            }
        )
    ranked.sort(key=lambda entry: entry["duration_ms"], reverse=True)
    return ranked[: max(1, int(limit))]
