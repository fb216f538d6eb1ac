"""First-class serving observability: latency percentiles, batching, energy.

:class:`ServerMetrics` is a thread-safe accumulator every serving component
reports into — the HTTP front end (request counts, rejections) and the
dynamic batcher (batch-size histogram, queue wait, inference time).
``snapshot()`` renders one JSON-ready dict for the ``/metrics`` endpoint;
per-layer CAM search statistics and energy come from the engine's own
counters and are merged in by the server.

Latency percentiles use a bounded sliding window (the last ``window``
observations) rather than unbounded history, so a long-lived server reports
current behaviour and memory stays constant.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by linear interpolation."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class Window:
    """Bounded sliding window of float observations (seconds in, ms out).

    Shared by :class:`ServerMetrics` and the lifecycle
    :class:`~repro.serve.lifecycle.RolloutGate`, so active-vs-canary latency
    comparisons render exactly the same percentile fields as ``/metrics``.
    """

    def __init__(self, size: int):
        self._values: deque = deque(maxlen=size)
        self._lock = threading.Lock()

    def add(self, value: float) -> None:
        with self._lock:
            self._values.append(value)

    def snapshot_ms(self) -> Dict[str, float]:
        with self._lock:
            values = list(self._values)
        return {
            "count": len(values),
            "p50_ms": percentile(values, 0.50) * 1e3,
            "p95_ms": percentile(values, 0.95) * 1e3,
            "p99_ms": percentile(values, 0.99) * 1e3,
            "max_ms": (max(values) if values else 0.0) * 1e3,
        }


#: Metric keys that do not sum meaningfully across workers.  Percentiles,
#: maxima and configuration values take the cross-worker maximum (a "worst
#: worker" view); everything else numeric sums (counts, totals, rates — a
#: pool's requests/s *is* the sum of its workers').
_NON_ADDITIVE_KEYS = frozenset({
    "p50_ms", "p95_ms", "p99_ms", "max_ms", "max_batch", "uptime_s",
    "mean_batch", "max_batch_size", "queue_depth",
    "stored_values", "hz", "every", "total_values", "max_total_values",
    # Lifecycle payloads: versions, refcounts and gate configuration are
    # per-worker state, not additive traffic counters.
    "version", "active_version", "candidate_version", "refs",
    "fraction", "min_samples", "max_parity_violations", "max_latency_ratio",
    "latency_ratio",
    # QoS gauges and configuration: brownout detector state, fair-queue
    # occupancy and token-bucket levels are per-process instantaneous values
    # — summing them across workers would fabricate load.  (Per-class and
    # per-tenant latency *windows* aggregate correctly already: their leaves
    # are the percentile keys above.  Shed/timeout/rejection counters stay
    # additive on purpose — a pool's sheds are the sum of its workers'.)
    "load", "queue_ewma", "p99_ewma_ms", "queue_high", "p99_slo_ms",
    "state_age_s", "slots", "active", "waiting", "tokens", "rate_per_s",
    "burst", "default_rate_per_s", "batch_class_samples",
    # Tracing / runtime verification: Lamport clocks, ring occupancy and
    # sampling configuration are per-process gauges, not traffic counters.
    # (Span counts and violation counts stay additive — a pool's violations
    # are the sum of its workers'.  The per-stage latency windows introduced
    # with the trace plane reuse the percentile keys above.)
    "lamport", "ring_size", "buffered", "ring_evictions",
    # Response cache: byte budgets, occupancy, epoch and fan-in are
    # per-process gauges/config.  (hits/misses/evictions/coalesce counters
    # stay additive — a fleet's lookups are the sum of its caches'.)
    "max_bytes", "bytes", "entries", "epoch", "hit_rate", "max_fan_in",
    "inflight",
})


def aggregate_counter_trees(trees: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """Merge per-worker metric payloads into one cross-worker aggregate.

    Walks the (identically-shaped) JSON trees the workers' ``/metrics``
    endpoints return: numeric leaves sum, except the keys in
    :data:`_NON_ADDITIVE_KEYS` which take the maximum; nested dicts recurse;
    anything non-numeric (names, flags, lists) keeps the first worker's
    value.  Missing keys are tolerated — a worker that has not served a model
    yet simply contributes nothing to that subtree.
    """
    merged: Dict[str, object] = {}
    seen: List[str] = []
    for tree in trees:
        for key in tree:
            if key not in seen:
                seen.append(key)
    for key in seen:
        values = [tree[key] for tree in trees if key in tree and tree[key] is not None]
        if not values:
            merged[key] = None
        elif all(isinstance(value, Mapping) for value in values):
            merged[key] = aggregate_counter_trees(values)
        elif all(isinstance(value, (int, float)) and not isinstance(value, bool)
                 for value in values):
            merged[key] = max(values) if key in _NON_ADDITIVE_KEYS else sum(values)
        else:
            merged[key] = values[0]
    return merged


#: Cap on distinct per-tenant latency windows; beyond it new tenants share
#: one overflow bucket so tenant-id cardinality cannot grow server memory.
_MAX_TENANT_WINDOWS = 32
_OVERFLOW_TENANT = "__other__"


class ServerMetrics:
    """Aggregated counters for one serving process."""

    def __init__(self, window: int = 4096):
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._window_size = window
        # Request lifecycle.
        self.requests_total = 0
        self.samples_total = 0
        self.responses_total = 0
        self.rejected_total = 0          # admission control (queue full)
        self.timeouts_total = 0
        self.errors_total = 0
        # Batching.
        self.batches_total = 0
        self.batched_samples = 0
        self.batch_size_histogram: Dict[int, int] = {}
        # Latency windows (seconds; rendered as ms).
        self._request_latency = Window(window)
        self._queue_wait = Window(window)
        self._infer_latency = Window(window)
        # The engine thread's CPU time over the same calls: wall minus CPU
        # is time it was runnable but waited (for the GIL or for a core).
        self._infer_cpu = Window(window)
        # QoS: per-class / per-tenant latency windows (lazily created — a
        # deployment that never sends QoS fields pays nothing) and shed
        # accounting: priority class -> reason -> count.
        self._class_latency: Dict[str, Window] = {}
        self._tenant_latency: Dict[str, Window] = {}
        # Per-stage component windows (derived from span timings): priority
        # class -> stage name -> Window.  Lazily created like the class
        # windows — a deployment without tracing pays nothing.
        self._stage_latency: Dict[str, Dict[str, Window]] = {}
        self.rejected_by_class: Dict[str, int] = {}
        self.timeouts_by_class: Dict[str, int] = {}
        self.shed_by_class: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------ #
    def record_submitted(self, samples: int) -> None:
        with self._lock:
            self.requests_total += 1
            self.samples_total += samples

    def record_rejected(self, priority: Optional[str] = None) -> None:
        with self._lock:
            self.requests_total += 1
            self.rejected_total += 1
            if priority is not None:
                self.rejected_by_class[priority] = \
                    self.rejected_by_class.get(priority, 0) + 1

    def record_timeout(self, priority: Optional[str] = None) -> None:
        with self._lock:
            self.timeouts_total += 1
            if priority is not None:
                self.timeouts_by_class[priority] = \
                    self.timeouts_by_class.get(priority, 0) + 1

    def record_shed(self, priority: str, reason: str) -> None:
        """A request refused by the QoS plane (brownout / rate limit / queue)."""
        with self._lock:
            by_reason = self.shed_by_class.setdefault(priority, {})
            by_reason[reason] = by_reason.get(reason, 0) + 1

    def record_error(self) -> None:
        with self._lock:
            self.errors_total += 1

    def record_batch(self, batch_samples: int, infer_seconds: float,
                     cpu_seconds: Optional[float] = None) -> None:
        with self._lock:
            self.batches_total += 1
            self.batched_samples += batch_samples
            self.batch_size_histogram[batch_samples] = \
                self.batch_size_histogram.get(batch_samples, 0) + 1
            self._infer_latency.add(infer_seconds)
            if cpu_seconds is not None:
                self._infer_cpu.add(cpu_seconds)

    def record_completed(self, total_seconds: float, queue_seconds: float,
                         priority: Optional[str] = None,
                         tenant: Optional[str] = None) -> None:
        with self._lock:
            self.responses_total += 1
            self._request_latency.add(total_seconds)
            self._queue_wait.add(queue_seconds)
            if priority is not None:
                window = self._class_latency.get(priority)
                if window is None:
                    window = self._class_latency[priority] = \
                        Window(self._window_size)
                window.add(total_seconds)
            if tenant is not None:
                window = self._tenant_latency.get(tenant)
                if window is None and len(self._tenant_latency) >= _MAX_TENANT_WINDOWS:
                    tenant = _OVERFLOW_TENANT
                    window = self._tenant_latency.get(tenant)
                if window is None:
                    window = self._tenant_latency[tenant] = \
                        Window(self._window_size)
                window.add(total_seconds)

    def record_stages(self, priority: str, **stage_seconds: Optional[float]) -> None:
        """Record per-stage component latencies (seconds) for one request.

        Stages are the request lifecycle the spans already witness:
        ``queue`` (router fair-queue wait), ``batch_wait`` (batcher queue),
        ``infer`` (engine time inside the batch) and ``respond`` (everything
        else end-to-end).  ``None`` stages are skipped so callers can report
        whichever components they observed.
        """
        with self._lock:
            stages = self._stage_latency.get(priority)
            if stages is None:
                stages = self._stage_latency[priority] = {}
            for stage, seconds in stage_seconds.items():
                if seconds is None:
                    continue
                window = stages.get(stage)
                if window is None:
                    window = stages[stage] = Window(self._window_size)
                window.add(max(0.0, float(seconds)))

    # ------------------------------------------------------------------ #
    def max_batch_observed(self) -> int:
        with self._lock:
            return max(self.batch_size_histogram, default=0)

    def recent_p99_ms(self) -> Optional[float]:
        """p99 request latency over the sliding window (the brownout
        controller's latency signal); ``None`` until anything completed."""
        with self._lock:
            window = self._request_latency
        stats = window.snapshot_ms()
        return stats["p99_ms"] if stats["count"] else None

    def snapshot(self, queue_depth: Optional[int] = None) -> Dict[str, object]:
        """One JSON-ready view of every counter (the ``/metrics`` payload)."""
        with self._lock:
            uptime = max(time.monotonic() - self._started, 1e-9)
            return {
                "uptime_s": uptime,
                "requests": {
                    "total": self.requests_total,
                    "responses": self.responses_total,
                    "rejected": self.rejected_total,
                    "timeouts": self.timeouts_total,
                    "errors": self.errors_total,
                    "samples": self.samples_total,
                },
                "throughput": {
                    "requests_per_s": self.responses_total / uptime,
                    "samples_per_s": self.samples_total / uptime,
                },
                "latency": self._request_latency.snapshot_ms(),
                "queue_wait": self._queue_wait.snapshot_ms(),
                "inference": self._infer_latency.snapshot_ms(),
                "inference_cpu": self._infer_cpu.snapshot_ms(),
                "batching": {
                    "batches": self.batches_total,
                    "histogram": {str(size): count for size, count
                                  in sorted(self.batch_size_histogram.items())},
                    "max_batch": max(self.batch_size_histogram, default=0),
                    "mean_batch": (self.batched_samples / self.batches_total
                                   if self.batches_total else 0.0),
                },
                "queue_depth": queue_depth,
                "qos": {
                    "latency_by_class": {
                        cls: window.snapshot_ms()
                        for cls, window in sorted(self._class_latency.items())},
                    "latency_by_tenant": {
                        tenant: window.snapshot_ms()
                        for tenant, window in sorted(self._tenant_latency.items())},
                    "stages_by_class": {
                        cls: {stage: window.snapshot_ms()
                              for stage, window in sorted(stages.items())}
                        for cls, stages in sorted(self._stage_latency.items())},
                    "rejected_by_class": dict(self.rejected_by_class),
                    "timeouts_by_class": dict(self.timeouts_by_class),
                    "shed_by_class": {cls: dict(reasons) for cls, reasons
                                      in self.shed_by_class.items()},
                },
            }
