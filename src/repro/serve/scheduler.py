"""Dynamic micro-batching scheduler with admission control and QoS.

Production CAM inference is throughput-bound: the fused kernels amortize their
fixed costs (im2col set-up, GEMM dispatch, LUT gathers) across the batch, so
serving one request per forward wastes most of the hardware.  The
:class:`DynamicBatcher` sits between the HTTP front end and a
:class:`~repro.serve.engine.BundleEngine`:

* requests enqueue into **bounded per-priority-class queues** — when the total
  (or the batch-class share of it) is full the submit raises
  :class:`QueueFullError` immediately (backpressure, not unbounded
  buffering), which the server maps to HTTP 429;
* a worker thread coalesces waiting requests into one batch of up to
  ``max_batch_size`` samples and dispatches it the moment nothing queued can
  join (work-conserving: the engine never idles while a request waits);
* coalescing is **priority-ordered** (``interactive`` > ``standard`` >
  ``batch``) and bulk work is budgeted: at most ``batch_class_samples`` of
  each dispatched batch may be ``batch``-class samples, so an interactive
  arrival is never stuck behind a full batch of bulk scoring work;
* the batch runs through ``predict(batch, batch_chunk=)`` once and the result
  rows are scattered back to each request's future;
* requests that sat in the queue past their deadline — or that are **doomed**
  (the deadline will pass before the batch's predicted inference time
  elapses) — are failed with :class:`RequestTimeout` instead of being
  dispatched, carrying queue-time diagnostics (shed load early, before it
  wastes engine time).

The design follows the router/engine split of vLLM's production stack scaled
to this repo: scheduling policy lives here, numerical work stays in the
engine, and every decision is observable through
:class:`~repro.serve.metrics.ServerMetrics`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional

import numpy as np

from repro.serve.metrics import ServerMetrics
from repro.serve.trace import Tracer, use_context

#: Priority classes, most to least important; index = dispatch rank.
#: Canonical definition — :mod:`repro.serve.qos` re-exports it.
PRIORITY_CLASSES = ("interactive", "standard", "batch")

#: The class assigned when a request does not say (the pre-QoS behaviour).
DEFAULT_PRIORITY = "standard"

#: The tenant id assigned when a request does not say.
DEFAULT_TENANT = "default"

_BATCH_RANK = PRIORITY_CLASSES.index("batch")


def priority_rank(priority: str) -> int:
    """Numeric rank of ``priority`` (0 = most important); raises on unknown."""
    try:
        return PRIORITY_CLASSES.index(priority)
    except ValueError:
        raise ValueError(f"unknown priority class {priority!r}; "
                         f"expected one of {PRIORITY_CLASSES}") from None


class SchedulerError(RuntimeError):
    """Base class for scheduling failures."""


class QueueFullError(SchedulerError):
    """The bounded request queue is at capacity (admission control)."""


class RequestTimeout(SchedulerError):
    """The request exceeded its deadline before completing.

    When the deadline expired while the request was still *queued* (shed
    before any engine work), ``queue_ms``/``stage`` carry the diagnostics the
    front ends surface on the 408 — how long it waited and in which queue.
    """

    def __init__(self, message: str = "request timed out", *,
                 queue_ms: Optional[float] = None,
                 stage: Optional[str] = None):
        super().__init__(message)
        self.queue_ms = queue_ms
        self.stage = stage

    @property
    def details(self) -> dict:
        details: dict = {}
        if self.queue_ms is not None:
            details["queue_ms"] = round(self.queue_ms, 3)
        if self.stage is not None:
            details["stage"] = self.stage
        return details


class SchedulerStopped(SchedulerError):
    """The scheduler is shut down and no longer accepts work."""


class InferenceRequest:
    """A submitted batch-of-samples and its completion future."""

    __slots__ = ("inputs", "num_samples", "submitted_at", "deadline",
                 "priority", "tenant", "rank",
                 "_done", "_result", "_error", "queue_seconds",
                 "trace_id", "parent_span", "queue_span", "infer_seconds")

    def __init__(self, inputs: np.ndarray, timeout_s: Optional[float],
                 priority: str = DEFAULT_PRIORITY,
                 tenant: str = DEFAULT_TENANT,
                 deadline: Optional[float] = None,
                 trace_id: Optional[str] = None,
                 parent_span: Optional[str] = None):
        self.inputs = inputs
        self.num_samples = int(inputs.shape[0])
        self.submitted_at = time.monotonic()
        #: Absolute deadline (monotonic seconds).  An explicit ``deadline``
        #: (propagated from an upstream front end) wins over the relative
        #: ``timeout_s`` so the request honours the budget it was admitted
        #: with, not a fresh one.
        if deadline is not None:
            self.deadline = float(deadline)
        else:
            self.deadline = (self.submitted_at + timeout_s) if timeout_s else None
        self.priority = priority
        self.tenant = tenant
        self.rank = priority_rank(priority)
        self._done = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.queue_seconds = 0.0
        #: Trace propagation: the id this request rides under, the span that
        #: submitted it (the parent of the batcher's spans), the open
        #: ``batch.queue`` span, and the measured per-batch inference time.
        self.trace_id = trace_id
        self.parent_span = parent_span
        self.queue_span = None
        self.infer_seconds = 0.0

    # -- worker side ---------------------------------------------------- #
    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def set_result(self, result: np.ndarray) -> None:
        self._result = result
        self._done.set()

    def set_error(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    # -- caller side ---------------------------------------------------- #
    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the batch containing this request completes."""
        if not self._done.wait(timeout):
            raise RequestTimeout("timed out waiting for inference result")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def done(self) -> bool:
        return self._done.is_set()


class DynamicBatcher:
    """Coalesce single-sample requests into micro-batches for one engine.

    Parameters
    ----------
    predict_fn:
        ``(batch: np.ndarray) -> np.ndarray`` — typically
        ``lambda x: engine.predict(x, batch_chunk=...)``.
    max_batch_size:
        Sample budget per dispatched batch.  A single request larger than the
        budget still dispatches (alone) — the engine chunks internally.
    max_queue_depth:
        Bound on queued (not yet dispatched) requests across all classes;
        beyond it ``submit`` raises :class:`QueueFullError`.  ``batch``-class
        requests are additionally capped at half the depth so a bulk backlog
        cannot exhaust the queue interactive traffic needs.
    request_timeout_s:
        Default per-request deadline; expired requests are failed, not run.
    batch_class_samples:
        Bulk-class sample budget per dispatched micro-batch (default
        ``max(1, max_batch_size // 4)``); the knob that keeps an interactive
        arrival from waiting behind a full batch of bulk scoring work.
    on_batch:
        Optional hook ``(inputs, outputs) -> None`` called after each batch
        (the server's sampled parity audit taps in here).
    """

    def __init__(self, predict_fn: Callable[[np.ndarray], np.ndarray],
                 max_batch_size: int = 32, max_queue_depth: int = 256,
                 request_timeout_s: Optional[float] = 30.0,
                 metrics: Optional[ServerMetrics] = None,
                 on_batch: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
                 batch_class_samples: Optional[int] = None,
                 tracer: Optional[Tracer] = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.predict_fn = predict_fn
        self.max_batch_size = int(max_batch_size)
        self.max_queue_depth = int(max_queue_depth)
        self.batch_queue_cap = max(1, self.max_queue_depth // 2)
        self.batch_class_samples = (
            int(batch_class_samples) if batch_class_samples is not None
            else max(1, self.max_batch_size // 4))
        self.request_timeout_s = request_timeout_s
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.on_batch = on_batch
        self.tracer = tracer
        self._cond = threading.Condition()
        #: Per-priority-class FIFO queues; dispatch pops rank 0 first.
        self._queues: List[Deque[InferenceRequest]] = \
            [deque() for _ in PRIORITY_CLASSES]
        self._depth = 0
        #: EWMA of per-batch inference seconds — the doomed-request detector's
        #: estimate of how long a dispatch will take.
        self._infer_ewma = 0.0
        #: A popped request that would have overflowed its batch's sample
        #: budget; it seeds the next batch instead (worker-thread only).
        self._carry: Optional[InferenceRequest] = None
        self._running = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    def start(self) -> "DynamicBatcher":
        if self._thread is None or not self._thread.is_alive():
            self._running = True
            self._stopped = False
            self._thread = threading.Thread(target=self._worker,
                                            name="repro-serve-batcher", daemon=True)
            self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop the worker; with ``drain`` the queue is emptied first."""
        if self._thread is not None:
            if drain:
                deadline = time.monotonic() + timeout
                while self.queue_depth > 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
            self._running = False
            with self._cond:
                self._cond.notify_all()
            self._thread.join(timeout)
            self._thread = None
        self._running = False
        self._stopped = True
        # Fail anything still queued (or carried) so no caller blocks forever.
        if self._carry is not None:
            self._carry.set_error(SchedulerStopped("scheduler stopped"))
            self._carry = None
        with self._cond:
            pending = [request for q in self._queues for request in q]
            for q in self._queues:
                q.clear()
            self._depth = 0
        for request in pending:
            request.set_error(SchedulerStopped("scheduler stopped"))

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return self._depth

    # ------------------------------------------------------------------ #
    def submit(self, inputs: np.ndarray,
               timeout_s: Optional[float] = None,
               priority: str = DEFAULT_PRIORITY,
               tenant: str = DEFAULT_TENANT,
               deadline: Optional[float] = None,
               trace_id: Optional[str] = None,
               parent_span: Optional[str] = None) -> InferenceRequest:
        """Enqueue a request; returns its future.  Never blocks on a full queue.

        Submitting before :meth:`start` is allowed — requests queue up and the
        worker drains them once started (tests use this to force coalescing
        deterministically); submitting after :meth:`stop` raises.
        """
        if self._stopped:
            raise SchedulerStopped("scheduler is stopped")
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[0] == 0:
            raise ValueError("empty batch submitted")
        request = InferenceRequest(
            inputs, timeout_s if timeout_s is not None else self.request_timeout_s,
            priority=priority, tenant=tenant, deadline=deadline,
            trace_id=trace_id, parent_span=parent_span)
        if self.tracer is not None and request.trace_id:
            # Opened before enqueue, closed by ``_dispatch`` — its duration is
            # exactly the time the request spent queued in this batcher.
            request.queue_span = self.tracer.start_span(
                "batch.queue", request.trace_id, parent_id=request.parent_span,
                attrs={"priority": priority, "samples": request.num_samples})
        try:
            with self._cond:
                if self._depth >= self.max_queue_depth:
                    self.metrics.record_rejected(priority=priority)
                    raise QueueFullError(
                        f"request queue is full ({self.max_queue_depth} pending); "
                        f"retry later")
                if (request.rank == _BATCH_RANK
                        and len(self._queues[_BATCH_RANK]) >= self.batch_queue_cap):
                    self.metrics.record_rejected(priority=priority)
                    raise QueueFullError(
                        f"batch-class queue is full ({self.batch_queue_cap} "
                        f"pending); bulk work must yield — retry later")
                self._queues[request.rank].append(request)
                self._depth += 1
                self._cond.notify()
        except QueueFullError:
            if self.tracer is not None:
                self.tracer.finish_span(request.queue_span, status="rejected",
                                        reason="queue-full")
            raise
        self.metrics.record_submitted(request.num_samples)
        return request

    def predict(self, inputs: np.ndarray, timeout_s: Optional[float] = None,
                priority: str = DEFAULT_PRIORITY,
                tenant: str = DEFAULT_TENANT,
                deadline: Optional[float] = None) -> np.ndarray:
        """Convenience synchronous path: submit and wait."""
        request = self.submit(inputs, timeout_s=timeout_s, priority=priority,
                              tenant=tenant, deadline=deadline)
        wait = None
        if request.deadline is not None:
            wait = max(request.deadline - time.monotonic(), 0.0) + 1.0
        return request.result(timeout=wait)

    # ------------------------------------------------------------------ #
    def _pop_locked(self, bulk_samples: int = -1) -> Optional[InferenceRequest]:
        """Pop the highest-priority queued request (condition held).

        With ``bulk_samples >= 0`` the ``batch`` class is skipped once the
        current batch has spent its bulk sample budget — over-budget bulk
        work stays queued and seeds a later batch.
        """
        for rank, q in enumerate(self._queues):
            if not q:
                continue
            if (rank == _BATCH_RANK and bulk_samples >= 0
                    and bulk_samples >= self.batch_class_samples):
                continue
            self._depth -= 1
            return q.popleft()
        return None

    def _collect_batch(self) -> List[InferenceRequest]:
        """Block for the first request, then drain what is already queued.

        Work-conserving continuous batching: nothing is held open for
        followers.  Everything already queued joins the batch — highest
        priority class first, at most ``batch_class_samples`` bulk samples —
        and the batch dispatches as soon as nothing queued can join, so a
        lone request goes straight to the engine.  Batches still fill under
        load: requests that arrive during one batch's inference are all
        drained into the next.  A follower that would overshoot the sample
        budget seeds the next batch (the carry).
        """
        with self._cond:
            first, self._carry = self._carry, None
            if first is None:
                if self._depth == 0:
                    self._cond.wait(timeout=0.05)
                first = self._pop_locked()
                if first is None:
                    return []
            batch = [first]
            samples = first.num_samples
            bulk = first.num_samples if first.rank == _BATCH_RANK else 0
            while samples < self.max_batch_size:
                request = self._pop_locked(bulk)
                if request is None:
                    break
                if samples + request.num_samples > self.max_batch_size:
                    # Never overshoot the sample budget: the oversized
                    # follower seeds the next batch.  (A single request above
                    # the budget still dispatches — alone, as the first of
                    # its batch.)
                    self._carry = request
                    break
                batch.append(request)
                samples += request.num_samples
                if request.rank == _BATCH_RANK:
                    bulk += request.num_samples
        return batch

    def _dispatch(self, batch: List[InferenceRequest]) -> None:
        now = time.monotonic()
        live: List[InferenceRequest] = []
        for request in batch:
            queue_ms = (now - request.submitted_at) * 1e3
            if request.expired(now):
                self.metrics.record_timeout(priority=request.priority)
                if self.tracer is not None:
                    self.tracer.finish_span(request.queue_span, status="timeout",
                                            stage="batch-queue", queue_ms=queue_ms)
                request.set_error(RequestTimeout(
                    f"request expired after {queue_ms:.1f} ms in queue, "
                    f"before dispatch",
                    queue_ms=queue_ms, stage="batch-queue"))
            elif (request.deadline is not None and self._infer_ewma > 0.0
                    and now + self._infer_ewma > request.deadline):
                # Doomed: the deadline will pass before the batch's predicted
                # inference time elapses — shed now, before engine work.
                self.metrics.record_timeout(priority=request.priority)
                if self.tracer is not None:
                    self.tracer.finish_span(request.queue_span, status="timeout",
                                            stage="doomed", queue_ms=queue_ms)
                request.set_error(RequestTimeout(
                    f"request shed as doomed after {queue_ms:.1f} ms in queue: "
                    f"{(request.deadline - now) * 1e3:.1f} ms of budget left "
                    f"vs ~{self._infer_ewma * 1e3:.1f} ms predicted inference",
                    queue_ms=queue_ms, stage="doomed"))
            else:
                request.queue_seconds = now - request.submitted_at
                if self.tracer is not None:
                    self.tracer.finish_span(request.queue_span,
                                            queue_ms=queue_ms)
                live.append(request)
        if not live:
            return
        started = time.monotonic()
        wall_started = time.time()
        cpu_started = time.thread_time()
        try:
            # Concatenation stays inside the guard: a shape-mismatched request
            # that slipped past admission must fail its batch, not kill the
            # worker thread.
            inputs = (live[0].inputs if len(live) == 1
                      else np.concatenate([request.inputs for request in live], axis=0))
            traced = (next((r for r in live if r.trace_id), None)
                      if self.tracer is not None else None)
            if traced is not None:
                # Publish the trace context for the duration of the engine
                # call so ``BundleEngine.predict`` can attach its own span.
                with use_context(traced.trace_id, traced.parent_span or ""):
                    outputs = self.predict_fn(inputs)
            else:
                outputs = self.predict_fn(inputs)
        except Exception as exc:                      # noqa: BLE001 - forwarded
            self.metrics.record_error()
            for request in live:
                request.set_error(exc)
            return
        # This thread's CPU time over the same interval: wall minus CPU is
        # time the engine could have run but waited for the GIL or a core.
        cpu_seconds = time.thread_time() - cpu_started
        infer_seconds = time.monotonic() - started
        self._infer_ewma += 0.3 * (infer_seconds - self._infer_ewma)
        self.metrics.record_batch(int(inputs.shape[0]), infer_seconds,
                                  cpu_seconds)
        offset = 0
        finished = time.monotonic()
        for request in live:
            request.infer_seconds = infer_seconds
            if self.tracer is not None and request.trace_id:
                # Recorded post-hoc so span bookkeeping stays off the timed
                # inference path (infer_seconds is already measured), but
                # BEFORE set_result releases the waiting client — otherwise
                # an immediate /trace fetch can race the span's append.  The
                # wall start is back-dated to the batch's.
                span = self.tracer.start_span(
                    "batch.infer", request.trace_id,
                    parent_id=request.parent_span,
                    attrs={"batch_samples": int(inputs.shape[0]),
                           "batch_requests": len(live),
                           "samples": request.num_samples,
                           "cpu_ms": cpu_seconds * 1e3})
                if span is not None:
                    span.start_time = wall_started
                self.tracer.finish_span(span)
            request.set_result(outputs[offset:offset + request.num_samples])
            offset += request.num_samples
            self.metrics.record_completed(finished - request.submitted_at,
                                          request.queue_seconds,
                                          priority=request.priority,
                                          tenant=request.tenant)
        if self.on_batch is not None:
            try:
                self.on_batch(inputs, outputs)
            except Exception:                         # noqa: BLE001 - audit is best-effort
                self.metrics.record_error()

    def _worker(self) -> None:
        while self._running:
            try:
                batch = self._collect_batch()
                if batch:
                    self._dispatch(batch)
            except Exception:                         # noqa: BLE001 - keep serving
                # _dispatch guards per-batch failures; this is a last-resort
                # backstop so no bug can permanently kill the worker thread.
                self.metrics.record_error()
